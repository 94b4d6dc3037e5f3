"""One cell path per sweep direction.

The grid keeps the cells of a rightward and of a leftward sweep over all of
[0, pi], each step with its side's rho.  A psi(0) sweep of a piecewise
potential is then one build of its few cell matrices, a new config's grid
samples p and q once each, a psi(0)-only solve builds the rows of the cell
ends and never those of every node, and a block of matrices sums the
small-|w| series only where one of its entries needs it, without changing
the bits of the others.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbvp import charfn, eigensolver, integrator, inverse, weyl
from diracbvp.errors import ConfigError
from diracbvp.model import PI, PotentialSpec, ProblemConfig, Weight

from conftest import reference_config

THREE = PotentialSpec.piecewise((0.3, -0.45, 0.2), (-0.1, 0.35, -0.25))


def test_a_piecewise_psi0_sweep_is_one_matrix_build(monkeypatch):
    config = reference_config(2.0, 256, THREE)
    lams = np.linspace(-12.0, 12.0, 7) + 0.5j
    expected = integrator.psi0_many(config, lams)
    calls = []

    def spy(*args):
        calls.append(args[0].shape[1])
        return build(*args)

    build = integrator._step_matrices
    monkeypatch.setattr(integrator, "_step_matrices", spy)
    assert np.array_equal(integrator.psi0_many(config, lams), expected)
    # the 4 cells: two on each side of the jump
    assert calls == [4]


@pytest.mark.parametrize("potential", [
    THREE,
    PotentialSpec.cosine((0.2, -0.3, 0.1), (0.4, 0.15)),
    PotentialSpec.from_callables(lambda x: 0.3 * np.sin(x), lambda x: np.cos(2.0 * x)),
], ids=["piecewise", "cosine", "callable"])
def test_a_new_grid_samples_p_and_q_once_per_grid(monkeypatch, potential):
    calls = []

    def spy(name):
        sample = getattr(PotentialSpec, name)

        def at(self, x):
            calls.append((name, np.ndim(x)))
            return sample(self, x)
        return at

    for name in ("p_at", "q_at"):
        monkeypatch.setattr(PotentialSpec, name, spy(name))
    # the build a new config gets, past the grid cache
    integrator.build_grid.__wrapped__(reference_config(2.0, 256, potential))
    assert sorted(calls) == [("p_at", 1), ("q_at", 1)]


def test_a_psi0_only_solve_builds_no_per_node_rows(monkeypatch):
    widths = []

    def spy(h, *samples):
        widths.append(np.shape(h)[-1])
        return build(h, *samples)

    build = integrator._omega_rows
    monkeypatch.setattr(integrator, "_omega_rows", spy)
    # grid points no other test uses, so the grid is new
    config = reference_config(2.0, 250, THREE)
    data = eigensolver.find_eigenvalues(config, -4, 4)
    grid = integrator.build_grid(config)
    # one build of the leftward path's cell ends, and nothing else
    assert widths == [4]
    for path in (grid.forward, grid.backward):
        assert "inner" not in path.__dict__

    problem = inverse.InverseProblem(
        target=data, basis=inverse.PotentialBasis("cosine", 2),
        boundary=config.boundary, weight=config.weight, grid_points=250)
    params = [0.3, -0.1, 0.2, 0.05]
    widths.clear()
    inverse.residuals(problem, params)
    candidate = integrator.build_grid(problem.make_config(params))
    # on a cosine every step is a cell
    assert widths == [len(candidate.xs) - 1]
    for path in (candidate.forward, candidate.backward):
        assert "inner" not in path.__dict__

    # a trajectory on the cached grid keeps the bits of one on a new grid
    lams = np.array([0.7, -3.1 + 0.4j])
    for cfg in (config, problem.make_config(params)):
        cached = [f(cfg, lams)[1] for f in (integrator.phi_many, integrator.psi_many)]
        monkeypatch.setattr(integrator, "build_grid", integrator.build_grid.__wrapped__)
        fresh = [f(cfg, lams)[1] for f in (integrator.phi_many, integrator.psi_many)]
        monkeypatch.undo()
        for a, b in zip(cached, fresh):
            assert a.tobytes() == b.tobytes()


zero_or_value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
segments = st.lists(zero_or_value, min_size=1, max_size=5)
potentials = st.one_of(
    st.builds(PotentialSpec.piecewise, segments, segments),
    st.builds(PotentialSpec.cosine, segments, segments),
    st.just(PotentialSpec.from_callables(lambda x: 0.3 * np.sin(x),
                                         lambda x: np.where(x < 2.0, -0.0, 0.5))))


@settings(max_examples=60, deadline=None)
@given(potential=potentials, a=st.floats(0.2, PI - 0.2), alpha=st.floats(0.5, 4.0),
       grid=st.integers(16, 300))
def test_cell_end_rows_are_the_per_node_rows_at_each_cell_end(potential, a, alpha, grid):
    config = ProblemConfig(reference_config().boundary, Weight(alpha=alpha, a=a),
                           potential, grid)
    built = integrator.build_grid.__wrapped__(config)
    xs, n = built.xs, len(built.xs) - 1
    h = np.diff(xs)
    xa, xb = (xs[:-1] + g * h for g in integrator._GAUSS)
    pot = config.potential
    samples = (pot.p_at(xa), pot.q_at(xa), pot.p_at(xb), pot.q_at(xb))
    rho = np.where(np.arange(n) < built.ia, 1.0, alpha)
    for path in (built.forward, built.backward):
        # the end rows first, as a psi(0) sweep builds them; then the rows
        # of the nodes inside the cells, each over [cell start, node]
        inner = [(rows, np.arange(c0 + 1, c1), np.full(c1 - c0 - 1, c0))
                 for c0, c1, rows in path.inner]
        for rows, nodes, starts in [(path.end_omega, path.cells[1:], path.cells[:-1]), *inner]:
            # the step that reaches each node, as an index into xs
            steps = n - nodes if path.leftward else nodes - 1
            ref = integrator._omega_rows(np.abs(path.xs[nodes] - path.xs[starts]),
                                         rho[steps], *(s[steps] for s in samples))
            assert rows.tobytes() == (-ref if path.leftward else ref).tobytes()
            # a cell's start is the last cell end before its nodes
            assert np.array_equal(starts, path.cells[np.searchsorted(path.cells, nodes) - 1])
        # every node past the first is one cell end or one inner node
        nodes = np.concatenate([path.cells[1:], *(nodes for _, nodes, _ in inner)])
        assert np.array_equal(np.sort(nodes), np.arange(1, n + 1))


def test_a_cosine_psi0_sweep_and_trajectory_build_each_step_once(monkeypatch):
    widths = []

    def spy(h, *args):
        widths.append(np.shape(h)[-1])
        return build(h, *args)

    build = integrator._omega_rows
    monkeypatch.setattr(integrator, "_omega_rows", spy)
    # grid points no other test uses, so the grid is new
    config = reference_config(2.0, 254, PotentialSpec.cosine((0.2, -0.3, 0.1), (0.4, 0.15)))
    lams = np.array([0.7, -3.1 + 0.4j])
    psi0 = integrator.psi0_many(config, lams)
    _, ys, _ = integrator.psi_many(config, lams)
    assert np.array_equal(ys[:, 0], psi0)
    # every step is a cell, so the trajectory reads only the cell-end rows
    # the psi(0) sweep built
    assert sum(widths) == len(integrator.build_grid(config).xs) - 1


@pytest.mark.parametrize("potential", [
    PotentialSpec.from_callables(lambda x: np.where(x > 2.0, np.nan, 0.3),
                                 lambda x: 0.1 + 0.0 * x),
    PotentialSpec.from_callables(lambda x: 0.1 + 0.0 * x,
                                 lambda x: np.where(x > 2.0, np.inf, -0.2)),
], ids=["p-nan", "q-inf"])
@pytest.mark.parametrize("call", [
    lambda c: integrator.build_grid(c),
    lambda c: charfn.delta_many(c, [1.0]),
    lambda c: eigensolver.find_eigenvalues(c, -2, 2),
    lambda c: weyl.weyl_direct(c, 1.0 + 1.0j),
    lambda c: integrator.phi(c, 1.0),
], ids=["build_grid", "delta_many", "find_eigenvalues", "weyl_direct", "phi"])
def test_a_potential_that_is_not_finite_is_a_config_error_at_its_x(potential, call):
    config = reference_config(2.0, 256, potential)
    with pytest.raises(ConfigError, match="not finite at x = ") as info:
        call(config)
    # the first Gauss point past x = 2, less than a step of about pi / 256 on
    x = float(re.search(r"x = (\S+)$", str(info.value)).group(1))
    assert 2.0 < x < 2.0 + PI / 256


def test_series_entries_leave_the_other_columns_bits():
    config = reference_config(2.0, 128, PotentialSpec.cosine((0.2, -0.3, 0.1), (0.4, 0.15)))
    path = integrator.build_grid(config).forward
    rows = path.end_omega[:, 60:68]
    # lambda = 0 gives every step |w|^2 of order (h q)^2, below the series bound
    lams = np.array([0.0, 5.0, 3.0 + 1.0j, -7.5 - 0.3j])
    a0, a1, b0, b1, c0, c1 = rows[:, :, None]
    o11, o12, o21 = a0 + lams * a1, b0 + lams * b1, c0 + lams * c1
    small = np.abs(o11 * o11 + o12 * o21) < integrator._SERIES_Z
    assert small[:, 0].all() and not small[:, 1:].any()

    def block(lams):
        m = np.empty((rows.shape[1], 2, 2, len(lams)), dtype=complex)
        return integrator._step_matrices(rows[:, :, None], lams, m)

    mixed, plain = block(lams), block(lams[1:])
    assert np.array_equal(mixed[..., 1:], plain)
    assert np.all(np.isfinite(mixed[..., 0]))
