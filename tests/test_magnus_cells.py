"""Magnus cells: a run of steps with constant p and q is one cell, swept in
one product from its first node.

The grid finds its cells from the step samples alone.  On random piecewise
problems the psi(0) sweep keeps the bits of the trajectory route, Delta
agrees with a product of closed-form constant-piece propagators, and since a
constant piece is one exact product whatever its step count, Delta does not
depend on the grid: not even near a root, where a step-by-step sweep's
rounding moves it by a few parts in 1e12.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracbvp import charfn, eigensolver, integrator
from diracbvp.model import (PI, BoundaryParams, PotentialSpec, ProblemConfig,
                            Weight)

from conftest import reference_config
from test_blocked_sweep import _step_rows

BOUNDARY = BoundaryParams(1.0, -0.5, 1.0, 0.3, 0.5, -1.0, 1.0, 0.2)


@pytest.mark.parametrize("potential, cells", [
    (PotentialSpec.piecewise((0.3, -0.45, 0.2), (-0.1, 0.35, -0.25)), 4),
    (PotentialSpec.zero(), 2),
    (PotentialSpec.cosine((0.2, -0.3, 0.1), (0.4, 0.15)), None),
], ids=["three-segments", "zero", "cosine"])
def test_cells_of_a_side(potential, cells):
    # each path crosses both sides, and the jump is one of its cell bounds
    config = reference_config(2.0, 256, potential)
    grid = integrator.build_grid(config)
    n = len(grid.xs) - 1
    expected = n if cells is None else cells
    for path, jump in ((grid.forward, grid.ia), (grid.backward, n - grid.ia)):
        assert len(path.cells) - 1 == expected
        assert path.cells[0] == 0 and path.cells[-1] == n and jump in path.cells
        assert path.end_omega.shape == (6, expected)
        # the rows carry rho: c1 - b1 = 2 h rho over each cell
        lengths = np.abs(np.diff(path.xs[path.cells]))
        width = np.abs(path.end_omega[5] - path.end_omega[3])
        assert np.allclose(width, 2.0 * lengths * path.rho[path.cells[1:] - 1], rtol=1e-14)
    assert np.array_equal(grid.forward.rho, np.repeat([1.0, 2.0], [grid.ia, n - grid.ia]))
    assert np.array_equal(grid.backward.rho, grid.forward.rho[::-1])
    if cells is None:
        # a one-step cell keeps its step's rows, reversed and negated leftward
        steps = np.concatenate([_step_rows(config, grid.xs[:grid.ia + 1]),
                                _step_rows(config, grid.xs[grid.ia:], 2.0)], axis=1)
        assert np.array_equal(grid.forward.end_omega, steps)
        assert np.array_equal(grid.backward.end_omega, -steps[:, ::-1])


def _closed_form_delta(config, lams):
    """U1(psi(0)) with psi(0) the product of the constant-piece propagators
    exp(-L A), A = [[q, -(p + s)], [s - p, -q]], A^2 = -k^2 I,
    k^2 = s^2 - p^2 - q^2, from pi leftward."""
    pot, a, alpha = config.potential, config.weight.a, config.weight.alpha
    edges = sorted({0.0, PI, a, *(PI * k / m for m in (len(pot.p_params), len(pot.q_params))
                                  for k in range(1, m))})
    y = integrator.psi_init(config, lams).T
    for x0, x1 in zip(edges[-2::-1], edges[:0:-1]):
        mid = 0.5 * (x0 + x1)
        p, q = float(pot.p_at(mid)), float(pot.q_at(mid))
        s = lams * (1.0 if mid < a else alpha)
        k = np.sqrt(s * s - p * p - q * q)
        length = x1 - x0
        c, t = np.cos(k * length), -length * np.sinc(k * length / np.pi)
        y = np.array([(c + t * q) * y[0] - t * (p + s) * y[1],
                      t * (s - p) * y[0] + (c - t * q) * y[1]])
    return charfn.u1_form(config, lams, y[0], y[1])


def _scale(config, lams, psi0):
    """The size of the terms of U1(psi(0)): Delta is a sum of these, so its
    error is relative to them rather than to Delta near a root."""
    b = config.boundary
    coef = abs(b.b1) + abs(b.b2) + np.abs(lams) * (abs(b.b3) + abs(b.b4))
    return coef * np.max(np.abs(psi0), axis=1)


segments = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)
problems = st.builds(
    lambda p, q, a, alpha, grid: ProblemConfig(
        boundary=BOUNDARY, weight=Weight(alpha=alpha, a=a),
        potential=PotentialSpec.piecewise(p, q), grid_points=grid),
    segments, segments, st.floats(0.2, PI - 0.2), st.floats(0.5, 4.0),
    st.integers(64, 512))
lambdas = st.lists(st.builds(complex, st.floats(-20.0, 20.0), st.floats(-3.0, 3.0)),
                   min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(config=problems, lams=lambdas, real=st.booleans())
@example(config=ProblemConfig(BOUNDARY, Weight(alpha=1.5, a=1.3),
                              PotentialSpec.piecewise((0.3, -0.2), (0.1,)), 256),
         lams=[3.3 + 1.2j, -7.1, 0.0], real=False)
@example(config=ProblemConfig(BOUNDARY, Weight(alpha=0.7, a=2.1),
                              PotentialSpec.piecewise((0.4,), (-0.3, 0.2, 0.1)), 300),
         lams=[11.5 - 0.4j, 1.0], real=False)
def test_random_piecewise_problems(config, lams, real):
    lams = np.array(lams)
    if real:
        lams = lams.real.astype(complex)
    psi0 = integrator.psi0_many(config, lams)
    assert np.array_equal(psi0, integrator.psi_many(config, lams)[1][:, 0])

    scale = _scale(config, lams, psi0)
    delta = charfn.delta_many(config, lams)
    assert np.all(np.abs(delta - _closed_form_delta(config, lams)) <= 1e-12 * scale)
    coarse, fine = (charfn.delta_many(ProblemConfig(config.boundary, config.weight,
                                                    config.potential, grid), lams)
                    for grid in (128, 2048))
    assert np.all(np.abs(coarse - fine) <= 1e-12 * np.abs(fine))


def test_delta_at_the_roots_does_not_depend_on_the_grid():
    three = PotentialSpec.piecewise((0.3, -0.45, 0.2), (-0.1, 0.35, -0.25))
    configs = [ProblemConfig(BOUNDARY, Weight(alpha=2.0, a=1.5), three, grid)
               for grid in (128, 256, 2048)]
    roots = np.array([d.lambda_n for d in eigensolver.find_eigenvalues(configs[1], -10, 10)])
    coarse, _, fine = (charfn.delta_many(config, roots) for config in configs)
    assert np.all(np.abs(coarse - fine) <= 1e-12 * np.abs(fine))
