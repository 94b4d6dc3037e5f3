"""One cell path per sweep direction.

The grid keeps the cells of a rightward and of a leftward sweep over all of
[0, pi], each step with its side's rho.  A psi(0) sweep of a piecewise
potential is then one build of its few cell matrices, a new config's grid
samples p and q once each per side of the jump, and a block of matrices
sums the small-|w| series only where one of its entries needs it, without
changing the bits of the others.
"""
import numpy as np
import pytest

from diracbvp import integrator
from diracbvp.model import PotentialSpec

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
def test_a_new_grid_samples_p_and_q_once_a_side(monkeypatch, potential):
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
    assert sorted(calls) == [("p_at", 1)] * 2 + [("q_at", 1)] * 2


def test_series_entries_leave_the_other_columns_bits():
    config = reference_config(2.0, 128, PotentialSpec.cosine((0.2, -0.3, 0.1), (0.4, 0.15)))
    path = integrator.build_grid(config).forward
    rows, rho = path.cell_omega[:, 60:68], path.rho[60:68]
    # lambda = 0 gives every step |w|^2 of order (h q)^2, below the series bound
    lams = np.array([0.0, 5.0, 3.0 + 1.0j, -7.5 - 0.3j])
    a0, a1, b0, b1, c0, c1 = rows[:, :, None]
    s = lams * rho[:, None]
    o11, o12, o21 = a0 + s * a1, b0 + s * b1, c0 + s * c1
    small = np.abs(o11 * o11 + o12 * o21) < integrator._SERIES_Z
    assert small[:, 0].all() and not small[:, 1:].any()

    def block(lams):
        m = np.empty((rows.shape[1], 2, 2, len(lams)), dtype=complex)
        return integrator._step_matrices(rows, rho, lams, m)

    mixed, plain = block(lams), block(lams[1:])
    assert np.array_equal(mixed[..., 1:], plain)
    assert np.all(np.isfinite(mixed[..., 0]))
