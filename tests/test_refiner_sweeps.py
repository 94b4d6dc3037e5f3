"""Sweep count of the root refiner.

Bracketed Newton with the complex-step Delta-dot converges quadratically
from the regula falsi point of each bracket: 4 or 5 Delta sweeps reach the
stopping test on every problem here.  A refiner that keeps secant state, or
that bisects toward a stale end when a Newton step lands on the bracket end,
needs more and fails under a cap of 6.  The roots' alpha_n, beta_n and
Delta-dot come from the last sweep's psi(0) rows, so no point is swept twice.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracbvp import charfn, eigensolver, integrator
from diracbvp.model import (PI, BoundaryParams, PotentialSpec, ProblemConfig,
                            Weight)

from conftest import reference_config

SWEEPS = 6


def _spectrum_config(seed):
    """Three-segment potential with lambda-dependent boundary forms on both
    ends, a nonzero seed phase and a weight jump, at grid 256."""
    p, q = np.random.default_rng([seed, 0]).uniform(-0.5, 0.5, (2, 3))
    return ProblemConfig(
        boundary=BoundaryParams(1.0, -0.5, 1.0, 0.3, 0.5, -1.0, 1.0, 0.2),
        weight=Weight(alpha=2.0, a=PI / 2.0),
        potential=PotentialSpec.piecewise(p, q), grid_points=256)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spectrum_roots_take_at_most_six_sweeps(monkeypatch, seed):
    monkeypatch.setattr(eigensolver, "_MAX_SWEEPS", SWEEPS)
    assert len(eigensolver.find_eigenvalues(_spectrum_config(seed), -30, 30)) == 61


potentials = st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(st.floats(-0.25, 0.25), min_size=m, max_size=m),
    st.lists(st.floats(-0.25, 0.25), min_size=m, max_size=m)))


@settings(max_examples=8, deadline=None)
@given(alpha=st.sampled_from([1.0, 2.0]), pq=potentials)
def test_small_potentials_take_at_most_six_sweeps(alpha, pq):
    config = reference_config(alpha, 128, PotentialSpec.piecewise(*pq))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolver, "_MAX_SWEEPS", SWEEPS)
        assert len(eigensolver.find_eigenvalues(config, -2, 2)) == 5


@pytest.fixture()
def batches(monkeypatch):
    """The lambda of every psi(0) sweep and of every delta_many batch."""
    sweeps, deltas = [], []
    psi0_many, delta_many = integrator.psi0_many, charfn.delta_many

    def sweep_spy(config, lams):
        sweeps.append(np.array(lams))
        return psi0_many(config, lams)

    def delta_spy(config, lams):
        deltas.append(np.array(lams))
        return delta_many(config, lams)

    monkeypatch.setattr(integrator, "psi0_many", sweep_spy)
    monkeypatch.setattr(charfn, "delta_many", delta_spy)
    return sweeps, deltas


def test_per_root_quantities_come_from_the_last_sweep(batches):
    sweeps, deltas = batches
    config = _spectrum_config(1)
    data = eigensolver.find_eigenvalues(config, -30, 30)
    # the scan's Delta batch and 4 Newton sweeps, and no other propagation
    assert (len(sweeps), len(deltas)) == (5, 1)
    assert np.array_equal(sweeps[0], deltas[0])
    assert sum(map(len, sweeps)) == 1257
    assert not any(np.array_equal(s, t) for i, s in enumerate(sweeps) for t in sweeps[:i])
    fresh = eigensolver._per_root(config, data.lambdas())
    assert np.array_equal(fresh[:3], [data.alphas(), [d.beta_n for d in data],
                                      [d.delta_dot_n for d in data]])


def test_every_complex_step_sweep_goes_through_charfn(monkeypatch):
    """The psi(0) sweeps at lambda + ih of the Newton refiner, of
    norming_constant, of beta and of delta_dot are each one
    charfn.complex_step; no other code sweeps at the complex step."""
    sweeps, depth = [], []
    psi0_many, complex_step = integrator.psi0_many, charfn.complex_step

    def sweep_spy(config, lams):
        sweeps.append((np.array(lams), bool(depth)))
        return psi0_many(config, lams)

    def step_spy(config, lams):
        depth.append(None)
        try:
            return complex_step(config, lams)
        finally:
            depth.pop()

    monkeypatch.setattr(integrator, "psi0_many", sweep_spy)
    monkeypatch.setattr(charfn, "complex_step", step_spy)
    config = _spectrum_config(1)
    lam = eigensolver.find_eigenvalues(config, -30, 30).by_index(0).lambda_n
    eigensolver.norming_constant(config, lam)
    eigensolver.beta(config, lam)
    charfn.delta_dot(config, lam)
    stepped = [inside for lams, inside in sweeps
               if np.all(lams.imag == charfn._COMPLEX_STEP)]
    # 4 Newton sweeps, then one each for norming_constant, beta and delta_dot
    assert len(stepped) == 7 and all(stepped)
    assert len(sweeps) == 8 and not sweeps[0][1]
