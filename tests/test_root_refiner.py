"""The one root refiner shared by the eigensolver and the inverse matcher.

Every bracket handed to it must come back with a root inside, equal to an
independent Brent solve of the same characteristic function, and a refiner
that runs out of sweeps must raise instead of returning an unconverged root.
Every lambda runs on the configuration's one grid, so Delta is a function of
lambda alone and scalar and batched evaluations agree.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from diracbvp import charfn, eigensolver, inverse
from diracbvp.errors import DiracBVPError, RootRefinementError
from diracbvp.model import PI, BoundaryParams, PotentialSpec, ProblemConfig, Weight, mu

from conftest import reference_config

GRID = 128
N = 2


def _config(alpha, p, q):
    return reference_config(alpha, GRID, PotentialSpec.piecewise(p, q))


def _half(config):
    return PI / (2.0 * mu(PI, config.weight))


def _scalar_delta(config):
    return lambda lam: float(np.real(charfn.delta_many(config, [lam])[0]))


def _refined_brackets(call):
    """Run ``call`` and return every (lo, hi, root) the refiner handled."""
    seen = []
    refine = eigensolver._refine_roots

    def spy(config, lo, hi, flo, fhi):
        found = refine(config, lo, hi, flo, fhi)
        seen.extend(zip(np.asarray(lo, float), np.asarray(hi, float), found[0]))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolver, "_refine_roots", spy)
        call()
    return seen


def _assert_brent_roots(config, seen):
    assert seen
    f = _scalar_delta(config)
    for lo, hi, root in seen:
        assert min(lo, hi) <= root <= max(lo, hi)
        ref = brentq(f, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
        assert abs(root - ref) <= 1e-13 * max(1.0, abs(ref))


potentials = st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(st.floats(-0.25, 0.25), min_size=m, max_size=m),
    st.lists(st.floats(-0.25, 0.25), min_size=m, max_size=m)))


@settings(max_examples=6, deadline=None)
@given(alpha=st.sampled_from([1.0, 2.0]), pq=potentials)
def test_eigensolver_roots_lie_in_their_brackets_and_match_brent(alpha, pq):
    config = _config(alpha, *pq)
    seen = _refined_brackets(lambda: eigensolver.find_eigenvalues(config, -N, N))
    _assert_brent_roots(config, seen)


@settings(max_examples=6, deadline=None)
@given(alpha=st.sampled_from([1.0, 2.0]), pq=potentials)
def test_inverse_matches_lie_in_their_brackets_and_match_brent(alpha, pq):
    config = _config(alpha, *pq)
    targets = eigensolver.find_eigenvalues(_config(alpha, [0.0], [0.0]), -N, N).lambdas()
    seen = _refined_brackets(lambda: inverse._match_roots([config], targets, _half(config)))
    _assert_brent_roots(config, seen)


def test_roots_converge_where_rounding_holds_the_newton_step_up():
    # near its root at -1.5602, Delta of this problem carries rounding of
    # about 1e-13 against a Delta-dot of -19.4: every Newton step stays near
    # 20 ulps, above the tolerance, and lands on the far end of a 20-ulp
    # bracket, which a refiner that takes it never shrinks
    config = ProblemConfig(
        boundary=BoundaryParams(0.0, 0.7864098301666906, -0.2442264900842761,
                                -0.9552320425750105, 2.0, -1.685417926986748,
                                1.030759437236398, 2.0),
        weight=Weight(alpha=0.622862476129863, a=1.841759729040018),
        potential=PotentialSpec.piecewise([0.0, 0.0], [-0.8734618758566297, -1.0]),
        grid_points=512)
    seen = _refined_brackets(lambda: eigensolver.find_eigenvalues(config, -3, 3))
    _assert_brent_roots(config, seen)


def test_roots_converge_where_the_bracket_shrinks_to_one_ulp():
    # near its root at -1.4506, Delta carries rounding of about 2e-13 against
    # a Delta-dot of 63: the Newton steps stay near 3e-15, above the
    # tolerance of 1.3e-15, and alternate in sign until the bracket is two
    # adjacent floats, whose midpoint is one of them
    config = ProblemConfig(
        boundary=BoundaryParams(0.3981237812356686, 0.0, 0.0001, 1.8677293004537878,
                                0.3981237812356686, 0.0, 0.0001, 1.8677293004537878),
        weight=Weight(alpha=1.0, a=0.6375345877421861),
        potential=PotentialSpec.piecewise([-0.630952824841259], [0.7808217017741392]),
        grid_points=512)
    seen = _refined_brackets(lambda: eigensolver.find_eigenvalues(config, -3, 3))
    _assert_brent_roots(config, seen)


def test_sweep_cap_raises_a_typed_error(monkeypatch):
    config = _config(2.0, [0.2, -0.1], [0.1, 0.05])
    targets = eigensolver.find_eigenvalues(config, -N, N).lambdas() + 0.01
    monkeypatch.setattr(eigensolver, "_MAX_SWEEPS", 1)
    with pytest.raises(RootRefinementError) as info:
        eigensolver.find_eigenvalues(config, -N, N)
    assert isinstance(info.value, DiracBVPError)
    with pytest.raises(RootRefinementError):
        inverse._match_roots([config], targets, _half(config))
