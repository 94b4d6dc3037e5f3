"""Inverse problem: parametrization, misfit totality, small round trips."""
import math
from fractions import Fraction

import numpy as np
import pytest
from dataclasses import replace

from diracbvp import eigensolver, integrator, inverse
from diracbvp.errors import ConfigError
from diracbvp.model import PI, PotentialSpec, mu

from conftest import reference_config


@pytest.fixture(scope="module")
def small_truth():
    """Constant-potential ground truth on a coarse grid."""
    geom = reference_config(grid_points=256)
    return replace(geom, potential=PotentialSpec.constant(0.2, -0.1))


@pytest.fixture(scope="module")
def small_target(small_truth):
    return inverse.synthesize_data(small_truth, 4)


@pytest.fixture(scope="module")
def small_problem(small_truth, small_target):
    return inverse.InverseProblem(target=small_target,
                                  basis=inverse.PotentialBasis("piecewise", 1),
                                  boundary=small_truth.boundary,
                                  weight=small_truth.weight,
                                  grid_points=small_truth.grid_points)


def test_basis_validation():
    with pytest.raises(ConfigError):
        inverse.PotentialBasis("spline", 2)
    with pytest.raises(ConfigError):
        inverse.PotentialBasis("cosine", 0)
    for m in (1.5, 2.0, True):
        with pytest.raises(ConfigError, match="integer"):
            inverse.PotentialBasis("piecewise", m)
    basis = inverse.PotentialBasis("cosine", 3)
    assert basis.dim == 6
    with pytest.raises(ValueError):
        basis.to_potential([1.0, 2.0])


def test_basis_builds_expected_potential():
    pot = inverse.PotentialBasis("piecewise", 2).to_potential([1.0, 2.0, 3.0, 4.0])
    assert pot.p_params == (1.0, 2.0)
    assert pot.q_params == (3.0, 4.0)


def test_default_weights_downweight_high_modes():
    np.testing.assert_allclose(inverse.default_weights([0, 1, 2]),
                               [1.0, 0.5, 0.2])


def test_problem_validation(small_target, small_truth):
    with pytest.raises(ConfigError):
        inverse.InverseProblem(target=small_target,
                               basis=inverse.PotentialBasis("piecewise", 10),
                               boundary=small_truth.boundary,
                               weight=small_truth.weight)


def test_synthesized_data_is_labelled_and_complete(small_truth, small_target):
    from diracbvp.model import config_fingerprint
    assert len(small_target) == 9
    assert [d.n for d in small_target] == list(range(-4, 5))
    assert small_target.fingerprint == config_fingerprint(small_truth)


def test_misfit_vanishes_at_the_truth(small_problem):
    assert inverse.misfit(small_problem, [0.2, -0.1]) < 1e-12


def test_match_roots_returns_the_nearest_root_not_the_nearest_bracket(monkeypatch):
    # brackets (-0.5, -0.25) and (0.25, 0.5) of the target 0 are equally far
    # from it; the root 0.26 is nearer than -0.49
    roots = np.array([-0.49, 0.26, 3.0])
    phi_init = integrator.phi_init

    def psi0_many(config, lams):
        # phi(0) plus (-P(lambda), 0): the U1 form of the reference boundary
        # takes phi(0) to 0 and (-P, 0) to P, so Delta is the polynomial P
        lams = np.asarray(lams, complex)
        poly = np.prod(lams[:, None] - roots, axis=1)
        return phi_init(config, lams) - poly[:, None] * np.array([1.0, 0.0])

    monkeypatch.setattr(integrator, "psi0_many", psi0_many)
    found = inverse._match_roots([reference_config()], np.array([0.0, 3.1]), 1.0)[0, 0]
    np.testing.assert_allclose(found, [0.26, 3.0], rtol=0.0, atol=1e-14)
    # no sign change in the window [0.8, 2.8]: a miss, not an error
    assert np.isnan(inverse._match_roots([reference_config()], np.array([1.8]), 1.0)).all()


def _delta_batch_sizes(problem, params):
    """Batch size of every psi(0) sweep, the Delta batches, that one residual
    evaluation makes."""
    sizes = []
    psi0_many = integrator.psi0_many

    def spy(config, lams):
        sizes.append(np.size(lams))
        return psi0_many(config, lams)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "psi0_many", spy)
        inverse.residuals(problem, params)
    return sizes


def test_residuals_scan_the_target_windows_once(small_problem):
    # one scan of 9 targets x 9 samples; every target is a sample point, so at
    # the truth the refiner stops after one sweep of its 9 brackets
    assert _delta_batch_sizes(small_problem, [0.2, -0.1]) == [81, 9]
    sizes = _delta_batch_sizes(small_problem, [0.0, 0.0])
    assert sizes[0] == 81 and len(sizes) > 2
    assert all(s == sizes[1] < 81 for s in sizes[1:])


@pytest.mark.parametrize("params", [[0.2, -0.1], [0.0, 0.0]])
def test_matched_alphas_are_the_refiners(small_problem, params):
    config = small_problem.make_config(params)
    half = PI / (2.0 * mu(PI, small_problem.weight))
    roots, alphas = inverse._match_roots([config], small_problem.target.lambdas(), half)[:, 0]
    assert np.array_equal(alphas, eigensolver._per_root(config, roots)[0])


def test_misfit_positive_away_from_truth(small_problem):
    assert inverse.misfit(small_problem, [0.0, 0.0]) > 1e-3


def test_misfit_total_for_extreme_parameters(small_problem):
    # far-off candidates may lose root matches entirely, and at [200, 200]
    # the propagation overflows; the objective must stay finite (penalty,
    # not an exception or a warning)
    for params in ([50.0, 50.0], [100.0, 100.0], [200.0, 200.0]):
        value = inverse.misfit(small_problem, params)
        assert np.isfinite(value)
        assert value > 1.0


def test_a_candidate_whose_potential_overflows_is_penalised(small_truth, small_target):
    # p = 1.7e308 (1 + cos x) is inf wherever cos x > 0.058: the grid refuses
    # the candidate, and every target takes the penalty
    problem = inverse.InverseProblem(target=small_target,
                                     basis=inverse.PotentialBasis("cosine", 2),
                                     boundary=small_truth.boundary,
                                     weight=small_truth.weight,
                                     grid_points=small_truth.grid_points)
    params = [1.7e308, 1.7e308, 0.0, 0.0]
    with pytest.raises(ConfigError, match="not finite"):
        integrator.build_grid(problem.make_config(params))
    r = inverse.residuals(problem, params)
    n = len(small_target)
    assert np.array_equal(r[:n], np.sqrt(problem.weights() * inverse._PENALTY))
    assert np.array_equal(r[n:], np.zeros(n))


def test_residuals_raise_on_parameters_of_the_wrong_shape(small_problem):
    with pytest.raises(ConfigError, match="expected 2 parameters"):
        inverse.residuals(small_problem, [0.2, -0.1, 0.0])


def test_a_root_goes_only_to_its_nearest_target(small_problem):
    # at p = q = 50 the targets near -0.597 and -0.120 both lie nearest the
    # root near -0.411; only the nearer target -0.597 keeps it
    config = small_problem.make_config([50.0, 50.0])
    targets = small_problem.target.lambdas()
    matched = inverse._match_roots([config], targets, PI / (2.0 * mu(PI, small_problem.weight)))[0, 0]
    assert targets[3:5] == pytest.approx([-0.597, -0.120], abs=1e-3)
    assert matched[3] == pytest.approx(-0.4108, abs=1e-4)
    assert np.isnan(matched[4])
    r = inverse.residuals(small_problem, [50.0, 50.0])
    assert r[4] == np.sqrt(small_problem.weights()[4] * inverse._PENALTY)


def test_a_match_without_a_positive_alpha_is_penalised(small_problem):
    # at p = q = 50 the target near -2.256 matches a sign change near -2.307
    # whose alpha = Delta-dot / beta is negative: no eigenvalue of the data's kind
    params = [50.0, 50.0]
    config = small_problem.make_config(params)
    targets = small_problem.target.lambdas()
    half = PI / (2.0 * mu(PI, small_problem.weight))
    root = inverse._match_roots([config], targets, half)[0, 0, 1]
    assert root == pytest.approx(-2.307, abs=1e-3)
    assert eigensolver._per_root(config, [root])[0][0] < 0.0
    r = inverse.residuals(small_problem, params)
    assert r[1] == np.sqrt(small_problem.weights()[1] * inverse._PENALTY)
    assert r[len(targets) + 1] == 0.0


def test_reconstruct_round_trip_from_cold_start(small_problem):
    result = inverse.reconstruct(small_problem, [0.0, 0.0], max_evals=400)
    assert result.iterations <= 400
    assert abs(result.parameters[0] - 0.2) < 1e-2
    assert abs(result.parameters[1] + 0.1) < 1e-2
    assert result.misfit < 1e-6
    trace = np.array(result.trace)
    assert np.all(np.diff(trace) <= 0.0 + 1e-300)


def test_reconstruct_validates_initial_shape(small_problem):
    with pytest.raises(ValueError):
        inverse.reconstruct(small_problem, [0.0, 0.0, 0.0])


def test_uniqueness_probe_separates_potentials(small_truth):
    zero = replace(small_truth, potential=PotentialSpec.zero())
    assert inverse.uniqueness_probe(zero, small_truth, 3) > 1e-3
    assert inverse.uniqueness_probe(zero, zero, 3) < 1e-15


def test_uniqueness_probe_requires_shared_geometry(small_truth):
    other = reference_config(alpha=2.0, grid_points=256)
    with pytest.raises(ValueError):
        inverse.uniqueness_probe(small_truth, other, 2)


def test_potential_distance_frozen_value(small_truth):
    zero = replace(small_truth, potential=PotentialSpec.zero())
    # sqrt(pi * (0.2^2 + 0.1^2)) for two constant components
    expected = math.sqrt(PI * 0.05)
    assert inverse.potential_l2_distance(zero, small_truth) == \
        pytest.approx(expected, rel=1e-6)


def piecewise_l2(pa, qa, pb, qb):
    """Closed-form L2 distance on [0, pi] of two piecewise-constant pairs,
    summed over the common refinement of their segments."""
    total = 0.0
    for u, v in ((pa, pb), (qa, qb)):
        edges = sorted({Fraction(k, len(w)) for w in (u, v) for k in range(len(w) + 1)})
        for lo, hi in zip(edges, edges[1:]):
            mid = (lo + hi) / 2
            total += PI * float(hi - lo) * (u[int(mid * len(u))] - v[int(mid * len(v))]) ** 2
    return math.sqrt(total)


@pytest.mark.parametrize("pa, qa, pb, qb", [
    ((0.3, -0.2, 0.1), (-0.1, 0.25), (0.0,), (0.0,)),
    ((0.3, -0.2), (-0.1, 0.25), (0.0,), (0.0,)),
    ((0.3, -0.2), (-0.1, 0.25), (0.1, 0.4, -0.3), (0.2, -0.15, 0.05)),
], ids=["m3-vs-zero", "m2-vs-zero", "m2-vs-m3"])
def test_potential_distance_is_exact_on_piecewise_pairs(pa, qa, pb, qb):
    base = reference_config(alpha=2.0, grid_points=256)
    a = replace(base, potential=PotentialSpec.piecewise(pa, qa))
    b = replace(base, potential=PotentialSpec.piecewise(pb, qb))
    assert inverse.potential_l2_distance(a, b) == \
        pytest.approx(piecewise_l2(pa, qa, pb, qb), rel=1e-13)
