"""Eigenvalue location against an independent closed-form oracle.

Expected roots below were frozen from Brent bisection on the closed form
(1 - l^2) sin(l pi) + 2 l cos(l pi) of the trivial-weight configuration,
computed with an independent root finder at 1e-14 tolerance.
"""
import numpy as np
import pytest
from scipy.linalg import expm

from diracbvp import eigensolver, integrator
from diracbvp.errors import MissingRootError, NonProportionalError
from diracbvp.model import PI, PotentialSpec, ProblemConfig, Weight
from dataclasses import replace

from conftest import reference_config

# roots of (1 - l^2) sin(l pi) + 2 l cos(l pi) nearest the origin
ROOT_1 = 0.6383222623
ROOT_2 = 1.3957738438
ROOT_3 = 2.2647132420
ROOT_4 = 3.1932079354


@pytest.fixture(scope="module")
def r0_small(r0):
    return eigensolver.find_eigenvalues(r0, -2, 2)


def test_central_spectrum_matches_closed_form_roots(r0_small):
    expected = [-ROOT_2, -ROOT_1, 0.0, ROOT_1, ROOT_2]
    np.testing.assert_allclose(r0_small.lambdas(), expected, atol=1e-8)


def test_spectrum_symmetric_for_even_configuration(r0_small):
    lams = r0_small.lambdas()
    np.testing.assert_allclose(lams + lams[::-1], 0.0, atol=1e-8)


def test_wider_range_stays_on_oracle_ladder(r0):
    data = eigensolver.find_eigenvalues(r0, -3, 3)
    np.testing.assert_allclose(
        data.lambdas(),
        [-ROOT_3, -ROOT_2, -ROOT_1, 0.0, ROOT_1, ROOT_2, ROOT_3], atol=1e-8)


def test_product_identity_links_all_per_root_quantities(r0_small):
    for d in r0_small:
        assert d.alpha_n * d.beta_n == pytest.approx(d.delta_dot_n, rel=1e-6)


def test_norming_constants_match_an_exact_quadrature():
    # constant p and q: phi is a matrix exponential on each side of the jump,
    # so Gauss-Legendre nodes give ||phi_n||^2 to rounding; Simpson's rule on
    # the grid misses alpha_{-3} of this problem by 1.8e-9
    p, q = -1.0, -1.0
    config = ProblemConfig(boundary=reference_config().boundary,
                           weight=Weight(alpha=2.89, a=2.35),
                           potential=PotentialSpec.constant(p, q), grid_points=512)
    b, w = config.boundary, config.weight
    nodes, weights = np.polynomial.legendre.leggauss(40)
    for d in eigensolver.find_eigenvalues(config, -3, 3):
        lam = d.lambda_n
        y0 = np.array([lam * b.b3 - b.b1, b.b2 - lam * b.b4])
        y, norm2 = y0, 0.0
        for x0, x1, rho in ((0.0, w.a, 1.0), (w.a, PI, w.alpha)):
            A = np.array([[q, -(p + lam * rho)], [lam * rho - p, -q]])
            half = (x1 - x0) / 2.0
            ys = np.array([expm(A * half * (t + 1.0)) @ y for t in nodes])
            norm2 += rho * half * (weights @ np.sum(ys * ys, axis=1))
            y = expm(A * (x1 - x0)) @ y
        norm2 += ((b.b3 * y0[1] + b.b4 * y0[0]) ** 2 / b.k1
                  + (b.c3 * y[1] + b.c4 * y[0]) ** 2 / b.k2)
        assert d.alpha_n == pytest.approx(norm2, rel=1e-12), d.n


def test_ground_state_norming_constant(r0):
    # constant eigenfunction (0, -1): integral pi plus two unit boundary terms
    assert eigensolver.norming_constant(r0, 0.0) == pytest.approx(PI + 2.0,
                                                                  abs=1e-6)
    assert eigensolver.beta(r0, 0.0) == pytest.approx(1.0, abs=1e-8)


def test_non_eigenvalue_rejected(r0):
    with pytest.raises(NonProportionalError):
        eigensolver.beta(r0, 0.3)
    with pytest.raises(NonProportionalError):
        eigensolver.norming_constant(r0, 0.3)


def test_reversed_range_rejected(r0):
    with pytest.raises(ValueError):
        eigensolver.find_eigenvalues(r0, 1, 0)


def test_missing_roots_reported_with_indices():
    # a strong constant potential opens a gap around the origin, so the
    # near-origin search windows contain no root
    cfg = reference_config(grid_points=512,
                           potential=PotentialSpec.constant(0.0, -4.0))
    with pytest.raises(MissingRootError) as exc:
        eigensolver.find_eigenvalues(cfg, -1, 1)
    assert len(exc.value.missing_indices) > 0


def test_seed_column_is_consistent(r0_small):
    d = r0_small.by_index(1)
    assert d.lambda_n - d.seed_gap == pytest.approx(1.0, abs=1e-12)


def test_orthogonality_of_eigen_elements(r0, r0_small):
    assert eigensolver.orthogonality_check(r0, r0_small) < 1e-8


@pytest.mark.parametrize("size", [0, 1])
def test_orthogonality_of_fewer_than_two_data_is_zero(r0, r0_small, size, monkeypatch):
    calls = []
    integrator.build_grid.cache_clear()     # so any eigen-element would propagate
    monkeypatch.setattr(integrator, "propagate_many",
                        lambda *args: calls.append(args))
    data = eigensolver.SpectralDataSet(r0_small.fingerprint, r0_small.data[:size])
    assert eigensolver.orthogonality_check(r0, data) == 0.0
    assert calls == []


def test_dataset_round_trip_and_lookup(tmp_path, r0_small):
    path = tmp_path / "data.json"
    r0_small.save(path)
    loaded = eigensolver.SpectralDataSet.load(path)
    assert loaded == r0_small
    assert loaded.by_index(0).lambda_n == r0_small.by_index(0).lambda_n
    with pytest.raises(KeyError):
        loaded.by_index(99)


def test_dataset_requires_increasing_eigenvalues(r0_small):
    shuffled = tuple(reversed(r0_small.data))
    with pytest.raises(ValueError):
        eigensolver.SpectralDataSet(r0_small.fingerprint, shuffled)


def test_fingerprint_ties_data_to_config(r0, r0_small):
    from diracbvp.model import config_fingerprint
    assert r0_small.fingerprint == config_fingerprint(r0)
