"""Inner product, expansion coefficients, Parseval defect, resolvent."""
import dataclasses

import numpy as np
import pytest

from diracbvp import eigensolver, expansion, integrator
from diracbvp.errors import GridMismatchError, PoleError
from diracbvp.model import PI, Weight

from conftest import reference_config


@pytest.fixture(scope="module")
def data8(r0):
    return eigensolver.find_eigenvalues(r0, -8, 8)


@pytest.fixture(scope="module")
def r0_fine():
    return reference_config(grid_points=2048)


def constant_one(cfg):
    return expansion.element_from_functions(cfg, lambda x: 1.0 + 0.0 * x,
                                            lambda x: 0.0 * x)


def test_inner_product_of_flat_element(r0, r1):
    # (1, 0) with vanishing boundary scalars: the norm is the weighted length
    assert expansion.inner(r0, constant_one(r0), constant_one(r0)) == \
        pytest.approx(PI, abs=1e-10)
    assert expansion.inner(r1, constant_one(r1), constant_one(r1)) == \
        pytest.approx(1.5 * PI, abs=1e-10)


def test_default_boundary_scalars_match_forms(r0):
    f = expansion.element_from_functions(r0, np.cos, np.sin)
    # b3 f2(0) + b4 f1(0) and c3 f2(pi) + c4 f1(pi) with b = c = (0,-1,1,0)
    assert f.f3 == pytest.approx(np.sin(0.0))
    assert f.f4 == pytest.approx(np.sin(PI))


def test_ground_eigen_element_is_constant(r0):
    e0 = expansion.eigen_element(r0, 0.0)
    assert np.max(np.abs(e0.f1)) < 1e-12
    assert np.max(np.abs(e0.f2 + 1.0)) < 1e-12
    assert e0.f3 == pytest.approx(-1.0)
    assert e0.f4 == pytest.approx(-1.0)


def test_grid_mismatch_detected(r0):
    other = reference_config(grid_points=512)
    f = constant_one(other)
    with pytest.raises(GridMismatchError):
        expansion.inner(r0, f, f)


def test_an_element_on_a_nearby_grid_is_a_mismatch(r1):
    # a jump moved by 1e-6 keeps the node count, and every node moves by at
    # most 1e-6: closeness is not sameness, so the element is refused
    shifted = dataclasses.replace(r1, weight=Weight(alpha=2.0, a=PI / 2.0 + 1e-6))
    f = constant_one(shifted)
    assert len(f.xs) == len(integrator.build_grid(r1).xs)
    with pytest.raises(GridMismatchError):
        expansion.inner(r1, f, f)


def test_coefficients_pick_out_eigen_elements(r0, data8):
    e0 = expansion.eigen_element(r0, data8.by_index(0).lambda_n)
    coeffs = expansion.coefficients(r0, data8, e0)
    i0 = [d.n for d in data8].index(0)
    assert coeffs[i0] == pytest.approx(1.0, abs=1e-8)
    others = np.delete(np.abs(coeffs), i0)
    assert np.max(others) < 1e-8


def test_coefficients_require_data(r0):
    with pytest.raises(ValueError):
        expansion.coefficients(r0, (), constant_one(r0))


def test_parseval_defect_shrinks_with_more_terms(r0, data8):
    f = expansion.element_from_functions(r0, np.sin, lambda x: 0.0 * x)
    small = eigensolver.SpectralDataSet(
        data8.fingerprint, tuple(d for d in data8 if abs(d.n) <= 2))
    assert expansion.parseval_defect(r0, data8, f) < \
        expansion.parseval_defect(r0, small, f)


def test_parseval_rejects_zero_element(r0, data8):
    zero = expansion.element_from_functions(r0, lambda x: 0.0 * x,
                                            lambda x: 0.0 * x)
    with pytest.raises(ValueError):
        expansion.parseval_defect(r0, data8, zero)


def test_partial_expansion_approximates_the_element(r0, data8):
    f = expansion.element_from_functions(r0, np.sin, lambda x: 0.0 * x)
    partial = expansion.expand(r0, data8, f)
    err = max(np.max(np.abs(f.f1 - partial.f1)), np.max(np.abs(f.f2 - partial.f2)))
    assert err < 0.2
    assert abs(partial.f3 - f.f3) < 0.2 and abs(partial.f4 - f.f4) < 0.5


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def test_resolvent_plugback_residuals(r0_fine):
    f = constant_one(r0_fine)
    traj = expansion.resolvent_apply(r0_fine, 1j, f)
    ode_res, bc_res = expansion.resolvent_residual(r0_fine, 1j, f, traj)
    assert ode_res < 1e-5
    assert bc_res < 1e-8


def test_resolvent_of_boundary_data_only(r0_fine):
    f = expansion.element_from_functions(r0_fine, lambda x: 0.0 * x,
                                         lambda x: 0.0 * x, f3=1.0, f4=0.0)
    traj = expansion.resolvent_apply(r0_fine, 1j, f)
    ode_res, bc_res = expansion.resolvent_residual(r0_fine, 1j, f, traj)
    assert ode_res < 1e-5
    assert bc_res < 1e-8


def test_resolvent_inverts_shifted_operator_on_eigen_element(r0_fine):
    # applying the resolvent at lambda to an eigen-element scales it by
    # 1 / (lambda_n - lambda)
    e0 = expansion.eigen_element(r0_fine, 0.0)
    traj = expansion.resolvent_apply(r0_fine, 1j, e0)
    scale = 1.0 / (0.0 - 1j)
    assert np.max(np.abs(traj.ys[:, 0] - scale * e0.f1)) < 1e-9
    assert np.max(np.abs(traj.ys[:, 1] - scale * e0.f2)) < 1e-9


def test_resolvent_refuses_spectrum(r0_fine):
    with pytest.raises(PoleError):
        expansion.resolvent_apply(r0_fine, 0.0, constant_one(r0_fine))
