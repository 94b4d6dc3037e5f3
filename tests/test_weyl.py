"""Weyl function: frozen values, pole structure, series and identity routes.

Frozen values come from the trivial-weight closed forms: the boundary trace
evaluates to sin/cos ratios that reduce to -1/2 i at lambda = i and -2/3 at
lambda = 1/2.
"""
import numpy as np
import pytest

from diracbvp import charfn, eigensolver, weyl
from diracbvp.errors import IntegrationOverflowError, PoleError


@pytest.fixture(scope="module")
def data8(r0):
    return eigensolver.find_eigenvalues(r0, -8, 8)


def test_frozen_value_at_i(r0):
    assert weyl.weyl_direct(r0, 1j) == pytest.approx(-0.5j, abs=1e-9)


def test_frozen_value_at_half(r0):
    assert weyl.weyl_direct(r0, 0.5) == pytest.approx(-2.0 / 3.0, abs=1e-9)


def test_pole_raises_typed_error(r0):
    with pytest.raises(PoleError) as exc:
        weyl.weyl_direct(r0, 0.0)   # the origin is an eigenvalue
    assert abs(exc.value.nearest) < 1e-6


@pytest.mark.parametrize("delta_dot", [IntegrationOverflowError(0.0), 0.0],
                         ids=["raises", "zero"])
def test_pole_estimate_falls_back_to_lambda(r0, monkeypatch, delta_dot):
    # just off a root, where one Newton step would move the estimate
    lam = eigensolver.find_eigenvalues(r0, 1, 1)[0].lambda_n + 1e-10
    with pytest.raises(PoleError) as exc:
        weyl.weyl_direct(r0, lam)
    assert exc.value.nearest != complex(lam)

    def fake_delta_dot(config, lam):
        if isinstance(delta_dot, Exception):
            raise delta_dot
        return delta_dot

    monkeypatch.setattr(charfn, "delta_dot", fake_delta_dot)
    with pytest.raises(PoleError) as exc:
        weyl.weyl_direct(r0, lam)
    assert exc.value.nearest == complex(lam)


def test_series_needs_data(r0):
    with pytest.raises(ValueError):
        weyl.weyl_series(r0, 1j, ())


def test_series_rejects_lambda_on_a_datum(r0, data8):
    with pytest.raises(PoleError):
        weyl.weyl_series(r0, data8.by_index(1).lambda_n, data8)


def test_series_improves_with_more_terms(r0, data8):
    direct = weyl.weyl_direct(r0, 2j)
    small = tuple(d for d in data8 if abs(d.n) <= 2)
    gap_small = abs(weyl.weyl_series(r0, 2j, small) - direct)
    gap_big = abs(weyl.weyl_series(r0, 2j, data8) - direct)
    assert gap_big < gap_small
    assert gap_big < 1e-2


def test_solution_identity_off_the_spectrum(r0):
    traj, defect = weyl.weyl_solution(r0, 1.0 + 0.5j)
    m = weyl.weyl_direct(r0, 1.0 + 0.5j)
    assert defect < 1e-9 * (1.0 + abs(m))
    # boundary normalization: the solution equals psi / Delta
    assert np.all(np.isfinite(traj.ys))


def test_sample_record_with_and_without_data(r0, data8):
    s = weyl.weyl_sample(r0, 1.5j, data8)
    assert s.series_terms == len(data8)
    assert abs(s.m_series - s.m_direct) < 1e-2
    assert s.identity_defect < 1e-9
    bare = weyl.weyl_sample(r0, 1.5j)
    assert bare.series_terms == 0
    assert np.isnan(bare.m_series.real)


def test_residues_equal_reciprocal_norming_constants(r0, data8):
    assert weyl.residue_check(r0, data8.by_index(0)) < 1e-6
    assert weyl.residue_check(r0, data8.by_index(1)) < 1e-6
