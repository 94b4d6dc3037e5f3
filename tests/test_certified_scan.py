"""The eigensolver's one sign scan and the argument-principle count behind it.

Every root set it returns must be a run of consecutive roots of a dense,
independent sign scan of Delta (128 samples per seed spacing, each bracket
solved by scipy's bracketing root finder), with no root of that scan skipped
in between; the contour count must equal the dense count; and a scan too
coarse for its count must be sampled again, twice as densely, or fail with a
typed error.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import brentq

from diracbvp import charfn, eigensolver
from diracbvp.errors import MissingRootError
from diracbvp.model import (PI, BoundaryParams, PotentialSpec, ProblemConfig,
                            Weight, mu)

from test_gram import problems

DENSE = 128


def _scan_range(config, n_min, n_max):
    s = PI / mu(PI, config.weight)
    return (charfn.asymptotic_seed(config, n_min) - 0.75 * s,
            charfn.asymptotic_seed(config, n_max) + 0.75 * s, s)


def _dense_roots(config, lo, hi, s):
    """Every sample where Delta vanishes and every sign change between
    samples on [lo, hi] at step s / 128, the latter solved by scipy's
    Brent bracketing."""
    pts = np.linspace(lo, hi, int(np.ceil((hi - lo) / s * DENSE)) + 1)
    vals = np.real(charfn.delta_many(config, pts))
    j = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    f = lambda x: float(np.real(charfn.delta_many(config, [x])[0]))
    roots = [brentq(f, pts[k], pts[k + 1], xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
             for k in j]
    return np.sort(np.concatenate([roots, pts[vals == 0.0]]))


def _contour_count(config, lo, hi, step):
    pts = eigensolver._contour_points(config, lo, hi, step)
    return eigensolver._winding(charfn.delta_many(config, pts))


def _assert_consecutive_dense_roots(lams, dense):
    run = dense[(dense > lams[0] - 1e-10) & (dense < lams[-1] + 1e-10)]
    assert len(run) == len(lams)
    np.testing.assert_allclose(lams, run, rtol=0.0, atol=1e-10)


def test_offset_low_spectrum_returns_every_root():
    # the low spectrum sits off the asymptotic ladder: roots near -0.70,
    # -0.45, 0.44, 0.81 against seeds -0.47, 0.01, 0.50
    config = ProblemConfig(
        boundary=BoundaryParams(-1.9, 1.4, 0.2, -0.4, 0.2, 0.9, -0.5, 1.3),
        weight=Weight(alpha=2.8, a=1.3),
        potential=PotentialSpec.constant(-0.7, 0.5), grid_points=512)
    data = eigensolver.find_eigenvalues(config, -3, 3)
    assert [d.n for d in data] == list(range(-3, 4))
    lo, hi, s = _scan_range(config, -3, 3)
    _assert_consecutive_dense_roots(data.lambdas(),
                                    _dense_roots(config, lo - s, hi + s, s))


@settings(max_examples=15, deadline=None)
@given(config=problems())
def test_scan_roots_and_contour_count_match_a_dense_scan(config):
    data = eigensolver.find_eigenvalues(config, -3, 3)
    lo, hi, s = _scan_range(config, -3, 3)
    dense = _dense_roots(config, lo, hi, s)
    _assert_consecutive_dense_roots(data.lambdas(), dense)
    assert _contour_count(config, lo, hi, s / DENSE)[0] == len(dense)
    # a count the scan accepts is right at its own density too
    count, worst = _contour_count(config, lo, hi, s / eigensolver._SCAN_STEPS)
    if worst < PI / 2.0:
        assert count == len(dense)


def test_a_coarse_scan_is_sampled_again(monkeypatch, r0):
    reference = eigensolver.find_eigenvalues(r0, -3, 3)
    monkeypatch.setattr(eigensolver, "_SCAN_STEPS", 1)
    coarse = eigensolver.find_eigenvalues(r0, -3, 3)
    assert [d.n for d in coarse] == [d.n for d in reference]
    np.testing.assert_allclose(coarse.lambdas(), reference.lambdas(),
                               rtol=1e-12, atol=1e-12)
    monkeypatch.setattr(eigensolver, "_SCAN_LEVELS", 1)
    with pytest.raises(MissingRootError) as exc:
        eigensolver.find_eigenvalues(r0, -3, 3)
    assert exc.value.missing_indices == tuple(range(-3, 4))
    assert exc.value.partial is None
