"""Delta batches.  Each level of the eigensolver's sign scan is one Delta
batch: the real scan points and the points of its argument-principle contour
go to ``charfn.delta_many`` together.  ``delta_many`` sweeps the whole batch
at once and keeps only psi(0); how a batch is split changes no value."""
import numpy as np
import pytest

from diracbvp import charfn, eigensolver

from conftest import reference_config


@pytest.fixture()
def delta_batches(monkeypatch):
    batches = []
    core = charfn.delta_many

    def counted(config, lams):
        batches.append(np.atleast_1d(np.asarray(lams)))
        return core(config, lams)

    monkeypatch.setattr(charfn, "delta_many", counted)
    return batches


# one sample per seed spacing is too coarse for the count on R0; it is
# accepted at four, the third level
@pytest.mark.parametrize("steps, levels", [(eigensolver._SCAN_STEPS, 1), (1, 3)])
def test_each_scan_level_is_one_delta_batch(monkeypatch, r0, delta_batches, steps, levels):
    monkeypatch.setattr(eigensolver, "_SCAN_STEPS", steps)
    data = eigensolver.find_eigenvalues(r0, -3, 3)
    assert len(data) == 7
    # only the contour leaves the real axis; refinement and Delta-dot stay on it
    scans = [b for b in delta_batches if np.any(b.imag != 0.0)]
    assert len(scans) == levels
    assert all(b is s for b, s in zip(delta_batches, scans))
    # the contour meets the real axis only at its two ends; the rest is the scan
    assert all(np.count_nonzero(b.imag == 0.0) > 2 for b in scans)


def test_delta_many_propagates_bounded_batches():
    config = reference_config(2.0, 256)
    lams = np.linspace(-20.0, 20.0, 1100) + 0.1j
    pieces = np.concatenate([charfn.delta_many(config, lams[i:i + 100])
                             for i in range(0, len(lams), 100)])
    assert np.array_equal(charfn.delta_many(config, lams), pieces)
    assert charfn.delta_many(config, []).shape == (0,)
