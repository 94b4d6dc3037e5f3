"""The propagation core: one result buffer per call, and each Weyl-layer
solution propagated once."""
import tracemalloc

import numpy as np
import pytest

from diracbvp import eigensolver, integrator, weyl

from conftest import reference_config


@pytest.mark.parametrize("endpoint", ["left", "right"])
def test_propagate_many_peak_memory_is_one_result(endpoint):
    config = reference_config(2.0, 512)
    lams = np.linspace(-10.0, 10.0, 400)
    inits = integrator.phi_init(config, lams)
    integrator.propagate_many(config, lams, inits, endpoint)     # warm the grid cache
    tracemalloc.start()
    try:
        _, ys, _ = integrator.propagate_many(config, lams, inits, endpoint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ys.nbytes


@pytest.fixture()
def propagations(monkeypatch):
    calls = []
    core = integrator.propagate_many

    def counted(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs["endpoint"])
        return core(*args, **kwargs)

    monkeypatch.setattr(integrator, "propagate_many", counted)
    return calls


def test_weyl_sample_propagates_psi_once_and_phi_with_c(r1, propagations):
    data = eigensolver.find_eigenvalues(r1, -3, 3)
    propagations.clear()
    sample = weyl.weyl_sample(r1, 0.5 + 1.0j, data)
    assert sorted(propagations) == ["left", "right"]
    assert sample.identity_defect < 1e-8
    assert abs(sample.m_direct - weyl.weyl_direct(r1, 0.5 + 1.0j)) == 0.0


def test_residue_check_is_one_psi_batch(r1, propagations):
    data = eigensolver.find_eigenvalues(r1, -1, 1)
    propagations.clear()
    assert weyl.residue_check(r1, data.by_index(1)) < 1e-3
    assert propagations == ["right"]
