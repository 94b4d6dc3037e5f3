"""The psi(0)-only sweep: Delta and the Weyl function read psi(0) from a
sweep that keeps no trajectory, with the values of the full-trajectory route
and a peak memory that does not grow with the grid."""
import tracemalloc

import numpy as np
import pytest

from diracbvp import charfn, integrator, weyl
from diracbvp.model import PotentialSpec

from conftest import reference_config

POTENTIALS = {
    "piecewise3": PotentialSpec.piecewise([0.3, -0.45, 0.2], [-0.1, 0.35, -0.25]),
    "cosine": PotentialSpec.cosine([0.4, -0.2], [0.2, -0.3, 0.1]),
}


def lambdas(size, complex_part):
    rng = np.random.default_rng(size)
    lams = rng.uniform(-20.0, 20.0, size)
    return lams + 1j * rng.uniform(-3.0, 3.0, size) if complex_part else lams


def trajectory_route(config, lams):
    """(Delta, M) from the psi(0) row of the whole psi trajectory."""
    psi0 = integrator.psi_many(config, lams)[1][:, 0]
    delta = charfn.u1_form(config, np.asarray(lams, dtype=complex), psi0[:, 0], psi0[:, 1])
    return delta, weyl._direct_from_psi0(config, lams, psi0)[0]


@pytest.mark.parametrize("potential", POTENTIALS)
@pytest.mark.parametrize("complex_part", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("size", [0, 1, 7, 2000])
def test_psi0_sweep_equals_trajectory_route(potential, complex_part, size):
    config = reference_config(2.0, 256, POTENTIALS[potential])
    lams = lambdas(size, complex_part)
    delta, m = trajectory_route(config, lams)
    assert np.array_equal(charfn.delta_many(config, lams), delta)
    assert np.array_equal(weyl._direct_many(config, lams)[0], m)
    assert delta.shape == m.shape == (size,)


@pytest.mark.parametrize("potential", POTENTIALS)
def test_value_alone_equals_value_in_a_large_batch(potential):
    config = reference_config(2.0, 256, POTENTIALS[potential])
    picks = np.array([1.0, 3.3 + 1.2j, -7.1 - 0.4j])
    lams = lambdas(5000, True)
    lams[[0, 2500, 4999]] = picks
    deltas = charfn.delta_many(config, lams)
    ms = weyl._direct_many(config, lams)[0]
    for i, lam in zip([0, 2500, 4999], picks):
        assert np.array_equal(charfn.delta_many(config, lam), deltas[i:i + 1])
        assert np.array_equal(weyl._direct_many(config, lam)[0], ms[i:i + 1])
        assert weyl.weyl_direct(config, lam) == ms[i]


@pytest.mark.parametrize("route", [charfn.delta_many, weyl._direct_many],
                         ids=["delta_many", "direct_many"])
def test_psi0_sweep_peak_memory(route):
    config = reference_config(2.0, 512)
    lams = np.linspace(-20.0, 20.0, 5000) + 0.5j
    route(config, lams[:1])                 # warm the grid cache
    tracemalloc.start()
    try:
        route(config, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
