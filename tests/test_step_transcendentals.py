"""The Magnus step matrix built from real transcendentals.

Each step takes cos(w) and sin(w) / w from the real sin and cos of Re w and
sinh and cosh of Im w, with sin(w) / w = 1 where w = 0.  These tests cover
the cases the oscillatory rows of ``tests/test_blocked_sweep.py`` do not:
w = 0 exactly, steps where Im w dominates (lambda far off the real axis),
and purely imaginary w (real lambda below the potential's local size).
"""
import numpy as np
import pytest

from diracbvp import integrator

from conftest import reference_config
from test_blocked_sweep import POTENTIALS, _inits, _stepwise


@pytest.mark.parametrize("endpoint", ["left", "right"])
def test_zero_potential_at_zero_lambda_keeps_the_initial_state(endpoint):
    # Omega vanishes on every step, so w = 0 and every step matrix is I
    config = reference_config(2.0, 128)
    init = np.array([[0.3 - 0.2j, -1.1 + 0.7j]])
    ys = integrator.propagate_many(config, [0.0], init, endpoint)[1]
    assert np.array_equal(ys, np.broadcast_to(init[:, None], ys.shape))


@pytest.mark.parametrize("endpoint", ["left", "right"])
@pytest.mark.parametrize("kind", sorted(POTENTIALS))
@pytest.mark.parametrize("lams", [
    np.array([1j, 5j, 12.5j, 25j, 40j, 3.0 + 40j, -8.0 + 20j, -0.5 - 40j]),
    np.array([0.0, 1e-9, -1e-4, 0.02, -0.1, 0.25]),
], ids=["imaginary", "near-zero"])
def test_non_oscillatory_rows_match_the_stepwise_sweep(endpoint, kind, lams):
    config = reference_config(2.0, 128, POTENTIALS[kind])
    ys = integrator.propagate_many(config, lams, _inits(config, lams, endpoint), endpoint)[1]
    ref = _stepwise(config, lams, endpoint)
    scale = np.max(np.abs(ref), axis=(1, 2))
    assert np.all(np.max(np.abs(ys - ref), axis=(1, 2)) <= 1e-12 * scale)
