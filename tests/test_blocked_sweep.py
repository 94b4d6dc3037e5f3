"""The blocked Magnus sweep against the plain one-step-at-a-time sweep.

``propagate_many`` builds the step matrices of a run of steps at once and
keeps only the 2x2 products step by step.  It must agree with a sweep that
forms each step's matrix and product in turn, to roundoff; and since the
block length is chosen from the batch size, no value may depend on the block
length or on the batch.
"""
import numpy as np
import pytest

from diracbvp import integrator
from diracbvp.model import PotentialSpec

from conftest import reference_config

POTENTIALS = {
    "piecewise": PotentialSpec.piecewise((0.3, -0.45, 0.2), (-0.1, 0.35, -0.25)),
    "cosine": PotentialSpec.cosine((0.2, -0.3, 0.1), (0.4, 0.15)),
}
PROBE = np.array([1.0, 3.3 + 1.2j, -7.1 - 0.4j])


def _stepwise_side(side, lam_rho, out):
    """One Magnus step matrix and one product per step, in that order."""
    s = lam_rho
    y1, y2 = out[:, 0, 0], out[:, 0, 1]
    for j, (a0, a1, b0, b1, c0, c1) in enumerate(side.omega.T, 1):
        o11, o12, o21 = a0 + s * a1, b0 + s * b1, c0 + s * c1
        w = np.sqrt(-(o11 * o11 + o12 * o21))
        cw, sw = np.cos(w), np.sinc(w / np.pi)
        y1, y2 = (cw * y1 + sw * (o11 * y1 + o12 * y2),
                  cw * y2 + sw * (o21 * y1 - o11 * y2))
        out[:, j, 0] = y1
        out[:, j, 1] = y2


def _inits(config, lams, endpoint):
    init = integrator.phi_init if endpoint == "left" else integrator.psi_init
    return init(config, lams)


def _stepwise(config, lams, endpoint):
    lams = np.asarray(lams, dtype=complex)
    grid = integrator.build_grid(config)
    ys = np.empty((len(lams), len(grid.xs), 2), dtype=complex)
    if endpoint == "left":
        view, first, second = ys, grid.left, grid.right
    else:
        view, first, second = ys[:, ::-1], grid.right.reversed(), grid.left.reversed()
    view[:, 0] = _inits(config, lams, endpoint)
    _stepwise_side(first, lams * first.rho, view[:, :first.n + 1])
    _stepwise_side(second, lams * second.rho, view[:, first.n:])
    return ys


def _lams(batch, imag):
    return np.linspace(-30.0, 30.0, batch) + imag * np.linspace(0.5, 2.0, batch)


def _sweep(config, lams, endpoint):
    return integrator.propagate_many(config, lams, _inits(config, lams, endpoint), endpoint)[1]


@pytest.mark.parametrize("endpoint", ["left", "right"])
@pytest.mark.parametrize("kind", sorted(POTENTIALS))
@pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
@pytest.mark.parametrize("batch", [1, 7, 400, 5000])
def test_blocked_sweep_matches_the_stepwise_sweep(endpoint, kind, imag, batch):
    # grid 128 gives 64 steps a side: one block a side at batch 1 and 7,
    # blocks of 10 with a partial last one at 400, one step each at 5000
    config = reference_config(2.0, 128, POTENTIALS[kind])
    lams = _lams(batch, imag)
    ys = _sweep(config, lams, endpoint)
    ref = _stepwise(config, lams, endpoint)
    scale = np.max(np.abs(ref), axis=(1, 2))
    assert np.all(np.max(np.abs(ys - ref), axis=(1, 2)) <= 1e-12 * scale)


@pytest.mark.parametrize("endpoint", ["left", "right"])
def test_empty_batch_returns_an_empty_result(endpoint):
    config = reference_config(2.0, 128)
    xs, ys, _ = integrator.propagate_many(config, [], np.empty((0, 2)), endpoint)
    assert ys.shape == (0, len(xs), 2)


@pytest.mark.parametrize("endpoint", ["left", "right"])
@pytest.mark.parametrize("block", [1, 10 ** 6])
def test_block_size_changes_no_value(monkeypatch, endpoint, block):
    config = reference_config(2.0, 128, POTENTIALS["piecewise"])
    lams = _lams(400, 1.0)
    default = _sweep(config, lams, endpoint)
    monkeypatch.setattr(integrator, "_BLOCK", block)
    assert np.array_equal(_sweep(config, lams, endpoint), default)


@pytest.mark.parametrize("endpoint", ["left", "right"])
def test_a_value_does_not_depend_on_its_batch(endpoint):
    config = reference_config(2.0, 128, POTENTIALS["cosine"])
    batch = np.concatenate([_lams(4997, 1.0), PROBE])
    together = _sweep(config, batch, endpoint)[-len(PROBE):]
    for lam, ys in zip(PROBE, together):
        assert np.array_equal(_sweep(config, [lam], endpoint)[0], ys)
