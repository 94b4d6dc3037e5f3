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


def _step_rows(config, xn, rho=1.0):
    """Each step's Omega rows, from the nodes ``xn`` of one side of the jump
    and p and q at the step's two Gauss points."""
    h = np.diff(xn)
    pot = config.potential
    xa, xb = (xn[:-1] + g * h for g in integrator._GAUSS)
    return integrator._omega_rows(h, rho, pot.p_at(xa), pot.q_at(xa),
                                  pot.p_at(xb), pot.q_at(xb))


def _stepwise_side(rows, lam_rho, out):
    """One Magnus step matrix and one product per step, in that order."""
    s = lam_rho
    y1, y2 = out[:, 0, 0], out[:, 0, 1]
    for j, (a0, a1, b0, b1, c0, c1) in enumerate(rows.T, 1):
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
    """The sweep side by side, one step at a time; leftward, each side's
    steps are reversed and their rows negated."""
    lams = np.asarray(lams, dtype=complex)
    grid = integrator.build_grid(config)
    ia = grid.ia
    ys = np.empty((len(lams), len(grid.xs), 2), dtype=complex)
    sides = [(_step_rows(config, grid.xs[:ia + 1]), 1.0),
             (_step_rows(config, grid.xs[ia:]), config.weight.alpha)]
    view = ys
    if endpoint == "right":
        view, sides = ys[:, ::-1], [(-rows[:, ::-1], rho) for rows, rho in sides[::-1]]
    view[:, 0] = _inits(config, lams, endpoint)
    (rows1, rho1), (rows2, rho2) = sides
    n1 = rows1.shape[1]
    _stepwise_side(rows1, lams * rho1, view[:, :n1 + 1])
    _stepwise_side(rows2, lams * rho2, view[:, n1:])
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
    # grid 128 gives 64 steps a side.  The cosine cases march one run of 128
    # one-step cells across the jump and fan out nothing: one block at
    # batch 1 and 7, blocks of 10 with a partial last one at 400, one step
    # each at 5000.  The piecewise cases march their 4 cell ends (42, 22, 22
    # and 42 steps long), one block but at 5000, then write the 124 nodes
    # inside the cells (41, 21, 21 and 41), each from its cell's first
    # state: one block at batch 1 and 7, blocks of 10 that run across cell
    # bounds with a partial last one at 400, one node each at 5000
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
@pytest.mark.parametrize("kind", sorted(POTENTIALS))
def test_a_value_does_not_depend_on_its_batch(endpoint, kind):
    # in the batch every fan-out block holds one node; alone, a lambda's
    # one block spans every cell
    config = reference_config(2.0, 128, POTENTIALS[kind])
    batch = np.concatenate([_lams(4997, 1.0), PROBE])
    together = _sweep(config, batch, endpoint)[-len(PROBE):]
    for lam, ys in zip(PROBE, together):
        assert np.array_equal(_sweep(config, [lam], endpoint)[0], ys)
