"""The one grid of a problem and the Magnus step on it.

A node sits at the weight jump and at every breakpoint of a piecewise
potential, each piece carries an even count of equal steps, and the Magnus
step is exact on constant pieces.  So Delta of a piecewise potential agrees
with a product of closed-form constant-piece propagators to roundoff, and a
value of Delta does not depend on which other lambda share its batch.
"""
import numpy as np
import pytest

from diracbvp import charfn, expansion, integrator
from diracbvp.model import (PI, BoundaryParams, PotentialSpec, ProblemConfig,
                            Weight)

from conftest import reference_config

P = (0.3, -0.45, 0.2)
Q = (-0.1, 0.35, -0.25)


def _three_segments(a: float, grid_points: int) -> ProblemConfig:
    # the spectrum workload's shape: general boundary forms, alpha = 2
    return ProblemConfig(
        boundary=BoundaryParams(1.0, -0.5, 1.0, 0.3, 0.5, -1.0, 1.0, 0.2),
        weight=Weight(alpha=2.0, a=a),
        potential=PotentialSpec.piecewise(P, Q),
        grid_points=grid_points)


def _constant_piece(s, p, q, length):
    """exp(length A) for A = [[q, -(p + s)], [s - p, -q]], one per s.

    A is trace-free with A^2 = -k^2 I, k^2 = s^2 - p^2 - q^2, so
    exp(L A) = cos(k L) I + L sinc(k L / pi) A."""
    k = np.sqrt(s * s - p * p - q * q)
    c = np.cos(k * length)
    t = length * np.sinc(k * length / np.pi)
    return np.array([[c + t * q, -t * (p + s)], [t * (s - p), c - t * q]])


def _exact_delta(config, lams):
    """-U2(phi(pi)) with phi(pi) the product of the constant-piece propagators."""
    lams = np.asarray(lams, dtype=complex)
    a, alpha = config.weight.a, config.weight.alpha
    edges = sorted({0.0, PI / 3, 2 * PI / 3, a, PI})
    y = integrator.phi_init(config, lams).T              # (2, batch)
    for x0, x1 in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (x0 + x1)
        seg = min(int(mid / PI * 3), 2)
        s = lams * (1.0 if mid < a else alpha)
        m = _constant_piece(s, P[seg], Q[seg], x1 - x0)
        y = np.einsum("ijb,jb->ib", m, y)
    return -charfn.u2_form(config, lams, y[0], y[1])


def test_delta_does_not_depend_on_its_batch():
    # lambda = 1 is an exact root here, so a batch-dependent grid flips its sign
    config = reference_config(2.0, 2048)
    alone = charfn.delta_many(config, [1.0])
    shared = charfn.delta_many(config, [1.0, 400.0])
    assert np.array_equal(alone, shared[:1])


def test_piecewise_delta_matches_constant_piece_propagators():
    config = _three_segments(PI / 2, 256)
    lams = np.linspace(-20.0, 20.0, 300)
    exact = _exact_delta(config, lams)
    err = np.abs(charfn.delta_many(config, lams) - exact)
    assert np.max(err) <= 1e-11 * np.max(np.abs(exact))


@pytest.mark.parametrize("lam", [3.3 + 1.2j, -7.1 - 0.4j])
def test_piecewise_delta_off_the_real_axis(lam):
    config = _three_segments(PI / 2, 256)
    exact = _exact_delta(config, [lam])[0]
    assert abs(charfn.delta_many(config, [lam])[0] - exact) <= 1e-11 * abs(exact)


def test_cuts_are_nodes_and_gram_integrates_cubics():
    # a = 1 leaves a short piece [1, pi/3] next to two long ones on the right
    a = 1.0
    config = _three_segments(a, 256)
    grid = integrator.build_grid(config)
    xs = grid.xs
    assert xs[grid.ia] == a
    edges = [0.0, a, PI / 3, 2 * PI / 3, PI]
    for cut in edges[1:-1]:
        assert np.any(xs == cut)
    bounds = [int(np.argmin(np.abs(xs - e))) for e in edges]
    for i0, i1 in zip(bounds[:-1], bounds[1:]):
        assert (i1 - i0) % 2 == 0 and i1 - i0 >= 2
        steps = np.diff(xs[i0:i1 + 1])
        assert np.ptp(steps) <= 1e-12 * steps[0]
    short, long = (xs[i + 1] - xs[i] for i in bounds[1:3])
    assert not np.isclose(short, long)             # the pieces are uneven

    zero = np.zeros_like(xs)
    cubic = expansion.HElement(xs, 2.0 * xs ** 3 - xs, zero, 0.0, 0.0)
    one = expansion.HElement(xs, zero + 1.0, zero, 0.0, 0.0)
    exact = (a ** 4 / 2 - a ** 2 / 2
             + 2.0 * ((PI ** 4 - a ** 4) / 2 - (PI ** 2 - a ** 2) / 2))
    assert abs(expansion.gram(config, cubic, one)[0, 0] - exact) <= 1e-13 * abs(exact)
