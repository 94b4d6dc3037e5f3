"""Characteristic function: frozen oracle values, consistency, asymptotics.

For the trivial-weight zero-potential configuration the characteristic
function has the elementary closed form

    Delta(lambda) = (1 - lambda^2) sin(lambda pi) + 2 lambda cos(lambda pi),

which pins down every expected value used below.
"""
import math

import numpy as np
import pytest

from diracbvp import charfn
from diracbvp.errors import ConfigError, DomainError
from diracbvp.model import PI, BoundaryParams, PotentialSpec, ProblemConfig, Weight

from conftest import reference_config


def closed_form_delta(lam):
    lam = np.asarray(lam, dtype=complex)
    return (1.0 - lam * lam) * np.sin(lam * PI) + 2.0 * lam * np.cos(lam * PI)


def test_frozen_value_at_one(r0):
    # closed form: (1 - 1) sin(pi) + 2 cos(pi) = -2
    assert charfn.delta(r0, 1.0).delta == pytest.approx(-2.0, abs=1e-10)


def test_frozen_value_at_i(r0):
    # closed form: 2i sinh(pi) + 2i cosh(pi) = 2i e^pi
    expected = 2.0j * math.exp(PI)  # 46.281385265558534j
    assert charfn.delta(r0, 1j).delta == pytest.approx(expected, abs=1e-8)


def test_matches_closed_form_on_a_sweep(r0):
    lams = np.linspace(-6.0, 6.0, 25) + 0.3j
    vals = charfn.delta_many(r0, lams)
    expected = closed_form_delta(lams)
    assert np.max(np.abs(vals - expected)) < 1e-7 * np.max(np.abs(expected))


def test_derivative_at_origin(r0):
    # d/dlambda [(1-l^2) sin(l pi) + 2 l cos(l pi)] at 0 equals pi + 2
    assert charfn.delta_dot(r0, 0.0) == pytest.approx(PI + 2.0, abs=1e-7)


def test_batched_derivative_matches_scalar(r0):
    lams = [0.0, 1.3]
    batched = charfn.complex_step(r0, lams)[2]
    for lam, val in zip(lams, batched):
        assert val == pytest.approx(charfn.delta_dot(r0, lam), rel=1e-8)


@pytest.mark.parametrize("lam", [0.5, 0.25])
def test_derivative_through_a_step_with_w_zero(lam):
    # p^2 + q^2 = (lambda rho)^2 on the left side at 0.5 and on the right at
    # 0.25, so there a Magnus step has w = 0; the reference is the Cauchy
    # integral of Delta on a circle of radius 0.5, 64 nodes
    cfg = reference_config(2.0, 1024, PotentialSpec.constant(0.3, 0.4))
    ring = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    cauchy = np.mean(charfn.delta_many(cfg, lam + ring) / ring).real
    assert charfn.delta_dot(cfg, lam) == pytest.approx(cauchy, rel=1e-12)


def test_derivative_is_a_real_axis_quantity(r0):
    with pytest.raises(DomainError):
        charfn.delta_dot(r0, 2.0 + 0.5j)


def test_three_routes_agree(r0, r1):
    for cfg in (r0, r1):
        ev = charfn.delta(cfg, 2.3 - 0.8j)
        assert ev.delta_via_u1 == pytest.approx(ev.delta, rel=1e-9)
        assert ev.delta_via_u2 == pytest.approx(ev.delta, rel=1e-9)
        assert ev.wronskian_spread < 1e-10


def test_batched_delta_matches_scalar(r1):
    lams = np.array([0.7, 1.9, 3.0 + 1.0j])
    vals = charfn.delta_many(r1, lams)
    for lam, val in zip(lams, vals):
        assert val == pytest.approx(charfn.delta(r1, lam).delta, rel=1e-10)


def test_seed_ladder_spacing(r0, r1):
    assert charfn.seed_phase(r0) == 0.0
    # trivial weight: unit spacing anchored at the integers
    assert charfn.asymptotic_seed(r0, 7) == pytest.approx(7.0)
    # doubled weight on half the interval: optical length 3 pi / 2
    assert charfn.asymptotic_seed(r1, 3) == pytest.approx(2.0)
    assert (charfn.asymptotic_seed(r1, 10) - charfn.asymptotic_seed(r1, 9)
            == pytest.approx(2.0 / 3.0))


def test_a_seed_ladder_is_one_expression(r1):
    # the array of seeds has the bits of the seeds one index at a time
    ns = np.arange(-30, 31)
    assert np.array_equal(charfn.asymptotic_seed(r1, ns),
                          [charfn.asymptotic_seed(r1, int(n)) for n in ns])


def test_seed_phase_for_mixed_boundary_pair():
    # b = (0,-1,1,0) against c = (1,0,0,1): the ladder shifts by half a step
    cfg = ProblemConfig(
        boundary=BoundaryParams(0.0, -1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0),
        weight=Weight(alpha=1.0, a=PI / 2.0),
        potential=PotentialSpec.zero(), grid_points=64)
    assert charfn.seed_phase(cfg) == pytest.approx(-PI / 2.0)
    assert charfn.asymptotic_seed(cfg, 4) == pytest.approx(3.5)


def test_seed_phase_rejects_an_underflowing_phase():
    # k1 = k2 = 1, but b4 c4 = 1e-400 underflows, so num = den = 0
    cfg = ProblemConfig(
        boundary=BoundaryParams(1e200, 0.0, 0.0, 1e-200, 1e200, 0.0, 0.0, 1e-200),
        weight=Weight(alpha=1.0, a=PI / 2.0),
        potential=PotentialSpec.zero(), grid_points=64)
    with pytest.raises(ConfigError, match="seed phase undefined"):
        charfn.seed_phase(cfg)


def test_envelope_dominates_at_large_lambda(r0):
    # Delta / lambda^2 approaches -sin(lambda pi); the defect decays like 1/lambda
    lam = 50.25
    val = charfn.delta(r0, lam).delta / lam ** 2
    assert abs(val - charfn.chi(r0, lam)) < 0.1


def test_leading_order_probe_bounded(r0, r1):
    vals = [charfn.leading_order_check(cfg, lam)
            for cfg in (r0, r1) for lam in (10.0, 20.0, 40.0)]
    assert max(vals) < 2.0


def test_leading_order_probe_guards_domain(r0):
    with pytest.raises(DomainError):
        charfn.leading_order_check(r0, 3.0)
    with pytest.raises(DomainError):
        charfn.leading_order_check(r0, 12.0 + 1.0j)
