"""The three routes to the characteristic function agree on random problems.

The Wronskian of phi (swept rightward) and psi (swept leftward), the U1 form
on psi and the negated U2 form on phi are algebraically equal; drawing
random boundary forms, weights, 1-2-segment potentials and complex lambda
exercises both sweep directions of the propagation core.
"""
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from diracbvp import charfn, integrator

from test_gram import problems


@settings(max_examples=50, deadline=None)
@given(config=problems(), re=st.floats(-10.0, 10.0), im=st.floats(-3.0, 3.0))
def test_three_delta_routes_agree(config, re, im):
    lam = complex(re, im)
    ev = charfn.delta(config, lam)
    # relative agreement means nothing where Delta is at the roundoff level
    # of its own terms phi1 psi2 and phi2 psi1, as at a root
    terms = (np.linalg.norm(integrator.phi(config, lam).ys, axis=1)
             * np.linalg.norm(integrator.psi(config, lam).ys, axis=1))
    assume(abs(ev.delta) > 1e-4 * np.max(terms))
    assert ev.wronskian_spread <= 1e-10
    assert abs(ev.delta_via_u1 - ev.delta) <= 1e-10 * abs(ev.delta)
    assert abs(ev.delta_via_u2 - ev.delta) <= 1e-10 * abs(ev.delta)
