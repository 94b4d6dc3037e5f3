"""The one Simpson rule behind the Gram weights and the resolvent's
cumulative integrals, and an import path that loads no scipy.

On random valid problems the cumulative integral ends at the Gram's weight
sum and agrees with scipy's ``cumulative_simpson`` applied on each side of
the jump, real and imaginary parts apart.  The end value is compared
relative to the integral of |f|: the integral of f itself can cancel, and
the running sum's roundoff scales with the sum of its terms' sizes.
"""
import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson

from diracbvp import expansion, integrator

from conftest import run_python
from test_gram import problems


def _values(config, lam):
    """A complex, oscillating function on the config grid."""
    ys = integrator.phi(config, lam).ys
    return ys[:, 0] + 2.0 * ys[:, 1]


def _scipy_cumulative(config, values):
    """Cumulative rho-weighted integral by scipy on each side of the jump."""
    grid = integrator.build_grid(config)
    ia = grid.ia

    def cumulative(v, x):
        return (cumulative_simpson(v.real, x=x, initial=0.0)
                + 1j * cumulative_simpson(v.imag, x=x, initial=0.0))

    left = cumulative(values[:ia + 1], grid.xs[:ia + 1])
    right = config.weight.alpha * cumulative(values[ia:], grid.xs[ia:])
    return np.concatenate([left, left[-1] + right[1:]])


def _gram_sum(config, values):
    """w @ values, the Gram's rho-weighted Simpson sum, read off ``gram``."""
    xs = integrator.build_grid(config).xs
    zero = np.zeros_like(values)
    Y = expansion.HElement(xs, values, zero, 0.0, 0.0)
    one = expansion.HElement(xs, np.ones_like(values), zero, 0.0, 0.0)
    return complex(expansion.gram(config, Y, one)[0, 0])


lambdas = st.builds(complex, st.floats(-20.0, 20.0), st.floats(-2.0, 2.0))


@settings(max_examples=15, deadline=None)
@given(config=problems(), lam=lambdas)
def test_cumulative_ends_at_the_gram_weight_sum(config, lam):
    values = _values(config, lam)
    total = _gram_sum(config, values)
    cum = expansion._cumulative(config, values)
    assert abs(cum[-1] - total) <= 1e-13 * _gram_sum(config, np.abs(values)).real


@settings(max_examples=15, deadline=None)
@given(config=problems(), lam=lambdas)
def test_cumulative_matches_scipy_cumulative_simpson(config, lam):
    values = _values(config, lam)
    cum = expansion._cumulative(config, values)
    ref = _scipy_cumulative(config, values)
    assert cum.shape == ref.shape
    assert np.max(np.abs(cum - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_importing_the_package_and_cli_loads_no_scipy():
    proc = run_python("-c", "import sys, diracbvp, diracbvp.cli; "
                            "print(sorted(m for m in sys.modules "
                            "if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
