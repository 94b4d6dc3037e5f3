"""Characteristic function, its derivative, asymptotic envelope, and seeds.

Delta(lambda) is the Wronskian of the left- and right-normalized solutions;
its zeros are the eigenvalues.  Three algebraically equivalent expressions
(Wronskian at an interior node, the U1 form on psi, the negated U2 form on
phi) are evaluated side by side as a numerical self-check.  At real lambda,
:func:`complex_step` is the one source of psi(0), Delta and Delta-dot for
the root refiner and the per-root quantities: one psi(0) sweep at
lambda + ih gives all three.  Where a batch takes an
:class:`integrator.ConfigStack` in place of the config, each lambda is
evaluated on its own config, with the bits it has alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .model import PI, ProblemConfig, mu
from . import integrator


#: imaginary step of the complex-step derivative, which takes no difference
_COMPLEX_STEP = 1e-30


@dataclass(frozen=True)
class CharEval:
    """One characteristic-function evaluation with its consistency record."""

    lam: complex
    delta: complex            # Wronskian at the grid midpoint
    delta_via_u1: complex     # U1 boundary form applied to psi
    delta_via_u2: complex     # -U2 boundary form applied to phi
    wronskian_spread: float   # max relative variation of the Wronskian over x


def u1_form(config: ProblemConfig, lam, y1_0, y2_0):
    """b1*y2(0) + b2*y1(0) - lambda*(b3*y2(0) + b4*y1(0))."""
    b = config.boundary
    return b.b1 * y2_0 + b.b2 * y1_0 - lam * (b.b3 * y2_0 + b.b4 * y1_0)


def u2_form(config: ProblemConfig, lam, y1_pi, y2_pi):
    """c1*y2(pi) + c2*y1(pi) + lambda*(c3*y2(pi) + c4*y1(pi))."""
    b = config.boundary
    return b.c1 * y2_pi + b.c2 * y1_pi + lam * (b.c3 * y2_pi + b.c4 * y1_pi)


def _psi0_and_delta(config: ProblemConfig, lams: np.ndarray):
    """psi(0) and Delta, via the U1 form on psi(0), from one psi(0) sweep."""
    psi0 = integrator.psi0_many(config, lams)
    return psi0, u1_form(config, lams, psi0[:, 0], psi0[:, 1])


def delta_many(config: ProblemConfig, lams) -> np.ndarray:
    """Batched Delta via the U1 form on psi(0)."""
    return _psi0_and_delta(config, np.atleast_1d(np.asarray(lams, dtype=complex)))[1]


def complex_step(config: ProblemConfig, lams):
    """psi(0), Delta and d Delta / d lambda at real lambda, from one psi(0)
    sweep at lambda + ih.  Delta is holomorphic and real on the real axis, so
    the real parts are psi(0) and Delta at lambda to O(h^2), and the complex
    step Im Delta(lambda + ih) / h (Squire and Trapp 1998) is Delta-dot with
    Delta's digits: it takes no difference."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if np.any(lams.imag != 0.0):
        raise DomainError("the complex-step derivative of Delta needs real lambda")
    psi0, d = _psi0_and_delta(config, lams.real + 1j * _COMPLEX_STEP)
    return psi0.real, d.real, d.imag / _COMPLEX_STEP


def delta(config: ProblemConfig, lam) -> CharEval:
    lam = complex(lam)
    phi_t = integrator.phi(config, lam)
    psi_t = integrator.psi(config, lam)
    w = phi_t.ys[:, 1] * psi_t.ys[:, 0] - phi_t.ys[:, 0] * psi_t.ys[:, 1]
    mid = len(w) // 2
    w_mid = w[mid]
    spread = float(np.max(np.abs(w - w_mid)) / max(abs(w_mid), 1e-300))
    via_u1 = u1_form(config, lam, psi_t.ys[0, 0], psi_t.ys[0, 1])
    via_u2 = -u2_form(config, lam, phi_t.ys[-1, 0], phi_t.ys[-1, 1])
    return CharEval(lam=lam, delta=complex(w_mid),
                    delta_via_u1=complex(via_u1), delta_via_u2=complex(via_u2),
                    wronskian_spread=spread)


def delta_dot(config: ProblemConfig, lam) -> float:
    """d Delta / d lambda at a real lambda; see :func:`complex_step`."""
    return float(complex_step(config, [lam])[2][0])


def seed_phase(config: ProblemConfig) -> float:
    """Index offset (in units of pi) of the asymptotic eigenvalue ladder."""
    b = config.boundary
    num = b.c3 * b.b4 - b.c4 * b.b3
    den = b.b3 * b.c3 + b.c4 * b.b4
    if num == 0.0 and den == 0.0:
        raise ConfigError("degenerate boundary coefficients: seed phase undefined")
    return math.atan2(num, den)


def asymptotic_seed(config: ProblemConfig, n: int | np.ndarray) -> float | np.ndarray:
    """Closed-form eigenvalue seed for index n, or an array of seeds for an
    array of indices."""
    mu_pi = mu(PI, config.weight)
    return (n + seed_phase(config) / PI) * PI / mu_pi


def chi(config: ProblemConfig, lam) -> complex:
    """Leading trigonometric envelope of Delta(lambda)/lambda^2."""
    b = config.boundary
    lam = complex(lam)
    s = np.sin(lam * mu(PI, config.weight))
    c = np.cos(lam * mu(PI, config.weight))
    return complex(b.c3 * b.b4 * c - b.b3 * b.c3 * s
                   - b.c4 * b.b3 * c - b.b4 * b.c4 * s)


def leading_order_check(config: ProblemConfig, lam: float) -> float:
    """Max defect of phi against its leading large-lambda form.

    Bounded uniformly in lambda on the real axis; callers probe boundedness,
    not a specific constant.
    """
    if abs(complex(lam).imag) > 0.0:
        raise DomainError("leading-order check is a real-axis probe")
    lam = float(np.real(lam))
    if abs(lam) < 10.0:
        raise DomainError(f"|lambda| = {abs(lam)} must be >= 10")
    b = config.boundary
    traj = integrator.phi(config, lam)
    mus = mu(traj.xs, config.weight)
    lead1 = lam * (b.b3 * np.cos(lam * mus) + b.b4 * np.sin(lam * mus))
    lead2 = lam * (b.b3 * np.sin(lam * mus) - b.b4 * np.cos(lam * mus))
    d1 = np.max(np.abs(traj.ys[:, 0] - lead1))
    d2 = np.max(np.abs(traj.ys[:, 1] - lead2))
    return float(max(d1, d2))
