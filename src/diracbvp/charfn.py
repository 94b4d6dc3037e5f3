"""Characteristic function, its derivative, asymptotic envelope, and seeds.

Delta(lambda) is the Wronskian of the left- and right-normalized solutions;
its zeros are the eigenvalues.  Three algebraically equivalent expressions
(Wronskian at an interior node, the U1 form on psi, the negated U2 form on
phi) are evaluated side by side as a numerical self-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .model import PI, ProblemConfig, mu
from . import integrator


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


def delta_many(config: ProblemConfig, lams) -> np.ndarray:
    """Batched Delta via the U1 form on psi(0)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    psi0 = integrator.psi0_many(config, lams)
    return u1_form(config, lams, psi0[:, 0], psi0[:, 1])


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


def delta_dot(config: ProblemConfig, lam) -> complex:
    """d Delta / d lambda via Richardson-extrapolated central differences."""
    return complex(delta_dot_many(config, [lam])[0])


def delta_dot_many(config: ProblemConfig, lams) -> np.ndarray:
    """Batched d Delta / d lambda: one propagation of the four-point
    Richardson stencil lambda +- h, lambda +- h/2 with h = 1e-6 (1 + |lambda|)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    hs = 1e-6 * (1.0 + np.abs(lams))
    pts = np.concatenate([lams + hs, lams - hs, lams + hs / 2, lams - hs / 2])
    vals = delta_many(config, pts).reshape(4, -1)
    d1 = (vals[0] - vals[1]) / (2.0 * hs)
    d2 = (vals[2] - vals[3]) / hs
    return (4.0 * d2 - d1) / 3.0


def seed_phase(config: ProblemConfig) -> float:
    """Index offset (in units of pi) of the asymptotic eigenvalue ladder."""
    b = config.boundary
    if (b.b3, b.b4) == (0.0, 0.0) or (b.c3, b.c4) == (0.0, 0.0):
        raise ConfigError(
            "asymptotic seeds need a nonzero lambda-coefficient pair "
            "on each boundary form")
    num = b.c3 * b.b4 - b.c4 * b.b3
    den = b.b3 * b.c3 + b.c4 * b.b4
    if num == 0.0 and den == 0.0:
        raise ConfigError("degenerate boundary coefficients: seed phase undefined")
    return math.atan2(num, den)


def asymptotic_seed(config: ProblemConfig, n: int) -> float:
    """Closed-form eigenvalue seed for index n."""
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
