"""Exact reference for piecewise-constant potentials, written apart from diracbvp.

The system is y' = A y with A = [[q, -(p + lam rho)], [lam rho - p, -q]]
(the first-order form of B y' + Omega y = lam rho y).  On a piece where p,
q and rho are constant, A^2 = (p^2 + q^2 - lam^2 rho^2) I, so with
w^2 = lam^2 rho^2 - p^2 - q^2 the propagator over a length t is

    exp(A t) = cos(w t) I + (sin(w t) / w) A,

which is even in w and needs no branch choice.  Breakpoints are the weight
jump ``a`` and the segment ends k pi / m of each potential component.

Only numpy and scipy are used; nothing here imports the package under test.
Problems are read from the same JSON configuration documents the package's
command line reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

PI = math.pi


@dataclass(frozen=True)
class Problem:
    """Boundary coefficients, weight and piecewise-constant potential."""

    b1: float
    b2: float
    b3: float
    b4: float
    c1: float
    c2: float
    c3: float
    c4: float
    alpha: float
    a: float
    p: tuple
    q: tuple

    @staticmethod
    def from_config(doc: dict) -> "Problem":
        if doc["potential"]["kind"] != "piecewise":
            raise ValueError("the exact reference needs a piecewise-constant potential")
        bd = doc["boundary"]
        return Problem(*(float(bd[k]) for k in ("b1", "b2", "b3", "b4",
                                                 "c1", "c2", "c3", "c4")),
                       alpha=float(doc["weight"]["alpha"]),
                       a=float(doc["weight"]["a"]),
                       p=tuple(float(v) for v in doc["potential"]["p_params"]),
                       q=tuple(float(v) for v in doc["potential"]["q_params"]))

    @property
    def k1(self) -> float:
        return self.b1 * self.b4 - self.b2 * self.b3

    @property
    def k2(self) -> float:
        return self.c1 * self.c4 - self.c2 * self.c3

    @property
    def mu_pi(self) -> float:
        """Optical length of [0, pi]: a + alpha (pi - a)."""
        return self.a + self.alpha * (PI - self.a)

    def pieces(self):
        """(x0, x1, p, q, rho) for every interval of constant coefficients."""
        cuts = {0.0, PI, self.a}
        for vals in (self.p, self.q):
            cuts.update(k * PI / len(vals) for k in range(1, len(vals)))
        xs = sorted(cuts)
        out = []
        for x0, x1 in zip(xs[:-1], xs[1:]):
            mid = 0.5 * (x0 + x1)
            p = self.p[min(int(mid / PI * len(self.p)), len(self.p) - 1)]
            q = self.q[min(int(mid / PI * len(self.q)), len(self.q) - 1)]
            out.append((x0, x1, p, q, 1.0 if mid < self.a else self.alpha))
        return out


def _step(lams, p, q, rho, t):
    """Propagator entries (e11, e12, e21, e22) over length t, broadcast over lams and t."""
    lr = lams * rho
    w = np.sqrt(lr * lr - p * p - q * q + 0j)
    wt = w * t
    c = np.cos(wt)
    s = t * np.sinc(wt / PI)          # sin(w t) / w, also at w = 0
    return c + s * q, -s * (p + lr), s * (lr - p), c - s * q


def _apply(e, y1, y2):
    return e[0] * y1 + e[1] * y2, e[2] * y1 + e[3] * y2


def phi_init(prob: Problem, lams):
    """phi(0) = (lam b3 - b1, b2 - lam b4), on which U1 vanishes."""
    return lams * prob.b3 - prob.b1, prob.b2 - lams * prob.b4


def psi_init(prob: Problem, lams):
    """psi(pi) = (-c1 - lam c3, c2 + lam c4), on which U2 vanishes."""
    return -prob.c1 - lams * prob.c3, prob.c2 + lams * prob.c4


def u1(prob, lams, y1, y2):
    """Left boundary form b1 y2 + b2 y1 - lam (b3 y2 + b4 y1) at x = 0."""
    return prob.b1 * y2 + prob.b2 * y1 - lams * (prob.b3 * y2 + prob.b4 * y1)


def u2(prob, lams, y1, y2):
    """Right boundary form c1 y2 + c2 y1 + lam (c3 y2 + c4 y1) at x = pi."""
    return prob.c1 * y2 + prob.c2 * y1 + lams * (prob.c3 * y2 + prob.c4 * y1)


def phi_right(prob: Problem, lams):
    """phi(pi) for a batch of lambdas."""
    lams = np.asarray(lams, dtype=complex)
    y1, y2 = phi_init(prob, lams)
    for x0, x1, p, q, rho in prob.pieces():
        y1, y2 = _apply(_step(lams, p, q, rho, x1 - x0), y1, y2)
    return y1, y2


def psi_left(prob: Problem, lams):
    """psi(0): the right-normalized solution carried back to x = 0."""
    lams = np.asarray(lams, dtype=complex)
    y1, y2 = psi_init(prob, lams)
    for x0, x1, p, q, rho in reversed(prob.pieces()):
        y1, y2 = _apply(_step(lams, p, q, rho, x0 - x1), y1, y2)
    return y1, y2


def delta(prob: Problem, lams):
    """Characteristic function: -U2 applied to phi at pi."""
    lams = np.asarray(lams, dtype=complex)
    return -u2(prob, lams, *phi_right(prob, lams))


def delta_dot(prob: Problem, lams, radius=0.05, nodes=32):
    """d Delta / d lambda by the Cauchy integral on a small circle (Delta is entire)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    theta = 2.0 * PI * np.arange(nodes) / nodes
    ring = radius * np.exp(1j * theta)
    vals = delta(prob, lams[:, None] + ring[None, :])
    return np.mean(vals / ring[None, :], axis=1)


def weyl(prob: Problem, lams):
    """Weyl function M = -(b4 psi1(0) + b3 psi2(0)) / (k1 Delta)."""
    lams = np.asarray(lams, dtype=complex)
    s1, s2 = psi_left(prob, lams)
    dval = u1(prob, lams, s1, s2)
    return -(prob.b4 * s1 + prob.b3 * s2) / (prob.k1 * dval)


def phi_values(prob: Problem, lam, xs):
    """phi at arbitrary points of [0, pi] for one lambda; returns (y1, y2) arrays."""
    lam = complex(lam)
    xs = np.asarray(xs, dtype=float)
    y1 = np.empty(xs.shape, dtype=complex)
    y2 = np.empty(xs.shape, dtype=complex)
    s1, s2 = phi_init(prob, lam)
    for i, (x0, x1, p, q, rho) in enumerate(prob.pieces()):
        last = i == len(prob.pieces()) - 1
        sel = (xs >= x0) & ((xs <= x1) if last else (xs < x1))
        e = _step(lam, p, q, rho, xs[sel] - x0)
        y1[sel], y2[sel] = _apply(e, s1, s2)
        s1, s2 = _apply(_step(lam, p, q, rho, x1 - x0), s1, s2)
    return y1, y2


def _gauss_pieces(prob: Problem, lam):
    """Gauss-Legendre nodes and rho-weights fine enough for phi at lam on every piece."""
    xs, ws = [], []
    for x0, x1, p, q, rho in prob.pieces():
        w = abs(np.sqrt(complex(lam * lam * rho * rho - p * p - q * q)))
        n = 24 + 2 * int(math.ceil(w * (x1 - x0)))
        t, wt = np.polynomial.legendre.leggauss(n)
        xs.append(x0 + 0.5 * (x1 - x0) * (t + 1.0))
        ws.append(0.5 * (x1 - x0) * rho * wt)
    return np.concatenate(xs), np.concatenate(ws)


def inner(prob: Problem, f, g, lam_hint=0.0):
    """Weighted inner product of two elements given as (f1, f2, f3, f4).

    f1 and f2 are callables of x; f3 and f4 are the boundary scalars.  The
    integral runs by Gauss-Legendre quadrature on every smooth piece.
    """
    xs, ws = _gauss_pieces(prob, lam_hint)
    integral = np.sum(ws * (f[0](xs) * np.conj(g[0](xs)) + f[1](xs) * np.conj(g[1](xs))))
    return complex(integral + f[2] * np.conj(g[2]) / prob.k1
                   + f[3] * np.conj(g[3]) / prob.k2)


def eigen_element(prob: Problem, lam_n: float):
    """The element (phi1, phi2, b3 phi2(0) + b4 phi1(0), c3 phi2(pi) + c4 phi1(pi))."""
    def f1(x):
        return phi_values(prob, lam_n, x)[0].real

    def f2(x):
        return phi_values(prob, lam_n, x)[1].real

    y1, y2 = phi_values(prob, lam_n, np.array([0.0, PI]))
    return (f1, f2,
            float(prob.b3 * y2[0].real + prob.b4 * y1[0].real),
            float(prob.c3 * y2[1].real + prob.c4 * y1[1].real))


def alpha(prob: Problem, lam_n: float) -> float:
    """Norming constant: squared weighted norm of the eigen-element."""
    el = eigen_element(prob, lam_n)
    return inner(prob, el, el, lam_hint=lam_n).real


def beta(prob: Problem, lam_n: float) -> float:
    """psi = beta phi at an eigenvalue, read off at x = 0."""
    f1, f2 = phi_init(prob, complex(lam_n))
    s1, s2 = psi_left(prob, complex(lam_n))
    return float((s1 * np.conj(f1) + s2 * np.conj(f2)).real
                 / (abs(f1) ** 2 + abs(f2) ** 2))


def seed(prob: Problem, n: int) -> float:
    """Asymptotic eigenvalue ladder (n + phase/pi) pi / mu(pi)."""
    phase = math.atan2(prob.c3 * prob.b4 - prob.c4 * prob.b3,
                       prob.b3 * prob.c3 + prob.c4 * prob.b4)
    return (n + phase / PI) * PI / prob.mu_pi


def real_roots(prob: Problem, lo: float, hi: float, per_spacing: int = 64):
    """All sign changes of real Delta on [lo, hi], each refined by Brent's method."""
    step = PI / prob.mu_pi / per_spacing
    xs = np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)
    vals = delta(prob, xs).real
    roots = []
    for j in np.where(vals[:-1] * vals[1:] < 0.0)[0]:
        roots.append(brentq(lambda x: delta(prob, x).real, xs[j], xs[j + 1],
                            xtol=1e-15, maxiter=200))
    roots.extend(xs[vals == 0.0])
    return np.sort(np.array(roots, dtype=float))


def spectral_data(prob: Problem, n_max: int) -> list:
    """Records {n, lambda, alpha, beta, delta_dot, seed_gap} for |n| <= n_max.

    Roots are indexed by rank around the root nearest the seed of index 0,
    which is how the ladder is anchored where the spectrum near the origin is
    denser than the seeds.
    """
    spacing = PI / prob.mu_pi
    reach = (n_max + 3) * spacing
    roots = real_roots(prob, seed(prob, 0) - reach, seed(prob, 0) + reach)
    zero = int(np.argmin(np.abs(roots - seed(prob, 0))))
    if zero - n_max < 0 or zero + n_max >= len(roots):
        raise ValueError(f"reference roots do not cover |n| <= {n_max}")
    ns = list(range(-n_max, n_max + 1))
    lams = roots[zero - n_max: zero + n_max + 1]
    ddots = delta_dot(prob, lams).real
    return [{"n": n, "lambda": float(lam), "alpha": alpha(prob, lam),
             "beta": beta(prob, lam), "delta_dot": float(dd),
             "seed_gap": float(lam - seed(prob, n))}
            for n, lam, dd in zip(ns, lams, ddots)]
