"""Fixed-step RK4 propagation of the two-component system across [0, pi].

The integration grid is split at the weight jump so every subinterval has
smooth coefficients; the state itself is continuous across the jump.  A
batch of lambda values is swept forward, side by side, into one (batch, N+1, 2)
result allocated once; a leftward propagation is the same sweep over reversed
samples with the step negated, into a reversed view of the result.  The
scalar entry points run a batch of one through :func:`propagate`.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrationOverflowError
from .model import PI, ProblemConfig

#: refine the grid whenever |lambda| * max step exceeds this phase budget;
#: the per-step phase error scales like (|lambda| h)^5, so a modest budget
#: keeps the accumulated error small even for thousands of steps
_PHASE_LIMIT = 0.1


@dataclass(frozen=True)
class Trajectory:
    """A two-component solution sampled on the integration grid at fixed lambda."""

    lam: complex
    xs: np.ndarray        # (N+1,) increasing, xs[0] = 0, xs[-1] = pi, a included
    ys: np.ndarray        # (N+1, 2) complex, aligned with xs
    index_a: int          # position of the weight jump in xs

    def value_at(self, x: float) -> np.ndarray:
        """State at a grid node (nearest-node lookup; the grid is dense)."""
        i = int(np.argmin(np.abs(self.xs - x)))
        return self.ys[i]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "re_y1", "im_y1", "re_y2", "im_y2"])
            for x, (y1, y2) in zip(self.xs, self.ys):
                writer.writerow([repr(float(x)),
                                 repr(float(y1.real)), repr(float(y1.imag)),
                                 repr(float(y2.real)), repr(float(y2.imag))])


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------

@dataclass
class _Side:
    n: int
    h: float
    rho: float
    x_nodes: np.ndarray
    p_nodes: np.ndarray
    q_nodes: np.ndarray
    p_mid: np.ndarray
    q_mid: np.ndarray

    def reversed(self) -> "_Side":
        """The side seen from its right end: negated step, reversed samples."""
        return _Side(n=self.n, h=-self.h, rho=self.rho, x_nodes=self.x_nodes[::-1],
                     p_nodes=self.p_nodes[::-1], q_nodes=self.q_nodes[::-1],
                     p_mid=self.p_mid[::-1], q_mid=self.q_mid[::-1])


@dataclass
class _Grid:
    xs: np.ndarray
    ia: int
    left: _Side
    right: _Side
    h_max: float


def _make_side(config: ProblemConfig, x0: float, x1: float, n: int, rho: float) -> _Side:
    xn = np.linspace(x0, x1, n + 1)
    xm = 0.5 * (xn[:-1] + xn[1:])
    pot = config.potential
    return _Side(n=n, h=(x1 - x0) / n, rho=rho,
                 x_nodes=xn,
                 p_nodes=np.asarray(pot.p_at(xn), float),
                 q_nodes=np.asarray(pot.q_at(xn), float),
                 p_mid=np.asarray(pot.p_at(xm), float),
                 q_mid=np.asarray(pot.q_at(xm), float))


@lru_cache(maxsize=64)
def build_grid(config: ProblemConfig, refine: int = 1) -> _Grid:
    """Integration grid with a node exactly at the jump; even steps per side.
    Refining multiplies each side's steps, so refined grids nest."""
    w = config.weight
    nl = max(64, int(round(config.grid_points * w.a / PI)))
    nr = max(64, config.grid_points - nl)
    nl = refine * (nl + nl % 2)
    nr = refine * (nr + nr % 2)
    left = _make_side(config, 0.0, w.a, nl, 1.0)
    right = _make_side(config, w.a, PI, nr, w.alpha)
    xs = np.concatenate([left.x_nodes, right.x_nodes[1:]])
    return _Grid(xs=xs, ia=nl, left=left, right=right,
                 h_max=max(left.h, right.h))


def _refine_factor(config: ProblemConfig, lam_scale: float) -> int:
    h = build_grid(config, 1).h_max
    return max(1, int(math.ceil(lam_scale * h / _PHASE_LIMIT)))


# ---------------------------------------------------------------------------
# RK4 sweeps
# ---------------------------------------------------------------------------

def _rk4_side(side: _Side, lam_rho: np.ndarray, out: np.ndarray) -> None:
    """March one smooth side from the states in ``out[:, 0]`` and write the
    state at every further node into ``out`` (batch, side.n + 1, 2)."""
    h = side.h
    pn, qn = side.p_nodes, side.q_nodes
    pm, qm = side.p_mid, side.q_mid
    y1, y2 = out[:, 0, 0], out[:, 0, 1]
    for j in range(side.n):
        p0, q0, p1, q1 = pn[j], qn[j], pn[j + 1], qn[j + 1]
        pmj, qmj = pm[j], qm[j]

        k11 = q0 * y1 - (p0 + lam_rho) * y2
        k12 = (lam_rho - p0) * y1 - q0 * y2
        u1 = y1 + 0.5 * h * k11
        u2 = y2 + 0.5 * h * k12
        k21 = qmj * u1 - (pmj + lam_rho) * u2
        k22 = (lam_rho - pmj) * u1 - qmj * u2
        u1 = y1 + 0.5 * h * k21
        u2 = y2 + 0.5 * h * k22
        k31 = qmj * u1 - (pmj + lam_rho) * u2
        k32 = (lam_rho - pmj) * u1 - qmj * u2
        u1 = y1 + h * k31
        u2 = y2 + h * k32
        k41 = q1 * u1 - (p1 + lam_rho) * u2
        k42 = (lam_rho - p1) * u1 - q1 * u2

        y1 = y1 + (h / 6.0) * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        y2 = y2 + (h / 6.0) * (k12 + 2.0 * k22 + 2.0 * k32 + k42)
        out[:, j + 1, 0] = y1
        out[:, j + 1, 1] = y2


def propagate_many(config: ProblemConfig, lams, inits, endpoint: str):
    """Propagate a batch of initial states, one lambda each.

    ``endpoint`` selects where ``inits`` is imposed: ``"left"`` (x = 0,
    integrate rightward) or ``"right"`` (x = pi, integrate leftward).
    Returns ``(xs, ys, ia)`` with ``ys`` of shape (batch, N+1, 2).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if endpoint not in ("left", "right"):
        raise ValueError(f"endpoint must be 'left' or 'right', got {endpoint!r}")
    refine = _refine_factor(config, float(np.max(np.abs(lams))) if lams.size else 0.0)
    grid = build_grid(config, refine)

    ys = np.empty((len(lams), len(grid.xs), 2), dtype=complex)
    if endpoint == "left":
        view, first, second = ys, grid.left, grid.right
    else:
        # leftward is the same sweep over reversed samples into a reversed view
        view, first, second = ys[:, ::-1], grid.right.reversed(), grid.left.reversed()
    view[:, 0] = inits
    # non-finite states are detected and reported below; keep the sweep quiet
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4_side(first, lams * first.rho, view[:, :first.n + 1])
        _rk4_side(second, lams * second.rho, view[:, first.n:])

    if not np.all(np.isfinite(ys)):
        bad = np.where(~np.isfinite(ys).all(axis=(1, 2)))[0][0]
        raise IntegrationOverflowError(complex(lams[bad]))
    return grid.xs, ys, grid.ia


def propagate(config: ProblemConfig, lam, init, endpoint: str) -> Trajectory:
    """Scalar propagation; see :func:`propagate_many`."""
    xs, ys, ia = propagate_many(config, [lam], [init], endpoint)
    return Trajectory(lam=complex(lam), xs=xs, ys=ys[0], index_a=ia)


# ---------------------------------------------------------------------------
# The three named solutions
# ---------------------------------------------------------------------------

def phi_init(config: ProblemConfig, lams) -> np.ndarray:
    b = config.boundary
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    return np.column_stack([lams * b.b3 - b.b1, b.b2 - lams * b.b4])


def psi_init(config: ProblemConfig, lams) -> np.ndarray:
    b = config.boundary
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    return np.column_stack([-b.c1 - lams * b.c3, b.c2 + lams * b.c4])


def c_init(config: ProblemConfig, lams) -> np.ndarray:
    b = config.boundary
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    col = np.full(lams.shape, -b.b3 / b.k1, dtype=complex)
    return np.column_stack([col, np.full(lams.shape, b.b4 / b.k1, dtype=complex)])


def phi_many(config: ProblemConfig, lams):
    """Left-normalized solution batch; the U1 boundary form vanishes on it."""
    return propagate_many(config, lams, phi_init(config, lams), "left")


def psi_many(config: ProblemConfig, lams):
    """Right-normalized solution batch; the U2 boundary form vanishes on it."""
    return propagate_many(config, lams, psi_init(config, lams), "right")


def c_many(config: ProblemConfig, lams):
    return propagate_many(config, lams, c_init(config, lams), "left")


def phi(config: ProblemConfig, lam) -> Trajectory:
    return propagate(config, lam, phi_init(config, lam)[0], "left")


def psi(config: ProblemConfig, lam) -> Trajectory:
    return propagate(config, lam, psi_init(config, lam)[0], "right")


def solution_c(config: ProblemConfig, lam) -> Trajectory:
    return propagate(config, lam, c_init(config, lam)[0], "left")
