"""Fourth-order Magnus propagation of the two-component system across [0, pi].

Each step advances the state by one 2x2 matrix exp(Omega), where Omega is the
fourth-order Magnus term of Iserles and Norsett (1999) built from the
coefficient matrix at the step's two Gauss points.  The step is exact wherever
p, q and rho are constant over it, so the one grid of a problem places a node
at the weight jump and at every breakpoint of a piecewise potential, and no
lambda needs a finer grid.  A batch of lambda values is swept forward, side by
side, and the sweep returns the state it ends on.  :func:`propagate_many`
also writes every node into one (batch, N+1, 2) result allocated once; a
leftward propagation is the same sweep over reversed, negated steps into a
reversed view of the result.  :func:`psi0_many` runs the same leftward sweep
of psi and keeps only psi(0), which is all that Delta and the Weyl function
read, so its memory does not grow with the grid.  The sweep builds the step
matrices of a run of steps in one vectorised pass and then takes only the
serial 2x2 products step by step; the run length bounds its temporaries and
changes no value.  The scalar entry points run a batch of one through
:func:`propagate`.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import IntegrationOverflowError
from .model import PI, ProblemConfig

#: offsets of the two Gauss points of a step, in units of its length
_GAUSS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
#: lambda-steps per block of step matrices built at once; it bounds the
#: sweep's temporaries to a few arrays of this many entries, and no value
#: depends on it
_BLOCK = 4096


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
    """One smooth side of the jump: its nodes and, per step, the six
    lambda-independent rows (a0, a1, b0, b1, c0, c1) of
    Omega = [[a0 + s a1, b0 + s b1], [c0 + s c1, -(a0 + s a1)]], s = lambda rho."""

    n: int
    rho: float
    x_nodes: np.ndarray
    omega: np.ndarray        # (6, n)

    def reversed(self) -> "_Side":
        """The side seen from its right end: reversed steps, negated Omega."""
        return _Side(n=self.n, rho=self.rho, x_nodes=self.x_nodes[::-1],
                     omega=-self.omega[:, ::-1])


@dataclass
class _Grid:
    xs: np.ndarray
    ia: int
    left: _Side
    right: _Side


def _cuts(config: ProblemConfig) -> list:
    """Breakpoints k pi / m of a piecewise p or q, each rational k/m once."""
    pot = config.potential
    if pot.kind != "piecewise":
        return []
    fracs = {Fraction(k, m) for m in (len(pot.p_params), len(pot.q_params))
             for k in range(1, m)}
    return sorted(PI * f.numerator / f.denominator for f in fracs)


def _side_nodes(x0: float, x1: float, n: int, cuts) -> np.ndarray:
    """Nodes of [x0, x1]: every cut inside it is a node, and its pieces share
    n steps (n even) in proportion to their lengths, an even count each."""
    edges = [x0, *(c for c in cuts if x0 < c < x1), x1]
    pieces = len(edges) - 1
    pairs = max(n // 2, pieces)
    ks = [0]
    for i, e in enumerate(edges[1:-1], 1):
        k = round(pairs * (e - x0) / (x1 - x0))
        ks.append(min(max(k, ks[-1] + 1), pairs - (pieces - i)))
    ks.append(pairs)
    parts = [np.linspace(edges[i], edges[i + 1], 2 * (ks[i + 1] - ks[i]) + 1)[:-1]
             for i in range(pieces)]
    return np.concatenate(parts + [[x1]])


def _make_side(config: ProblemConfig, x0: float, x1: float, n: int, rho: float) -> _Side:
    xn = _side_nodes(x0, x1, n, _cuts(config))
    h = np.diff(xn)
    pot = config.potential
    xa, xb = (xn[:-1] + g * h for g in _GAUSS)
    p1, q1, p2, q2 = pot.p_at(xa), pot.q_at(xa), pot.p_at(xb), pot.q_at(xb)
    # Omega = h/2 (A1 + A2) + sqrt(3) h^2 / 12 [A2, A1] with
    # A = [[q, -(p + s)], [s - p, -q]] is [[a, d - j], [d + j, -a]], where
    # a, d and j are affine in s
    k = np.sqrt(3.0) * h * h / 6.0
    a0, a1 = 0.5 * h * (q1 + q2), -k * (p2 - p1)
    d0, d1 = -0.5 * h * (p1 + p2), -k * (q2 - q1)
    j0, j1 = k * (q2 * p1 - p2 * q1), h
    omega = np.array([a0, a1, d0 - j0, d1 - j1, d0 + j0, d1 + j1])
    return _Side(n=len(h), rho=rho, x_nodes=xn, omega=omega)


@lru_cache(maxsize=64)
def build_grid(config: ProblemConfig) -> _Grid:
    """The one integration grid of a problem: a node exactly at the jump and
    at every potential breakpoint, an even count of equal steps per piece."""
    w = config.weight
    nl = max(64, int(round(config.grid_points * w.a / PI)))
    nr = max(64, config.grid_points - nl)
    left = _make_side(config, 0.0, w.a, nl + nl % 2, 1.0)
    right = _make_side(config, w.a, PI, nr + nr % 2, w.alpha)
    xs = np.concatenate([left.x_nodes, right.x_nodes[1:]])
    return _Grid(xs=xs, ia=left.n, left=left, right=right)


# ---------------------------------------------------------------------------
# Magnus sweeps
# ---------------------------------------------------------------------------

def _magnus_side(side: _Side, lam_rho: np.ndarray, y1, y2, out=None):
    """March one smooth side from the state (y1, y2) at its first node and
    return the state at its last node; given ``out`` (batch, side.n + 1, 2),
    also write the state at every further node into it.

    Omega is trace-free, so exp(Omega) = cos(w) I + (sin(w) / w) Omega with
    w^2 = -(Omega11^2 + Omega12 Omega21); both terms are even in w, so the
    branch of the square root does not matter, and sinc has none at w = 0.
    The step matrices of each run of k steps are built at once as (k, batch)
    entry arrays, with k * batch near ``_BLOCK``; only the 2x2 products that
    carry the state from step to step are taken one step at a time.
    """
    s = lam_rho
    k = max(1, _BLOCK // max(1, len(s)))
    for j0 in range(0, side.n, k):
        a0, a1, b0, b1, c0, c1 = side.omega[:, j0:j0 + k, None]
        o11, o12, o21 = a0 + s * a1, b0 + s * b1, c0 + s * c1
        w = np.sqrt(-(o11 * o11 + o12 * o21))
        cw, sw = np.cos(w), np.sinc(w / np.pi)
        m11, m12, m21, m22 = cw + sw * o11, sw * o12, sw * o21, cw - sw * o11
        for j, r11, r12, r21, r22 in zip(range(j0 + 1, j0 + k + 1), m11, m12, m21, m22):
            y1, y2 = r11 * y1 + r12 * y2, r21 * y1 + r22 * y2
            if out is not None:
                out[:, j, 0] = y1
                out[:, j, 1] = y2
    return y1, y2


def _sweep(grid: _Grid, lams: np.ndarray, y1, y2, endpoint: str, out=None):
    """Sweep both sides from the state (y1, y2) at ``endpoint`` and return the
    state at the other end; given ``out`` (batch, N+1, 2) in sweep order, also
    write every node into it.  Leftward is the same sweep over reversed,
    negated steps."""
    if endpoint == "left":
        first, second = grid.left, grid.right
    else:
        first, second = grid.right.reversed(), grid.left.reversed()
    outs = (None, None) if out is None else (out[:, :first.n + 1], out[:, first.n:])
    # non-finite states are detected and reported by the caller; keep the sweep quiet
    with np.errstate(over="ignore", invalid="ignore"):
        y1, y2 = _magnus_side(first, lams * first.rho, y1, y2, outs[0])
        return _magnus_side(second, lams * second.rho, y1, y2, outs[1])


def _check_finite(lams: np.ndarray, states: np.ndarray) -> None:
    """Raise IntegrationOverflowError at the first lambda with a non-finite
    state; a non-finite state stays non-finite, so the end state suffices."""
    finite = np.isfinite(states).all(axis=tuple(range(1, states.ndim)))
    if not finite.all():
        raise IntegrationOverflowError(complex(lams[np.argmin(finite)]))


def propagate_many(config: ProblemConfig, lams, inits, endpoint: str):
    """Propagate a batch of initial states, one lambda each.

    ``endpoint`` selects where ``inits`` is imposed: ``"left"`` (x = 0,
    integrate rightward) or ``"right"`` (x = pi, integrate leftward).
    Returns ``(xs, ys, ia)`` with ``ys`` of shape (batch, N+1, 2) on
    ``build_grid(config)``, whatever the lambda.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if endpoint not in ("left", "right"):
        raise ValueError(f"endpoint must be 'left' or 'right', got {endpoint!r}")
    grid = build_grid(config)

    ys = np.empty((len(lams), len(grid.xs), 2), dtype=complex)
    # leftward sweeps into a reversed view of the result
    view = ys if endpoint == "left" else ys[:, ::-1]
    view[:, 0] = inits
    _sweep(grid, lams, view[:, 0, 0], view[:, 0, 1], endpoint, view)
    _check_finite(lams, ys)
    return grid.xs, ys, grid.ia


def psi0_many(config: ProblemConfig, lams) -> np.ndarray:
    """psi(0) of :func:`psi_many` as a (batch, 2) array, from the same sweep
    without keeping the trajectory."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    inits = psi_init(config, lams)
    psi0 = np.column_stack(_sweep(build_grid(config), lams, inits[:, 0], inits[:, 1], "right"))
    _check_finite(lams, psi0)
    return psi0


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


def phi(config: ProblemConfig, lam) -> Trajectory:
    return propagate(config, lam, phi_init(config, lam)[0], "left")


def psi(config: ProblemConfig, lam) -> Trajectory:
    return propagate(config, lam, psi_init(config, lam)[0], "right")


def solution_c(config: ProblemConfig, lam) -> Trajectory:
    return propagate(config, lam, c_init(config, lam)[0], "left")
