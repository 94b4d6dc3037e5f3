"""Fourth-order Magnus propagation of the two-component system across [0, pi].

Each step advances the state by one 2x2 matrix exp(Omega), where Omega is the
fourth-order Magnus term of Iserles and Norsett (1999) built from the
coefficient matrix at the step's two Gauss points.  The step is exact wherever
p, q and rho are constant over it, so the one grid of a problem places a node
at the weight jump and at every breakpoint of a piecewise potential, and no
lambda needs a finer grid.  The grid also splits each side of the jump into
cells: a run of steps on which the samples of p and q are one constant is one
cell, and any other step is a cell of its own.  Omega over a whole constant
cell is the same formula with the cell's length, so a cell is crossed in one
exact product, and every node of it is one product with its first state.
The grid is built in one pass over [0, pi]: one sample of p and one of q at
the Gauss points of every step, and one cell detection with the jump as a
cell bound.  It keeps one cell path per sweep direction, with each step's
rho and samples.  rho multiplies the lambda part of each step's Omega, so
Omega is affine in lambda alone and a sweep carries no rho.  A path builds
its Omega rows on first use: those of the cell ends for every sweep, and
those of the nodes inside a cell only for a trajectory.  The grid also
carries the one quadrature of functions sampled on it, a composite Simpson
rule over all of [0, pi] built on first use: every piece between the jump
and the cuts has an even number of equal steps, so no pair of steps
straddles either.

A batch of lambda values is swept along a path as one (2, batch) state by
one march over the cell ends, a product per cell.  The leftward march of
psi ends on psi(0), which :func:`psi0_many` returns: all that Delta and the
Weyl function read, in memory that does not grow with the grid.  A
:class:`ConfigStack` of configs that share their boundary forms sweeps all
their lambda in that one march: the cell-end rows carry a trailing axis of
one column per config, each lambda reads its own config's column, and a
shorter path is padded with zero rows, whose step is the identity, so each
lambda's psi(0) has the bits of its own config's sweep.
:func:`propagate_many` writes each cell end of the same march into one
(N+1, 2, batch) buffer allocated once, then, in one blocked fan-out over
all cells, every node inside a cell as one product with its cell's first
state, so psi(0) has the trajectory's bits by construction.  It returns the
buffer as its (batch, N+1, 2) transpose, without a copy; a leftward
propagation sweeps the leftward path, of reversed, negated cells, into a
reversed view of the buffer.  Matrices are built a run of columns at a time
in one vectorised pass, and a product for the whole batch is two ufunc
calls; the run length bounds the temporaries and changes no value.  The
scalar entry points run a batch of one through :func:`propagate`.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, IntegrationOverflowError
from .model import PI, ProblemConfig, _check_domain, _write_csv

#: offsets of the two Gauss points of a step, in units of its length
_GAUSS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
#: (lambda, matrix) pairs per block of matrices built at once; it bounds the
#: sweep's temporaries to a few arrays of this many entries, and no value
#: depends on it
_BLOCK = 4096
#: |w|^2 below which a step sums cos(w), sin(w) / w through z^4 (next term < 1e-21)
_SERIES_Z = 1e-3


@dataclass(frozen=True)
class Trajectory:
    """A two-component solution sampled on the integration grid at fixed lambda."""

    lam: complex
    xs: np.ndarray        # (N+1,) increasing, xs[0] = 0, xs[-1] = pi, a included
    ys: np.ndarray        # (N+1, 2) complex, aligned with xs
    index_a: int          # position of the weight jump in xs

    def value_at(self, x: float) -> np.ndarray:
        """State at the grid node nearest x in [0, pi] (the grid is dense);
        an x outside raises :class:`DomainError`."""
        i = int(np.argmin(np.abs(self.xs - _check_domain(x))))
        return self.ys[i]

    def to_csv(self, path) -> None:
        y1, y2 = self.ys.T
        _write_csv(path, ["x", "re_y1", "im_y1", "re_y2", "im_y2"],
                   [self.xs, y1.real, y1.imag, y2.real, y2.imag])


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------

@dataclass
class _Path:
    """The cells of one sweep direction over [0, pi], in sweep order: the
    nodes, and per step its side's rho and its samples (p1, q1, p2, q2) of
    p and q at its two Gauss points, in the order of increasing x.

    A cell is a run of steps on one side of the jump on which p and q are
    constant, or one step of any other kind; ``cells`` holds its bounds as
    node indices, so the jump is one of them.  A column of rows is the six
    lambda-independent rows (a0, a1, b0, b1, c0, c1) of
    Omega = [[a0 + lambda a1, b0 + lambda b1], [c0 + lambda c1, -(a0 + lambda a1)]]
    over a stretch of one cell, from one of its steps' samples and rho; it
    is negated on the leftward path.  The rows are built on first use: the
    cell ends by every sweep, the nodes inside all cells only by a trajectory.
    """

    xs: np.ndarray           # (N+1,)
    cells: np.ndarray        # (number of cells + 1,) node indices, 0 to N
    rho: np.ndarray          # (N,)
    samples: tuple           # four (N,) arrays
    leftward: bool

    def _omega(self, steps: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Rows from node ``starts`` to the far node of each of ``steps``,
        with that step's samples."""
        # a rounded difference changes only its sign when its terms swap, so
        # both paths take a cell's length with the same bits
        rows = _omega_rows(np.abs(self.xs[steps + 1] - self.xs[starts]), self.rho[steps],
                           *(s[steps] for s in self.samples))
        return -rows if self.leftward else rows

    @cached_property
    def end_omega(self) -> np.ndarray:
        """(6, number of cells): rows over each whole cell, from its last step."""
        return self._omega(self.cells[1:] - 1, self.cells[:-1])

    @cached_property
    def ends(self) -> list:
        """The last node of each cell."""
        return self.cells[1:].tolist()

    @cached_property
    def inner(self) -> tuple:
        """(rows, starts, nodes) over every node inside a cell, in sweep
        order: the (6, K, 1) rows from its cell's first node to it, exact
        on a constant piece, that first node, and the node itself."""
        nodes = np.setdiff1d(np.arange(len(self.xs)), self.cells)
        starts = self.cells[np.searchsorted(self.cells, nodes) - 1]
        return self._omega(nodes - 1, starts)[:, :, None], starts, nodes


@dataclass
class _Grid:
    """A problem's nodes, the jump's index and its two sweeps' cell paths."""

    xs: np.ndarray
    ia: int
    forward: _Path
    backward: _Path
    #: read-only results that depend only on the config and lambda, least
    #: recently used first; filled and bounded by ``expansion._memo``, and
    #: dropped with the grid by ``build_grid.cache_clear()``
    memo: OrderedDict = field(default_factory=OrderedDict)

    @cached_property
    def quadrature(self) -> tuple:
        """(w, halves): the rho-weighted Simpson weight of every node, the
        jump's node taking the end weights of both sides, and the
        :func:`_simpson_halves` of the whole grid.  Every side and piece has
        an even number of steps, so no pair straddles the jump."""
        w = np.zeros(len(self.xs))
        w[:self.ia + 1] += _simpson_weights(self.xs[:self.ia + 1])
        w[self.ia:] += self.forward.rho[-1] * _simpson_weights(self.xs[self.ia:])
        return w, _simpson_halves(self.xs)


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


def _simpson_halves(x) -> np.ndarray:
    """Simpson weights of the nodes ``x`` (an even number of steps), taken
    pair of steps by pair: entry [j, i, k] weighs f(x[2k+i]) in the integral
    over step j of pair k, h/12 (5, 8, -1) over the first step and
    h/12 (-1, 8, 5) over the second, h being one step.  A pair never
    straddles the jump or a cut, so its two steps are equal."""
    h12 = (x[2::2] - x[:-2:2]) / 24.0
    return np.array([[[5.0], [8.0], [-1.0]], [[-1.0], [8.0], [5.0]]]) * h12


def _simpson_weights(x) -> np.ndarray:
    """Per-node weights of the composite Simpson rule on ``x``: each pair of
    steps adds the sum of its two halves, h/3 (1, 4, 1)."""
    pair = _simpson_halves(x).sum(axis=0)
    w = np.zeros(len(x))
    w[:-2:2] += pair[0]
    w[1::2] += pair[1]
    w[2::2] += pair[2]
    return w


def _omega_rows(h, rho, p1, q1, p2, q2) -> np.ndarray:
    """The six rows of Omega over steps of length h and weight rho with p
    and q sampled at their two Gauss points."""
    # Omega = h/2 (A1 + A2) + sqrt(3) h^2 / 12 [A2, A1] with
    # A = [[q, -(p + s)], [s - p, -q]], s = lambda rho, is
    # [[a, d - j], [d + j, -a]], where a, d and j are affine in lambda
    k = np.sqrt(3.0) * h * h / 6.0
    a0, a1 = 0.5 * h * (q1 + q2), -k * (p2 - p1) * rho
    d0, d1 = -0.5 * h * (p1 + p2), -k * (q2 - q1) * rho
    j0, j1 = k * (q2 * p1 - p2 * q1), h * rho
    return np.array([a0, a1, d0 - j0, d1 - j1, d0 + j0, d1 + j1])


@lru_cache(maxsize=64)
def build_grid(config: ProblemConfig) -> _Grid:
    """The one integration grid of a problem: a node exactly at the jump and
    at every potential breakpoint, an even count of equal steps per piece.
    p and q are sampled once each, at both Gauss points of every step; a
    sample that is not finite raises :class:`ConfigError` at its x."""
    w = config.weight
    nl = max(64, int(round(config.grid_points * w.a / PI)))
    nr = max(64, config.grid_points - nl)
    cuts = _cuts(config)
    xl = _side_nodes(0.0, w.a, nl + nl % 2, cuts)
    xs = np.concatenate([xl, _side_nodes(w.a, PI, nr + nr % 2, cuts)[1:]])
    ia, n = len(xl) - 1, len(xs) - 1
    h = np.diff(xs)
    xg = np.concatenate([xs[:-1] + g * h for g in _GAUSS])
    pot = config.potential
    # a sample that overflows is reported below, at its x
    with np.errstate(over="ignore", invalid="ignore"):
        p, q = pot.p_at(xg), pot.q_at(xg)
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        x = float(xg[~(np.isfinite(p) & np.isfinite(q))].min())
        raise ConfigError(f"potential p or q is not finite at x = {x!r}")
    (p1, p2), (q1, q2) = p.reshape(2, -1), q.reshape(2, -1)
    # a step opens a new cell at the jump, and elsewhere unless it and the
    # previous step are constant with the same p and q
    const = (p1 == p2) & (q1 == q2)
    opens = np.ones(n, dtype=bool)
    opens[1:] = ~(const[1:] & const[:-1] & (p1[1:] == p1[:-1]) & (q1[1:] == q1[:-1]))
    opens[ia] = True
    cells = np.append(np.flatnonzero(opens), n)
    rho = np.repeat([1.0, w.alpha], [ia, n - ia])
    samples = (p1, q1, p2, q2)
    # the leftward path meets the steps in reverse, with Omega negated
    return _Grid(xs=xs, ia=ia, forward=_Path(xs, cells, rho, samples, False),
                 backward=_Path(xs[::-1], n - cells[::-1], rho[::-1],
                                tuple(s[::-1] for s in samples), True))


# ---------------------------------------------------------------------------
# Magnus sweeps
# ---------------------------------------------------------------------------

def _step_matrices(rows: np.ndarray, lams: np.ndarray, m: np.ndarray) -> np.ndarray:
    """exp(Omega) of each of the k columns of ``rows`` at every lambda,
    written into and returned as m[:k], m[j, 0] = (r11, r21),
    m[j, 1] = (r12, r22).  ``rows`` is (6, k, 1), one column of rows for
    the whole batch, or (6, k, batch), one for each lambda.

    Omega is trace-free, so exp(Omega) = cos(w) I + (sin(w) / w) Omega, even
    in w, with z = w^2 = -(Omega11^2 + Omega12 Omega21).  With w = x + iy,
    cos(w) and sin(w) come from the real sin and cos of x and sinh and cosh
    of y, and sin(w) / w is one complex division; where |w|^2 < ``_SERIES_Z``
    both are series in z, so a matrix stays holomorphic in lambda at w = 0,
    and zero rows give the identity.  A block with no such entry takes no
    series.
    """
    a0, a1, b0, b1, c0, c1 = rows
    o11, o12, o21 = a0 + lams * a1, b0 + lams * b1, c0 + lams * c1
    z = -(o11 * o11 + o12 * o21)
    w = np.sqrt(z)
    x, y = w.real, w.imag
    sx, cx, shy, chy = np.sin(x), np.cos(x), np.sinh(y), np.cosh(y)
    cw, sw = np.empty_like(w), np.empty_like(w)
    cw.real, cw.imag = cx * chy, -sx * shy
    sw.real, sw.imag = sx * chy, cx * shy
    small = x * x + y * y < _SERIES_Z
    if small.any():
        np.divide(sw, w, out=sw, where=~small)
        zs = z[small]
        cw[small] = 1 - zs * (1 / 2 - zs * (1 / 24 - zs * (1 / 720 - zs * (1 / 40320))))
        sw[small] = 1 - zs * (1 / 6 - zs * (1 / 120 - zs * (1 / 5040 - zs * (1 / 362880))))
    else:
        np.divide(sw, w, out=sw)
    so11 = sw * o11
    mb = m[:len(o11)]
    np.add(cw, so11, out=mb[:, 0, 0])
    np.multiply(sw, o21, out=mb[:, 0, 1])
    np.multiply(sw, o12, out=mb[:, 1, 0])
    np.subtract(cw, so11, out=mb[:, 1, 1])
    return mb


def _blocks(rows: np.ndarray, lams: np.ndarray, owner=slice(None)):
    """(first column, matrices) of each run of k columns of the (6, K, c)
    ``rows``, with k * batch near ``_BLOCK``, built at once into one
    (k, 2, 2, batch) buffer, so column j reads one contiguous (2, 2, batch)
    block.  Lambda b reads the rows rows[:, :, owner[b]]; the default
    ``owner`` keeps the one trailing column for the whole batch."""
    k = max(1, min(rows.shape[1], _BLOCK // max(1, len(lams))))
    m = np.empty((k, 2, 2, len(lams)), dtype=complex)
    for j0 in range(0, rows.shape[1], k):
        yield j0, _step_matrices(rows[:, j0:j0 + k, owner], lams, m)


def _march(rows: np.ndarray, owner, lams: np.ndarray, state: np.ndarray,
           out=None, nodes=None) -> None:
    """Multiply the (2, batch) ``state``, in place, by exp(Omega) of each
    column of ``rows`` in turn (see :func:`_blocks` for ``owner``); given
    ``out``, write the state after column j into out[nodes[j]].

    A product is two ufunc calls: m[j, c, r] * state[c] into a (2, 2, batch)
    scratch, and the sum of its two columns into ``state``, r11 y1 + r12 y2
    and r21 y1 + r22 y2, the same products and sums as one 2x2 product per
    lambda.
    """
    t = np.empty((2, 2, len(lams)), dtype=complex)
    t0, t1 = t
    column = state[:, None]
    for j0, mb in _blocks(rows, lams, owner):
        for j, m_j in enumerate(mb, j0):
            np.multiply(m_j, column, out=t)
            np.add(t0, t1, out=state)
            if out is not None:
                out[nodes[j]] = state


def _fan_out(rows: np.ndarray, starts: np.ndarray, nodes: np.ndarray,
             lams: np.ndarray, out: np.ndarray) -> None:
    """Write exp(Omega) of column j of the (6, K, 1) ``rows`` times the
    state out[starts[j]] into out[nodes[j]], a block at a time with the
    products and sums of :func:`_march`; a block may span several cells."""
    for j0, mb in _blocks(rows, lams):
        at = slice(j0, j0 + len(mb))
        state = out[starts[at]]
        np.multiply(mb, state[:, :, None], out=mb)
        np.add(mb[:, 0], mb[:, 1], out=state)
        out[nodes[at]] = state


def _sweep(rows: np.ndarray, owner, lams: np.ndarray, init, out=None,
           path=None) -> np.ndarray:
    """March the (2, batch) state ``init`` over the cell-end ``rows`` (see
    :func:`_blocks` for ``owner``) and return the state it ends on.  Given a
    buffer ``out`` (N+1, 2, batch) in the sweep order of the one ``path``
    whose rows these are, also write the state at every cell end into it,
    and then, in one fan-out, every node inside a cell as one product with
    the state at its cell's first node.  The cell ends are the same march
    either way, so psi(0) has the same bits with and without a trajectory."""
    state = np.array(init, dtype=complex, order="C")
    # non-finite states are detected and reported by the caller; keep the sweep quiet
    with np.errstate(over="ignore", invalid="ignore"):
        _march(rows, owner, lams, state, out, None if out is None else path.ends)
        if out is not None:
            _fan_out(*path.inner, lams, out)
    return state


def _check_finite(lams: np.ndarray, states: np.ndarray) -> None:
    """Raise IntegrationOverflowError at the first lambda with a non-finite
    state; a non-finite state stays non-finite, so the end state suffices."""
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise IntegrationOverflowError(complex(lams[np.argmin(finite)]))


@dataclass(frozen=True, eq=False)
class ConfigStack:
    """Configs that share their boundary forms, and the config of each
    lambda of a batch: ``owner[b]`` indexes ``configs``.  Passed where a
    config is, a stack sweeps every lambda of the batch on its own config's
    grid in one march; the boundary forms, and so the initial values of the
    named solutions and Delta's U1 form, are the shared ones."""

    configs: tuple
    owner: np.ndarray

    def __post_init__(self):
        if any(c.boundary != self.configs[0].boundary for c in self.configs):
            raise ValueError("the configs of a stack must share their boundary forms")

    @property
    def boundary(self):
        return self.configs[0].boundary


def _end_rows(config):
    """(rows, owner) of the psi(0) sweep of a config or a
    :class:`ConfigStack`: the cell-end rows of each leftward path, a
    trailing column each, padded with zero rows to the longest path, and
    the column of each lambda; one config's rows serve the whole batch."""
    configs = config.configs if isinstance(config, ConfigStack) else (config,)
    if len(configs) == 1:
        return build_grid(configs[0]).backward.end_omega[:, :, None], slice(None)
    ends = [build_grid(c).backward.end_omega for c in configs]
    rows = np.zeros((6, max(e.shape[1] for e in ends), len(ends)))
    for i, e in enumerate(ends):
        rows[:, :e.shape[1], i] = e
    return rows, config.owner


def propagate_many(config: ProblemConfig, lams, inits, endpoint: str):
    """Propagate a batch of initial states, one lambda each.

    ``endpoint`` selects where ``inits`` is imposed: ``"left"`` (x = 0,
    integrate rightward) or ``"right"`` (x = pi, integrate leftward).
    Returns ``(xs, ys, ia)`` with ``ys`` of shape (batch, N+1, 2) on
    ``build_grid(config)``, whatever the lambda; ``ys`` is a transposed view
    of the one (N+1, 2, batch) buffer the sweep writes.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if endpoint not in ("left", "right"):
        raise ValueError(f"endpoint must be 'left' or 'right', got {endpoint!r}")
    grid = build_grid(config)

    # a leftward sweep fills the buffer from its end
    buf = np.empty((len(grid.xs), 2, len(lams)), dtype=complex)
    path, view = (grid.forward, buf) if endpoint == "left" else (grid.backward, buf[::-1])
    view[0].T[...] = inits
    end = _sweep(path.end_omega[:, :, None], slice(None), lams, view[0], view, path)
    _check_finite(lams, end.T)
    return grid.xs, buf.transpose(2, 0, 1), grid.ia


def psi0_many(config, lams) -> np.ndarray:
    """psi(0) of :func:`psi_many` as a (batch, 2) array, from the same sweep
    without keeping the trajectory.  ``config`` is a config, or a
    :class:`ConfigStack` with one owner per lambda."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    inits = psi_init(config, lams)
    psi0 = _sweep(*_end_rows(config), lams, inits.T).T
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
