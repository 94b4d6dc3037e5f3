"""Real eigenvalue location, norming constants, and spectral identities.

Roots of the characteristic function are bracketed by one uniform sign scan
over the range of their closed-form asymptotic seeds.  The scan is accepted
only when an argument-principle count of the zeros in a rectangle around it
(Delves and Lyness 1967) equals its number of sign changes, so no root inside
the range goes unseen; a multiple root counts more than once there but opens
at most one bracket, so every certified root has multiplicity one.  The
brackets are refined by batched, bracketed Newton steps with the complex-step
Delta-dot, the one root refiner; the inverse matcher shares it and the
bracket rule.  All heavy evaluations run as single batched propagations;
each Newton sweep is one :func:`charfn.complex_step`, and alpha_n, beta_n and
Delta-dot(lambda_n) come from the refiner's last one, so a root costs no
propagation beyond its Newton sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .errors import (ConfigError, MissingRootError, NonProportionalError,
                     RootRefinementError)
from .model import PI, ProblemConfig, config_fingerprint, mu
from . import charfn, expansion, integrator, model

#: the least gap between consecutive eigenvalues of a SpectralDataSet; a
#: closer pair is not strictly increasing
_MIN_EIGENVALUE_GAP = 1e-8
#: samples per seed spacing pi / mu(pi) of the first sign scan, and the number
#: of times the scan and its contour may be sampled twice as densely
_SCAN_STEPS = 8
_SCAN_LEVELS = 4
_PROP_RESIDUAL_TOL = 1e-5
#: root refinement stops once every Newton step or bracket is this small,
#: relative to max(1, |lambda|); from the regula falsi start that takes 4-5 sweeps
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_MAX_SWEEPS = 50


@dataclass(frozen=True)
class SpectralDatum:
    """One eigenvalue with its norming constant and companion quantities."""

    n: int
    lambda_n: float
    alpha_n: float
    beta_n: float
    delta_dot_n: float
    seed_gap: float


@dataclass(frozen=True)
class SpectralDataSet:
    """Ordered eigenvalue records for a contiguous index range."""

    fingerprint: str
    data: Tuple[SpectralDatum, ...]

    def __post_init__(self):
        if not isinstance(self.fingerprint, str):
            raise TypeError(f"fingerprint = {self.fingerprint!r} is not a string")
        lams = [d.lambda_n for d in self.data]
        if any(b - a <= _MIN_EIGENVALUE_GAP for a, b in zip(lams, lams[1:])):
            raise ValueError("eigenvalues must be strictly increasing")

    def __len__(self):
        return len(self.data)

    def __iter__(self):
        return iter(self.data)

    def __getitem__(self, i):
        return self.data[i]

    def by_index(self, n: int) -> SpectralDatum:
        for d in self.data:
            if d.n == n:
                return d
        raise KeyError(f"no datum with index {n}")

    def lambdas(self) -> np.ndarray:
        return np.array([d.lambda_n for d in self.data])

    def alphas(self) -> np.ndarray:
        return np.array([d.alpha_n for d in self.data])

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "data": [
                {"n": d.n, "lambda": d.lambda_n, "alpha": d.alpha_n,
                 "beta": d.beta_n, "delta_dot": d.delta_dot_n,
                 "seed_gap": d.seed_gap}
                for d in self.data
            ],
        }

    @staticmethod
    def from_dict(doc: dict) -> "SpectralDataSet":
        try:
            data = tuple(
                SpectralDatum(n=model._json_int(r["n"], "n"),
                              lambda_n=model._json_float(r["lambda"], "lambda"),
                              alpha_n=model._json_float(r["alpha"], "alpha"),
                              beta_n=model._json_float(r["beta"], "beta"),
                              delta_dot_n=model._json_float(r["delta_dot"], "delta_dot"),
                              seed_gap=model._json_float(r["seed_gap"], "seed_gap"))
                for r in doc["data"]
            )
            return SpectralDataSet(fingerprint=doc["fingerprint"], data=data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed spectral data document: {exc}") from exc

    def save(self, path) -> None:
        model._write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "SpectralDataSet":
        return SpectralDataSet.from_dict(model._read_json(path))


# ---------------------------------------------------------------------------
# Root search
# ---------------------------------------------------------------------------

def _sign_changes(vals: np.ndarray) -> tuple:
    """Where ``vals[..., j]`` and ``vals[..., j + 1]`` differ in sign along the
    last axis, as :func:`np.nonzero` gives it, one index array per axis; an
    exact zero counts as positive, so it opens exactly one bracket."""
    return np.nonzero(np.signbit(vals[..., :-1]) != np.signbit(vals[..., 1:]))


def _refine_roots(config: ProblemConfig, lo, hi, flo, fhi) -> np.ndarray:
    """Batched bracketed Newton: one root of Delta in each bracket [lo, hi].
    Returns a (5, k) array: the k roots, then the rows of :func:`_from_sweep`
    at them.  ``config`` is a config, or an :class:`integrator.ConfigStack`
    with one owner per bracket.

    ``flo`` and ``fhi`` are Delta at the bracket ends and must not share a
    sign; the first iterate c is their regula falsi point.  Each sweep is one
    :func:`charfn.complex_step` at c, which gives psi(0), Delta and Delta-dot
    there.  A root whose Newton step or bracket is within the tolerance is
    converged and stays where it is.  Elsewhere the end with the sign of
    Delta(c) moves to c, and c moves to the Newton point if it lies in the
    closed bracket, else to the midpoint; it also bisects when its Newton
    point is the far end of its bracket.  Every sweep evaluates the whole
    batch; Delta at a point does not depend on its batch, so a converged
    root keeps its values, the loop needs no index bookkeeping, each root
    has the bits it has alone, and the last sweep's rows give the per-root
    quantities.
    """
    a, b = np.array(lo, float), np.array(hi, float)
    neg_a = np.signbit(flo)
    c = b - fhi * (b - a) / (fhi - flo)
    for _ in range(_MAX_SWEEPS):
        psi0, d, ddot = charfn.complex_step(config, c)
        step = d / ddot
        tol = _ROOT_RTOL * np.maximum(1.0, np.abs(c))
        near = (np.abs(step) <= tol) | (b - a <= tol)     # c is in [a, b]
        if near.all():
            # beta_n, and so alpha_n, is taken at roots only: at another
            # iterate beta can vanish
            return np.vstack([c, _from_sweep(config, c, psi0, ddot)])
        moves_a = np.signbit(d) == neg_a
        a, b = np.where(moves_a, c, a), np.where(moves_a, b, c)
        newton = c - step
        # where Delta's rounding holds the Newton step above the tolerance,
        # the Newton point can land on the bracket's far end, which would
        # leave the bracket as it is
        stuck = newton == np.where(moves_a, b, a)
        c = np.where(near, c, np.where((a <= newton) & (newton <= b) & ~stuck,
                                       newton, 0.5 * (a + b)))
    raise RootRefinementError(_MAX_SWEEPS, c[~near])


def _contour_points(config: ProblemConfig, lo: float, hi: float, step: float) -> np.ndarray:
    """The upper half of the boundary of [lo, hi] x [-i s, i s], s = pi / mu(pi),
    from ``hi`` up, along Im lambda = s and down to ``lo``, with samples at
    most ``step`` apart."""
    s = PI / mu(PI, config.weight)
    up = 1j * np.linspace(0.0, s, int(np.ceil(s / step)) + 1)
    across = np.linspace(hi, lo, int(np.ceil((hi - lo) / step)) + 1)[1:-1] + 1j * s
    return np.concatenate([hi + up, across, lo + up[::-1]])


def _winding(d: np.ndarray):
    """Zeros of Delta inside the rectangle of :func:`_contour_points`, from
    Delta ``d`` along its path, and the largest phase step taken.

    Delta is real on the real axis, so the upper half of the boundary carries
    half the winding (the argument principle; Delves and Lyness 1967).
    """
    # arg of d[k+1] / d[k], written without a division
    steps = np.angle(d[1:] * np.conj(d[:-1]))
    return int(np.rint(np.sum(steps) / PI)), float(np.max(np.abs(steps)))


def _best_run(short, long) -> int:
    """Offset of the contiguous run of ``long`` with least sum |long - short|."""
    k = len(short)
    return int(np.argmin([np.sum(np.abs(long[i:i + k] - short))
                          for i in range(len(long) - k + 1)]))


def find_eigenvalues(config: ProblemConfig, n_min: int, n_max: int) -> SpectralDataSet:
    """Locate eigenvalues for indices n_min..n_max and complete their data.

    One uniform sign scan of Delta over the seed range, widened by 3/4 of the
    seed spacing s on each side, is accepted only when an argument-principle
    count agrees with its number of sign changes; otherwise the scan and the
    contour are both sampled twice as densely, up to ``_SCAN_LEVELS`` times.
    The indices go to the contiguous run of roots nearest the seed ladder.
    """
    if n_min > n_max:
        raise ValueError(f"n_min = {n_min} exceeds n_max = {n_max}")
    ns = list(range(n_min, n_max + 1))
    seeds = charfn.asymptotic_seed(config, np.arange(n_min, n_max + 1))
    s = PI / mu(PI, config.weight)
    lo, hi = seeds[0] - 0.75 * s, seeds[-1] + 0.75 * s
    for level in range(_SCAN_LEVELS):
        pts = np.linspace(lo, hi, int(np.ceil((hi - lo) / s * (_SCAN_STEPS << level))) + 1)
        # the scan and its contour are one batch; Delta does not depend on it
        d = charfn.delta_many(config, np.concatenate(
            [pts, _contour_points(config, lo, hi, pts[1] - pts[0])]))
        vals = np.real(d[:len(pts)])
        j, = _sign_changes(vals)
        count, worst = _winding(d[len(pts):])
        if count == len(j) and worst < PI / 2.0:
            break
    else:
        raise MissingRootError(ns)

    found = _refine_roots(config, pts[j], pts[j + 1], vals[j], vals[j + 1])
    roots = found[0]
    if len(roots) >= len(ns):
        off = _best_run(seeds, roots)
        return _complete(config, ns, found[:, off:off + len(ns)], seeds)
    off = _best_run(roots, seeds)
    kept = slice(off, off + len(roots))
    partial = _complete(config, ns[kept], found, seeds[kept]) if len(roots) else None
    raise MissingRootError(ns[:off] + ns[off + len(roots):], partial=partial)


def _complete(config: ProblemConfig, ns, found, seeds) -> SpectralDataSet:
    """The data set of the roots and per-root quantities :func:`_refine_roots`
    found, indexed by ``ns``."""
    roots, alphas, betas, ddots, _ = found
    data = tuple(
        SpectralDatum(n=n, lambda_n=float(lam), alpha_n=float(a), beta_n=float(b),
                      delta_dot_n=float(dd), seed_gap=float(lam - seed))
        for n, lam, a, b, dd, seed in zip(ns, roots, alphas, betas, ddots, seeds))
    return SpectralDataSet(fingerprint=config_fingerprint(config), data=data)


# ---------------------------------------------------------------------------
# Per-root quantities
# ---------------------------------------------------------------------------

def _from_sweep(config: ProblemConfig, roots, psi0, ddots) -> np.ndarray:
    """alpha_n, beta_n, Delta-dot(lambda_n) and the proportionality residual
    |psi(0) - beta_n phi(0)| / |psi(0)| from the real psi(0) and Delta-dot
    that :func:`charfn.complex_step` gives at the roots lambda_n, as the rows
    of one array: beta_n is the least-squares ratio of psi(0) to the exact
    phi(0), and alpha_n = Delta-dot / beta_n.  psi - beta_n phi solves the
    equation, so its size at x = 0 measures the proportionality everywhere."""
    phi0 = integrator.phi_init(config, roots).real
    betas = np.sum(psi0 * phi0, axis=1) / np.sum(phi0 * phi0, axis=1)
    resid = np.hypot(*(psi0 - betas[:, None] * phi0).T) / np.hypot(*psi0.T)
    return np.array([ddots / betas, betas, ddots, resid])


def _per_root(config: ProblemConfig, roots) -> np.ndarray:
    """The rows of :func:`_from_sweep` at ``roots``, from their own sweep."""
    roots = np.asarray(roots, float)
    psi0, _, ddots = charfn.complex_step(config, roots)
    return _from_sweep(config, roots, psi0, ddots)


def _checked_per_root(config: ProblemConfig, lambda_n: float):
    """(alpha_n, beta_n) at lambda_n, which must be an eigenvalue."""
    alphas, betas, _, residuals = _per_root(config, [lambda_n])
    if residuals[0] > _PROP_RESIDUAL_TOL:
        raise NonProportionalError(lambda_n, float(residuals[0]))
    return float(alphas[0]), float(betas[0])


def norming_constant(config: ProblemConfig, lambda_n: float) -> float:
    """Squared weighted norm of the eigen-element at a root of Delta."""
    return _checked_per_root(config, lambda_n)[0]


def beta(config: ProblemConfig, lambda_n: float) -> float:
    """Proportionality factor between the right- and left-normalized solutions."""
    return _checked_per_root(config, lambda_n)[1]


def orthogonality_check(config: ProblemConfig, data: SpectralDataSet) -> float:
    """Max normalized off-diagonal Gram entry of the eigen-elements."""
    if len(data) < 2:
        return 0.0
    E = expansion.eigen_elements(config, [d.lambda_n for d in data])
    alphas = data.alphas()
    G = np.abs(expansion.gram(config, E, E)) / np.sqrt(np.outer(alphas, alphas))
    np.fill_diagonal(G, 0.0)
    return float(np.max(G))
