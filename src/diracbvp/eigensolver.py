"""Real eigenvalue location, norming constants, and spectral identities.

Roots of the characteristic function are bracketed by one uniform sign scan
over the range of their closed-form asymptotic seeds.  The scan is accepted
only when an argument-principle count of the zeros in a rectangle around it
(Delves and Lyness 1967) equals its number of sign changes, so no root inside
the range goes unseen; a multiple root counts more than once there but opens
at most one bracket, so every certified root has multiplicity one.  The
brackets are refined by batched Illinois regula falsi (Dowell and Jarratt
1971), the one root refiner of the package, which the inverse solver shares;
all heavy evaluations run as single batched propagations.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .errors import (ConfigError, MissingRootError, NonProportionalError,
                     RootRefinementError)
from .model import PI, ProblemConfig, config_fingerprint, mu
from . import charfn, expansion, integrator

_DEDUP_TOL = 1e-8
#: samples per seed spacing pi / mu(pi) of the first sign scan, and the number
#: of times the scan and its contour may be sampled twice as densely
_SCAN_STEPS = 8
_SCAN_LEVELS = 4
_PROP_RESIDUAL_TOL = 1e-5
#: root refinement stops once its step or bracket is this small, relative to
#: max(1, |lambda|); Illinois regula falsi gets there in well under 10 sweeps
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
        lams = [d.lambda_n for d in self.data]
        if any(b - a <= _DEDUP_TOL for a, b in zip(lams, lams[1:])):
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
                SpectralDatum(n=int(r["n"]), lambda_n=float(r["lambda"]),
                              alpha_n=float(r["alpha"]), beta_n=float(r["beta"]),
                              delta_dot_n=float(r["delta_dot"]),
                              seed_gap=float(r["seed_gap"]))
                for r in doc["data"]
            )
            return SpectralDataSet(fingerprint=doc["fingerprint"], data=data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed spectral data document: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "SpectralDataSet":
        with open(path, "r", encoding="utf-8") as fh:
            return SpectralDataSet.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Root search
# ---------------------------------------------------------------------------

def _real_delta(config: ProblemConfig, lams) -> np.ndarray:
    return np.real(charfn.delta_many(config, np.asarray(lams, dtype=float)))


def _refine_roots(config: ProblemConfig, lo, hi, flo, fhi) -> np.ndarray:
    """Batched Illinois regula falsi: one root of Delta in each bracket.

    ``flo`` and ``fhi`` are Delta at the bracket ends and must not share a
    sign.  Every sweep evaluates the whole batch, converged entries at their
    roots; Delta at a point does not depend on its batch, so this only keeps
    the loop free of index bookkeeping.
    """
    # b is the latest iterate and a the retained end; fa and fb never share
    # a sign, so [a, b] always brackets the root
    a, b = np.array(lo, float), np.array(hi, float)
    fa, fb = np.array(flo, float), np.array(fhi, float)
    b, fb = np.where(fa == 0.0, a, b), np.where(fa == 0.0, 0.0, fb)
    done = fb == 0.0
    for _ in range(_MAX_SWEEPS):
        c = np.where(done, b, b - fb * (b - a) / np.where(done, 1.0, fb - fa))
        done |= np.abs(c - b) <= _ROOT_RTOL * np.maximum(1.0, np.abs(c))
        if done.all():
            return c
        fc = _real_delta(config, c)
        keep_a = fc * fb > 0.0
        # Illinois: halve the retained end's value so it cannot stall
        fa = np.where(keep_a, 0.5 * fa, fb)
        a = np.where(keep_a, a, b)
        b, fb = c, fc
        done |= (fb == 0.0) | (np.abs(b - a) <= _ROOT_RTOL * np.maximum(1.0, np.abs(b)))
    raise RootRefinementError(_MAX_SWEEPS, b[~done])


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


def _contour_count(config: ProblemConfig, lo: float, hi: float, step: float):
    """Zeros of Delta in the rectangle [lo, hi] x [-i s, i s], s = pi / mu(pi),
    and the largest phase step taken along samples at most ``step`` apart."""
    return _winding(charfn.delta_many(config, _contour_points(config, lo, hi, step)))


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
    seeds = np.array([charfn.asymptotic_seed(config, n) for n in ns])
    s = PI / mu(PI, config.weight)
    lo, hi = seeds[0] - 0.75 * s, seeds[-1] + 0.75 * s
    for level in range(_SCAN_LEVELS):
        pts = np.linspace(lo, hi, int(np.ceil((hi - lo) / s * (_SCAN_STEPS << level))) + 1)
        # the scan and its contour are one batch; Delta does not depend on it
        d = charfn.delta_many(config, np.concatenate(
            [pts, _contour_points(config, lo, hi, pts[1] - pts[0])]))
        vals = np.real(d[:len(pts)])
        # an exact zero counts as positive, so it opens exactly one bracket
        j = np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))
        count, worst = _winding(d[len(pts):])
        if count == len(j) and worst < PI / 2.0:
            break
    else:
        raise MissingRootError(ns)

    roots = _refine_roots(config, pts[j], pts[j + 1], vals[j], vals[j + 1])
    if len(roots) >= len(ns):
        off = _best_run(seeds, roots)
        return _complete(config, ns, roots[off:off + len(ns)], seeds)
    off = _best_run(roots, seeds)
    kept = slice(off, off + len(roots))
    partial = _complete(config, ns[kept], roots, seeds[kept]) if len(roots) else None
    raise MissingRootError(ns[:off] + ns[off + len(roots):], partial=partial)


def _complete(config: ProblemConfig, ns, roots, seeds) -> SpectralDataSet:
    roots = np.asarray(roots, float)
    alphas, betas, _ = _per_root(config, roots)
    ddots = np.real(charfn.delta_dot_many(config, roots))
    data = tuple(
        SpectralDatum(n=n, lambda_n=float(lam), alpha_n=float(a), beta_n=float(b),
                      delta_dot_n=float(dd), seed_gap=float(lam - seed))
        for n, lam, a, b, dd, seed in zip(ns, roots, alphas, betas, ddots, seeds))
    return SpectralDataSet(fingerprint=config_fingerprint(config), data=data)


# ---------------------------------------------------------------------------
# Per-root quantities
# ---------------------------------------------------------------------------

def _per_root(config: ProblemConfig, roots):
    """alpha_n, beta_n and the proportionality residual of psi against phi.

    One phi and one psi propagation serve all three; alpha_n = ||phi_n||^2 and
    beta is the global least-squares ratio psi/phi over all samples and
    components.
    """
    roots = np.asarray(roots, float)
    xs, phis, _ = integrator.phi_many(config, roots)
    _, psis, _ = integrator.psi_many(config, roots)
    phis = phis.real
    psis = psis.real
    num = np.sum(psis * phis, axis=(1, 2))
    den = np.sum(phis * phis, axis=(1, 2))
    betas = num / den
    resid = (np.linalg.norm(psis - betas[:, None, None] * phis, axis=(1, 2))
             / np.linalg.norm(psis, axis=(1, 2)))
    return expansion._squared_norms(config, xs, phis), betas, resid


def _checked_per_root(config: ProblemConfig, lambda_n: float):
    """(alpha_n, beta_n) at lambda_n, which must be an eigenvalue."""
    alphas, betas, residuals = _per_root(config, [lambda_n])
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
