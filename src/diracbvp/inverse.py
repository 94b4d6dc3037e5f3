"""Potential reconstruction from spectral data {lambda_n, alpha_n}.

Boundary coefficients and the weight are assumed known; only the finitely
parametrized potential pair (p, q) is recovered, by one Levenberg-Marquardt
least-squares solve on the weighted residual vector, sqrt(w)(lambda - lambda*)
stacked on sqrt(w)(log alpha - log alpha*), with a finite-difference
Jacobian.  Eigenvalues of a candidate potential are matched to the target
ones by a local sign-change scan around each target, refined by the
eigensolver's batched Illinois regula falsi; a target without a bracket
contributes a penalty residual instead of raising, so the objective stays
total.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError
from .model import (PI, BoundaryParams, PotentialSpec, ProblemConfig, Weight, mu)
from . import charfn, eigensolver, expansion, integrator

_PENALTY = 1e6


@dataclass(frozen=True)
class PotentialBasis:
    """Parametrization of the unknown potential: m parameters per component."""

    kind: str          # "piecewise" or "cosine"
    m: int

    def __post_init__(self):
        if self.kind not in ("piecewise", "cosine"):
            raise ConfigError(f"unsupported basis kind {self.kind!r}")
        if self.m < 1:
            raise ConfigError("basis needs at least one parameter per component")

    @property
    def dim(self) -> int:
        return 2 * self.m

    def to_potential(self, params) -> PotentialSpec:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.dim,):
            raise ConfigError(
                f"expected {self.dim} parameters, got shape {params.shape}")
        p, q = params[: self.m], params[self.m:]
        if self.kind == "piecewise":
            return PotentialSpec.piecewise(p, q)
        return PotentialSpec.cosine(p, q)


def default_weights(ns) -> np.ndarray:
    """Per-datum weights 1/(1+n^2): downweight high modes."""
    ns = np.asarray(ns, dtype=float)
    return 1.0 / (1.0 + ns ** 2)


@dataclass(frozen=True)
class InverseProblem:
    target: eigensolver.SpectralDataSet
    basis: PotentialBasis
    boundary: BoundaryParams
    weight: Weight
    grid_points: int = 512
    datum_weights: Optional[tuple] = None

    def __post_init__(self):
        if self.basis.dim > 2 * len(self.target):
            raise ConfigError(
                f"{self.basis.dim} parameters exceed the "
                f"{2 * len(self.target)} scalar data available")
        if self.datum_weights is not None and len(self.datum_weights) != len(self.target):
            raise ConfigError("datum_weights length must match the target data")

    def weights(self) -> np.ndarray:
        if self.datum_weights is not None:
            return np.asarray(self.datum_weights, dtype=float)
        return default_weights([d.n for d in self.target])

    def make_config(self, params) -> ProblemConfig:
        return ProblemConfig(boundary=self.boundary, weight=self.weight,
                             potential=self.basis.to_potential(params),
                             grid_points=self.grid_points)


@dataclass(frozen=True)
class ReconstructionResult:
    parameters: Tuple[float, ...]
    misfit: float
    iterations: int
    converged: bool
    trace: Tuple[float, ...] = ()   # best objective value after each evaluation


def synthesize_data(config: ProblemConfig, N: int) -> eigensolver.SpectralDataSet:
    """Forward map: spectral data of a known configuration for |n| <= N."""
    return eigensolver.find_eigenvalues(config, -N, N)


# ---------------------------------------------------------------------------
# Batched root matching around the targets
# ---------------------------------------------------------------------------

def _match_roots(config: ProblemConfig, targets: np.ndarray, half: float):
    """Nearest root of Delta to each target, or NaN where matching fails."""
    nscan = 9
    offsets = np.linspace(-half, half, nscan)
    pts = targets[:, None] + offsets[None, :]
    vals = np.real(charfn.delta_many(config, pts.ravel())).reshape(pts.shape)

    rows, cols = [], []
    for i in range(len(targets)):
        sc = np.where(vals[i, :-1] * vals[i, 1:] <= 0.0)[0]
        if len(sc) == 0:
            continue
        # bracket nearest to the target
        centers = targets[i] + 0.5 * (offsets[sc] + offsets[sc + 1])
        rows.append(i)
        cols.append(sc[np.argmin(np.abs(centers - targets[i]))])

    roots = np.full(len(targets), np.nan)
    if rows:
        rows, cols = np.array(rows), np.array(cols)
        roots[rows] = eigensolver._refine_roots(
            config, pts[rows, cols], pts[rows, cols + 1],
            vals[rows, cols], vals[rows, cols + 1])
    # a match farther than the half-spacing window is a miss, never re-indexed
    roots[np.abs(roots - targets) > half] = np.nan
    return roots


def _data_residuals(w, lams, lams_star, alphas, alphas_star) -> np.ndarray:
    """sqrt(w)(lambda - lambda*) stacked on sqrt(w)(log alpha - log alpha*)."""
    sw = np.sqrt(w)
    return np.concatenate([sw * (lams - lams_star),
                           sw * (np.log(alphas) - np.log(alphas_star))])


def residuals(problem: InverseProblem, params) -> np.ndarray:
    """Weighted data residuals of a candidate potential; an unmatched target
    contributes sqrt(w * penalty) for lambda and 0 for alpha."""
    config = problem.make_config(params)
    targets = problem.target.lambdas()
    alphas_star = problem.target.alphas()
    w = problem.weights()
    half = PI / (2.0 * mu(PI, problem.weight))

    roots = _match_roots(config, targets, half)
    ok = ~np.isnan(roots)
    alphas = alphas_star.copy()
    if np.any(ok):
        xs, phis, _ = integrator.phi_many(config, roots[ok])
        alphas[ok] = expansion._squared_norms(config, xs, phis)
    r = _data_residuals(w, np.where(ok, roots, targets), targets, alphas, alphas_star)
    r[:len(targets)][~ok] = np.sqrt(w[~ok] * _PENALTY)
    return r


def misfit(problem: InverseProblem, params) -> float:
    """Weighted squared data misfit; penalized (finite) on matching failure."""
    return float(np.sum(residuals(problem, params) ** 2))


class _BudgetSpent(Exception):
    """Ends the least-squares solve once ``max_evals`` residuals were taken."""


def reconstruct(problem: InverseProblem, init,
                max_evals: int = 2000) -> ReconstructionResult:
    """Fit the potential parameters to the target data by one
    Levenberg-Marquardt solve on :func:`residuals`.

    Every residual evaluation counts against ``max_evals``, the ones of the
    finite-difference Jacobian included; the solve stops after exactly that
    many.  ``trace`` holds the best misfit after each evaluation, and
    ``converged`` is the solver's own success, False when the budget ran out.
    """
    # imported here, so that importing the package does not load scipy
    from scipy.optimize import least_squares

    init = np.asarray(init, dtype=float)
    if init.shape != (problem.basis.dim,):
        raise ConfigError(
            f"expected {problem.basis.dim} initial parameters, got {init.shape}")

    trace: list = []
    best = {"x": init.copy(), "f": np.inf}

    def objective(x):
        # scipy's "lm" does not count its Jacobian evaluations against max_nfev
        if len(trace) >= max_evals:
            raise _BudgetSpent
        r = residuals(problem, x)
        f = float(np.sum(r ** 2))
        if f < best["f"]:
            best["f"], best["x"] = f, np.array(x)
        trace.append(best["f"])
        return r

    try:
        converged = bool(least_squares(objective, init, method="lm").success)
    except _BudgetSpent:
        converged = False

    return ReconstructionResult(parameters=tuple(float(v) for v in best["x"]),
                                misfit=float(best["f"]),
                                iterations=len(trace),
                                converged=converged,
                                trace=tuple(trace))


def uniqueness_probe(config_a: ProblemConfig, config_b: ProblemConfig,
                     N: int) -> float:
    """Misfit-style distance between the spectral data of two potentials."""
    if config_a.boundary != config_b.boundary or config_a.weight != config_b.weight:
        raise ValueError("uniqueness probe requires shared boundary and weight")
    da = synthesize_data(config_a, N)
    db = synthesize_data(config_b, N)
    w = default_weights([d.n for d in da])
    r = _data_residuals(w, da.lambdas(), db.lambdas(), da.alphas(), db.alphas())
    return float(np.sum(r ** 2))


def potential_l2_distance(config_a: ProblemConfig, config_b: ProblemConfig) -> float:
    """L2 distance of the two potential pairs on [0, pi] (diagnostic)."""
    xs = np.linspace(0.0, PI, 1025)
    dp = np.asarray(config_a.potential.p_at(xs)) - np.asarray(config_b.potential.p_at(xs))
    dq = np.asarray(config_a.potential.q_at(xs)) - np.asarray(config_b.potential.q_at(xs))
    return float(np.sqrt(expansion._simpson_weights(xs) @ (dp ** 2 + dq ** 2)))
