"""Potential reconstruction from spectral data {lambda_n, alpha_n}.

Boundary coefficients and the weight are assumed known; only the finitely
parametrized potential pair (p, q) is recovered, by derivative-free
minimization of a weighted data misfit.  Eigenvalues of a candidate
potential are matched to the target ones by a local sign-change scan around
each target, refined by the eigensolver's batched Illinois regula falsi; a
target without a bracket contributes a penalty instead of raising, so the
objective stays total.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import minimize

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
            raise ValueError(
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


def misfit(problem: InverseProblem, params) -> float:
    """Weighted squared data misfit; penalized (finite) on matching failure."""
    config = problem.make_config(params)
    targets = problem.target.lambdas()
    alphas_star = problem.target.alphas()
    w = problem.weights()
    half = PI / (2.0 * mu(PI, problem.weight))

    roots = _match_roots(config, targets, half)
    ok = ~np.isnan(roots)
    J = float(np.sum(w[~ok]) * _PENALTY)
    if np.any(ok):
        xs, phis, _ = integrator.phi_many(config, roots[ok])
        alphas = expansion._squared_norms(config, xs, phis)
        lam_term = (roots[ok] - targets[ok]) ** 2
        alpha_term = (np.log(alphas) - np.log(alphas_star[ok])) ** 2
        J += float(np.sum(w[ok] * (lam_term + alpha_term)))
    return J


def reconstruct(problem: InverseProblem, init,
                max_evals: int = 2000, restarts: int = 1) -> ReconstructionResult:
    """Minimize the data misfit by Nelder-Mead with restarts."""
    init = np.asarray(init, dtype=float)
    if init.shape != (problem.basis.dim,):
        raise ValueError(
            f"expected {problem.basis.dim} initial parameters, got {init.shape}")

    trace: list = []
    best = {"x": init.copy(), "f": np.inf}

    def objective(x):
        f = misfit(problem, x)
        if f < best["f"]:
            best["f"], best["x"] = f, np.array(x)
        trace.append(best["f"])
        return f

    x0 = init
    remaining = max_evals
    converged = False
    for _ in range(restarts + 1):
        if remaining <= 0 or converged:
            break
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-10,
                                "maxfev": remaining, "adaptive": True})
        remaining = max_evals - len(trace)
        converged = bool(res.success) or best["f"] < 1e-8
        x0 = best["x"]

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
    lam_term = (da.lambdas() - db.lambdas()) ** 2
    alpha_term = (np.log(da.alphas()) - np.log(db.alphas())) ** 2
    return float(np.sum(w * (lam_term + alpha_term)))


def potential_l2_distance(config_a: ProblemConfig, config_b: ProblemConfig) -> float:
    """L2 distance of the two potential pairs on [0, pi] (diagnostic)."""
    xs = np.linspace(0.0, PI, 1025)
    dp = np.asarray(config_a.potential.p_at(xs)) - np.asarray(config_b.potential.p_at(xs))
    dq = np.asarray(config_a.potential.q_at(xs)) - np.asarray(config_b.potential.q_at(xs))
    return float(np.sqrt(simpson(dp ** 2 + dq ** 2, x=xs)))
