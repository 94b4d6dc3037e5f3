"""Potential reconstruction from spectral data {lambda_n, alpha_n}.

Boundary coefficients and the weight are assumed known; only the finitely
parametrized potential pair (p, q) is recovered, by one Levenberg-Marquardt
least-squares solve (MINPACK's lmder, through scipy's ``leastsq``) on the
weighted residual vector, sqrt(w)(lambda - lambda*) stacked on
sqrt(w)(log alpha - log alpha*), with a finite-difference Jacobian.  Each
target eigenvalue takes the nearest root of the candidate's
Delta from one sign scan of the targets' windows, refined like the
eigensolver's, and each root goes to one target only, the nearest.  A target
with no root within half a spacing, or whose root went to another target,
contributes a penalty residual instead of raising, and so does every target
when Delta, or the candidate potential on its grid, overflows; the objective
stays total.  The residuals of several candidates are one evaluation: one
scan batch and one refiner loop over all their windows and brackets, on an
:class:`integrator.ConfigStack`, so the 2m candidates of a Jacobian take
the Newton sweeps of the slowest of them; each candidate's roots are then
matched on their own, and its residuals have the bits of its own
evaluation.  A lone candidate is a stack of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, IntegrationOverflowError
from .model import (PI, BoundaryParams, PotentialSpec, ProblemConfig, Weight, mu)
from . import charfn, eigensolver, integrator

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

    def __post_init__(self):
        lams, alphas = self.target.lambdas(), self.target.alphas()
        # the residuals take log alpha*, and a NaN target matches no root
        if not (np.all(np.isfinite(lams)) and np.all(np.isfinite(alphas))
                and np.all(alphas > 0.0)):
            raise ConfigError("target eigenvalues and norming constants must be "
                              "finite, and norming constants positive")
        if self.basis.dim > 2 * len(self.target):
            raise ConfigError(
                f"{self.basis.dim} parameters exceed the "
                f"{2 * len(self.target)} scalar data available")

    def weights(self) -> np.ndarray:
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
# Root matching: one scan of the targets' windows
# ---------------------------------------------------------------------------

def _match_roots(configs, targets: np.ndarray, half: float) -> np.ndarray:
    """For each of ``configs``, the nearest root of its Delta to each target
    and its alpha_n, as a (2, configs, targets) array, NaN for both where no
    root lies within ``half`` or the root is nearer another target.  One
    scan batch samples the windows [t - half, t + half] of all targets for
    every config, at the points of a lone config, as one row per config;
    one refiner loop refines the brackets of every row, and each config's
    roots are then matched on their own."""
    # every target is a sample point: near the truth the regula falsi start
    # is already converged, and Newton stops after one sweep
    pts = np.unique(targets[:, None] + np.linspace(-half, half, eigensolver._SCAN_STEPS + 1))
    configs = tuple(configs)
    scan = integrator.ConfigStack(configs, np.repeat(np.arange(len(configs)), len(pts)))
    vals = charfn.delta_many(scan, np.tile(pts, len(configs))).real.reshape(len(configs), -1)
    owner, j = eigensolver._sign_changes(vals)
    found = np.full((2, len(configs), len(targets)), np.nan)
    if len(j) == 0:
        return found
    refined = eigensolver._refine_roots(integrator.ConfigStack(configs, owner), pts[j],
                                        pts[j + 1], vals[owner, j], vals[owner, j + 1])[:2]
    for i in range(len(configs)):
        roots, alphas = refined[:, owner == i]
        if len(roots) == 0:
            continue
        dist = np.abs(targets[:, None] - roots)
        nearest = np.argmin(dist, axis=1)
        # a root is one eigenvalue, so only the target nearest to it keeps
        # it; a match farther than the half-spacing window is a miss, never
        # re-indexed
        ok = np.argmin(dist, axis=0)[nearest] == np.arange(len(targets))
        ok &= np.abs(roots[nearest] - targets) <= half
        found[:, i] = np.where(ok, [roots[nearest], alphas[nearest]], np.nan)
    return found


def _data_residuals(w, lams, lams_star, alphas, alphas_star) -> np.ndarray:
    """sqrt(w)(lambda - lambda*) stacked on sqrt(w)(log alpha - log alpha*),
    along the last axis."""
    sw = np.sqrt(w)
    return np.concatenate([sw * (lams - lams_star),
                           sw * (np.log(alphas) - np.log(alphas_star))], axis=-1)


def _stacked_residuals(problem: InverseProblem, stack) -> np.ndarray:
    """:func:`residuals` of each parameter vector of ``stack``, one row
    each, from one :func:`_match_roots`.  When Delta overflows in the
    targets' windows of one candidate, or its potential does on its grid,
    the candidates are evaluated one at a time, so that one alone takes the
    penalty."""
    configs = [problem.make_config(params) for params in stack]
    targets = problem.target.lambdas()
    alphas_star = problem.target.alphas()
    w = problem.weights()
    half = PI / (2.0 * mu(PI, problem.weight))

    try:
        roots, alphas = _match_roots(configs, targets, half)
    except (IntegrationOverflowError, ConfigError):
        if len(configs) > 1:
            return np.array([_stacked_residuals(problem, [params])[0] for params in stack])
        # Delta overflows in the targets' windows, or the candidate's p or q
        # does on its grid: no target has a match
        roots = alphas = np.full((1, len(targets)), np.nan)
    # a norming constant is positive; a match without one is no eigenvalue
    ok = np.isfinite(alphas) & (alphas > 0.0)
    r = _data_residuals(w, np.where(ok, roots, targets), targets,
                        np.where(ok, alphas, alphas_star), alphas_star)
    r[:, :len(targets)] = np.where(ok, r[:, :len(targets)], np.sqrt(w * _PENALTY))
    return r


def residuals(problem: InverseProblem, params) -> np.ndarray:
    """Weighted data residuals of a candidate potential; an unmatched target,
    or one whose match has no finite positive alpha, contributes
    sqrt(w * penalty) for lambda and 0 for alpha.  Every target is unmatched
    when the propagation overflows in the targets' windows, or the candidate
    potential is not finite on its grid."""
    return _stacked_residuals(problem, [params])[0]


def misfit(problem: InverseProblem, params) -> float:
    """Weighted squared data misfit; penalized (finite) on matching failure."""
    return float(np.sum(residuals(problem, params) ** 2))


class _BudgetSpent(Exception):
    """Ends the least-squares solve once ``max_evals`` residuals were taken."""


def reconstruct(problem: InverseProblem, init,
                max_evals: int = 2000) -> ReconstructionResult:
    """Fit the potential parameters to the target data by one
    Levenberg-Marquardt solve on :func:`residuals`: scipy's ``leastsq``, with
    ftol = xtol = gtol = 1e-8, MINPACK's own scaling (diag = None) on every
    scipy, and at most 100 * 2m residual requests by MINPACK's count.

    The Jacobian is the 2-point rule, h = sign(x) sqrt(eps) max(1, |x|)
    and dx = (x + h) - x per parameter, from the residuals the solve last
    took, at x, and those of the 2m candidates x + h e_k, evaluated as one
    stack.  Every residual evaluation counts against ``max_evals``, the
    candidates included, in the order of the parameters; the solve stops
    after exactly that many.  A second request for the residuals or the
    Jacobian at the point just evaluated, as ``leastsq``'s input checks and
    then ``lmder`` make at the start, evaluates nothing.  ``trace`` holds
    the best misfit after each evaluation, and ``converged`` is the
    solver's own success (MINPACK's info 1-4), False when the budget ran
    out.  ``init`` must fit the basis, with finite values.
    """
    if max_evals < 1:
        raise ConfigError(f"max_evals = {max_evals} must be >= 1")
    # imported here, so that importing the package does not load scipy
    from scipy.optimize import leastsq

    init = np.asarray(init, dtype=float)
    problem.basis.to_potential(init)    # raises ConfigError unless init fits the basis

    trace: list = []
    best = {"x": init.copy(), "f": np.inf}
    # the solver's last residual evaluation: its point, its residuals and,
    # once taken there, the Jacobian, which serve a repeated request
    last = {"x": None, "r": None, "J": None}

    def record(x, r):
        f = float(np.sum(r ** 2))
        if f < best["f"]:
            best["f"], best["x"] = f, np.array(x)
        trace.append(best["f"])

    def objective(x):
        if np.array_equal(x, last["x"]):
            return last["r"]
        # lmder does not count its Jacobian evaluations against maxfev
        if len(trace) >= max_evals:
            raise _BudgetSpent
        r = residuals(problem, x)
        record(x, r)
        last.update(x=np.array(x), r=r, J=None)
        return r

    def jacobian(x):
        # lmder evaluates the residuals at x first unless x is its last point
        r0 = objective(x)
        if last["J"] is not None:
            return last["J"]
        h = (np.finfo(float).eps ** 0.5 * np.where(x >= 0.0, 1.0, -1.0)
             * np.maximum(1.0, np.abs(x)))
        stack = np.tile(x, (len(x), 1))
        np.fill_diagonal(stack, x + h)
        # the budget may end inside the Jacobian
        stack = stack[:max_evals - len(trace)]
        if len(stack) == 0:
            raise _BudgetSpent
        rs = _stacked_residuals(problem, stack)
        for xk, rk in zip(stack, rs):
            record(xk, rk)
        if len(stack) < len(x):
            raise _BudgetSpent
        last["J"] = ((rs - r0) / ((x + h) - x)[:, None]).T
        return last["J"]

    try:
        # full output, so that a stop on info 5-8 returns its info and warns of nothing
        info = leastsq(objective, init, Dfun=jacobian, full_output=True, ftol=1e-8,
                       xtol=1e-8, gtol=1e-8, maxfev=100 * len(init))[-1]
        converged = info in (1, 2, 3, 4)
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
    """L2 distance of the two potential pairs on [0, pi] (diagnostic), by the
    two-point Gauss rule on 1024 steps with a node at every breakpoint of
    either potential, so it is exact on piecewise-constant pairs."""
    cuts = sorted({*integrator._cuts(config_a), *integrator._cuts(config_b)})
    xs = integrator._side_nodes(0.0, PI, 1024, cuts)
    h = np.diff(xs)
    xg = np.concatenate([xs[:-1] + g * h for g in integrator._GAUSS])
    pa, pb = config_a.potential, config_b.potential
    d2 = (pa.p_at(xg) - pb.p_at(xg)) ** 2 + (pa.q_at(xg) - pb.q_at(xg)) ** 2
    return float(np.sqrt(np.tile(0.5 * h, 2) @ d2))
