"""Weighted inner product, eigenfunction expansion, Parseval defect, resolvent.

Elements of the underlying Hilbert space pair a two-component function on
[0, pi] with two boundary scalars; the inner product weights the integral by
rho and the scalars by 1/k1 and 1/k2.  :func:`gram` is its one implementation:
norming constants, coefficients and orthogonality are all read off it.  One
Simpson rule, :func:`_simpson_halves`, gives its weights and the resolvent's
cumulative integrals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridMismatchError
from .model import ProblemConfig
from . import charfn, integrator, weyl


@dataclass(frozen=True)
class HElement:
    """Function pair sampled on an integration grid plus boundary scalars;
    a stack of K elements holds (K, N+1) arrays and (K,) scalars."""

    xs: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: complex
    f4: complex


def _check_grid(config: ProblemConfig, *elements: HElement):
    grid = integrator.build_grid(config)
    for el in elements:
        if len(el.xs) != len(grid.xs) or not np.allclose(el.xs, grid.xs):
            raise GridMismatchError("element grid does not match the config grid")
    return grid


def _simpson_halves(x) -> np.ndarray:
    """Simpson weights of the nodes ``x`` (an even number of steps), taken
    pair of steps by pair: entry [j, i, k] weighs f(x[2k+i]) in the integral
    over step j of pair k, h/12 (5, 8, -1) over the first step and
    h/12 (-1, 8, 5) over the second, h being one step.  A pair never
    straddles a cut, so its two steps are equal."""
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


def _boundary_scalars(config: ProblemConfig, f1, f2):
    """(b3 f2(0) + b4 f1(0), c3 f2(pi) + c4 f1(pi)) of single or stacked samples."""
    b = config.boundary
    return (b.b3 * f2[..., 0] + b.b4 * f1[..., 0],
            b.c3 * f2[..., -1] + b.c4 * f1[..., -1])


def gram(config: ProblemConfig, Y: HElement, Z: HElement) -> np.ndarray:
    """Matrix of inner products <Y_i, Z_j> of single or stacked elements.

    Y and Z live on the config grid.  One weighted matmul,
    (Y1 w) Z1^H + (Y2 w) Z2^H + Y3 Z3^H / k1 + Y4 Z4^H / k2, where w holds the
    rho-weighted Simpson weights of each side of the jump.
    """
    grid = _check_grid(config, Y, Z)
    w = np.zeros(len(grid.xs))
    for side, start in ((grid.left, 0), (grid.right, grid.ia)):
        w[start: start + side.n + 1] += side.rho * _simpson_weights(side.x_nodes)
    b = config.boundary
    y1, y2, z1, z2 = (np.atleast_2d(v) for v in (Y.f1, Y.f2, Z.f1, Z.f2))
    y3, y4, z3, z4 = (np.atleast_1d(v) for v in (Y.f3, Y.f4, Z.f3, Z.f4))
    return ((y1 * w) @ z1.conj().T + (y2 * w) @ z2.conj().T
            + np.outer(y3, z3.conj()) / b.k1 + np.outer(y4, z4.conj()) / b.k2)


def inner(config: ProblemConfig, Y: HElement, Z: HElement) -> complex:
    """Weighted integral of the function pair plus the two boundary products."""
    return complex(gram(config, Y, Z)[0, 0])


def element_from_functions(config: ProblemConfig, f1: Callable, f2: Callable,
                           f3: Optional[complex] = None,
                           f4: Optional[complex] = None) -> HElement:
    """Sample (f1, f2) on the grid; unspecified boundary scalars default to
    the operator-domain-compatible values built from the boundary coefficients."""
    xs = integrator.build_grid(config).xs
    v1 = np.asarray(f1(xs), dtype=complex) * np.ones_like(xs)
    v2 = np.asarray(f2(xs), dtype=complex) * np.ones_like(xs)
    d3, d4 = _boundary_scalars(config, v1, v2)
    return HElement(xs=xs, f1=v1, f2=v2,
                    f3=complex(d3 if f3 is None else f3),
                    f4=complex(d4 if f4 is None else f4))


def _solution_elements(config: ProblemConfig, xs, ys) -> HElement:
    """Stacked elements carried by real solutions ``ys`` (K, N+1, 2) on ``xs``."""
    f1 = ys[..., 0].real.copy()
    f2 = ys[..., 1].real.copy()
    return HElement(xs, f1, f2, *_boundary_scalars(config, f1, f2))


def _squared_norms(config: ProblemConfig, xs, ys) -> np.ndarray:
    """||.||^2 of the elements carried by real solutions ``ys`` (K, N+1, 2) on
    the config grid ``xs``: the real diagonal of their Gram."""
    E = _solution_elements(config, xs, ys)
    return np.real(np.diagonal(gram(config, E, E)))


def eigen_elements(config: ProblemConfig, lambdas) -> HElement:
    """Stacked eigen-elements of the left-normalized solutions at ``lambdas``
    from one propagation."""
    xs, ys, _ = integrator.phi_many(config, np.asarray(lambdas, dtype=float))
    return _solution_elements(config, xs, ys)


def eigen_element(config: ProblemConfig, lambda_n: float) -> HElement:
    """The space element carried by the left-normalized solution at lambda_n."""
    E = eigen_elements(config, [lambda_n])
    return HElement(E.xs, E.f1[0], E.f2[0], E.f3[0], E.f4[0])


def _coefficients(config: ProblemConfig, data, f: HElement):
    """Expansion coefficients of f and the stacked eigen-elements they use."""
    if len(data) == 0:
        raise ValueError("empty spectral data set")
    E = eigen_elements(config, [d.lambda_n for d in data])
    alphas = np.array([d.alpha_n for d in data])
    return np.asarray(gram(config, f, E)[0] / alphas, dtype=complex), E


def coefficients(config: ProblemConfig, data, f: HElement) -> np.ndarray:
    """Coefficients <f, phi_n> / alpha_n: one Gram row over the data's alpha."""
    return _coefficients(config, data, f)[0]


def parseval_defect(config: ProblemConfig, data, f: HElement) -> float:
    """Relative gap between ||f||^2 and the truncated coefficient sum."""
    norm2 = inner(config, f, f).real
    if norm2 <= 0.0:
        raise ValueError("zero-norm element: Parseval defect undefined")
    coeffs = coefficients(config, data, f)
    alphas = np.array([d.alpha_n for d in data])
    return float(abs(norm2 - np.sum(alphas * np.abs(coeffs) ** 2)) / norm2)


def expand(config: ProblemConfig, data, f: HElement) -> HElement:
    """Partial eigenfunction expansion of f over the supplied data."""
    c, E = _coefficients(config, data, f)
    return HElement(xs=E.xs, f1=c @ E.f1, f2=c @ E.f2,
                    f3=complex(c @ E.f3), f4=complex(c @ E.f4))


# ---------------------------------------------------------------------------
# Resolvent
# ---------------------------------------------------------------------------

def _cumulative(config: ProblemConfig, values: np.ndarray) -> np.ndarray:
    """Cumulative rho-weighted integral from 0 of values on the config grid:
    the running sum of the Simpson integrals over its single steps."""
    grid = integrator.build_grid(config)
    values = np.asarray(values, dtype=complex)
    steps = []
    for side, start in ((grid.left, 0), (grid.right, grid.ia)):
        f = values[start: start + side.n + 1]
        halves = _simpson_halves(side.x_nodes)
        per_pair = (halves[:, 0] * f[:-2:2] + halves[:, 1] * f[1::2]
                    + halves[:, 2] * f[2::2])
        steps.append(side.rho * per_pair.T.ravel())
    return np.concatenate([[0.0], np.cumsum(np.concatenate(steps))])


def resolvent_apply(config: ProblemConfig, lam, f: HElement) -> integrator.Trajectory:
    """Apply the resolvent kernel plus boundary-data terms to f at lambda;
    psi, Delta and the pole guard are the Weyl function's."""
    lam = complex(lam)
    grid = _check_grid(config, f)
    _, psis, _ = integrator.psi_many(config, lam)
    psi_ys = psis[0]
    dval = weyl._direct_from_psi0(config, lam, psis[:, 0])[1][0]
    phi_ys = integrator.phi(config, lam).ys

    g_phi = phi_ys[:, 0] * f.f1 + phi_ys[:, 1] * f.f2
    g_psi = psi_ys[:, 0] * f.f1 + psi_ys[:, 1] * f.f2
    int_phi = _cumulative(config, g_phi)                # integral from 0 to x
    cum_psi = _cumulative(config, g_psi)
    int_psi = cum_psi[-1] - cum_psi                     # integral from x to pi

    kernel = -(psi_ys * int_phi[:, None] + phi_ys * int_psi[:, None]) / dval
    ys = kernel + (f.f4 / dval) * phi_ys + (f.f3 / dval) * psi_ys
    return integrator.Trajectory(lam=lam, xs=grid.xs, ys=ys, index_a=grid.ia)


def resolvent_residual(config: ProblemConfig, lam, f: HElement,
                       traj: integrator.Trajectory):
    """(ODE residual, boundary residual) of a resolvent output, max-norm.

    Derivatives are finite-differenced per smooth piece of the grid, split at
    the weight jump and at every potential breakpoint, where y' jumps.  p and
    q are read a billionth of the piece's length inside it, because a
    breakpoint node carries the right segment's value.
    """
    lam = complex(lam)
    grid = _check_grid(config, f)
    xs, ia = grid.xs, grid.ia
    pot = config.potential
    alpha = config.weight.alpha
    ends = np.unique([0, ia, len(xs) - 1,
                      *np.searchsorted(xs, integrator._cuts(config))])
    ode_max = 0.0
    for i0, i1 in zip(ends[:-1], ends[1:]):
        sl = slice(i0, i1 + 1)
        rho = 1.0 if i1 <= ia else alpha
        x = xs[sl]
        inset = 1e-9 * (x[-1] - x[0])
        x_in = np.clip(x, x[0] + inset, x[-1] - inset)
        p = np.asarray(pot.p_at(x_in), float)
        q = np.asarray(pot.q_at(x_in), float)
        y1 = traj.ys[sl, 0]
        y2 = traj.ys[sl, 1]
        d1 = np.gradient(y1, x, edge_order=2)
        d2 = np.gradient(y2, x, edge_order=2)
        r1 = d2 + p * y1 + q * y2 - lam * rho * y1 - rho * f.f1[sl]
        r2 = -d1 + q * y1 - p * y2 - lam * rho * y2 - rho * f.f2[sl]
        ode_max = max(ode_max, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    bc1 = charfn.u1_form(config, lam, traj.ys[0, 0], traj.ys[0, 1]) - f.f3
    bc2 = charfn.u2_form(config, lam, traj.ys[-1, 0], traj.ys[-1, 1]) + f.f4
    return ode_max, float(max(abs(bc1), abs(bc2)))
