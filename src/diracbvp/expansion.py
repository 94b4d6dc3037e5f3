"""Weighted inner product, eigenfunction expansion, Parseval defect, resolvent.

Elements of the underlying Hilbert space pair a two-component function on
[0, pi] with two boundary scalars; the inner product weights the integral by
rho and the scalars by 1/k1 and 1/k2.  :func:`gram` is its one implementation:
coefficients and orthogonality are read off it, and its diagonal on the
eigen-elements is the independent check of the norming constants.  One
Simpson rule, the grid's ``quadrature``, built once per grid by
:mod:`integrator` over all of [0, pi], gives its weights and the
resolvent's cumulative integrals, with rho applied per step.

Results that depend only on the config and lambda live in the memo of the
config's grid, read through :func:`_memo`: :func:`eigen_elements` keyed on
the float64 bytes of its lambda array (order and batch included), and
:func:`resolvent_apply`'s psi, phi and Delta keyed on the bytes of its
complex lambda.  So coefficients, Parseval defect and expansion over one
data set share one propagation, as do resolvents of many elements at one
lambda.  A new lambda array propagates only the lambda that no live
eigen-element entry holds, so nested data sets propagate each lambda once.
The memo holds at most ``_MEMO`` entries, least recently used dropped
first; its arrays are read-only, and it goes with the grid when
``integrator.build_grid.cache_clear()`` is called.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridMismatchError
from .model import ProblemConfig
from . import charfn, integrator, weyl

#: entries of a grid's memo; expanding two elements over five nested data
#: sets and applying the resolvent at two lambda keeps 7 live, and no value
#: depends on it
_MEMO = 8


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
        if el.xs is not grid.xs and not np.array_equal(el.xs, grid.xs):
            raise GridMismatchError("element grid does not match the config grid")
    return grid


def _memo(config: ProblemConfig, key, build):
    """The tuple ``build()`` returns, built once per ``key`` on the config's
    grid and kept in its memo.  Every array of it is made read-only, so no
    caller can change an entry; a build that raises stores nothing, and the
    least recently used entry goes once there are more than ``_MEMO``."""
    memo = integrator.build_grid(config).memo
    try:
        memo.move_to_end(key)
        return memo[key]
    except KeyError:        # not built yet
        pass
    value = build()
    for v in value:
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    memo[key] = value
    if len(memo) > _MEMO:
        memo.popitem(last=False)
    return value


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
    w = _check_grid(config, Y, Z).quadrature[0]
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


def eigen_elements(config: ProblemConfig, lambdas) -> HElement:
    """Stacked eigen-elements of the left-normalized solutions at ``lambdas``,
    kept in the grid memo under the bytes of the lambda array.  A new array
    takes the rows of the lambda that live entries hold, keyed by their bits,
    and propagates the other distinct lambda in one batch; a row has the same
    bytes in any batch."""
    lams = np.atleast_1d(np.asarray(lambdas, dtype=float))
    grid = integrator.build_grid(config)

    def build():
        rows = {}
        for key, entry in grid.memo.items():
            if key[0] == "eigen_elements":
                held = np.frombuffer(key[1], np.int64).tolist()
                rows.update(zip(held, zip(entry[0], entry[1])))
        bits = lams.view(np.int64).tolist()
        new = [b for b in dict.fromkeys(bits) if b not in rows]
        if new:
            _, ys, _ = integrator.phi_many(config, np.array(new, np.int64).view(float))
            rows.update(zip(new, zip(ys[..., 0].real, ys[..., 1].real)))
        f1 = np.empty((len(bits), len(grid.xs)))
        f2 = np.empty_like(f1)
        for i, b in enumerate(bits):
            f1[i], f2[i] = rows[b]
        return (f1, f2, *_boundary_scalars(config, f1, f2))

    f1, f2, f3, f4 = _memo(config, ("eigen_elements", lams.tobytes()), build)
    return HElement(grid.xs, f1, f2, f3, f4)


def eigen_element(config: ProblemConfig, lambda_n: float) -> HElement:
    """The space element carried by the left-normalized solution at lambda_n."""
    E = eigen_elements(config, [lambda_n])
    return HElement(E.xs, E.f1[0], E.f2[0], E.f3[0], E.f4[0])


def coefficients(config: ProblemConfig, data, f: HElement) -> np.ndarray:
    """Coefficients <f, phi_n> / alpha_n: one Gram row over the data's alpha."""
    if len(data) == 0:
        raise ValueError("empty spectral data set")
    E = eigen_elements(config, [d.lambda_n for d in data])
    alphas = np.array([d.alpha_n for d in data])
    return np.asarray(gram(config, f, E)[0] / alphas, dtype=complex)


def parseval_defect(config: ProblemConfig, data, f: HElement) -> float:
    """Relative gap between ||f||^2 and the truncated coefficient sum."""
    c = coefficients(config, data, f)
    norm2 = inner(config, f, f).real
    if norm2 <= 0.0:
        raise ValueError("zero-norm element: Parseval defect undefined")
    alphas = np.array([d.alpha_n for d in data])
    return float(abs(norm2 - np.sum(alphas * np.abs(c) ** 2)) / norm2)


def expand(config: ProblemConfig, data, f: HElement) -> HElement:
    """Partial eigenfunction expansion sum_n c_n E_n of f over the supplied data."""
    c = coefficients(config, data, f)
    E = eigen_elements(config, [d.lambda_n for d in data])
    return HElement(xs=E.xs, f1=c @ E.f1, f2=c @ E.f2,
                    f3=complex(c @ E.f3), f4=complex(c @ E.f4))


# ---------------------------------------------------------------------------
# Resolvent
# ---------------------------------------------------------------------------

def _cumulative(config: ProblemConfig, values: np.ndarray) -> np.ndarray:
    """Cumulative rho-weighted integral from 0 of values on the config grid:
    the running sum of the Simpson integrals over its single steps, each
    times its step's rho."""
    grid = integrator.build_grid(config)
    halves = grid.quadrature[1]
    f = np.asarray(values, dtype=complex)
    per_pair = halves[:, 0] * f[:-2:2] + halves[:, 1] * f[1::2] + halves[:, 2] * f[2::2]
    cum = np.zeros(len(f), dtype=complex)
    np.cumsum(grid.forward.rho * per_pair.T.ravel(), out=cum[1:])
    return cum


def resolvent_apply(config: ProblemConfig, lam, f: HElement) -> integrator.Trajectory:
    """Apply the resolvent kernel plus boundary-data terms to f at lambda;
    psi, Delta and the pole guard are the Weyl function's.  psi, phi and
    Delta at lambda are kept in the grid memo under the bytes of lambda."""
    lam = complex(lam)
    grid = _check_grid(config, f)

    def build():
        _, psis, _ = integrator.psi_many(config, lam)
        dval = weyl._direct_from_psi0(config, lam, psis[:, 0])[1][0]
        return psis[0], integrator.phi(config, lam).ys, dval

    key = ("resolvent", np.complex128(lam).tobytes())
    psi_ys, phi_ys, dval = _memo(config, key, build)

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
