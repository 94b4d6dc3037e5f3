"""Weighted inner product, eigenfunction expansion, Parseval defect, resolvent.

Elements of the underlying Hilbert space pair a two-component function on
[0, pi] with two boundary scalars; the inner product weights the integral by
rho and the scalars by 1/k1 and 1/k2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .errors import GridMismatchError, PoleError
from .model import ProblemConfig
from . import charfn, integrator


@dataclass(frozen=True)
class HElement:
    """Function pair sampled on the configuration grid plus boundary scalars."""

    xs: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: complex
    f4: complex


def _config_grid(config: ProblemConfig):
    grid = integrator.build_grid(config, 1)
    return grid.xs, grid.ia


def _check_grid(config: ProblemConfig, *elements: HElement):
    xs, ia = _config_grid(config)
    for el in elements:
        if len(el.xs) != len(xs) or not np.allclose(el.xs, xs):
            raise GridMismatchError("element grid does not match the config grid")
    return xs, ia


def element_from_functions(config: ProblemConfig, f1: Callable, f2: Callable,
                           f3: Optional[complex] = None,
                           f4: Optional[complex] = None) -> HElement:
    """Sample (f1, f2) on the grid; unspecified boundary scalars default to
    the operator-domain-compatible values built from the boundary coefficients."""
    xs, _ = _config_grid(config)
    v1 = np.asarray(f1(xs), dtype=complex) * np.ones_like(xs)
    v2 = np.asarray(f2(xs), dtype=complex) * np.ones_like(xs)
    b = config.boundary
    if f3 is None:
        f3 = b.b3 * v2[0] + b.b4 * v1[0]
    if f4 is None:
        f4 = b.c3 * v2[-1] + b.c4 * v1[-1]
    return HElement(xs=xs, f1=v1, f2=v2, f3=complex(f3), f4=complex(f4))


def eigen_element(config: ProblemConfig, lambda_n: float) -> HElement:
    """The space element carried by the left-normalized solution at lambda_n."""
    traj = integrator.phi(config, lambda_n)
    return _element_from_phi(config, traj.xs, traj.ys)


def _element_from_phi(config: ProblemConfig, xs, ys) -> HElement:
    b = config.boundary
    f1 = ys[:, 0].real.copy()
    f2 = ys[:, 1].real.copy()
    return HElement(xs=xs, f1=f1, f2=f2,
                    f3=b.b3 * f2[0] + b.b4 * f1[0],
                    f4=b.c3 * f2[-1] + b.c4 * f1[-1])


def eigen_elements(config: ProblemConfig, lambdas) -> list:
    """Batched :func:`eigen_element` (one propagation for all lambdas)."""
    lambdas = np.asarray(lambdas, dtype=float)
    xs, ys, _ = integrator.phi_many(config, lambdas)
    return [_element_from_phi(config, xs, ys[i]) for i in range(len(lambdas))]


def inner(config: ProblemConfig, Y: HElement, Z: HElement) -> complex:
    """Weighted integral of the function pair plus the two boundary products."""
    _, ia = _check_grid(config, Y, Z)
    b = config.boundary
    integrand = Y.f1 * np.conj(Z.f1) + Y.f2 * np.conj(Z.f2)
    left = simpson(integrand[:ia + 1], x=Y.xs[:ia + 1])
    right = config.weight.alpha * simpson(integrand[ia:], x=Y.xs[ia:])
    return complex(left + right
                   + Y.f3 * np.conj(Z.f3) / b.k1
                   + Y.f4 * np.conj(Z.f4) / b.k2)


def coefficients(config: ProblemConfig, data, f: HElement) -> np.ndarray:
    """Expansion coefficients of f against the eigen-elements of ``data``,
    by the full inner product (integral plus boundary scalars)."""
    if len(data) == 0:
        raise ValueError("empty spectral data set")
    _check_grid(config, f)
    elements = eigen_elements(config, [d.lambda_n for d in data])
    return np.array([inner(config, f, el) / datum.alpha_n
                     for datum, el in zip(data, elements)], dtype=complex)


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
    coeffs = coefficients(config, data, f)
    elements = eigen_elements(config, [d.lambda_n for d in data])
    xs = elements[0].xs
    s1 = np.zeros_like(xs, dtype=complex)
    s2 = np.zeros_like(xs, dtype=complex)
    s3 = 0.0 + 0.0j
    s4 = 0.0 + 0.0j
    for a, el in zip(coeffs, elements):
        s1 += a * el.f1
        s2 += a * el.f2
        s3 += a * el.f3
        s4 += a * el.f4
    return HElement(xs=xs, f1=s1, f2=s2, f3=s3, f4=s4)


# ---------------------------------------------------------------------------
# Resolvent
# ---------------------------------------------------------------------------

def _cumulative_complex(values, xs):
    # scipy's cumulative_simpson silently drops imaginary parts
    return (cumulative_simpson(values.real, x=xs, initial=0.0)
            + 1j * cumulative_simpson(values.imag, x=xs, initial=0.0))


def _cumulative(config: ProblemConfig, values: np.ndarray, ia: int) -> np.ndarray:
    """Cumulative rho-weighted integral from 0, split at the jump node."""
    xs, _ = _config_grid(config)
    alpha = config.weight.alpha
    values = np.asarray(values, dtype=complex)
    left = _cumulative_complex(values[:ia + 1], xs[:ia + 1])
    right = alpha * _cumulative_complex(values[ia:], xs[ia:])
    return np.concatenate([left, left[-1] + right[1:]])


def resolvent_apply(config: ProblemConfig, lam, f: HElement) -> integrator.Trajectory:
    """Apply the resolvent kernel plus boundary-data terms to f at lambda."""
    lam = complex(lam)
    _, ia = _check_grid(config, f)
    phi_t = integrator.phi(config, lam)
    psi_t = integrator.psi(config, lam)
    dval = charfn.u1_form(config, lam, psi_t.ys[0, 0], psi_t.ys[0, 1])
    if abs(dval) <= 1e-8:
        raise PoleError(lam)

    g_phi = phi_t.ys[:, 0] * f.f1 + phi_t.ys[:, 1] * f.f2
    g_psi = psi_t.ys[:, 0] * f.f1 + psi_t.ys[:, 1] * f.f2
    int_phi = _cumulative(config, g_phi, ia)            # integral from 0 to x
    cum_psi = _cumulative(config, g_psi, ia)
    int_psi = cum_psi[-1] - cum_psi                     # integral from x to pi

    ys = np.empty_like(phi_t.ys)
    kernel1 = -(psi_t.ys[:, 0] * int_phi + phi_t.ys[:, 0] * int_psi) / dval
    kernel2 = -(psi_t.ys[:, 1] * int_phi + phi_t.ys[:, 1] * int_psi) / dval
    ys[:, 0] = kernel1 + (f.f4 / dval) * phi_t.ys[:, 0] + (f.f3 / dval) * psi_t.ys[:, 0]
    ys[:, 1] = kernel2 + (f.f4 / dval) * phi_t.ys[:, 1] + (f.f3 / dval) * psi_t.ys[:, 1]
    return integrator.Trajectory(lam=lam, xs=phi_t.xs, ys=ys, index_a=ia)


def resolvent_residual(config: ProblemConfig, lam, f: HElement,
                       traj: integrator.Trajectory):
    """(ODE residual, boundary residual) of a resolvent output, max-norm.

    Derivatives are finite-differenced per smooth side so the weight jump
    does not pollute the check.
    """
    lam = complex(lam)
    _, ia = _check_grid(config, f)
    pot = config.potential
    alpha = config.weight.alpha
    ode_max = 0.0
    for sl, rho in ((slice(0, ia + 1), 1.0), (slice(ia, None), alpha)):
        xs = traj.xs[sl]
        y1 = traj.ys[sl, 0]
        y2 = traj.ys[sl, 1]
        p = np.asarray(pot.p_at(xs), float)
        q = np.asarray(pot.q_at(xs), float)
        d1 = np.gradient(y1, xs, edge_order=2)
        d2 = np.gradient(y2, xs, edge_order=2)
        r1 = d2 + p * y1 + q * y2 - lam * rho * y1 - rho * f.f1[sl]
        r2 = -d1 + q * y1 - p * y2 - lam * rho * y2 - rho * f.f2[sl]
        ode_max = max(ode_max, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    bc1 = charfn.u1_form(config, lam, traj.ys[0, 0], traj.ys[0, 1]) - f.f3
    bc2 = charfn.u2_form(config, lam, traj.ys[-1, 0], traj.ys[-1, 1]) + f.f4
    return ode_max, float(max(abs(bc1), abs(bc2)))
