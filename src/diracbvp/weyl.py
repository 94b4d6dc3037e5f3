"""Weyl function and Weyl solution, by direct evaluation and by pole series.

The boundary trace M(lambda) has simple poles exactly at the eigenvalues
with residues 1/alpha_n, giving the partial-fraction representation checked
here against the direct boundary-value formula.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiracBVPError, PoleError
from .model import ProblemConfig
from . import charfn, integrator

_POLE_GUARD = 1e-8


@dataclass(frozen=True)
class WeylSample:
    """One Weyl-function evaluation with its consistency record."""

    lam: complex
    m_direct: complex
    m_series: complex
    series_terms: int
    identity_defect: float


def _nearest_root_estimate(config: ProblemConfig, lam, dval) -> complex:
    # one Newton step from lam; adequate for an error message
    try:
        ddot = charfn.delta_dot(config, lam)
        if ddot != 0:
            return complex(lam - dval / ddot)
    except DiracBVPError:
        pass
    return complex(lam)


def _direct_from_psi0(config: ProblemConfig, lams, psi0):
    """(M, Delta) arrays at ``lams`` from their psi(0) rows (batch, 2),
    M = -(b4 psi1(0) + b3 psi2(0)) / (k1 Delta); raises PoleError at the first
    lambda within the pole guard."""
    b = config.boundary
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    psi1, psi2 = psi0[:, 0], psi0[:, 1]
    dvals = charfn.u1_form(config, lams, psi1, psi2)
    poles = np.flatnonzero(np.abs(dvals) <= _POLE_GUARD)
    if poles.size:
        lam, dval = complex(lams[poles[0]]), complex(dvals[poles[0]])
        raise PoleError(lam, nearest=_nearest_root_estimate(config, lam, dval))
    return -(b.b4 * psi1 + b.b3 * psi2) / (b.k1 * dvals), dvals


def _direct_many(config: ProblemConfig, lams):
    """(M, Delta) arrays at ``lams`` from one psi(0)-only sweep."""
    return _direct_from_psi0(config, lams, integrator.psi0_many(config, lams))


def weyl_direct(config: ProblemConfig, lam) -> complex:
    """Boundary trace of the Weyl solution at lambda (off the spectrum)."""
    return complex(_direct_many(config, lam)[0][0])


def weyl_series(config: ProblemConfig, lam, data):
    """Symmetric partial sum of the pole expansion over the supplied data.

    ``lam`` may be an array; each of its values is summed in the same order
    as alone, and a scalar ``lam`` gives a ``complex``.
    """
    if len(data) == 0:
        raise ValueError("empty spectral data set")
    lam = np.asarray(lam, dtype=complex)
    lams = np.array([d.lambda_n for d in data])
    alphas = np.array([d.alpha_n for d in data])
    # accumulate from the outermost indices inward: pairs at +-n nearly cancel
    order = np.argsort(-np.abs(lams))
    lams, alphas = lams[order], alphas[order]
    gaps = lam.reshape(-1, 1) - lams
    near = np.abs(gaps) < 1e-12
    if near.any():
        row = np.argmax(near.any(axis=1))
        raise PoleError(complex(lam.ravel()[row]),
                        nearest=float(lams[np.argmin(np.abs(gaps[row]))]))
    sums = np.sum(1.0 / (alphas * gaps), axis=1)
    return complex(sums[0]) if lam.ndim == 0 else sums.reshape(lam.shape)


def _weyl_solution(config: ProblemConfig, lam):
    """(trajectory, identity defect, M) from one psi propagation and one
    left batch of phi and C."""
    lam = complex(lam)
    _, psis, _ = integrator.psi_many(config, lam)
    ms, dvals = _direct_from_psi0(config, lam, psis[:, 0])
    m, phi_w = complex(ms[0]), psis[0] / dvals[0]
    xs, ys, ia = integrator.propagate_many(
        config, [lam, lam],
        np.vstack([integrator.phi_init(config, lam), integrator.c_init(config, lam)]),
        "left")
    defect = float(np.max(np.abs(phi_w - (ys[1] + m * ys[0]))))
    return integrator.Trajectory(lam=lam, xs=xs, ys=phi_w, index_a=ia), defect, m


def weyl_solution(config: ProblemConfig, lam):
    """Weyl solution trajectory and the defect of its two representations.

    Returns ``(trajectory, identity_defect)`` where the defect is the
    max-norm over the grid of the difference between psi/Delta and
    C + M*phi, both computed independently.
    """
    return _weyl_solution(config, lam)[:2]


def weyl_sample(config: ProblemConfig, lam, data=None) -> WeylSample:
    """Full evaluation record; the series column is NaN without data."""
    lam = complex(lam)
    _, defect, m_direct = _weyl_solution(config, lam)
    if data is not None and len(data):
        m_series = weyl_series(config, lam, data)
        terms = len(data)
    else:
        m_series = complex(np.nan, np.nan)
        terms = 0
    return WeylSample(lam=lam, m_direct=m_direct, m_series=m_series,
                      series_terms=terms, identity_defect=defect)


def residue_check(config: ProblemConfig, datum) -> float:
    """Relative defect of the numerical residue at an eigenvalue vs 1/alpha_n,
    from one psi batch of four points on a small circle around it."""
    lam_n = datum.lambda_n
    radius = 1e-3
    points = lam_n + radius * np.exp(1j * np.array([0.0, 0.5, 1.0, 1.5]) * np.pi)
    ms = _direct_many(config, points)[0]
    estimate = np.mean((points - lam_n) * ms)
    target = 1.0 / datum.alpha_n
    return float(abs(estimate - target) / abs(target))
