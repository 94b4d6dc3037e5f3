"""Correctness checks of every workload against the exact reference.

``prepare`` computes, before anything is timed, the reference values a
workload is checked against, and the reference spectral data that the
``expansion`` and ``inverse`` workloads take as input.  ``check`` reads one
round's outputs and returns a list of problems; an empty list means the
round is correct.  Nothing is compared with a stored copy of earlier output.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import inputs
import reference

# spectrum: the three-segment potential converges at first order in the step
# (its breakpoints are not grid nodes), so errors scale as h J, with
# h = pi / grid_points and J the total size of the potential's jumps.  Over
# seeds 11..18 the eigenvalue error stayed below 0.014 h J and the relative
# norming-constant error below 0.055 h J; the bounds allow about 4x that.
SPECTRUM_LAMBDA_PER_HJ = 0.05
SPECTRUM_ALPHA_PER_HJ = 0.2
SPECTRUM_IDENTITY_REL = 1e-4     # alpha beta = dDelta/dlambda, measured below 1.2e-5
# weyl_map: constant potential and a grid node at the jump, so fourth order;
# measured relative error below 2e-7 on seeds 1..5
WEYL_REL = 1e-4
# expansion: constant potential at grid 512 with exact eigenvalues as input;
# the RK4 error of the eigen-elements (about 1e-6 at lambda rho h = 0.064)
# dominates.  Measured over seeds 1..4 (bounds about 10x):
EXPANSION_COEFF = 1e-5           # |c - c_ref| in units of ||f|| / sqrt(alpha_n); 5.7e-7
EXPANSION_SUM = 1e-5             # partial-sum error in units of sum |c_n| max|phi_n|; 6.0e-7
EXPANSION_ORTHOGONALITY = 1e-5   # 1.02e-6
EXPANSION_BESSEL = 1e-9          # the partial sums stay at least 3e-3 below ||f||^2
RESOLVENT_RESIDUAL = 1e-4        # equation 6.7e-6, boundary forms 1e-15 (relative)
# inverse: in a trial on 12 truths, 30 Nelder-Mead evaluations came within 2e-3 of each
INVERSE_PARAM = 1e-2


def prepare(inp: dict) -> dict:
    """Reference values for one workload; adds reference spectral input to ``inp``."""
    prob = reference.Problem.from_config(inp["config"])
    ref = {"problem": prob}
    workload = inp["workload"]
    if workload == "spectrum":
        spacing = math.pi / prob.mu_pi
        roots = reference.real_roots(prob, reference.seed(prob, inp["n_min"]) - 4 * spacing,
                                     reference.seed(prob, inp["n_max"]) + 4 * spacing)
        ref["roots"] = roots
        ref["alphas"] = np.array([reference.alpha(prob, lam) for lam in roots])
    elif workload == "weyl_map":
        res = np.linspace(inp["re_min"], inp["re_max"], inp["re_steps"])
        ims = np.linspace(inp["im_min"], inp["im_max"], inp["im_steps"])
        lams = np.array([complex(r, i) for i in ims for r in res])
        ref["lams"] = lams
        ref["m"] = reference.weyl(prob, lams)
    elif workload == "expansion":
        data = reference.spectral_data(prob, inp["n_max"])
        inp["spectrum"] = data
        ref["ns"] = np.array([d["n"] for d in data])
        ref["lams"] = np.array([d["lambda"] for d in data])
        ref["alphas"] = np.array([d["alpha"] for d in data])
        ref["elements"] = []
        for spec in inp["elements"]:
            f = (*inputs.element_functions(spec), spec["f3"], spec["f4"])
            coeffs = np.array([reference.inner(prob, f, reference.eigen_element(prob, lam),
                                               lam_hint=lam) / al
                               for lam, al in zip(ref["lams"], ref["alphas"])])
            ref["elements"].append({"f": f, "norm2": reference.inner(prob, f, f, 3.0).real,
                                    "coeffs": coeffs})
    elif workload == "inverse":
        inp["target"] = reference.spectral_data(prob, inp["n_max"])
        ref["truth"] = np.array(prob.p + prob.q)
    return ref


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def read_eigs(out_dir: Path) -> list:
    with open(out_dir / "eigs.csv", newline="") as fh:
        return [{k: (int(v) if k == "n" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def check_spectrum(inp, ref, rows) -> list:
    problems = []
    ns = [r["n"] for r in rows]
    if ns != list(range(inp["n_min"], inp["n_max"] + 1)):
        problems.append(f"indices {ns[:3]}..{ns[-3:]} do not cover {inp['n_min']}..{inp['n_max']}")
    lams = np.array([r["lambda"] for r in rows])
    if len(lams) == 0:
        return problems + ["no eigenvalues"]
    prob = ref["problem"]
    pot = inp["config"]["potential"]
    jumps = sum(float(np.sum(np.abs(np.diff(v)))) for v in (pot["p_params"], pot["q_params"]))
    hj = math.pi / inp["config"]["grid_points"] * max(jumps, 1e-3)
    tol = SPECTRUM_LAMBDA_PER_HJ * hj
    roots = ref["roots"]
    inside = (roots >= lams[0] - tol) & (roots <= lams[-1] + tol)
    covered = roots[inside]
    if len(covered) != len(lams):
        problems.append(f"{len(covered)} reference eigenvalues in [{lams[0]:.6g}, "
                        f"{lams[-1]:.6g}] but {len(lams)} computed")
        return problems
    err = np.abs(lams - covered)
    if np.max(err) > tol:
        i = int(np.argmax(err))
        problems.append(f"lambda_{ns[i]} = {lams[i]!r} is {err[i]:.3e} from the exact "
                        f"{covered[i]!r} (tolerance {tol:.3e})")
    alphas = np.array([r["alpha"] for r in rows])
    alpha_ref = ref["alphas"][inside]
    rel = np.abs(alphas - alpha_ref) / alpha_ref
    if np.max(rel) > SPECTRUM_ALPHA_PER_HJ * hj:
        i = int(np.argmax(rel))
        problems.append(f"alpha_{ns[i]} off the exact {alpha_ref[i]!r} by {rel[i]:.3e}")
    ab = alphas * np.array([r["beta"] for r in rows])
    dd = np.array([r["delta_dot"] for r in rows])
    rel = np.abs(ab - dd) / np.abs(dd)
    if np.max(rel) > SPECTRUM_IDENTITY_REL:
        i = int(np.argmax(rel))
        problems.append(f"alpha beta = dDelta/dlambda fails at n = {ns[i]} by {rel[i]:.3e}")
    return problems


# ---------------------------------------------------------------------------
# weyl_map
# ---------------------------------------------------------------------------

def read_weyl(out_dir: Path) -> np.ndarray:
    return np.loadtxt(out_dir / "weyl.csv", delimiter=",", skiprows=1, ndmin=2)


def check_weyl_map(inp, ref, table) -> list:
    if table.shape[0] != len(ref["lams"]):
        return [f"{table.shape[0]} rows for {len(ref['lams'])} grid points"]
    lams = table[:, 0] + 1j * table[:, 1]
    if np.max(np.abs(lams - ref["lams"])) > 1e-12 * np.max(np.abs(ref["lams"])):
        return ["the lambda column is not the requested grid"]
    m = table[:, 2] + 1j * table[:, 3]
    rel = np.abs(m - ref["m"]) / np.abs(ref["m"])
    if not np.all(rel <= WEYL_REL):
        i = int(np.nanargmax(np.where(np.isfinite(rel), rel, np.inf)))
        return [f"M({lams[i]}) = {m[i]} is off the exact {ref['m'][i]} by {rel[i]:.3e}"]
    return []


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def read_expansion(out_dir: Path) -> dict:
    with np.load(out_dir / "outputs.npz") as npz:
        return {k: npz[k] for k in npz.files}


def _derivative(y, h):
    """Fourth-order finite differences along axis 0 of samples with step h."""
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
    d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    return d


def resolvent_residuals(prob, lam, f, xs, ys):
    """(equation residual, boundary residual) of y = R(lam) f, both relative.

    The equation is B y' + Omega y - lam rho y = rho f on each piece of
    constant coefficients, the boundary conditions U1(y) = f3 and
    U2(y) = -f4.  Derivatives are taken by fourth-order differences inside
    every piece, never across a breakpoint.
    """
    f1, f2 = f[0](xs), f[1](xs)
    worst = 0.0
    scale = 0.0
    for x0, x1, p, q, rho in prob.pieces():
        sel = np.where((xs >= x0 - 1e-12) & (xs <= x1 + 1e-12))[0]
        x = xs[sel]
        y = ys[sel]
        d = _derivative(y, (x[-1] - x[0]) / (len(x) - 1))
        r1 = d[:, 1] + p * y[:, 0] + q * y[:, 1] - lam * rho * y[:, 0] - rho * f1[sel]
        r2 = -d[:, 0] + q * y[:, 0] - p * y[:, 1] - lam * rho * y[:, 1] - rho * f2[sel]
        worst = max(worst, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
        scale = max(scale, float(np.max(np.abs(rho * f1[sel]))),
                    float(np.max(np.abs(rho * f2[sel]))),
                    float(np.max(np.abs(lam * rho * y))))
    bc1 = reference.u1(prob, lam, ys[0, 0], ys[0, 1]) - f[2]
    bc2 = reference.u2(prob, lam, ys[-1, 0], ys[-1, 1]) + f[3]
    bscale = abs(f[2]) + abs(f[3]) + abs(lam) * float(np.max(np.abs(ys[[0, -1]])))
    return worst / scale, max(abs(bc1), abs(bc2)) / bscale


def check_expansion(inp, ref, out) -> list:
    problems = []
    prob = ref["problem"]
    ns = ref["ns"]
    for i, el in enumerate(ref["elements"]):
        key = f"element{i}"
        xs = out[key + ".xs"]
        defects = []
        for n in inp["ladder"]:
            sel = np.abs(ns) <= n
            c = out[f"coefficients{i}_{n}"]
            unit = math.sqrt(el["norm2"]) / np.sqrt(ref["alphas"][sel])
            err = np.abs(c - el["coeffs"][sel]) / unit
            if np.max(err) > EXPANSION_COEFF:
                problems.append(f"element {i}, N = {n}: a coefficient is off by "
                                f"{np.max(err):.3e} of its scale")
            energy = float(np.sum(ref["alphas"][sel] * np.abs(c) ** 2))
            if energy > el["norm2"] * (1 + EXPANSION_BESSEL):
                problems.append(f"element {i}, N = {n}: Bessel inequality fails, "
                                f"{energy!r} > {el['norm2']!r}")
            defects.append(float(out[f"parseval{i}_{n}"]))
            # the partial sum, functions and boundary scalars, against the
            # exact coefficients and eigen-elements on the program's grid
            s = out[f"expand{i}_{n}.f"]
            ends = out[f"expand{i}_{n}.ends"]
            phis = [np.stack(reference.phi_values(prob, lam, xs)).real for lam in ref["lams"][sel]]
            exact = sum(cr * ph for cr, ph in zip(el["coeffs"][sel], phis))
            exact_ends = sum(cr * np.array([prob.b3 * ph[1, 0] + prob.b4 * ph[0, 0],
                                            prob.c3 * ph[1, -1] + prob.c4 * ph[0, -1]])
                             for cr, ph in zip(el["coeffs"][sel], phis))
            size = sum(abs(cr) * np.max(np.abs(ph)) for cr, ph in zip(el["coeffs"][sel], phis))
            gap = max(np.max(np.abs(s - exact)), np.max(np.abs(ends - exact_ends)))
            if gap > EXPANSION_SUM * size:
                problems.append(f"element {i}, N = {n}: partial sum off by {gap / size:.3e}")
        if any(b > a * (1 + 1e-12) for a, b in zip(defects, defects[1:])):
            problems.append(f"element {i}: Parseval defect increases with N: {defects}")
        for j, (re, im) in enumerate(inp["resolvent_lams"]):
            name = f"resolvent{i}_{j}"
            ode, bc = resolvent_residuals(prob, complex(re, im), el["f"],
                                          out[name + ".xs"], out[name + ".ys"])
            if max(ode, bc) > RESOLVENT_RESIDUAL:
                problems.append(f"{name}: residuals {ode:.3e} (equation), {bc:.3e} (boundary)")
    orth = float(out["orthogonality"])
    if not orth <= EXPANSION_ORTHOGONALITY:
        problems.append(f"orthogonality defect {orth:.3e}")
    return problems


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def read_inverse(out_dir: Path) -> dict:
    return json.loads((out_dir / "reconstruction.json").read_text())


def check_inverse(inp, ref, out) -> list:
    problems = []
    err = np.max(np.abs(np.array(out["parameters"]) - ref["truth"]))
    if not err <= INVERSE_PARAM:
        problems.append(f"recovered {out['parameters']} is {err:.3e} from the truth "
                        f"{list(ref['truth'])}")
    trace = np.array(out["trace"])
    if np.any(np.diff(trace) > 0):
        problems.append("the misfit trace increases")
    if len(trace) != out["iterations"] or out["iterations"] > inp["max_evals"]:
        problems.append(f"{out['iterations']} iterations for a trace of {len(trace)} "
                        f"and a budget of {inp['max_evals']}")
    return problems


READERS = {"spectrum": read_eigs, "weyl_map": read_weyl,
           "expansion": read_expansion, "inverse": read_inverse}
CHECKS = {"spectrum": check_spectrum, "weyl_map": check_weyl_map,
          "expansion": check_expansion, "inverse": check_inverse}


def check(inp: dict, ref: dict, out_dir: Path) -> list:
    """Problems found in the outputs one round left in ``out_dir``."""
    workload = inp["workload"]
    try:
        out = READERS[workload](out_dir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"]
    try:
        return CHECKS[workload](inp, ref, out)
    except KeyError as exc:
        return [f"missing output {exc}"]
