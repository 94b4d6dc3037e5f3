"""Seeded inputs of the four workloads.

Every workload keeps its shape fixed (grid, index range, batch sizes,
boundary coefficients, weight) and draws only potential values, test
elements and starting points from the seed.  Shapes set the amount of work,
so runs on different seeds do the same work on different numbers.

Only numpy is used here: the same module serves the benchmark process, which
never imports diracbvp, and the workload process.
"""
from __future__ import annotations

import math

import numpy as np

PI = math.pi

WORKLOADS = ("spectrum", "weyl_map", "expansion", "inverse")

# lambda-dependent boundary forms with k1 = 0.8 and k2 = 1.1 and a nonzero
# seed phase, so no coefficient is special
GENERAL_BOUNDARY = dict(b1=1.0, b2=-0.5, b3=1.0, b4=0.3,
                        c1=0.5, c2=-1.0, c3=1.0, c4=0.2)


def _config(alpha, a, p, q, grid_points):
    return {
        "boundary": dict(GENERAL_BOUNDARY),
        "weight": {"alpha": alpha, "a": a},
        "potential": {"kind": "piecewise",
                      "p_params": [float(v) for v in p],
                      "q_params": [float(v) for v in q]},
        "grid_points": grid_points,
    }


def spectrum(rng) -> dict:
    # three segments: the breakpoints pi/3 and 2 pi/3 fall between grid
    # nodes, so the program converges at first order here.  |n| <= 30 puts
    # |lambda| near 20, which refines the 256-step grid 3x (|lambda| h is
    # about 2.45 phase budgets, far from a step of the ceiling).
    p, q = rng.uniform(-0.5, 0.5, (2, 3))
    return {"config": _config(2.0, PI / 2, p, q, 256),
            "n_min": -30, "n_max": 30}


def weyl_map(rng) -> dict:
    # 80 x 25 complex points with |lambda| up to 15.3: 2000-point batches
    # refined 5x over a coarse 128-step grid.  n_terms = 3 keeps the scan of
    # the series' eigenvalues below |lambda| = 2.9, on the unrefined grid.
    p, q = rng.uniform(-0.5, 0.5, (2, 1))
    return {"config": _config(1.5, 1.2, p, q, 128),
            "re_min": -15.0, "re_max": 15.0, "re_steps": 80,
            "im_min": 0.5, "im_max": 3.0, "im_steps": 25, "n_terms": 3}


def expansion(rng) -> dict:
    elements = [{"f1": [float(v) for v in rng.uniform(-1.0, 1.0, 6)],
                 "f2": [float(v) for v in rng.uniform(-1.0, 1.0, 6)],
                 "f3": float(rng.uniform(-1.0, 1.0)),
                 "f4": float(rng.uniform(-1.0, 1.0))} for _ in range(2)]
    lams = [[float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.5, 1.5))]
            for _ in range(2)]
    p, q = rng.uniform(-0.5, 0.5, (2, 1))
    return {"config": _config(1.5, 1.3, p, q, 512),
            "n_max": 10, "ladder": [2, 4, 6, 8, 10],
            "elements": elements, "resolvent_lams": lams}


def inverse(rng) -> dict:
    # truths keep |p|, |q| >= 0.2: Nelder-Mead sizes its first simplex from
    # the start point, which must not sit near zero; in a trial on 12 truths
    # 30 evaluations then came within 2e-3 of every one
    truth = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.2, 0.4, 2)
    theta = rng.uniform(0.0, 2.0 * PI)
    return {"config": _config(2.0, PI / 2, truth[:1], truth[1:], 128), "n_max": 3,
            "basis": {"kind": "piecewise", "m": 1},
            "init": [float(truth[0] + 0.05 * math.cos(theta)),
                     float(truth[1] + 0.05 * math.sin(theta))],
            "max_evals": 30}


def make(workload: str, seed: int) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    doc = globals()[workload](rng)
    doc["workload"] = workload
    doc["seed"] = seed
    return doc


def element_functions(spec: dict):
    """f1, f2 of a test element: cosine and sine terms of degree 0..2."""
    def series(coeffs):
        c = np.asarray(coeffs, dtype=float)

        def f(x):
            x = np.asarray(x, dtype=float)
            return (c[0] + c[1] * np.cos(x) + c[2] * np.cos(2 * x)
                    + c[3] * np.sin(x) + c[4] * np.sin(2 * x) + c[5] * np.cos(3 * x))
        return f
    return series(spec["f1"]), series(spec["f2"])
