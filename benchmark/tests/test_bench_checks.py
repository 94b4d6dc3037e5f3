"""Each workload's correctness check accepts exact outputs and rejects perturbed ones."""
import copy
import math

import numpy as np
import pytest

import checks
import inputs
import reference


@pytest.fixture(scope="module")
def spectrum():
    inp = inputs.make("spectrum", 3)
    ref = checks.prepare(inp)
    prob = ref["problem"]
    rows = [{"n": d["n"], "lambda": d["lambda"], "alpha": d["alpha"], "beta": d["beta"],
             "delta_dot": d["delta_dot"]}
            for d in reference.spectral_data(prob, inp["n_max"])]
    return inp, ref, rows


def test_spectrum_accepts_the_exact_spectrum(spectrum):
    inp, ref, rows = spectrum
    assert checks.check_spectrum(inp, ref, rows) == []


def test_spectrum_rejects_a_shifted_eigenvalue(spectrum):
    inp, ref, rows = spectrum
    bad = copy.deepcopy(rows)
    bad[40]["lambda"] += 0.01
    assert any("from the exact" in p for p in checks.check_spectrum(inp, ref, bad))


def test_spectrum_rejects_a_dropped_root(spectrum):
    inp, ref, rows = spectrum
    # drop one root and take the next one beyond the range instead, so the
    # indices still run n_min..n_max
    prob = ref["problem"]
    beyond = reference.spectral_data(prob, inp["n_max"] + 1)[-1]
    bad = [r for r in rows if r["n"] != 7] + [dict(beyond, n=inp["n_max"] + 1)]
    for n, r in zip(range(inp["n_min"], inp["n_max"] + 1), bad):
        r["n"] = n
    problems = checks.check_spectrum(inp, ref, bad)
    assert any("reference eigenvalues" in p for p in problems)
    # and a plain gap in the index range
    assert checks.check_spectrum(inp, ref, [r for r in rows if r["n"] != 7])


def test_spectrum_rejects_a_wrong_norming_constant_and_a_broken_identity(spectrum):
    inp, ref, rows = spectrum
    bad = copy.deepcopy(rows)
    bad[10]["alpha"] *= 1.01
    problems = checks.check_spectrum(inp, ref, bad)
    assert any("alpha_" in p for p in problems)
    assert any("alpha beta" in p for p in problems)


@pytest.fixture(scope="module")
def weyl_map():
    inp = inputs.make("weyl_map", 3)
    ref = checks.prepare(inp)
    m = ref["m"]
    table = np.column_stack([ref["lams"].real, ref["lams"].imag, m.real, m.imag,
                             np.zeros(len(m))])
    return inp, ref, table


def test_weyl_map_accepts_the_exact_weyl_function(weyl_map):
    inp, ref, table = weyl_map
    assert checks.check_weyl_map(inp, ref, table) == []


def test_weyl_map_rejects_a_wrong_value(weyl_map):
    inp, ref, table = weyl_map
    bad = table.copy()
    bad[777, 3] += 1e-3 * abs(ref["m"][777])
    assert checks.check_weyl_map(inp, ref, bad)
    assert checks.check_weyl_map(inp, ref, table[:-1])


@pytest.fixture(scope="module")
def inverse():
    inp = inputs.make("inverse", 3)
    ref = checks.prepare(inp)
    out = {"parameters": list(ref["truth"] + 0.002), "misfit": 1e-6,
           "iterations": 3, "trace": [1.0, 0.5, 0.5]}
    return inp, ref, out


def test_inverse_accepts_a_reconstruction_near_the_truth(inverse):
    inp, ref, out = inverse
    assert checks.check_inverse(inp, ref, out) == []


def test_inverse_rejects_a_reconstruction_off_the_truth(inverse):
    inp, ref, out = inverse
    assert checks.check_inverse(inp, ref, dict(out, parameters=list(ref["truth"] + 0.05)))
    assert checks.check_inverse(inp, ref, dict(out, trace=[1.0, 0.5, 0.6]))


def test_resolvent_residual_accepts_a_solution_and_rejects_a_perturbed_one():
    inp = inputs.make("expansion", 3)
    prob = reference.Problem.from_config(inp["config"])
    lam = 0.8 + 0.6j
    # phi solves the equation with f = 0, U1(phi) = 0 and U2(phi) = -Delta, so
    # it is the resolvent applied to the element (0, 0, 0, Delta(lam))
    f = (lambda x: 0.0 * x, lambda x: 0.0 * x, 0.0, complex(reference.delta(prob, lam)))
    n = 512
    xs = np.concatenate([np.linspace(0.0, prob.a, 212), np.linspace(prob.a, math.pi, 301)[1:]])
    ys = np.column_stack(reference.phi_values(prob, lam, xs))
    ode, bc = checks.resolvent_residuals(prob, lam, f, xs, ys)
    assert max(ode, bc) < checks.RESOLVENT_RESIDUAL / 100
    bumped = ys.copy()
    bumped[n // 3:, 0] *= 1.0 + 1e-3 * np.sin(xs[n // 3:])
    assert checks.resolvent_residuals(prob, lam, f, xs, bumped)[0] > checks.RESOLVENT_RESIDUAL
