"""The exact reference against closed forms and its own identities."""
import math

import numpy as np
import pytest

import reference

PI = math.pi


def problem(alpha, p=(0.0,), q=(0.0,)):
    # the boundary of the package's test fixtures: b = c = (0, -1, 1, 0), a = pi/2
    return reference.Problem(0.0, -1.0, 1.0, 0.0, 0.0, -1.0, 1.0, 0.0,
                             alpha=alpha, a=PI / 2, p=tuple(p), q=tuple(q))


LAMS = np.array([0.0, 0.3, 1.7, -4.2, 12.5, 0.5 + 0.7j, -3.0 + 2.0j, 25.0 - 1.0j])


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_zero_potential_delta_matches_closed_form(alpha):
    prob = problem(alpha)
    mu = prob.mu_pi
    exact = (1 - LAMS ** 2) * np.sin(LAMS * mu) + 2 * LAMS * np.cos(LAMS * mu)
    scale = 1 + np.abs(exact)
    assert np.max(np.abs(reference.delta(prob, LAMS) - exact) / scale) < 1e-13
    # the second route: U1 applied to psi carried back to x = 0
    via_psi = reference.u1(prob, LAMS, *reference.psi_left(prob, LAMS))
    assert np.max(np.abs(via_psi - exact) / scale) < 1e-13


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_zero_potential_phi_matches_closed_form(alpha):
    prob = problem(alpha)
    lam = 1.3
    xs = np.linspace(0.0, PI, 41)
    mus = np.where(xs <= prob.a, xs, alpha * xs - alpha * prob.a + prob.a)
    y1, y2 = reference.phi_values(prob, lam, xs)
    assert np.allclose(y1, lam * np.cos(lam * mus) + np.sin(lam * mus), atol=1e-13)
    assert np.allclose(y2, lam * np.sin(lam * mus) - np.cos(lam * mus), atol=1e-13)


def test_propagator_is_unimodular_and_continuous_across_breakpoints():
    prob = problem(2.0, p=(0.3, -0.2, 0.4), q=(-0.1, 0.25, 0.05))
    for x0, x1, p, q, rho in prob.pieces():
        e = reference._step(0.7 + 0.2j, p, q, rho, x1 - x0)
        assert abs(e[0] * e[3] - e[1] * e[2] - 1) < 1e-13
    cuts = np.array([PI / 3, PI / 2, 2 * PI / 3])
    left = reference.phi_values(prob, 2.1, cuts - 1e-9)
    right = reference.phi_values(prob, 2.1, cuts + 1e-9)
    assert np.allclose(left, right, atol=1e-7)


def test_identities_at_the_eigenvalues_of_a_piecewise_potential():
    prob = problem(2.0, p=(0.3, -0.2, 0.4), q=(-0.1, 0.25, 0.05))
    data = reference.spectral_data(prob, 4)
    lams = np.array([d["lambda"] for d in data])
    assert np.all(np.diff(lams) > 0)
    assert np.max(np.abs(reference.delta(prob, lams))) < 1e-11
    for d in data:
        # alpha_n beta_n = dDelta/dlambda
        assert abs(d["alpha"] * d["beta"] - d["delta_dot"]) < 1e-9 * abs(d["delta_dot"])
        # M has a simple pole at lambda_n with residue 1/alpha_n
        eps = 1e-7j
        residue = eps * reference.weyl(prob, d["lambda"] + eps)
        assert abs(residue - 1 / d["alpha"]) < 1e-5 / d["alpha"]


def test_eigen_elements_are_orthogonal():
    prob = problem(2.0, p=(0.3, -0.2, 0.4), q=(-0.1, 0.25, 0.05))
    lams = [d["lambda"] for d in reference.spectral_data(prob, 2)]
    els = [reference.eigen_element(prob, lam) for lam in lams]
    for i in range(len(els)):
        for j in range(i):
            g = reference.inner(prob, els[i], els[j], lam_hint=max(abs(lams[i]), abs(lams[j])))
            assert abs(g) < 1e-10
