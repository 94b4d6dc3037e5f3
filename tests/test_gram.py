"""The one weighted Gram behind alpha_n, the expansion and orthogonality.

Random valid problems check that the Gram of the eigen-elements is
Hermitian, carries the norming constants on its diagonal once Simpson's
error is extrapolated away, agrees entry by entry with the scalar inner
product and with scipy's Simpson rule applied on each side of the jump, and
inverts the expansion formula on the span of the eigen-elements.  A case at
|n| <= 20 checks the expansion layer at large lambda on the one grid.
"""
from dataclasses import replace

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import simpson

from diracbvp import cli, eigensolver, expansion, integrator
from diracbvp.errors import MissingRootError
from diracbvp.model import (PI, BoundaryParams, PotentialSpec, ProblemConfig,
                            Weight, save_config)

from conftest import reference_config


@st.composite
def boundary_forms(draw):
    """Four coefficients of one boundary form with k = v1 v4 - v2 v3 > 0."""
    v = draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    k = v[0] * v[3] - v[1] * v[2]
    assume(abs(k) > 0.1 and np.hypot(v[2], v[3]) > 0.1)
    return [-v[0], -v[1], v[2], v[3]] if k < 0 else v


@st.composite
def problems(draw):
    m = draw(st.integers(1, 2))
    values = st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)
    return ProblemConfig(
        boundary=BoundaryParams(*draw(boundary_forms()), *draw(boundary_forms())),
        weight=Weight(alpha=draw(st.floats(0.5, 3.0)),
                      a=draw(st.floats(0.3, PI - 0.3))),
        potential=PotentialSpec.piecewise(draw(values), draw(values)),
        grid_points=512)


def _single(E, i):
    return expansion.HElement(E.xs, E.f1[i], E.f2[i], E.f3[i], E.f4[i])


def _simpson_inner(config, Y, Z):
    """<Y, Z> by scipy's Simpson rule on each side of the jump node."""
    ia = integrator.build_grid(config).ia
    g = Y.f1 * np.conj(Z.f1) + Y.f2 * np.conj(Z.f2)
    b = config.boundary
    return (simpson(g[:ia + 1], x=Y.xs[:ia + 1])
            + config.weight.alpha * simpson(g[ia:], x=Y.xs[ia:])
            + Y.f3 * np.conj(Z.f3) / b.k1 + Y.f4 * np.conj(Z.f4) / b.k2)


@settings(max_examples=10, deadline=None)
@given(config=problems(),
       c=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=7, max_size=7))
# Simpson's rule alone misses alpha_{-3} of this problem by 1.8e-9
@example(config=ProblemConfig(
    boundary=BoundaryParams(0.0, -1.0, 1.0, 0.0, 0.0, -1.0, 1.0, 0.0),
    weight=Weight(alpha=2.89, a=2.35),
    potential=PotentialSpec.constant(-1.0, -1.0), grid_points=512), c=[1.0] * 7)
def test_gram_of_eigen_elements(config, c):
    try:
        data = eigensolver.find_eigenvalues(config, -3, 3)
    except MissingRootError as exc:
        # the Gram properties hold for any set of eigen-elements
        data = exc.partial
        assume(data is not None and len(data) >= 2)
    E = expansion.eigen_elements(config, data.lambdas())
    G = expansion.gram(config, E, E)
    scale = np.max(np.abs(G))
    assert np.max(np.abs(G - G.conj().T)) <= 1e-12 * scale
    # the steps are exact, so the diagonal carries only Simpson's O(h^4)
    # error; halving the steps and extrapolating leaves it far below 1e-9
    fine = replace(config, grid_points=2 * config.grid_points)
    E2 = expansion.eigen_elements(fine, data.lambdas())
    norms = np.real(16.0 * np.diagonal(expansion.gram(fine, E2, E2)) - np.diagonal(G)) / 15.0
    np.testing.assert_allclose(norms, data.alphas(), rtol=1e-9)
    singles = [_single(E, i) for i in range(len(data))]
    for i, ei in enumerate(singles):
        for j, ej in enumerate(singles):
            assert abs(G[i, j] - expansion.inner(config, ei, ej)) <= 1e-12 * scale
            assert abs(G[i, j] - _simpson_inner(config, ei, ej)) <= 1e-12 * scale

    # the expansion formula on the span: f = sum c_k e_k has coefficients c
    c = np.array(c[:len(data)])
    f = expansion.HElement(E.xs, c @ E.f1, c @ E.f2,
                           complex(c @ E.f3), complex(c @ E.f4))
    bound = (10.0 * eigensolver.orthogonality_check(config, data) * np.sum(np.abs(c))
             + 1e-12)
    assert np.max(np.abs(expansion.coefficients(config, data, f) - c)) <= bound


def test_expansion_layer_on_a_refined_grid(tmp_path):
    # |lambda_20| h is near 0.12 at grid 512; the eigen-elements live on the
    # one grid of the problem like every other element
    config = reference_config(1.0, 512, PotentialSpec.constant(0.3, -0.2))
    data = eigensolver.find_eigenvalues(config, -20, 20)
    f = expansion.element_from_functions(config, np.sin, np.cos)
    assert len(expansion.coefficients(config, data, f)) == len(data)
    assert expansion.parseval_defect(config, data, f) >= 0.0
    assert len(expansion.expand(config, data, f).f1) == len(f.xs)
    assert eigensolver.orthogonality_check(config, data) < 1e-6

    e20 = expansion.eigen_element(config, data.by_index(20).lambda_n)
    coeffs = expansion.coefficients(config, data, e20)
    i20 = [d.n for d in data].index(20)
    assert abs(coeffs[i20] - 1.0) < 1e-6
    assert np.max(np.abs(np.delete(coeffs, i20))) < 1e-6

    path = tmp_path / "config.json"
    save_config(reference_config(1.0, 512), path)
    assert cli.main(["expand", "--config", str(path), "--n-max", "20",
                     "--out", str(tmp_path / "out")]) == 0
