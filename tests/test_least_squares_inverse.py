"""The inverse as one least-squares solve on the weighted residual vector.

The misfit is the squared norm of :func:`inverse.residuals`, penalty
included; the evaluation budget, an integer, stops the solve after exactly
that many residual evaluations, finite-difference ones included; and from a
cold start the criterion-10 problem converges in a few dozen evaluations.
"""
from dataclasses import replace

import numpy as np
import pytest

from diracbvp import inverse
from diracbvp.errors import ConfigError
from diracbvp.model import PotentialSpec

from conftest import reference_config
from test_inverse import small_problem, small_target, small_truth  # noqa: F401


@pytest.mark.parametrize("params", [[0.2, -0.1], [0.0, 0.0], [50.0, 50.0]])
def test_misfit_is_the_squared_norm_of_the_residuals(small_problem, params):
    r = inverse.residuals(small_problem, params)
    assert r.shape == (2 * len(small_problem.target),)
    assert inverse.misfit(small_problem, params) == np.sum(r ** 2)


def test_unmatched_targets_carry_the_penalty(small_problem):
    r = inverse.residuals(small_problem, [50.0, 50.0])
    n = len(small_problem.target)
    w = small_problem.weights()
    penalised = r[:n] == np.sqrt(w * inverse._PENALTY)
    assert np.any(penalised)
    assert np.all(r[n:][penalised] == 0.0)


@pytest.mark.parametrize("budget", [1, 5])
def test_budget_stops_the_solve_exactly(small_problem, budget):
    result = inverse.reconstruct(small_problem, [0.0, 0.0], max_evals=budget)
    assert result.iterations == budget
    assert len(result.trace) == budget
    assert not result.converged
    assert np.all(np.diff(result.trace) <= 0.0)
    assert result.misfit == result.trace[-1]


@pytest.mark.parametrize("budget", [30.0, 2.5, True, np.int64(5)])
def test_the_budget_is_an_integer(small_problem, budget):
    with pytest.raises(ConfigError, match="integer"):
        inverse.reconstruct(small_problem, [0.0, 0.0], max_evals=budget)


def test_criterion_10_problem_converges_in_few_evaluations():
    geom = reference_config(1.0, 512)
    truth = replace(geom, potential=PotentialSpec.constant(0.3, -0.2))
    problem = inverse.InverseProblem(target=inverse.synthesize_data(truth, 10),
                                     basis=inverse.PotentialBasis("piecewise", 1),
                                     boundary=geom.boundary,
                                     weight=geom.weight,
                                     grid_points=geom.grid_points)
    result = inverse.reconstruct(problem, [0.0, 0.0], max_evals=2000)
    assert result.converged
    assert result.iterations <= 40
    assert abs(result.parameters[0] - 0.3) <= 1e-6
    assert abs(result.parameters[1] + 0.2) <= 1e-6
