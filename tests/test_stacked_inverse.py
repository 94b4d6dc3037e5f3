"""The inverse evaluates a stack of candidates as one.

The 2m candidates of a finite-difference Jacobian share one scan batch and
one refiner loop on an ``integrator.ConfigStack``.  Each candidate's
residuals must have the bits of its own evaluation, whatever its stack-mates,
their paths' lengths or their failures; and ``reconstruct`` must be the
least-squares solve that takes the same 2-point differences one residual
evaluation at a time, on every supported scipy.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.optimize
from scipy.optimize import OptimizeResult, _minpack, leastsq

from diracbvp import charfn, eigensolver, integrator, inverse
from diracbvp.errors import ConfigError
from diracbvp.model import (PI, BoundaryParams, PotentialSpec, ProblemConfig,
                            Weight, mu)

from test_inverse import small_problem, small_target, small_truth  # noqa: F401

BOUNDARY = BoundaryParams(1.0, -0.5, 1.0, 0.3, 0.5, -1.0, 1.0, 0.2)


def _problem(kind, p, q, n_max=3, weight=Weight(alpha=2.0, a=1.3), grid=128):
    """Data |n| <= n_max of the truth (p, q) in its own basis."""
    potential = PotentialSpec.piecewise(p, q) if kind == "piecewise" else PotentialSpec.cosine(p, q)
    truth = ProblemConfig(boundary=BOUNDARY, weight=weight, potential=potential,
                          grid_points=grid)
    return inverse.InverseProblem(target=inverse.synthesize_data(truth, n_max),
                                  basis=inverse.PotentialBasis(kind, len(p)),
                                  boundary=BOUNDARY, weight=weight, grid_points=grid)


PROBLEMS = {
    "piecewise-1": _problem("piecewise", [0.3], [-0.2]),
    "piecewise-2": _problem("piecewise", [0.3, -0.2], [-0.1, 0.25]),
    "cosine-2": _problem("cosine", [0.2, -0.3], [0.1, 0.15]),
}

#: piecewise m = 2 parameters with equal values on both pieces
EQUAL_PIECES = [0.1, 0.1, -0.2, -0.2]

#: the benchmark's seed-1 inverse problem: a constant truth at grid 128
SEED_1 = _problem("piecewise", [-0.22732164011434633], [-0.2911909217814752],
                  weight=Weight(alpha=2.0, a=PI / 2.0))
SEED_1_INIT = [-0.18476973489042187, -0.31744611863493927]


def _assert_rows_are_lone_residuals(problem, stack):
    rows = inverse._stacked_residuals(problem, stack)
    assert rows.shape == (len(stack), 2 * len(problem.target))
    for params, row in zip(stack, rows):
        assert np.array_equal(row, inverse.residuals(problem, params))


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), data=st.data())
def test_each_stacked_candidate_has_the_bits_of_its_own_evaluation(name, data):
    problem = PROBLEMS[name]
    params = st.lists(st.floats(-0.6, 0.6), min_size=problem.basis.dim,
                      max_size=problem.basis.dim)
    stack = data.draw(st.lists(params, min_size=1, max_size=5))
    if name == "piecewise-2":
        # a constant potential: one cell a side, padded beside three cells
        stack.insert(data.draw(st.integers(0, len(stack) - 1)), EQUAL_PIECES)
    _assert_rows_are_lone_residuals(problem, np.array(stack))


def test_a_path_with_fewer_cells_is_padded_and_keeps_its_bits():
    # equal values on both pieces make the m = 2 potential constant: one cell
    # a side, where the others have a second cell at the breakpoint pi / 2
    problem = PROBLEMS["piecewise-2"]
    stack = np.array([[0.3, -0.2, -0.1, 0.25], EQUAL_PIECES, [0.05, 0.4, 0.2, -0.3]])
    cells = [len(integrator.build_grid(problem.make_config(x)).backward.ends) for x in stack]
    assert cells == [3, 2, 3]
    _assert_rows_are_lone_residuals(problem, stack)


def test_one_scan_batch_and_one_refiner_loop_serve_the_whole_stack(monkeypatch):
    problem = PROBLEMS["piecewise-2"]
    stack = np.array([[0.3, -0.2, -0.1, 0.25], EQUAL_PIECES, [0.05, 0.4, 0.2, -0.3]])
    scans, refines = [], []
    delta_many, refine = charfn.delta_many, eigensolver._refine_roots
    monkeypatch.setattr(charfn, "delta_many",
                        lambda config, lams: scans.append(len(lams)) or delta_many(config, lams))
    monkeypatch.setattr(eigensolver, "_refine_roots",
                        lambda config, *ends: refines.append(len(ends[0])) or refine(config, *ends))
    inverse._stacked_residuals(problem, stack)
    targets = problem.target.lambdas()
    half = PI / (2.0 * mu(PI, problem.weight))
    points = len(np.unique(targets[:, None] + np.linspace(-half, half, eigensolver._SCAN_STEPS + 1)))
    assert scans == [3 * points] and len(refines) == 1


@pytest.mark.parametrize("name, bad", [
    # at p = q = 200 the propagation overflows in the targets' windows
    ("piecewise-1", [200.0, 200.0]),
    # p = 1.7e308 (1 + cos x) is not finite on the grid
    ("cosine-2", [1.7e308, 1.7e308, 0.0, 0.0]),
])
def test_a_failing_candidate_in_a_stack_is_penalised_alone(name, bad):
    problem = PROBLEMS[name]
    good = [0.1] * problem.basis.dim
    stack = np.array([good, bad, [-0.1] * problem.basis.dim])
    rows = inverse._stacked_residuals(problem, stack)
    n = len(problem.target)
    assert np.array_equal(rows[1, :n], np.sqrt(problem.weights() * inverse._PENALTY))
    assert np.array_equal(rows[1, n:], np.zeros(n))
    assert not np.any(rows[[0, 2], :n] == np.sqrt(problem.weights() * inverse._PENALTY))
    _assert_rows_are_lone_residuals(problem, stack)


def _refine_counting(config, lo, hi, flo, fhi):
    """_refine_roots on the brackets [lo, hi], and its number of sweeps."""
    sweeps = []
    step = charfn.complex_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charfn, "complex_step",
                   lambda config, lams: sweeps.append(len(lams)) or step(config, lams))
        return eigensolver._refine_roots(config, lo, hi, flo, fhi), len(sweeps)


def _bracket(config, n, width):
    """A bracket of width ``width`` about the eigenvalue of index n, off
    centre, and Delta at its ends."""
    root = eigensolver.find_eigenvalues(config, n, n).lambdas()[0]
    ends = root + np.array([-0.55, 0.45]) * width
    return (*ends, *charfn.delta_many(config, ends).real)


def test_a_converged_root_keeps_its_bits_beside_a_slower_one():
    problem = PROBLEMS["piecewise-2"]
    config, other = (problem.make_config(x) for x in ([0.3, -0.2, -0.1, 0.25],
                                                       [0.05, 0.4, 0.2, -0.3]))
    # a tight bracket converges in fewer sweeps than a wide one
    tight, wide = _bracket(config, 0, 3e-4), _bracket(config, 2, 1.0)
    alone, fast = _refine_counting(config, *np.transpose([tight]))
    together, slow = _refine_counting(config, *np.transpose([tight, wide]))
    assert fast < slow
    assert np.array_equal(together[:, :1], alone)
    # and beside a slower root of another config in a stack
    stack = integrator.ConfigStack((config, other), np.array([0, 1]))
    mixed, slow = _refine_counting(stack, *np.transpose([tight, _bracket(other, 2, 0.5)]))
    assert fast < slow
    assert np.array_equal(mixed[:, :1], alone)


# ---------------------------------------------------------------------------
# The solve
# ---------------------------------------------------------------------------

def _sequential(problem, init, max_evals):
    """reconstruct's leastsq solve with the 2m candidates of each Jacobian
    evaluated one at a time through inverse.residuals, under the same
    budget; a repeated request at the point just evaluated evaluates
    nothing."""
    trace, best = [], {"x": np.array(init, float), "f": np.inf}
    last = {"x": None, "r": None, "J": None}

    def evaluate(x):
        if len(trace) >= max_evals:
            raise inverse._BudgetSpent
        r = inverse.residuals(problem, x)
        f = float(np.sum(r ** 2))
        if f < best["f"]:
            best["f"], best["x"] = f, np.array(x)
        trace.append(best["f"])
        return r

    def objective(x):
        if not np.array_equal(x, last["x"]):
            last.update(x=np.array(x), r=evaluate(x), J=None)
        return last["r"]

    def jacobian(x):
        r0 = objective(x)
        if last["J"] is None:
            columns = []
            for k in range(len(x)):
                xk = np.array(x)
                xk[k] += (np.finfo(float).eps ** 0.5 * (1.0 if x[k] >= 0.0 else -1.0)
                          * max(1.0, abs(x[k])))
                columns.append((evaluate(xk) - r0) / (xk[k] - x[k]))
            last["J"] = np.transpose(columns)
        return last["J"]

    try:
        info = leastsq(objective, np.array(init, float), Dfun=jacobian, full_output=True,
                       ftol=1e-8, xtol=1e-8, gtol=1e-8, maxfev=100 * len(init))[-1]
        converged = info in (1, 2, 3, 4)
    except inverse._BudgetSpent:
        converged = False
    return inverse.ReconstructionResult(parameters=tuple(float(v) for v in best["x"]),
                                        misfit=float(best["f"]), iterations=len(trace),
                                        converged=converged, trace=tuple(trace))


SOLVES = {
    "seed-1": (SEED_1, SEED_1_INIT),
    "piecewise-2": (PROBLEMS["piecewise-2"], [0.1, 0.1, 0.1, 0.1]),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
@pytest.mark.parametrize("budget", [2000, 2, 4, 8, 18])
def test_reconstruct_is_the_sequential_solve(name, budget):
    # a budget of 2 or 8 ends inside a Jacobian of either problem, one of 4
    # inside the first Jacobian of the m = 2 problem, of 4 candidates, and
    # one of 18 inside its fourth, after three steps
    problem, init = SOLVES[name]
    result = inverse.reconstruct(problem, init, max_evals=budget)
    assert result == _sequential(problem, init, budget)


@pytest.mark.parametrize("name, budget, stacks", [
    ("seed-1", 2000, [1, 2] * 4 + [1]),
    ("piecewise-2", 2000, [1, 4] * 5 + [1]),
    ("piecewise-2", 18, [1, 4] * 3 + [1, 2]),
])
def test_a_solve_evaluates_one_stack_per_request(name, budget, stacks, monkeypatch):
    # the residuals at a new point are a stack of one, a Jacobian its 2m
    # candidates, cut where the budget ends
    sizes = []
    stacked = inverse._stacked_residuals
    monkeypatch.setattr(inverse, "_stacked_residuals",
                        lambda problem, stack: sizes.append(len(stack)) or stacked(problem, stack))
    problem, init = SOLVES[name]
    result = inverse.reconstruct(problem, init, max_evals=budget)
    assert sizes == stacks
    assert result.iterations == sum(stacks)


def test_a_jacobian_scan_is_one_psi0_batch(small_problem, monkeypatch):
    # the residuals at the start, then the Jacobian's 2 candidates, ending
    # the budget: one scan batch of 81 points, then one of 2 x 81
    scans, sweeps = [], []
    delta_many, psi0_many = charfn.delta_many, integrator.psi0_many
    monkeypatch.setattr(charfn, "delta_many",
                        lambda config, lams: scans.append(len(lams)) or delta_many(config, lams))
    monkeypatch.setattr(integrator, "psi0_many",
                        lambda config, lams: sweeps.append(len(lams)) or psi0_many(config, lams))
    inverse.reconstruct(small_problem, [0.0, 0.0], max_evals=3)
    assert scans == [81, 162]
    assert sweeps.count(162) == 1 and max(sweeps) == 162


def _least_squares_before_1_16(fun, x0, jac, method):
    """scipy 1.12-1.15's least_squares(method="lm") with a callable ``jac``
    and default settings: the residuals and the Jacobian at x0, then
    MINPACK's lmder, which takes both at x0 again, with diag = 1 / x_scale
    = 1, then the Jacobian at the solution."""
    x0 = np.asarray(x0, dtype=float)
    fun(x0), jac(x0)
    x, _, status = _minpack._lmder(fun, jac, x0.copy(), (), True, False, 1e-8, 1e-8, 1e-8,
                                   100 * x0.size, 100.0, np.ones(x0.size))
    jac(x)
    return OptimizeResult(x=x, success=status in (1, 2, 3, 4))


#: piecewise m = 2 truth, and a far start that MINPACK's unit scaling
#: (diag = 1) leaves at a misfit near 6.7e5, 1.83 away, after 105 evaluations
FAR_TRUTH = [0.28669045283418404, 0.5921416037240055, -0.43629035974254704,
             0.6327171830626017]
FAR_INIT = [1.48878187209734, -1.925931129319157, 0.8299822693487093, -1.9952012656526854]


def test_a_far_start_is_solved_whatever_least_squares_would_do(monkeypatch):
    # the solve scales by the Jacobian (diag = None) on every scipy, so the
    # unit scaling of least_squares before scipy 1.16 cannot reach it
    problem = _problem("piecewise", FAR_TRUTH[:2], FAR_TRUTH[2:], n_max=10,
                       weight=Weight(alpha=2.0, a=PI / 2.0))
    monkeypatch.setattr(scipy.optimize, "least_squares", _least_squares_before_1_16)
    result = inverse.reconstruct(problem, FAR_INIT, max_evals=400)
    assert result.converged
    assert np.max(np.abs(np.array(result.parameters) - FAR_TRUTH)) <= 1e-10


def test_the_seed_1_round_takes_at_most_31_sweeps(monkeypatch):
    sweeps = []
    psi0_many = integrator.psi0_many
    monkeypatch.setattr(integrator, "psi0_many",
                        lambda config, lams: sweeps.append(len(lams)) or psi0_many(config, lams))
    result = inverse.reconstruct(SEED_1, SEED_1_INIT, max_evals=30)
    assert (result.iterations, result.converged) == (13, True)
    # one candidate at a time, the same round takes 46 sweeps of the same 1050 lambda
    assert len(sweeps) <= 31 and sum(sweeps) == 1050


@pytest.mark.parametrize("init", [[np.nan, 0.0], [np.inf, 0.0]])
def test_reconstruct_refuses_a_start_that_is_not_finite(small_problem, init):
    with pytest.raises(ConfigError, match="finite"):
        inverse.reconstruct(small_problem, init)
