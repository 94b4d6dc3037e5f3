"""Propagator: grid construction, closed-form agreement, batching, overflow."""
import csv

import numpy as np
import pytest

from diracbvp import charfn, integrator, weyl
from diracbvp.errors import IntegrationOverflowError
from diracbvp.model import PI, PotentialSpec, mu

from conftest import reference_config


def test_grid_has_node_exactly_at_jump(r1):
    grid = integrator.build_grid(r1)
    assert grid.xs[0] == 0.0
    assert grid.xs[-1] == pytest.approx(PI, abs=1e-15)
    assert grid.xs[grid.ia] == r1.weight.a
    assert np.all(np.diff(grid.xs) > 0)
    assert grid.left.n % 2 == 0 and grid.right.n % 2 == 0
    assert grid.left.n >= 64 and grid.right.n >= 64


def test_grid_respects_minimum_side_resolution():
    cfg = reference_config(grid_points=16)
    grid = integrator.build_grid(cfg)
    assert grid.left.n >= 64 and grid.right.n >= 64


def zero_potential_state(cfg, lam, x, init):
    """Rotation closed form of the zero-potential system in optical length."""
    th = lam * mu(x, cfg.weight)
    y1 = init[0] * np.cos(th) - init[1] * np.sin(th)
    y2 = init[1] * np.cos(th) + init[0] * np.sin(th)
    return y1, y2


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("lam", [2.0, 1.0 + 0.5j])
def test_forward_propagation_matches_rotation_closed_form(alpha, lam):
    cfg = reference_config(alpha=alpha, grid_points=1024)
    init = (0.7, -0.3)
    traj = integrator.propagate(cfg, lam, init, "left")
    y1, y2 = zero_potential_state(cfg, lam, traj.xs, init)
    assert np.max(np.abs(traj.ys[:, 0] - y1)) < 1e-8
    assert np.max(np.abs(traj.ys[:, 1] - y2)) < 1e-8


def test_backward_propagation_round_trip(r1):
    lam = 1.5 + 0.25j
    back = integrator.propagate(r1, lam, (0.4, 1.1), "right")
    forth = integrator.propagate(r1, lam, back.ys[0], "left")
    assert np.max(np.abs(forth.ys - back.ys)) < 1e-9


def test_batched_propagation_matches_scalar(r0):
    lams = np.array([1.0, 2.0, 3.0 + 1.0j])
    inits = integrator.phi_init(r0, lams)
    xs, ys, ia = integrator.propagate_many(r0, lams, inits, "left")
    for i, lam in enumerate(lams):
        solo = integrator.propagate(r0, lam, inits[i], "left")
        assert np.max(np.abs(ys[i] - solo.ys)) < 1e-12
        assert solo.index_a == ia


def test_named_solution_initial_values(r0):
    lam = 2.5
    assert integrator.phi(r0, lam).ys[0, 0] == pytest.approx(lam)      # b3 * lam
    assert integrator.phi(r0, lam).ys[0, 1] == pytest.approx(-1.0)     # b2
    assert integrator.psi(r0, lam).ys[-1, 0] == pytest.approx(-lam)    # -c3 * lam
    assert integrator.psi(r0, lam).ys[-1, 1] == pytest.approx(-1.0)    # c2
    assert integrator.solution_c(r0, lam).ys[0, 0] == pytest.approx(-1.0)
    assert integrator.solution_c(r0, lam).ys[0, 1] == pytest.approx(0.0)


def test_refinement_keeps_large_lambda_accurate(r0):
    # |lambda| * base step exceeds the phase budget here; the propagator must
    # refine internally rather than lose accuracy
    lam = 600.0
    traj = integrator.propagate(r0, lam, (1.0, 0.0), "left")
    y1, y2 = zero_potential_state(r0, lam, traj.xs, (1.0, 0.0))
    assert np.max(np.abs(traj.ys[:, 0] - y1)) < 5e-3
    assert len(traj.xs) > r0.grid_points  # refined grid is denser


@pytest.mark.parametrize("call, lam", [
    (lambda cfg: integrator.phi(cfg, 400j), 400j),
    (lambda cfg: charfn.delta_many(cfg, [1, 2 + 400j, 400j]), 2 + 400j),
    (lambda cfg: weyl.weyl_direct(cfg, 400j), 400j),
], ids=["phi", "delta_many", "weyl_direct"])
def test_overflow_raises_typed_error(call, lam):
    cfg = reference_config(grid_points=128)
    with pytest.raises(IntegrationOverflowError) as exc:
        call(cfg)
    assert exc.value.lam == lam


def test_value_at_returns_nearest_node(r0):
    traj = integrator.propagate(r0, 1.0, (1.0, 0.0), "left")
    np.testing.assert_allclose(traj.value_at(0.0), traj.ys[0])
    np.testing.assert_allclose(traj.value_at(PI), traj.ys[-1])


def test_trajectory_csv_round_trip(tmp_path, r0):
    traj = integrator.propagate(r0, 1.0 + 2.0j, (0.3, -0.2), "left")
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "re_y1", "im_y1", "re_y2", "im_y2"]
    assert len(rows) == len(traj.xs) + 1
    # repr round-trips doubles exactly
    k = 17
    assert float(rows[k][0]) == traj.xs[k - 1]
    assert float(rows[k][1]) == traj.ys[k - 1, 0].real
    assert float(rows[k][2]) == traj.ys[k - 1, 0].imag


def test_endpoint_argument_validated(r0):
    with pytest.raises(ValueError):
        integrator.propagate(r0, 1.0, (1.0, 0.0), "top")


def test_wronskian_constant_with_nonzero_potential():
    cfg = reference_config(alpha=2.0, grid_points=1024,
                           potential=PotentialSpec.cosine([0.4], [0.2, -0.3]))
    lam = 1.3 + 0.7j
    phi_t = integrator.phi(cfg, lam)
    psi_t = integrator.psi(cfg, lam)
    w = phi_t.ys[:, 1] * psi_t.ys[:, 0] - phi_t.ys[:, 0] * psi_t.ys[:, 1]
    assert np.max(np.abs(w - w[0])) < 1e-9 * max(1.0, abs(w[0]))
