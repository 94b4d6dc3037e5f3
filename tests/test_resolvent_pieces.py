"""The resolvent's ODE residual is differentiated per smooth piece.

y' jumps at every breakpoint of a piecewise potential, so a finite
difference across one does not converge; split at the weight jump and at
every breakpoint, the residual falls at second order in the step.
"""
import numpy as np

from diracbvp import expansion
from diracbvp.model import PotentialSpec

from conftest import reference_config


def _ode_residual(grid_points):
    config = reference_config(2.0, grid_points, PotentialSpec.piecewise(
        (0.3, -0.45, 0.2), (-0.1, 0.35, -0.25)))
    f = expansion.element_from_functions(config, np.sin, np.cos)
    y = expansion.resolvent_apply(config, 1j, f)
    ode, bc = expansion.resolvent_residual(config, 1j, f, y)
    assert bc <= 1e-12
    return ode


def test_piecewise_resolvent_residual_converges():
    coarse, fine = _ode_residual(512), _ode_residual(2048)
    assert coarse <= 1e-4
    assert fine <= coarse / 8.0
