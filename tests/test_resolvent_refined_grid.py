"""The resolvent at a large lambda, |lambda| h near 0.2 at grid 512: it
converges to the resolvent of a four times finer grid on their shared nodes,
and the command line runs there."""
import numpy as np
import pytest

from diracbvp import cli, expansion
from diracbvp.model import PotentialSpec, save_config

from conftest import reference_config

LAM = 30.0 + 1.0j


@pytest.mark.parametrize("potential", [PotentialSpec.zero(),
                                       PotentialSpec.constant(0.3, -0.2)])
def test_resolvent_converges_on_the_shared_nodes(potential):
    coarse, fine = (reference_config(2.0, grid, potential) for grid in (512, 2048))
    f = expansion.element_from_functions(coarse, np.sin, np.cos)
    y = expansion.resolvent_apply(coarse, LAM, f)
    _, bc_res = expansion.resolvent_residual(coarse, LAM, f, y)
    assert bc_res <= 1e-10

    g = expansion.element_from_functions(fine, np.sin, np.cos)
    y_fine = expansion.resolvent_apply(fine, LAM, g)
    step = (len(y_fine.xs) - 1) // (len(y.xs) - 1)
    np.testing.assert_allclose(y.xs, y_fine.xs[::step], rtol=0, atol=1e-12)
    shared = y_fine.ys[::step]
    assert np.max(np.abs(y.ys - shared)) <= 5e-3 * np.max(np.abs(shared))


def test_resolvent_cli_at_large_lambda(tmp_path):
    path = tmp_path / "config.json"
    save_config(reference_config(2.0, 512), path)
    assert cli.main(["resolvent", "--config", str(path), "--re-lambda", "30",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert (tmp_path / "out" / "resolvent.csv").exists()
