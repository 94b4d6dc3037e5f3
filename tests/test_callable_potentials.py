"""Configurations with callable potentials are told apart by every cache."""
import numpy as np
import pytest

from diracbvp import charfn
from diracbvp.model import PotentialSpec

from conftest import reference_config


def _callable_config(p, q):
    pot = PotentialSpec.from_callables(lambda x: p + 0.0 * x, lambda x: q + 0.0 * x)
    return reference_config(2.0, 512, pot)


def test_grid_cache_does_not_reuse_another_callable_potential():
    charfn.delta_many(_callable_config(0.0, 0.0), [1.3])
    delta = charfn.delta_many(_callable_config(1.5, -0.8), [1.3])[0]
    # the value a fresh grid cache gives for p = 1.5, q = -0.8
    assert delta.real == pytest.approx(-14.958315, abs=1e-6)


def test_callable_specs_compare_by_function_identity():
    f, g = np.sin, np.cos
    assert PotentialSpec.from_callables(f, g) == PotentialSpec.from_callables(f, g)
    assert PotentialSpec.from_callables(f, g) != PotentialSpec.from_callables(g, f)
