"""Configurations with callable potentials: told apart by every cache, and
solved exactly like the parametrized potential they equal."""
import numpy as np
import pytest

from diracbvp import charfn, eigensolver
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


def test_callable_spectral_data_match_the_constant_spec_bit_for_bit():
    spec = PotentialSpec.from_callables(lambda x: 0.3 + 0.0 * x, lambda x: -0.2 + 0.0 * x)
    data = eigensolver.find_eigenvalues(reference_config(2.0, 256, spec), -3, 3)
    const = eigensolver.find_eigenvalues(
        reference_config(2.0, 256, PotentialSpec.constant(0.3, -0.2)), -3, 3)
    assert [d.n for d in data] == list(range(-3, 4))
    np.testing.assert_array_equal(data.lambdas(), const.lambdas())
    np.testing.assert_array_equal(data.alphas(), const.alphas())
    # a fixed fingerprint that no 16-hex-digit hash of a document can equal
    assert data.fingerprint == "callable"
    assert len(const.fingerprint) == 16 and int(const.fingerprint, 16) >= 0
