"""The pole series of the Weyl function over an array of lambda: each value
equals the scalar call bit for bit, and a lambda on a datum raises."""
import numpy as np
import pytest

from diracbvp import eigensolver, weyl
from diracbvp.errors import PoleError


@pytest.fixture(scope="module")
def data10(r1):
    return eigensolver.find_eigenvalues(r1, -10, 10)


def test_array_series_equals_scalar_calls(r1, data10):
    re, im = np.meshgrid(np.linspace(-12.0, 12.0, 31), np.linspace(0.05, 2.0, 7))
    lams = re + 1j * im
    series = weyl.weyl_series(r1, lams, data10)
    assert series.shape == lams.shape
    expected = np.array([weyl.weyl_series(r1, lam, data10) for lam in lams.ravel()])
    assert np.array_equal(series.ravel(), expected)
    assert type(weyl.weyl_series(r1, lams[0, 0], data10)) is complex


def test_a_pole_inside_the_array_raises(r1, data10):
    pole = data10.by_index(3).lambda_n
    with pytest.raises(PoleError) as exc:
        weyl.weyl_series(r1, np.array([0.5j, pole + 0.0j, 2.0 + 1.0j]), data10)
    assert exc.value.lam == pole
    assert exc.value.nearest == pole
