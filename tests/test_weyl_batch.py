"""The Weyl function read the same way alone and in a batch: `weyl_direct`
keeps the shape of its input with each entry's bits from the scalar call,
and the `weyl` command's values equal it at each point, near a pole too."""
import csv

import numpy as np
import pytest

from diracbvp import cli, eigensolver, weyl
from diracbvp.errors import PoleError
from diracbvp.model import save_config

LAMS = np.array([1j, 0.5, 2.3 - 0.7j, -4.1 + 0.2j, 7.9 + 3.0j, -0.3 - 1.1j])


@pytest.mark.parametrize("shape", [(6,), (2, 3), (0,)])
def test_array_keeps_its_shape_and_each_scalar_value(r0, shape):
    lams = LAMS[:int(np.prod(shape))].reshape(shape)
    ms = weyl.weyl_direct(r0, lams)
    assert isinstance(ms, np.ndarray) and ms.shape == shape
    for lam, m in zip(lams.ravel(), ms.ravel()):
        assert m == weyl.weyl_direct(r0, lam)


def test_zero_dimensional_input_gives_a_complex(r0):
    m = weyl.weyl_direct(r0, np.asarray(LAMS[2]))
    assert type(m) is complex
    assert m == weyl.weyl_direct(r0, LAMS[:3])[2]


def test_array_holding_an_eigenvalue_raises(r0):
    lam1 = eigensolver.find_eigenvalues(r0, 1, 1)[0].lambda_n
    with pytest.raises(PoleError) as exc:
        weyl.weyl_direct(r0, np.array([[1j, 0.5], [lam1, 2.0j]]))
    assert exc.value.lam == lam1


def test_weyl_csv_equals_weyl_direct_near_a_pole(tmp_path, r0):
    lam2 = eigensolver.find_eigenvalues(r0, 2, 2)[0].lambda_n
    path = tmp_path / "r0.json"
    save_config(r0, path)
    out = tmp_path / "out"
    assert cli.main(["weyl", "--config", str(path),
                     "--re-min", repr(lam2 - 0.5), "--re-max", repr(lam2 + 0.5),
                     "--re-steps", "11", "--im-min", "0.001", "--im-max", "0.5",
                     "--im-steps", "5", "--margin", "0.0005",
                     "--out", str(out)]) == cli.EXIT_OK
    with open(out / "weyl.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 55
    for row in rows:
        lam = complex(float(row["re_lambda"]), float(row["im_lambda"]))
        m = weyl.weyl_direct(r0, lam)
        assert float(row["re_m"]) == m.real and float(row["im_m"]) == m.imag
