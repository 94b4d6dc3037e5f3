"""The Weyl function read the same way alone and in a batch: the `weyl`
command's values equal `weyl_direct` at each point, near a pole too."""
import csv

from diracbvp import cli, eigensolver, weyl
from diracbvp.model import save_config


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
