"""A root is certified simple or reported missing; one pole guard names the
nearest root."""
import json

import numpy as np
import pytest

from diracbvp import charfn, eigensolver, expansion
from diracbvp.errors import MissingRootError, PoleError

from conftest import reference_config


def test_a_double_root_is_a_typed_error_never_a_datum(monkeypatch):
    config = reference_config(1.0, 128)
    lam0 = eigensolver.find_eigenvalues(config, 0, 0).by_index(0).lambda_n
    real = charfn.delta_many

    def squared_at_lam0(cfg, lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        return real(cfg, lams) * (lams - lam0)

    monkeypatch.setattr(charfn, "delta_many", squared_at_lam0)
    with pytest.raises(MissingRootError) as exc:
        eigensolver.find_eigenvalues(config, -2, 2)
    assert exc.value.missing_indices == (-2, -1, 0, 1, 2)
    assert exc.value.partial is None


def test_spectral_data_files_with_the_simple_key_still_load(tmp_path):
    data = eigensolver.find_eigenvalues(reference_config(1.0, 128), -1, 1)
    doc = data.to_dict()
    assert all("simple" not in row for row in doc["data"])
    for row in doc["data"]:
        row["simple"] = True
    path = tmp_path / "spectral_data.json"
    path.write_text(json.dumps(doc))
    assert eigensolver.SpectralDataSet.load(path) == data


def test_resolvent_pole_names_the_nearest_root(r0):
    f = expansion.element_from_functions(r0, lambda x: 1.0 + 0.0 * x,
                                         lambda x: 0.0 * x)
    with pytest.raises(PoleError) as exc:
        expansion.resolvent_apply(r0, 1e-10, f)
    assert exc.value.nearest is not None
    assert abs(exc.value.nearest) < 1e-8
