"""Problem-definition layer: validation, weight geometry, serialization."""
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracbvp.errors import ConfigError, DomainError
from diracbvp.model import (PI, BoundaryParams, PotentialSpec, ProblemConfig,
                            Weight, _write_csv, _write_json, config_from_dict,
                            config_to_dict, config_fingerprint, load_config, mu,
                            omega_at, rho_at, save_config)

from conftest import reference_config


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_boundary_determinants_exposed():
    b = BoundaryParams(0.0, -1.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.0)
    assert b.k1 == pytest.approx(1.0)
    assert b.k2 == pytest.approx(6.0)


@pytest.mark.parametrize("coeffs", [
    (0.0, 1.0, 1.0, 0.0, 0.0, -1.0, 1.0, 0.0),   # k1 < 0
    (1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0),   # k1 = 0
    (0.0, -1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0),   # k2 < 0
])
def test_boundary_rejects_nonpositive_determinant(coeffs):
    with pytest.raises(ConfigError):
        BoundaryParams(*coeffs)


@pytest.mark.parametrize("alpha,a", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0),
                                     (1.0, PI), (1.0, 4.0)])
def test_weight_rejects_bad_parameters(alpha, a):
    with pytest.raises(ConfigError):
        Weight(alpha=alpha, a=a)


def test_config_rejects_tiny_grid():
    with pytest.raises(ConfigError):
        reference_config(grid_points=8)


# ---------------------------------------------------------------------------
# weight geometry
# ---------------------------------------------------------------------------

def test_optical_length_endpoints():
    w = Weight(alpha=2.0, a=PI / 2.0)
    assert mu(0.0, w) == 0.0
    assert mu(PI, w) == pytest.approx(2.0 * PI - 2.0 * PI / 2.0 + PI / 2.0)
    assert mu(PI, w) == pytest.approx(1.5 * PI)


@given(alpha=st.floats(0.1, 10.0), a=st.floats(0.2, 3.0),
       x=st.floats(0.0, PI), y=st.floats(0.0, PI))
def test_optical_length_is_monotone(alpha, a, x, y):
    w = Weight(alpha=alpha, a=min(a, PI - 1e-3))
    lo, hi = sorted((x, y))
    assert mu(lo, w) <= mu(hi, w) + 1e-12


def test_optical_length_continuous_at_jump():
    w = Weight(alpha=5.0, a=1.0)
    assert mu(w.a - 1e-12, w) == pytest.approx(mu(w.a + 1e-12, w), abs=1e-10)


def test_weight_value_convention_at_jump():
    w = Weight(alpha=3.0, a=1.0)
    assert rho_at(1.0, w) == 1.0
    assert rho_at(1.0 + 1e-9, w) == 3.0
    np.testing.assert_allclose(rho_at(np.array([0.5, 2.0]), w), [1.0, 3.0])


def test_domain_guard():
    w = Weight(alpha=1.0, a=1.0)
    with pytest.raises(DomainError):
        mu(-0.5, w)
    with pytest.raises(DomainError):
        rho_at(PI + 0.5, w)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_piecewise_potential_segments():
    pot = PotentialSpec.piecewise([1.0, 2.0], [3.0, 4.0])
    assert pot.p_at(0.1) == 1.0
    assert pot.p_at(PI - 0.1) == 2.0
    assert pot.q_at(0.1) == 3.0
    np.testing.assert_allclose(pot.q_at(np.array([0.1, 3.0])), [3.0, 4.0])


def test_cosine_potential_values():
    pot = PotentialSpec.cosine([1.0, 0.5], [0.0, 2.0])
    xs = np.array([0.0, PI / 3.0])
    np.testing.assert_allclose(pot.p_at(xs), 1.0 + 0.5 * np.cos(xs))
    np.testing.assert_allclose(pot.q_at(xs), 2.0 * np.cos(xs))


def test_callable_potential_broadcasts():
    pot = PotentialSpec.from_callables(lambda x: np.sin(x), lambda x: 0.25)
    xs = np.linspace(0.0, PI, 7)
    np.testing.assert_allclose(pot.p_at(xs), np.sin(xs))
    np.testing.assert_allclose(pot.q_at(xs), np.full_like(xs, 0.25))
    assert pot.q_at(1.0) == 0.25


def test_potential_constructor_validation():
    with pytest.raises(ConfigError):
        PotentialSpec("spline", (1.0,), (1.0,))
    with pytest.raises(ConfigError):
        PotentialSpec("piecewise", (), (1.0,))
    with pytest.raises(ConfigError):
        PotentialSpec("callable", p_func=lambda x: x)


@given(x=st.floats(0.0, PI), p=st.floats(-5.0, 5.0), q=st.floats(-5.0, 5.0))
def test_potential_matrix_symmetric_trace_free(x, p, q):
    om = omega_at(x, PotentialSpec.constant(p, q))
    assert om[0, 1] == om[1, 0]
    assert om[0, 0] + om[1, 1] == 0.0
    assert om[0, 0] == p and om[0, 1] == q


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_config_json_round_trip_exact(tmp_path):
    cfg = reference_config(alpha=2.0, grid_points=512,
                           potential=PotentialSpec.cosine([0.3, -0.1], [0.7]))
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_csv_writer_pins_its_bytes(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, ["x", "n", "s"], [np.array([0.1, 1e-20, -0.0]),
                                       np.array([1, 2, 3], dtype=np.int64),
                                       np.array(["a", "b", "c"])])
    assert path.read_bytes() == b"x,n,s\n0.1,1,a\n1e-20,2,b\n-0.0,3,c\n"


def test_csv_writer_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "t.csv", ["x", "n"], [[0.5, 1.5], [1]])
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("field", ["a,b", 'say "hi"', "a\rb", "a\nb"])
def test_csv_writer_rejects_a_field_csv_would_quote(tmp_path, field):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        _write_csv(path, ["x", "s"], [[0.5], [field]])
    with pytest.raises(ValueError):
        _write_csv(path, ["x", field], [[0.5], ["s"]])
    assert not path.exists()


# Repeats, signed zeros, nan, infinities, the least subnormal, and both sides of
# repr's switches between fixed and exponent notation at 1e-4 and 1e16.
_FLOATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                           5e-324, 1e-4, 9.999999999999999e-05, 1e16,
                           9999999999999998.0, 0.1]) | st.floats()


@st.composite
def csv_tables(draw):
    n = draw(st.integers(0, 60))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "str"]), min_size=1, max_size=4)):
        if kind == "float":
            pool = draw(st.lists(_FLOATS, min_size=1, max_size=6))
            values = st.sampled_from(pool) | _FLOATS
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float))
        elif kind == "int":
            values = st.integers(-2**63, 2**63 - 1)
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64))
        else:
            values = st.text(st.characters(exclude_categories=("Cs",),
                                           exclude_characters=',"\r\n'), max_size=4)
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=str))
    return columns


@settings(max_examples=100)
@given(columns=csv_tables())
def test_csv_writer_writes_the_bytes_of_csv_writer(tmp_path_factory, columns):
    header = [f"c{k}" for k in range(len(columns))]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    if '"' in buf.getvalue():   # csv quoted a lone empty field
        with pytest.raises(ValueError):
            _write_csv(path, header, columns)
        assert not path.exists()
    else:
        _write_csv(path, header, columns)
        assert path.read_bytes() == buf.getvalue().encode()


def test_json_writer_pins_its_bytes(tmp_path):
    path = tmp_path / "t.json"
    _write_json(path, {"b": [1.0, 2], "a": {"y": -0.0, "x": 1e-20}})
    assert path.read_bytes() == (b'{\n  "a": {\n    "x": 1e-20,\n    "y": -0.0\n  },\n'
                                 b'  "b": [\n    1.0,\n    2\n  ]\n}\n')


def test_callable_potential_not_serializable():
    cfg = reference_config(potential=PotentialSpec.from_callables(np.sin, np.cos))
    with pytest.raises(ConfigError):
        config_to_dict(cfg)


def test_malformed_document_raises_config_error():
    with pytest.raises(ConfigError):
        config_from_dict({"boundary": {"b1": 0.0}})


def test_fingerprint_tracks_content():
    cfg = reference_config()
    same = reference_config()
    other = reference_config(potential=PotentialSpec.constant(0.1, 0.0))
    assert config_fingerprint(cfg) == config_fingerprint(same)
    assert config_fingerprint(cfg) != config_fingerprint(other)
    assert len(config_fingerprint(cfg)) == 16
    assert all(c in "0123456789abcdef" for c in config_fingerprint(cfg))
