"""The grid memo: eigen-elements and resolvent solutions built once per
(config, lambda), read-only, bounded, and dropped with the grid cache."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracbvp import eigensolver, expansion, integrator
from diracbvp.errors import IntegrationOverflowError, PoleError
from diracbvp.model import BoundaryParams, config_from_dict

from conftest import reference_config

# the expansion benchmark workload at seed 1: its config and its exact
# eigenvalues for |n| <= 10
SEED1_CONFIG = {
    "boundary": {"b1": 1.0, "b2": -0.5, "b3": 1.0, "b4": 0.3,
                 "c1": 0.5, "c2": -1.0, "c3": 1.0, "c4": 0.2},
    "weight": {"alpha": 1.5, "a": 1.3},
    "potential": {"kind": "piecewise", "p_params": [-0.32833437376605934],
                  "q_params": [-0.47346482251260924]},
    "grid_points": 512}
SEED1_LAMBDAS = np.array([
    -7.012165778274682, -6.241698718466721, -5.4834422262345575,
    -4.728163660424377, -3.9650833803267935, -3.2223731115894023,
    -2.499227213084297, -1.771511085483333, -1.0896959908876012,
    -0.5376012500386025, -0.060327090447796335, 0.7991412761898747,
    1.3001704840953294, 1.8651824937235004, 2.5645845498672144,
    3.2786632704422662, 4.017191107904069, 4.778179573281584,
    5.531799015889093, 6.290011852055779, 7.060131480952124])
LADDER = (2, 4, 6, 8, 10)
RESOLVENT_LAMBDAS = (-1.5467339559096502 + 0.9675374536630896j,
                     2.2536002096735412 + 1.1437700102909276j)


@pytest.fixture()
def config():
    integrator.build_grid.cache_clear()
    return config_from_dict(SEED1_CONFIG)


def _spy(patch):
    """The (endpoint, batch size) of every propagation made under ``patch``."""
    calls = []
    core = integrator.propagate_many

    def counted(config, lams, inits, endpoint):
        calls.append((endpoint, len(np.atleast_1d(lams))))
        return core(config, lams, inits, endpoint)

    patch.setattr(integrator, "propagate_many", counted)
    return calls


@pytest.fixture()
def propagations(monkeypatch):
    return _spy(monkeypatch)


def _data(config, n_max):
    """A spectral data set of the seed-1 eigenvalues with |n| <= n_max; the
    alphas are the eigen-elements' Gram diagonal."""
    lams = SEED1_LAMBDAS[10 - n_max: 11 + n_max]
    E = expansion.eigen_elements(config, lams)
    alphas = np.real(np.diagonal(expansion.gram(config, E, E)))
    return eigensolver.SpectralDataSet("seed1", tuple(
        eigensolver.SpectralDatum(n, float(lam), float(al), 1.0, 1.0, 0.0)
        for n, lam, al in zip(range(-n_max, n_max + 1), lams, alphas)))


def _elements(config):
    return [expansion.element_from_functions(config, np.cos, np.sin, 0.3, -0.2),
            expansion.element_from_functions(config, lambda x: 1.0 + 0.0 * x,
                                             lambda x: x, -0.5, 0.7)]


def _bytes(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def test_cleared_grid_cache_rebuilds_the_same_bytes(config, propagations):
    f = _elements(config)[0]
    E = expansion.eigen_elements(config, SEED1_LAMBDAS)
    R = expansion.resolvent_apply(config, RESOLVENT_LAMBDAS[0], f)
    assert len(propagations) == 3
    integrator.build_grid.cache_clear()
    assert integrator.build_grid(config).memo == {}
    E2 = expansion.eigen_elements(config, SEED1_LAMBDAS)
    R2 = expansion.resolvent_apply(config, RESOLVENT_LAMBDAS[0], f)
    assert len(propagations) == 6
    assert _bytes(E.f1, E.f2, E.f3, E.f4) == _bytes(E2.f1, E2.f2, E2.f3, E2.f4)
    assert _bytes(R.xs, R.ys) == _bytes(R2.xs, R2.ys)


def test_stored_arrays_reject_writes(config):
    f = _elements(config)[0]
    E = expansion.eigen_elements(config, SEED1_LAMBDAS[:3])
    expansion.resolvent_apply(config, RESOLVENT_LAMBDAS[0], f)
    for array in (E.f1, E.f2, E.f3, E.f4):
        with pytest.raises(ValueError):
            array[0] = 1.0
    stored = [v for entry in integrator.build_grid(config).memo.values()
              for v in entry if isinstance(v, np.ndarray)]
    assert len(stored) == 6
    for array in stored:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(ValueError):
        expansion.eigen_element(config, SEED1_LAMBDAS[0]).f1[0] = 1.0


def test_expansion_round_propagates_each_lambda_once(config, propagations):
    subsets = {n: _data(config, n) for n in LADDER}
    integrator.build_grid(config).memo.clear()
    propagations.clear()
    for f in _elements(config):
        for n in LADDER:
            data = subsets[n]
            expansion.coefficients(config, data, f)
            expansion.parseval_defect(config, data, f)
            expansion.expand(config, data, f)
    eigensolver.orthogonality_check(config, subsets[10])
    # each larger set propagates only the two lambda the smaller ones lack
    assert propagations == [("left", 5)] + [("left", 4)] * 4


@settings(max_examples=25, deadline=None)
@given(calls=st.lists(st.lists(st.sampled_from([*SEED1_LAMBDAS.tolist(), 0.0, -0.0]),
                               max_size=8), min_size=1, max_size=6))
def test_a_call_propagates_only_the_lambda_no_live_entry_holds(calls):
    config = config_from_dict(SEED1_CONFIG)
    integrator.build_grid(config).memo.clear()
    held = set()
    for lams in calls:
        lams = np.array(lams, dtype=float)
        _, ys, _ = integrator.phi_many(config, lams)
        f1, f2 = ys[..., 0].real, ys[..., 1].real
        cold = (f1, f2, *expansion._boundary_scalars(config, f1, f2))
        with pytest.MonkeyPatch.context() as patch:
            batches = _spy(patch)
            E = expansion.eigen_elements(config, lams)
        bits = set(lams.view(np.int64).tolist())
        assert batches == ([("left", len(bits - held))] if bits - held else [])
        held |= bits
        assert _bytes(E.f1, E.f2, E.f3, E.f4) == _bytes(*cold)


def test_an_empty_lambda_array_propagates_nothing(config, propagations):
    E = expansion.eigen_elements(config, [])
    n = len(integrator.build_grid(config).xs)
    assert (E.f1.shape, E.f2.shape, E.f3.shape, E.f4.shape) == ((0, n), (0, n), (0,), (0,))
    assert propagations == []


def test_a_build_that_raises_keeps_the_earlier_rows(config, propagations):
    E = expansion.eigen_elements(config, SEED1_LAMBDAS[:3])
    with pytest.raises(IntegrationOverflowError):
        expansion.eigen_elements(config, [SEED1_LAMBDAS[0], SEED1_LAMBDAS[5], np.nan])
    assert len(integrator.build_grid(config).memo) == 1
    F = expansion.eigen_elements(config, SEED1_LAMBDAS[:6])
    assert propagations == [("left", 3), ("left", 2), ("left", 3)]
    assert _bytes(E.f1, E.f2, E.f3, E.f4) == _bytes(F.f1[:3], F.f2[:3], F.f3[:3], F.f4[:3])


def test_resolvent_at_one_lambda_for_two_elements_propagates_once(config, propagations):
    f, g = _elements(config)
    for lam in RESOLVENT_LAMBDAS:
        propagations.clear()
        rf = expansion.resolvent_apply(config, lam, f)
        rg = expansion.resolvent_apply(config, lam, g)
        assert sorted(propagations) == [("left", 1), ("right", 1)]
        assert not np.array_equal(rf.ys, rg.ys)


def test_configs_differing_in_boundary_share_no_entry(config, propagations):
    other = replace(config, boundary=BoundaryParams(
        1.0, -0.5, 1.0, 0.4, 0.5, -1.0, 1.0, 0.2))
    E = expansion.eigen_elements(config, SEED1_LAMBDAS[:5])
    F = expansion.eigen_elements(other, SEED1_LAMBDAS[:5])
    assert len(propagations) == 2
    assert not np.array_equal(E.f3, F.f3)
    mine = integrator.build_grid(config).memo
    theirs = integrator.build_grid(other).memo
    assert mine is not theirs
    assert not {id(v) for v in mine.values()} & {id(v) for v in theirs.values()}


def test_memo_holds_at_most_its_bound(propagations):
    integrator.build_grid.cache_clear()
    config = reference_config(2.0, 128)
    memo = integrator.build_grid(config).memo
    sets = [np.array([0.25 * k, 0.25 * k + 1.0]) for k in range(expansion._MEMO + 4)]
    for i, lams in enumerate(sets):
        expansion.eigen_elements(config, lams)
        assert len(memo) == min(i + 1, expansion._MEMO)
        expansion.eigen_elements(config, sets[0])      # the oldest stays in use
    assert len(memo) == expansion._MEMO
    assert len(propagations) == len(sets)


def test_pole_error_leaves_no_entry(propagations):
    integrator.build_grid.cache_clear()
    config = reference_config(1.0, 256)
    f = expansion.element_from_functions(config, lambda x: 1.0 + 0.0 * x,
                                         lambda x: 0.0 * x)
    memo = integrator.build_grid(config).memo
    for _ in range(2):
        with pytest.raises(PoleError):
            expansion.resolvent_apply(config, 0.0, f)
        assert len(memo) == 0
    assert [e for e, _ in propagations] == ["right", "right"]


@pytest.mark.parametrize("take", [
    slice(10, 11), slice(0, 1), slice(20, 21), slice(8, 13), slice(0, 20), slice(3, None, 4),
], ids=str)
def test_eigen_element_rows_do_not_depend_on_their_batch(config, take):
    full = expansion.eigen_elements(config, SEED1_LAMBDAS)
    integrator.build_grid(config).memo.clear()          # so part propagates its own batch
    part = expansion.eigen_elements(config, SEED1_LAMBDAS[take])
    for name in ("f1", "f2", "f3", "f4"):
        assert getattr(part, name).tobytes() == getattr(full, name)[take].tobytes()


def test_simpson_rule_is_built_once_per_grid(config, monkeypatch):
    calls = []
    rule = integrator._simpson_weights

    def counted(x):
        calls.append(len(x))
        return rule(x)

    monkeypatch.setattr(integrator, "_simpson_weights", counted)
    f, g = _elements(config)
    first = [expansion.gram(config, f, g), expansion.inner(config, g, g),
             expansion.resolvent_apply(config, RESOLVENT_LAMBDAS[0], f).ys]
    assert len(calls) == 2                 # one per side of the jump
    integrator.build_grid.cache_clear()
    assert "quadrature" not in integrator.build_grid(config).__dict__
    f, g = _elements(config)
    again = [expansion.gram(config, f, g), expansion.inner(config, g, g),
             expansion.resolvent_apply(config, RESOLVENT_LAMBDAS[0], f).ys]
    assert len(calls) == 4
    assert _bytes(*first) == _bytes(*again)
