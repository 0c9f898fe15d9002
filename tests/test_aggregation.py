"""Screening rules, mixing, and the krum selector."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchdfl.aggregation import (
    AggregatorSpec,
    _pairwise_sq_distances,
    adaptive_threshold,
    aggregate_mixed,
    balance_filter,
    dfedavg_aggregate,
    gamma_eff,
    krum_select_index,
    sketch_filter,
)
from sketchdfl.errors import ConfigurationError, ProtocolError
from sketchdfl.sketch import Sketch, SketchParams, compute_sketch, sketch_distance


def test_adaptive_threshold_values():
    # worked example: gamma=2, kappa=1, final round -> 2/e times the norm
    assert adaptive_threshold(2.0, 1.0, 10, 10, 1.0) == pytest.approx(2 / math.e)
    assert adaptive_threshold(2.0, 1.0, 0, 10, 3.0) == 6.0
    assert adaptive_threshold(0.5, 0.0, 7, 10, 4.0) == 2.0  # kappa=0: no decay
    with pytest.raises(ConfigurationError):
        adaptive_threshold(2.0, 1.0, 0, 0, 1.0)
    with pytest.raises(ConfigurationError):
        adaptive_threshold(2.0, 1.0, -1, 10, 1.0)


def test_threshold_decays_monotonically():
    vals = [adaptive_threshold(2.0, 1.0, t, 10, 1.0) for t in range(11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gamma_eff():
    assert gamma_eff(2.0, 0.0) == 2.0
    assert gamma_eff(2.0, 0.1) == pytest.approx(2.0 * math.sqrt(1.1 / 0.9))
    with pytest.raises(ConfigurationError):
        gamma_eff(2.0, 1.0)
    with pytest.raises(ConfigurationError):
        gamma_eff(2.0, -0.1)


def test_balance_filter_boundary_inclusive():
    me = np.array([1.0, 0.0])  # norm 1
    neighbors = {
        3: np.array([1.0, 2.0]),   # distance 2, exactly at threshold
        5: np.array([1.0, 2.001]), # just outside
        7: np.array([1.0, 0.1]),   # well inside
    }
    out = balance_filter(me, neighbors, gamma=2.0, kappa=0.0, t=0, rounds=10)
    assert out.accepted == [3, 7]
    assert not out.fallback_used
    assert out.threshold == 2.0
    assert out.distances[5] == pytest.approx(2.001)


def test_filter_fallback_picks_nearest_lowest_id_on_tie():
    me = np.array([0.001, 0.0])  # tiny norm so nobody clears the threshold
    neighbors = {9: np.array([3.0, 0.0]), 2: np.array([4.0, 0.0])}
    out = balance_filter(me, neighbors, gamma=1.0, kappa=0.0, t=0, rounds=5)
    assert out.fallback_used
    assert out.accepted == [9]  # strictly nearest wins regardless of id
    tied = {4: np.array([2.001, 0.0]), 1: np.array([-1.999, 0.0])}
    out2 = balance_filter(me, tied, gamma=1.0, kappa=0.0, t=0, rounds=5)
    assert out2.fallback_used and out2.accepted == [1]  # equal distance: low id


def test_filter_empty_neighborhood_stays_empty():
    out = balance_filter(np.ones(3), {}, gamma=2.0, kappa=1.0, t=0, rounds=5)
    assert out.accepted == [] and not out.fallback_used


def test_sketch_filter_matches_balance_on_equal_inputs():
    # sketches replace models; same rule, distances now in sketch space
    params = SketchParams(dim=60, width=60, seed=0)
    rng = np.random.default_rng(0)
    me = rng.normal(size=60)
    neighbors = {j: me + rng.normal(size=60) * s for j, s in [(1, 0.1), (2, 5.0)]}
    out = sketch_filter(
        compute_sketch(params, me),
        {j: compute_sketch(params, w) for j, w in neighbors.items()},
        gamma=2.0, kappa=1.0, t=0, rounds=10)
    assert out.accepted == [1]
    assert not out.fallback_used


def test_sketch_filter_rejects_foreign_family():
    a = SketchParams(dim=30, width=10, seed=1)
    b = SketchParams(dim=30, width=10, seed=2)
    w = np.ones(30)
    with pytest.raises(ProtocolError):
        sketch_filter(compute_sketch(a, w), {1: compute_sketch(b, w)},
                      gamma=2.0, kappa=1.0, t=0, rounds=10)


def test_aggregate_mixed_known_value():
    me = np.array([1.0, 1.0])
    accepted = {2: np.array([3.0, 1.0]), 0: np.array([1.0, 3.0])}
    out = aggregate_mixed(me, accepted, alpha=0.5)
    np.testing.assert_allclose(out, [1.5, 1.5])


def test_aggregate_mixed_alpha_extremes():
    me = np.array([2.0, 4.0])
    accepted = {1: np.array([6.0, 0.0])}
    np.testing.assert_array_equal(aggregate_mixed(me, accepted, 1.0), me)
    np.testing.assert_array_equal(aggregate_mixed(me, accepted, 0.0), [6.0, 0.0])
    np.testing.assert_array_equal(aggregate_mixed(me, {}, 1.0), me)
    with pytest.raises(ConfigurationError):
        aggregate_mixed(me, {}, 0.5)


def test_aggregate_mixed_is_order_stable():
    rng = np.random.default_rng(1)
    me = rng.normal(size=50)
    models = {j: rng.normal(size=50) for j in range(12)}
    a = aggregate_mixed(me, models, 0.5)
    b = aggregate_mixed(me, dict(reversed(list(models.items()))), 0.5)
    np.testing.assert_array_equal(a, b)


@given(alpha=st.floats(min_value=0, max_value=1))
@settings(max_examples=25, deadline=None)
def test_aggregate_mixed_stays_in_convex_hull(alpha):
    me = np.array([0.0])
    accepted = {1: np.array([1.0]), 2: np.array([2.0])}
    out = aggregate_mixed(me, accepted, alpha)
    assert 0.0 - 1e-12 <= out[0] <= 2.0 + 1e-12


def test_dfedavg_uniform_mean():
    me = np.array([0.0, 3.0])
    out = dfedavg_aggregate(me, {1: np.array([3.0, 0.0]), 2: np.array([3.0, 3.0])})
    np.testing.assert_allclose(out, [2.0, 2.0])
    np.testing.assert_array_equal(dfedavg_aggregate(me, {}), me)


def _signed_zero_models(rng, d=64):
    """Own model and three neighbours with runs of -0.0 and +0.0, where the
    value a sum starts from decides the sign of a zero result."""
    models = rng.normal(size=(4, d))
    models[:, :8] = -0.0
    models[1:, 8:16] = 0.0
    models[0, 16:24] = 0.0
    models[1:, 16:24] = -0.0
    return models[0], {3: models[3], 1: models[1], 2: models[2]}


def _frozen(me, neighbours):
    return me.tobytes(), {j: w.tobytes() for j, w in neighbours.items()}


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_aggregate_mixed_into_out_is_bitwise_the_allocating_call(alpha):
    me, accepted = _signed_zero_models(np.random.default_rng(5))
    before = _frozen(me, accepted)
    want = aggregate_mixed(me, accepted, alpha)
    # the formula as first written, with every operation spelled out
    acc = np.zeros_like(me)
    for j in sorted(accepted):
        acc += accepted[j]
    reference = alpha * me + (1 - alpha) / len(accepted) * acc
    buf = np.full_like(me, np.nan)
    got = aggregate_mixed(me, accepted, alpha, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes() == reference.tobytes()
    # every input is -0.0 here, but the sum starts from +0.0
    assert not np.signbit(want[:8]).any()
    assert _frozen(me, accepted) == before
    if alpha == 1.0:
        buf = np.full_like(me, np.nan)
        assert aggregate_mixed(me, {}, alpha, out=buf) is buf
        assert buf.tobytes() == me.tobytes() == aggregate_mixed(me, {}, alpha).tobytes()


def test_dfedavg_into_out_is_bitwise_the_allocating_call():
    me, neighbours = _signed_zero_models(np.random.default_rng(6))
    before = _frozen(me, neighbours)
    want = dfedavg_aggregate(me, neighbours)
    acc = me.copy()
    for j in sorted(neighbours):
        acc += neighbours[j]
    reference = acc / (1 + len(neighbours))
    buf = np.full_like(me, np.nan)
    got = dfedavg_aggregate(me, neighbours, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes() == reference.tobytes()
    assert np.signbit(want[:8]).all() and not np.signbit(want[16:24]).any()
    assert _frozen(me, neighbours) == before


def test_krum_picks_cluster_member_not_outlier():
    rng = np.random.default_rng(2)
    cluster = [rng.normal(0, 0.01, 10) for _ in range(5)]
    outliers = [rng.normal(50, 0.01, 10), rng.normal(-50, 0.01, 10)]
    models = cluster + outliers
    idx = krum_select_index(models, f=2)
    assert idx < 5


def test_krum_matches_bruteforce_reference():
    # reference scorer written with plain loops, no shared code
    def reference(models, f):
        n = len(models)
        best, best_score = None, None
        for i in range(n):
            dists = sorted(
                sum((models[i][t] - models[j][t]) ** 2 for t in range(len(models[i])))
                for j in range(n) if j != i
            )
            score = sum(dists[: n - f - 2])
            if best_score is None or score < best_score:
                best, best_score = i, score
        return best

    rng = np.random.default_rng(3)
    for trial in range(20):
        models = [rng.normal(size=6) for _ in range(rng.integers(4, 9))]
        f = int(rng.integers(0, len(models) - 2))
        assert krum_select_index(models, f) == reference(models, f)


def test_krum_pairwise_stage_matches_broadcast_bitwise():
    # d above OpenBLAS's 10,000-element threading cut-off; the reference is
    # the (n, n, d) broadcast the triangular stage replaced
    stack = np.random.default_rng(11).normal(size=(17, 12_000))
    reference = ((stack[:, None] - stack[None]) ** 2).sum(axis=2)
    assert _pairwise_sq_distances(stack).tobytes() == reference.tobytes()


def test_full_and_sketch_distances_match_sum_of_squares_bitwise():
    rng = np.random.default_rng(12)
    me = rng.normal(size=20_000)
    nbrs = {j: me + rng.normal(scale=j, size=20_000) for j in (1, 2, 3)}
    out = balance_filter(me, nbrs, 2.0, 1.0, 0, 5)
    assert out.threshold == 2.0 * np.sqrt(np.sum(me**2))
    for j, w in nbrs.items():
        assert out.distances[j] == np.sqrt(np.sum((me - w) ** 2))
    a, b = Sketch(me, fingerprint=1), Sketch(nbrs[1], fingerprint=1)
    assert a.norm() == np.sqrt(np.sum(me**2))
    assert sketch_distance(a, b) == np.sqrt(np.sum((me - nbrs[1]) ** 2))


def test_krum_needs_enough_models():
    models = [np.zeros(3)] * 4
    with pytest.raises(ConfigurationError):
        krum_select_index(models, f=2)  # needs f+3 = 5
    with pytest.raises(ConfigurationError):
        krum_select_index(models, f=-1)


def test_aggregator_spec_validation():
    for unknown in ("median", "ubar"):
        with pytest.raises(ConfigurationError, match=f"unknown aggregator '{unknown}'"):
            AggregatorSpec(kind=unknown)
    for bad in (
        dict(gamma=0.0),
        dict(kappa=-1.0),
        dict(alpha=1.5),
        dict(krum_f=-2),
        dict(sketch_size=-1),
        dict(rel_tol=-1e-9),
    ):
        with pytest.raises(ConfigurationError):
            AggregatorSpec(kind="sketchfilter", **bad)
