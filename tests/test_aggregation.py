"""Screening rules, mixing, and the krum selector."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchdfl import sketch
from sketchdfl.aggregation import (
    AggregatorSpec,
    PairTable,
    _krum_scores,
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


def _broadcast_sq(stack):
    """Pairwise squared distances between the rows of `stack` by the (n, n, d)
    broadcast, with the diagonal set to 0.0: on a row holding inf the
    broadcast's own diagonal is inf - inf, a NaN."""
    sq = ((stack[:, None] - stack[None]) ** 2).sum(axis=2)
    np.fill_diagonal(sq, 0.0)
    return sq


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


def test_sketch_filter_distances_match_per_pair_sketch_distance_bitwise():
    # one batched (deg, k) pass must give each neighbour the bits of its own
    # sketch_distance call; k = 1000 reaches numpy's unrolled pairwise sum
    params = SketchParams(dim=20_000, width=1000, seed=4)
    rng = np.random.default_rng(4)
    me = compute_sketch(params, rng.normal(size=20_000))
    nbrs = {j: compute_sketch(params, rng.normal(scale=10.0 ** (j - 8), size=20_000))
            for j in (3, 9, 1, 16, 12)}
    out = sketch_filter(me, nbrs, gamma=1.0, kappa=1.0, t=0, rounds=5)
    assert list(out.distances) == list(nbrs)
    for j, s in nbrs.items():
        assert out.distances[j] == sketch_distance(me, s)
        assert type(out.distances[j]) is float


def test_sketch_filter_rejects_one_foreign_sketch_among_many():
    a = SketchParams(dim=30, width=10, seed=1)
    b = SketchParams(dim=30, width=10, seed=2)
    w = np.ones(30)
    nbrs = {1: compute_sketch(a, w), 2: compute_sketch(b, w), 3: compute_sketch(a, 2 * w)}
    with pytest.raises(ProtocolError):
        sketch_filter(compute_sketch(a, w), nbrs, gamma=2.0, kappa=1.0, t=0, rounds=10)


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
    # an attacker settles into its own trained row: out may be self_model
    mine = me.copy()
    assert aggregate_mixed(mine, accepted, alpha, out=mine) is mine
    assert mine.tobytes() == want.tobytes()
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
    mine = me.copy()  # out may be self_model
    assert dfedavg_aggregate(mine, neighbours, out=mine) is mine
    assert mine.tobytes() == want.tobytes()


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
    # d above OpenBLAS's 10,000-element threading cut-off; krum_select_index
    # without `sq` builds its matrix from this one-pool table
    stack = np.random.default_rng(11).normal(size=(17, 12_000))
    reference = ((stack[:, None] - stack[None]) ** 2).sum(axis=2)
    pairs = PairTable({0: range(len(stack))})
    assert pairs.submatrix(pairs.compute(list(stack)), 0).tobytes() == reference.tobytes()


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


def _loop_krum_scores(sq, keep):
    # the per-candidate delete, sort and sum that the batched scorer replaced
    scores = np.empty(len(sq))
    for i in range(len(sq)):
        others = np.delete(sq[i], i)
        others.sort()
        scores[i] = others[:keep].sum()
    return scores


def test_krum_scores_match_per_candidate_loop_bitwise():
    # up to 40 candidates, so kept sums reach numpy's unrolled pairwise sum
    rng = np.random.default_rng(21)
    for m in (3, 4, 9, 17, 26, 40):
        sq = _broadcast_sq(rng.normal(size=(m, 300)) * 10.0 ** rng.uniform(-6, 6, size=(m, 1)))
        for f in range(m - 2):
            keep = m - f - 2
            assert _krum_scores(sq, keep).tobytes() == _loop_krum_scores(sq, keep).tobytes()


def _pools(rng, n_vectors, n_pools):
    return {key: [int(v) for v in rng.choice(n_vectors, size=int(rng.integers(3, 9)), replace=False)]
            for key in range(n_pools)}


def _vectors(rng, n, d):
    """Rows with ties and repeats: a cluster of identical vectors, as
    colluding attackers send, equidistant pairs, and scattered rows."""
    base = rng.normal(size=d)
    vectors = [rng.normal(size=d) for _ in range(n)]
    for v in (1, 4, 7):
        vectors[v] = base.copy()           # distinct ids, equal models
    vectors[9] = vectors[2] + 1.0
    vectors[10] = vectors[2] - 1.0         # 9 and 10 tie as seen from 2
    return vectors


def test_pair_table_matches_the_stacked_pool_bitwise():
    rng = np.random.default_rng(22)
    vectors = _vectors(rng, 14, 2_000)
    pools = _pools(rng, len(vectors), 25)
    table = PairTable(pools)
    flat = table.compute(vectors)
    for key, ids in pools.items():
        stacked = _broadcast_sq(np.stack([vectors[v] for v in ids]))
        sub = table.submatrix(flat, key)
        assert sub.tobytes() == stacked.tobytes()
        models = [vectors[v] for v in ids]
        for f in range(len(ids) - 2):
            assert krum_select_index(models, f, sq=sub) == krum_select_index(models, f)


def test_pair_table_keeps_krum_choice_on_inf_and_nan():
    rng = np.random.default_rng(23)
    vectors = _vectors(rng, 14, 50)
    vectors[3][5] = np.inf
    vectors[5][5] = np.inf       # inf - inf: a NaN distance between 3 and 5
    vectors[6][0] = -np.inf
    vectors[8][11] = np.nan
    vectors[12][:] = 1e200       # finite vectors whose squares overflow to inf
    pools = {**_pools(rng, len(vectors), 40), "all": list(range(len(vectors)))}
    table = PairTable(pools)
    with np.errstate(over="ignore", invalid="ignore"):
        flat = table.compute(vectors)
        for key, ids in pools.items():
            models = [vectors[v] for v in ids]
            stacked = _broadcast_sq(np.stack(models))
            sub = table.submatrix(flat, key)
            assert np.array_equal(sub, stacked, equal_nan=True)
            for f in range(len(ids) - 2):
                assert krum_select_index(models, f, sq=sub) == krum_select_index(models, f)
    assert np.isnan(flat).any() and np.isinf(flat).any()


def test_pair_table_batches_bitwise_and_holds_only_needed_pairs(monkeypatch):
    # pools overlap heavily, so most pairs sit in several pools; a 3-row
    # batch splits most anchors' partners into full and partial blocks
    monkeypatch.setattr(sketch, "BATCH_BYTES", 3 * 8 * 500)
    rng = np.random.default_rng(24)
    vectors = [rng.normal(size=500) for _ in range(12)]
    pools = _pools(rng, len(vectors), 30)
    needed = {frozenset((a, b)) for ids in pools.values() for a in ids for b in ids if a != b}
    assert sum(len(ids) * (len(ids) - 1) // 2 for ids in pools.values()) > 2 * len(needed)
    table = PairTable(pools)
    assert table.n_pairs == len(needed)
    flat = table.compute(vectors)
    assert flat.shape == (len(needed) + 1,) and flat[-1] == 0.0
    assert table.compute(vectors, threads=2).tobytes() == flat.tobytes()
    for key, ids in pools.items():
        want = _broadcast_sq(np.stack([vectors[v] for v in ids]))
        assert table.submatrix(flat, key).tobytes() == want.tobytes()


def _star_row(me, neighbors):
    """Squared distances from `me` to `neighbors`, in mapping order, read
    from a star PairTable. `me` takes the highest id, so every pair is
    anchored on the neighbour: the row holds (a - b)² where the filters
    compute (b - a)²."""
    me_id = max(neighbors, default=-1) + 1
    vectors = [me] * (me_id + 1)
    for j, w in neighbors.items():
        vectors[j] = w
    pairs = PairTable({0: [me_id, *neighbors]}, star=True)
    return pairs.row(pairs.compute(vectors), 0)


@pytest.mark.parametrize("spread, fallback", [(0.1, False), (100.0, True)])
def test_filters_given_a_table_row_match_the_call_without(spread, fallback):
    # spread 100 puts every neighbour outside the threshold: the fallback
    rng = np.random.default_rng(25)
    me = rng.normal(size=3_000)
    step = rng.normal(scale=spread, size=3_000)
    cases = [{}, {5: me + step},
             {11: me + step, 3: me - step, 4: me + 2 * step, 0: me + 3 * step}]
    for neighbors in cases:
        row = _star_row(me, neighbors)
        want = balance_filter(me, neighbors, 0.5, 1.0, 1, 4)
        assert want.fallback_used == (fallback and bool(neighbors))
        assert balance_filter(me, neighbors, 0.5, 1.0, 1, 4, row) == want
        sketches = {j: Sketch(w, fingerprint=7) for j, w in neighbors.items()}
        want = sketch_filter(Sketch(me, 7), sketches, 0.5, 1.0, 1, 4)
        assert sketch_filter(Sketch(me, 7), sketches, 0.5, 1.0, 1, 4, row) == want
    assert want.accepted in ([[3], [11]] if fallback else [[0, 3, 4, 11]])


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
