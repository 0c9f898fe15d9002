"""Screening rules, mixing, and the krum selector."""
import math
from concurrent.futures import ThreadPoolExecutor

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


def test_balance_filter_boundary_inclusive(pair_sq):
    me = np.array([1.0, 0.0])  # norm 1
    neighbors = {
        3: np.array([1.0, 2.0]),   # distance 2, exactly at threshold
        5: np.array([1.0, 2.001]), # just outside
        7: np.array([1.0, 0.1]),   # well inside
    }
    out = balance_filter(me, neighbors, gamma=2.0, kappa=0.0, t=0, rounds=10,
                         sq=pair_sq([me, *neighbors.values()], star=True))
    assert out.accepted == [3, 7]
    assert not out.fallback_used
    assert out.threshold == 2.0
    assert out.distances[5] == pytest.approx(2.001)


def test_filter_fallback_picks_nearest_lowest_id_on_tie(pair_sq):
    me = np.array([0.001, 0.0])  # tiny norm so nobody clears the threshold
    neighbors = {9: np.array([3.0, 0.0]), 2: np.array([4.0, 0.0])}
    out = balance_filter(me, neighbors, gamma=1.0, kappa=0.0, t=0, rounds=5,
                         sq=pair_sq([me, *neighbors.values()], star=True))
    assert out.fallback_used
    assert out.accepted == [9]  # strictly nearest wins regardless of id
    tied = {4: np.array([2.001, 0.0]), 1: np.array([-1.999, 0.0])}
    out2 = balance_filter(me, tied, gamma=1.0, kappa=0.0, t=0, rounds=5,
                          sq=pair_sq([me, *tied.values()], star=True))
    assert out2.fallback_used and out2.accepted == [1]  # equal distance: low id


@pytest.mark.parametrize("screen", ["balance", "sketch"])
def test_filter_fallback_never_picks_a_nan_distance(screen, pair_sq):
    # a NaN is never "less than" anything, so min() over the ids would keep
    # a NaN neighbour with the lowest id; the fallback takes the nearest
    # finite distance, and with none finite it accepts nobody
    def fallback(neighbors):
        me = np.zeros(4)  # norm 0: nobody clears the threshold
        sq = pair_sq([me, *neighbors.values()], star=True)
        if screen == "sketch":  # the same vectors as sketch values
            me, neighbors = Sketch(me, 0), {j: Sketch(v, 0) for j, v in neighbors.items()}
        out = (balance_filter if screen == "balance" else sketch_filter)(
            me, neighbors, gamma=0.1, kappa=0.0, t=0, rounds=1, sq=sq)
        return out.accepted, out.fallback_used

    nan, inf, far, near = (np.full(4, v) for v in (np.nan, np.inf, 10.0, 5.0))
    assert fallback({1: nan, 2: far, 3: near}) == ([3], True)
    assert fallback({1: nan, 2: inf, 5: far}) == ([5], True)
    assert fallback({1: nan, 2: inf}) == ([], False)
    assert fallback({7: nan, 4: nan, 9: nan}) == ([], False)
    assert fallback({3: inf, 6: -inf}) == ([], False)


def test_filter_empty_neighborhood_stays_empty(pair_sq):
    me = np.ones(3)
    out = balance_filter(me, {}, gamma=2.0, kappa=1.0, t=0, rounds=5,
                         sq=pair_sq([me], star=True))
    assert out.accepted == [] and not out.fallback_used


class IdsOnly(dict):
    """A neighbour mapping whose values must never be read."""

    def __getitem__(self, key):
        raise AssertionError(f"neighbour {key}'s value was read")

    def values(self):
        raise AssertionError("neighbour values were read")

    def items(self):
        raise AssertionError("neighbour values were read")

    def get(self, key, default=None):
        raise AssertionError(f"neighbour {key}'s value was read")


def test_balance_filter_reads_only_the_neighbour_ids(pair_sq):
    # sketch_filter hands its sketches through in this mapping: distances
    # come from `sq`, matched to the ids in the order the mapping lists them
    me = np.array([3.0, 4.0])  # norm 5
    neighbors = {8: me + [0.0, 1.0], 2: me + [0.0, 9.0], 5: me + [6.0, 8.0]}
    sq = pair_sq([me, *neighbors.values()], star=True)
    out = balance_filter(me, IdsOnly(dict.fromkeys(neighbors)), 1.0, 0.0, 0, 1, sq)
    assert out.distances == {8: 1.0, 2: 9.0, 5: 10.0}
    assert list(out.distances) == [8, 2, 5]
    assert (out.accepted, out.fallback_used) == ([8], False)
    far = balance_filter(me, IdsOnly(dict.fromkeys(neighbors)), 0.1, 0.0, 0, 1, sq)
    assert (far.accepted, far.fallback_used) == ([8], True)
    for wrong in (sq[:2], np.append(sq, 1.0)):  # one distance per id
        with pytest.raises(ValueError):
            balance_filter(me, IdsOnly(dict.fromkeys(neighbors)), 1.0, 0.0, 0, 1, wrong)


def test_sketch_filter_matches_balance_on_equal_inputs(pair_sq):
    # sketches replace models; same rule, distances now in sketch space
    params = SketchParams(dim=60, width=60, seed=0)
    rng = np.random.default_rng(0)
    me = rng.normal(size=60)
    neighbors = {j: me + rng.normal(size=60) * s for j, s in [(1, 0.1), (2, 5.0)]}
    own = compute_sketch(params, me)
    sketches = {j: compute_sketch(params, w) for j, w in neighbors.items()}
    sq = pair_sq([own.values, *(s.values for s in sketches.values())], star=True)
    out = sketch_filter(own, sketches, gamma=2.0, kappa=1.0, t=0, rounds=10, sq=sq)
    assert out == balance_filter(own.values, sketches, 2.0, 1.0, 0, 10, sq)
    assert out.accepted == [1]
    assert not out.fallback_used


def test_sketch_filter_rejects_foreign_family():
    a = SketchParams(dim=30, width=10, seed=1)
    b = SketchParams(dim=30, width=10, seed=2)
    w = np.ones(30)
    with pytest.raises(ProtocolError):
        sketch_filter(compute_sketch(a, w), {1: compute_sketch(b, w)},
                      gamma=2.0, kappa=1.0, t=0, rounds=10, sq=np.zeros(1))


def test_sketch_filter_distances_match_per_pair_sketch_distance_bitwise(pair_sq):
    # the star row's batched (deg, k) pass must give each neighbour the bits
    # of its own sketch_distance call; k = 1000 reaches numpy's unrolled
    # pairwise sum
    params = SketchParams(dim=20_000, width=1000, seed=4)
    rng = np.random.default_rng(4)
    me = compute_sketch(params, rng.normal(size=20_000))
    nbrs = {j: compute_sketch(params, rng.normal(scale=10.0 ** (j - 8), size=20_000))
            for j in (3, 9, 1, 16, 12)}
    sq = pair_sq([me.values, *(s.values for s in nbrs.values())], star=True)
    out = sketch_filter(me, nbrs, gamma=1.0, kappa=1.0, t=0, rounds=5, sq=sq)
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
        sketch_filter(compute_sketch(a, w), nbrs, gamma=2.0, kappa=1.0, t=0, rounds=10,
                      sq=np.zeros(3))


def test_aggregate_mixed_known_value():
    me = np.array([1.0, 1.0])
    accepted = {2: np.array([3.0, 1.0]), 0: np.array([1.0, 3.0])}
    out = aggregate_mixed(me, accepted, alpha=0.5, out=np.empty(2))
    np.testing.assert_allclose(out, [1.5, 1.5])


def test_aggregate_mixed_alpha_extremes():
    me = np.array([2.0, 4.0])
    accepted = {1: np.array([6.0, 0.0])}
    np.testing.assert_array_equal(aggregate_mixed(me, accepted, 1.0, np.empty(2)), me)
    np.testing.assert_array_equal(aggregate_mixed(me, accepted, 0.0, np.empty(2)), [6.0, 0.0])
    for alpha in (-0.1, 1.5):
        with pytest.raises(ConfigurationError):
            aggregate_mixed(me, accepted, alpha, np.empty(2))


def test_aggregate_mixed_is_order_stable():
    rng = np.random.default_rng(1)
    me = rng.normal(size=50)
    models = {j: rng.normal(size=50) for j in range(12)}
    a = aggregate_mixed(me, models, 0.5, np.empty(50))
    b = aggregate_mixed(me, dict(reversed(list(models.items()))), 0.5, np.empty(50))
    np.testing.assert_array_equal(a, b)


@given(alpha=st.floats(min_value=0, max_value=1))
@settings(max_examples=25)
def test_aggregate_mixed_stays_in_convex_hull(alpha):
    me = np.array([0.0])
    accepted = {1: np.array([1.0]), 2: np.array([2.0])}
    out = aggregate_mixed(me, accepted, alpha, np.empty(1))
    assert 0.0 - 1e-12 <= out[0] <= 2.0 + 1e-12


def test_dfedavg_uniform_mean():
    me = np.array([0.0, 3.0])
    out = dfedavg_aggregate(me, {1: np.array([3.0, 0.0]), 2: np.array([3.0, 3.0])}, np.empty(2))
    np.testing.assert_allclose(out, [2.0, 2.0])
    np.testing.assert_array_equal(dfedavg_aggregate(me, {}, np.empty(2)), me)


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
    # whatever `out` holds, or whether it is self_model, the bits are those
    # of a call into a freshly allocated array
    me, accepted = _signed_zero_models(np.random.default_rng(5))
    before = _frozen(me, accepted)
    want = aggregate_mixed(me, accepted, alpha, np.empty_like(me))
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


def test_dfedavg_into_out_is_bitwise_the_allocating_call():
    me, neighbours = _signed_zero_models(np.random.default_rng(6))
    before = _frozen(me, neighbours)
    want = dfedavg_aggregate(me, neighbours, np.empty_like(me))
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


def test_krum_picks_cluster_member_not_outlier(pair_sq):
    rng = np.random.default_rng(2)
    cluster = [rng.normal(0, 0.01, 10) for _ in range(5)]
    outliers = [rng.normal(50, 0.01, 10), rng.normal(-50, 0.01, 10)]
    models = cluster + outliers
    idx = krum_select_index(models, f=2, sq=pair_sq(models))
    assert idx < 5


def test_krum_matches_bruteforce_reference(pair_sq):
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
        assert krum_select_index(models, f, pair_sq(models)) == reference(models, f)


@pytest.mark.parametrize("bad", [0, 2, 5])
def test_krum_never_picks_a_nan_score(bad, pair_sq):
    # argmin returns the first NaN; a NaN score ranks after every number,
    # so an all-NaN model is passed over just as a far finite one is
    rng = np.random.default_rng(bad)
    models = [rng.normal(size=10) for _ in range(6)]
    far = [m.copy() for m in models]
    models[bad][:] = np.nan
    far[bad][:] = 1e6
    for f in range(4):
        got = krum_select_index(models, f, pair_sq(models))
        assert got != bad
        assert got == krum_select_index(far, f, pair_sq(far))
    nan = [np.full(10, np.nan)] * 5
    assert krum_select_index(nan, 1, pair_sq(nan)) == 0  # all NaN: first index


def test_krum_pairwise_stage_matches_broadcast_bitwise():
    # d above OpenBLAS's 10,000-element threading cut-off
    stack = np.random.default_rng(11).normal(size=(17, 12_000))
    reference = ((stack[:, None] - stack[None]) ** 2).sum(axis=2)
    pairs = PairTable({0: range(len(stack))})
    assert pairs.submatrix(pairs.compute(list(stack)), 0).tobytes() == reference.tobytes()


def test_full_and_sketch_distances_match_sum_of_squares_bitwise(pair_sq):
    rng = np.random.default_rng(12)
    me = rng.normal(size=20_000)
    nbrs = {j: me + rng.normal(scale=j, size=20_000) for j in (1, 2, 3)}
    out = balance_filter(me, nbrs, 2.0, 1.0, 0, 5, pair_sq([me, *nbrs.values()], star=True))
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
            assert krum_select_index(models, f, sub) == krum_select_index(models, f, stacked)


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
                assert krum_select_index(models, f, sub) == krum_select_index(models, f, stacked)
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
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert PairTable(pools, parts=2).compute(vectors, pool.map).tobytes() == flat.tobytes()
    for key, ids in pools.items():
        want = _broadcast_sq(np.stack([vectors[v] for v in ids]))
        assert table.submatrix(flat, key).tobytes() == want.tobytes()


def test_krum_needs_enough_models(pair_sq):
    models = [np.zeros(3)] * 4
    with pytest.raises(ConfigurationError):
        krum_select_index(models, f=2, sq=pair_sq(models))  # needs f+3 = 5
    with pytest.raises(ConfigurationError):
        krum_select_index(models, f=-1, sq=pair_sq(models))


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
