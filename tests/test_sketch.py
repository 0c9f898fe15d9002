"""Hash derivation, sketch computation, and verification.

Golden values below were produced by a standalone scalar reference
implementation of the 64-bit finalizer (pure-int arithmetic, written
independently of the package) and frozen here.
"""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchdfl.errors import ConfigurationError, ProtocolError
from sketchdfl.sketch import (
    DISTORTION_COEFF,
    Sketch,
    SketchParams,
    compute_sketch,
    default_sketch_width,
    derive_hash,
    epsilon_hat,
    fold_with_tables,
    hash_tables,
    mix64,
    sketch_distance,
    verify_model_against_sketch,
)

# reference evaluator outputs: mix64 of a few probe inputs
GOLDEN_MIX = {
    0: 0,
    1: 6238072747940578789,
    42: 12058926934050108962,
    2**64 - 1: 13029008266876403067,
}

# reference evaluator outputs: (bucket, sign) for width=4, seed=42, i=0..7
GOLDEN_PAIRS = [
    (2, -1), (2, 1), (1, -1), (1, 1),
    (3, 1), (0, 1), (3, 1), (3, 1),
]


def test_mix64_golden():
    for x, want in GOLDEN_MIX.items():
        assert mix64(x) == want


def test_hash_golden_pairs():
    params = SketchParams(dim=8, width=4, seed=42)
    assert [derive_hash(params, i) for i in range(8)] == GOLDEN_PAIRS


def test_tables_match_golden_pairs():
    params = SketchParams(dim=8, width=4, seed=42)
    buckets, signs = hash_tables(params)
    assert buckets.tolist() == [b for b, _ in GOLDEN_PAIRS]
    assert signs.tolist() == [float(s) for _, s in GOLDEN_PAIRS]


@given(
    dim=st.integers(min_value=1, max_value=3000),
    width_frac=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=30)
def test_tables_agree_with_scalar_rule(dim, width_frac, seed):
    width = max(1, int(dim * width_frac))
    params = SketchParams(dim=dim, width=width, seed=seed)
    buckets, signs = hash_tables(params)
    for i in {0, dim - 1, dim // 2, min(17, dim - 1)}:
        b, s = derive_hash(params, i)
        assert buckets[i] == b
        assert signs[i] == s


def test_tables_are_read_only_and_fold_from_the_cache_entry():
    params = SketchParams(dim=2_000, width=64, seed=3)
    buckets, signs = hash_tables(params)
    for table in (buckets, signs):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    # the fold reads the writeable base of the cached view, not a copy
    assert buckets.base.flags.writeable
    assert np.array_equal(buckets.base, buckets)
    w = np.random.default_rng(3).normal(size=2_000)
    want = np.bincount(buckets, weights=signs * w, minlength=64)
    assert compute_sketch(params, w).values.tobytes() == want.tobytes()


def test_compute_sketch_does_not_copy_the_bucket_table():
    # one fold's temporaries: signs * vector and the sketch (0.81 MB); a
    # copy of the 800 KB bucket table would push the peak to 1.61 MB
    params = SketchParams(dim=100_000, width=1000, seed=5)
    w = np.random.default_rng(5).normal(size=100_000)
    hash_tables(params)
    tracemalloc.start()
    try:
        compute_sketch(params, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_cache_clear_frees_the_fold_table():
    params = SketchParams(dim=3_000, width=50, seed=6)
    buckets, signs = hash_tables(params)
    base = weakref.ref(buckets.base)
    del buckets, signs
    hash_tables.cache_clear()
    gc.collect()
    assert base() is None


def test_tables_deterministic_and_seed_sensitive():
    a1 = hash_tables(SketchParams(dim=500, width=32, seed=7))
    a2 = hash_tables(SketchParams(dim=500, width=32, seed=7))
    b = hash_tables(SketchParams(dim=500, width=32, seed=8))
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    assert not np.array_equal(a1[0], b[0]) or not np.array_equal(a1[1], b[1])


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200)
def test_mix64_stays_in_range(x):
    assert 0 <= mix64(x) < 2**64


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    a=st.floats(min_value=-5, max_value=5, allow_nan=False),
    b=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
@settings(max_examples=25)
def test_sketch_linearity(seed, a, b):
    params = SketchParams(dim=400, width=64, seed=seed)
    rng = np.random.default_rng(seed % 2**32)
    u = rng.normal(size=400)
    v = rng.normal(size=400)
    lhs = compute_sketch(params, a * u + b * v).values
    rhs = a * compute_sketch(params, u).values + b * compute_sketch(params, v).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_injective_width_equals_dim_recovers_vector():
    # with hand-built permutation tables (one coordinate per bucket) the
    # sketch is lossless: signed de-permutation returns the exact input
    dim = 32
    rng = np.random.default_rng(3)
    perm = rng.permutation(dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    w = rng.normal(size=dim)
    values = fold_with_tables(w, perm, signs, dim)
    recovered = np.empty(dim)
    recovered[np.arange(dim)] = signs * values[perm]
    np.testing.assert_array_equal(recovered, w)


def test_single_coordinate_estimate_is_unbiased():
    dim, width = 64, 8
    rng = np.random.default_rng(11)
    w = rng.normal(size=dim)
    target = 3
    est = []
    for seed in range(3000):
        params = SketchParams(dim=dim, width=width, seed=seed)
        buckets, signs = hash_tables(params)
        sk = compute_sketch(params, w)
        est.append(signs[target] * sk.values[buckets[target]])
    # estimator variance is ~ ||w||^2 / width per draw
    se = np.linalg.norm(w) / np.sqrt(width * len(est))
    assert abs(np.mean(est) - w[target]) < 5 * se


def test_distance_preservation_at_calibrated_width():
    width = 1024
    eps = epsilon_hat(width)
    rng = np.random.default_rng(5)
    bad = 0
    trials = 300
    for t in range(trials):
        params = SketchParams(dim=8192, width=width, seed=t)
        u = rng.normal(size=8192)
        v = rng.normal(size=8192)
        d_true = float(np.linalg.norm(u - v)) ** 2
        d_sk = sketch_distance(compute_sketch(params, u), compute_sketch(params, v)) ** 2
        if not (1 - eps) * d_true <= d_sk <= (1 + eps) * d_true:
            bad += 1
    assert bad <= trials * 0.01


def test_sketch_distance_requires_same_family():
    w = np.ones(100)
    a = compute_sketch(SketchParams(dim=100, width=10, seed=1), w)
    b = compute_sketch(SketchParams(dim=100, width=10, seed=2), w)
    with pytest.raises(ProtocolError):
        sketch_distance(a, b)


def test_verify_accepts_honest_and_rejects_tampered():
    params = SketchParams(dim=300, width=64, seed=9)
    rng = np.random.default_rng(9)
    w = rng.normal(size=300)
    claimed = compute_sketch(params, w)
    assert verify_model_against_sketch(params, w, claimed, rel_tol=1e-5)
    # the recompute is bit-identical, so an honest pair passes with no
    # tolerance at all, which is why the engine does not re-check honest senders
    assert verify_model_against_sketch(params, w, claimed, rel_tol=0.0)
    tampered = w.copy()
    tampered[:50] += 1.0
    assert not verify_model_against_sketch(params, tampered, claimed, rel_tol=1e-5)


def test_verify_tolerates_sub_tolerance_noise():
    params = SketchParams(dim=300, width=64, seed=10)
    rng = np.random.default_rng(10)
    w = rng.normal(size=300)
    claimed = compute_sketch(params, w)
    wobble = w + rng.normal(size=300) * 1e-12
    assert verify_model_against_sketch(params, wobble, claimed, rel_tol=1e-5)


def test_verify_family_mismatch_raises():
    params = SketchParams(dim=100, width=10, seed=1)
    other = SketchParams(dim=100, width=10, seed=99)
    w = np.ones(100)
    with pytest.raises(ProtocolError):
        verify_model_against_sketch(other, w, compute_sketch(params, w), rel_tol=1e-5)


def test_verify_negative_tolerance_rejected():
    params = SketchParams(dim=10, width=4, seed=0)
    w = np.ones(10)
    with pytest.raises(ConfigurationError):
        verify_model_against_sketch(params, w, compute_sketch(params, w), rel_tol=-1)


def test_param_validation():
    with pytest.raises(ConfigurationError):
        SketchParams(dim=0, width=1, seed=0)
    with pytest.raises(ConfigurationError):
        SketchParams(dim=10, width=0, seed=0)
    with pytest.raises(ConfigurationError):
        SketchParams(dim=10, width=11, seed=0)  # width above dim
    with pytest.raises(ConfigurationError):
        compute_sketch(SketchParams(dim=10, width=4, seed=0), np.ones(9))
    with pytest.raises(ConfigurationError):
        derive_hash(SketchParams(dim=10, width=4, seed=0), 10)


def test_fingerprint_distinguishes_families():
    base = SketchParams(dim=100, width=10, seed=1)
    assert base.fingerprint == SketchParams(dim=100, width=10, seed=1).fingerprint
    for other in (
        SketchParams(dim=101, width=10, seed=1),
        SketchParams(dim=100, width=11, seed=1),
        SketchParams(dim=100, width=10, seed=2),
    ):
        assert other.fingerprint != base.fingerprint


def test_epsilon_hat_model():
    assert epsilon_hat(DISTORTION_COEFF**2 * 4) == pytest.approx(0.5)
    assert epsilon_hat(1) == 0.99  # clamped
    with pytest.raises(ConfigurationError):
        epsilon_hat(0)


def test_default_sketch_width_clamps():
    assert default_sketch_width(8) == 8          # never above dim
    assert default_sketch_width(64) == 16        # floor of 16
    assert default_sketch_width(8000) == 1000    # dim // 8
    assert default_sketch_width(1 << 20) == 1000  # ceiling of 1000
    with pytest.raises(ConfigurationError):
        default_sketch_width(0)
