"""Seeded count-sketch compression with bit-exact shared hash tables.

Every node derives the same (bucket, sign) table from (dim, width, seed)
alone, so sketches are comparable across processes and platforms without
ever shipping the tables. The per-coordinate hash is the SplitMix64
finalizer applied to seed XOR coordinate-index; the bucket is the mix
modulo the sketch width, and the sign comes from the top bit of a second
mix application.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ProtocolError

_MASK64 = (1 << 64) - 1
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer: an avalanching 64-bit mix in pure integer ops."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MULT1) & _MASK64
    x ^= x >> 27
    x = (x * _MULT2) & _MASK64
    x ^= x >> 31
    return x


def combine64(*values: int) -> int:
    """Fold integers into one 64-bit key by chained mixing (order-sensitive)."""
    acc = 0
    for v in values:
        acc = mix64(acc ^ (v & _MASK64))
    return acc


def _mix64_array(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64, matching the scalar mix64 exactly
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MULT1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MULT2)
    x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class SketchParams:
    """Hash-family descriptor: model dimension, sketch width, shared seed."""

    dim: int
    width: int
    seed: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError(f"sketch dim must be >= 1, got {self.dim}")
        if not 1 <= self.width <= self.dim:
            raise ConfigurationError(
                f"sketch width must be in [1, dim={self.dim}], got {self.width}"
            )
        if not 0 <= self.seed <= _MASK64:
            raise ConfigurationError("sketch seed must fit in 64 bits")

    @property
    def fingerprint(self) -> int:
        """64-bit digest of (dim, width, seed); equal iff sketches are comparable."""
        return combine64(0x5EED, self.dim, self.width, self.seed)


def derive_hash(params: SketchParams, index: int) -> tuple[int, int]:
    """Scalar (bucket, sign) for one coordinate. Reference definition;
    the vectorized tables must agree with this bit for bit."""
    if not 0 <= index < params.dim:
        raise ConfigurationError(f"coordinate index {index} outside [0, {params.dim})")
    m = mix64(params.seed ^ index)
    bucket = m % params.width
    sign = 1 if mix64(m) >> 63 == 0 else -1
    return bucket, sign


@lru_cache(maxsize=8)
def hash_tables(params: SketchParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (buckets, signs) arrays of length dim for a hash family.

    Cached: the engine reuses one family for every sketch of a run. Both
    arrays are read-only. `buckets` is a view whose writeable base is kept
    for compute_sketch's fold alone: np.bincount copies a read-only index
    array on every call, and the base lives and dies with this cache entry.
    """
    idx = np.arange(params.dim, dtype=np.uint64)
    m = _mix64_array(np.uint64(params.seed & _MASK64) ^ idx)
    fold_buckets = (m % np.uint64(params.width)).astype(np.int64)
    signs = np.where(_mix64_array(m) >> np.uint64(63) == 0, 1.0, -1.0)
    buckets = fold_buckets.view()
    buckets.setflags(write=False)
    signs.setflags(write=False)
    return buckets, signs


def fold_with_tables(
    vector: np.ndarray, buckets: np.ndarray, signs: np.ndarray, width: int
) -> np.ndarray:
    """Accumulate signed coordinates into buckets (ascending index order,
    so the float sum is reproducible)."""
    return np.bincount(buckets, weights=signs * vector, minlength=width)


def _distance(a: np.ndarray, b: np.ndarray | None = None, out: np.ndarray | None = None) -> float:
    """Euclidean ||a - b|| (||a|| when b is None), exactly
    `np.sqrt(np.sum((a - b) ** 2))`.

    No BLAS: above about 10,000 elements OpenBLAS's dot product splits the
    sum across its own threads, so `np.linalg.norm` rounds differently at
    different BLAS thread counts, and those threads oversubscribe the
    engine's pool. numpy's pairwise sum depends on the data alone. `out`,
    shaped like `a`, receives the squared terms, so a caller measuring many
    vectors against one reuses a single buffer.
    """
    if b is None:
        sq = np.multiply(a, a, out=out)
    else:
        sq = np.subtract(a, b, out=out)
        np.multiply(sq, sq, out=sq)
    return math.sqrt(np.add.reduce(sq))


@dataclass(frozen=True)
class Sketch:
    """Compressed model: bucket values plus the hash-family fingerprint."""

    values: np.ndarray
    fingerprint: int

    def norm(self) -> float:
        return _distance(self.values)


def compute_sketch(params: SketchParams, vector: np.ndarray) -> Sketch:
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (params.dim,):
        raise ConfigurationError(
            f"vector has shape {vector.shape}, hash family expects ({params.dim},)"
        )
    buckets, signs = hash_tables(params)
    values = fold_with_tables(vector, buckets.base, signs, params.width)
    values.setflags(write=False)
    return Sketch(values=values, fingerprint=params.fingerprint)


def sketch_distance(a: Sketch, b: Sketch) -> float:
    """Euclidean distance between two sketches from the same hash family."""
    if a.fingerprint != b.fingerprint:
        raise ProtocolError(
            "sketch fingerprints differ; sketches come from different hash families"
        )
    return _distance(a.values, b.values)


def sketch_distances(a: Sketch, others: Sequence[Sketch]) -> list[float]:
    """sketch_distance(a, b) for each b in others, bit for bit, in one pass
    over their stacked (len(others), width) values: each row is the same
    pairwise sum of the same squares ((b - a)² is exactly (a - b)²)."""
    if any(b.fingerprint != a.fingerprint for b in others):
        raise ProtocolError(
            "sketch fingerprints differ; sketches come from different hash families"
        )
    if not others:
        return []
    sq = np.stack([b.values for b in others])
    np.subtract(sq, a.values, out=sq)
    np.multiply(sq, sq, out=sq)
    return [math.sqrt(x) for x in np.add.reduce(sq, axis=1).tolist()]


def verify_model_against_sketch(
    params: SketchParams,
    vector: np.ndarray,
    claimed: Sketch,
    rel_tol: float = 1e-5,
) -> bool:
    """Recompute the sketch of a received model and compare to the claimed one.

    True iff ||CS(vector) - claimed|| <= rel_tol * max(1, ||claimed||).
    """
    if rel_tol < 0:
        raise ConfigurationError(f"rel_tol must be >= 0, got {rel_tol}")
    if claimed.fingerprint != params.fingerprint:
        raise ProtocolError(
            "claimed sketch fingerprint does not match the local hash family"
        )
    recomputed = compute_sketch(params, vector)
    gap = _distance(recomputed.values, claimed.values)
    return gap <= rel_tol * max(1.0, claimed.norm())


# Distortion coefficient for the width -> relative-error model
# epsilon_hat(width) = COEFF / sqrt(width), frozen. tests/test_acceptance.py
# (test_criterion_02_distortion_model_covers_in_run_distances) checks it
# against the vectors runs actually screen: the 99.9th percentile of
# |squared-norm ratio - 1| over every reference model and self-minus-neighbour
# difference stays under epsilon_hat at k = 64 and 256 on the desk grid and
# at k = 1000 on a wide (d = 100k) model.
DISTORTION_COEFF = 6.0


def epsilon_hat(width: int) -> float:
    """Estimated relative distortion of squared distances at a sketch width.

    Clamped below 1 so (1 - eps) stays positive in threshold inflation.
    """
    if width < 1:
        raise ConfigurationError(f"sketch width must be >= 1, got {width}")
    return min(DISTORTION_COEFF / float(width) ** 0.5, 0.99)


def default_sketch_width(dim: int) -> int:
    """Width used when the config leaves sketch_size at 0: dim/8 clamped
    to [16, 1000], never above dim."""
    if dim < 1:
        raise ConfigurationError(f"dim must be >= 1, got {dim}")
    return max(1, min(max(dim // 8, 16), 1000, dim))
