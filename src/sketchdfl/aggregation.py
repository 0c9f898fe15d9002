"""Neighbor screening rules and robust aggregation.

Four aggregators share one calling convention: a time-decaying
distance filter run on full models (balance) or on sketches
(sketchfilter), coordinate-free averaging (dfedavg), and nearest-cluster
selection (krum).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
# sketch_distance is not called here, but perfbench/tracing.py patches
# aggregation.sketch_distance, so the name stays
from .sketch import Sketch, _distance, sketch_distance, sketch_distances  # noqa: F401

AGGREGATOR_KINDS = ("dfedavg", "krum", "balance", "sketchfilter")
SKETCH_KINDS = ("sketchfilter",)


@dataclass(frozen=True)
class AggregatorSpec:
    kind: str = "sketchfilter"
    gamma: float = 2.0            # screening threshold scale
    kappa: float = 1.0            # threshold decay rate
    alpha: float = 0.5            # self weight in mixing
    krum_f: int | None = None     # assumed compromised count; None derives from byz fraction
    sketch_size: int = 0          # 0 resolves to default_sketch_width(dim)
    sketch_seed: int | None = None  # None resolves to the run's sketch seed
    rel_tol: float = 1e-5         # sketch verification tolerance

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATOR_KINDS:
            raise ConfigurationError(
                f"unknown aggregator {self.kind!r}, expected one of {AGGREGATOR_KINDS}"
            )
        if self.gamma <= 0:
            raise ConfigurationError(f"gamma must be > 0, got {self.gamma}")
        if self.kappa < 0:
            raise ConfigurationError(f"kappa must be >= 0, got {self.kappa}")
        if not 0 <= self.alpha <= 1:
            raise ConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.krum_f is not None and self.krum_f < 0:
            raise ConfigurationError(f"krum_f must be >= 0, got {self.krum_f}")
        if self.sketch_size < 0:
            raise ConfigurationError(f"sketch_size must be >= 0, got {self.sketch_size}")
        if self.rel_tol < 0:
            raise ConfigurationError(f"rel_tol must be >= 0, got {self.rel_tol}")


@dataclass
class FilterOutcome:
    """Screening result for one node: who passed, and the evidence."""

    accepted: list[int]
    fallback_used: bool
    threshold: float
    distances: dict[int, float]


def adaptive_threshold(gamma: float, kappa: float, t: int, rounds: int, ref_norm: float) -> float:
    """gamma * exp(-kappa * t / rounds) * ref_norm, shrinking as training
    settles so late-round screening is strict."""
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    if t < 0:
        raise ConfigurationError(f"round index must be >= 0, got {t}")
    return gamma * math.exp(-kappa * t / rounds) * ref_norm


def gamma_eff(gamma: float, eps: float) -> float:
    """Threshold scale after accounting for sketch distance distortion."""
    if not 0 <= eps < 1:
        raise ConfigurationError(f"distortion must be in [0, 1), got {eps}")
    return gamma * math.sqrt((1 + eps) / (1 - eps))


def _filter_by_distance(distances: dict[int, float], threshold: float) -> FilterOutcome:
    accepted = sorted(j for j, d in distances.items() if d <= threshold)
    if accepted or not distances:
        return FilterOutcome(accepted, False, threshold, distances)
    # nothing under threshold: fall back to the single closest neighbor
    best = min(sorted(distances), key=distances.__getitem__)
    return FilterOutcome([best], True, threshold, distances)


def balance_filter(
    self_model: np.ndarray,
    neighbor_models: Mapping[int, np.ndarray],
    gamma: float,
    kappa: float,
    t: int,
    rounds: int,
) -> FilterOutcome:
    """Full-precision distance screening against the node's own model."""
    buf = np.empty_like(self_model)
    threshold = adaptive_threshold(gamma, kappa, t, rounds, _distance(self_model, out=buf))
    distances = {j: _distance(self_model, w, out=buf) for j, w in neighbor_models.items()}
    return _filter_by_distance(distances, threshold)


def sketch_filter(
    self_sketch: Sketch,
    neighbor_sketches: Mapping[int, Sketch],
    gamma: float,
    kappa: float,
    t: int,
    rounds: int,
) -> FilterOutcome:
    """Same screening rule computed entirely in sketch space."""
    threshold = adaptive_threshold(gamma, kappa, t, rounds, self_sketch.norm())
    # one receiver's neighbours at a time: a whole round's (edges, k) gather
    # would add an edge-count-sized array to the peak
    distances = dict(zip(
        neighbor_sketches,
        sketch_distances(self_sketch, list(neighbor_sketches.values())),
    ))
    return _filter_by_distance(distances, threshold)


def aggregate_mixed(
    self_model: np.ndarray,
    accepted_models: Mapping[int, np.ndarray],
    alpha: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """alpha * self + (1 - alpha) * mean(accepted), summing in ascending
    node-id order so results are bit-reproducible. Written into `out` when
    given (which is returned), else into a new array; both give the same
    bits."""
    if not 0 <= alpha <= 1:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
    if out is None:
        out = np.empty_like(self_model)
    if not accepted_models:
        if alpha != 1.0:
            raise ConfigurationError("empty accepted set needs alpha = 1")
        np.copyto(out, self_model)
        return out
    # the sum starts from +0.0, not from a copy of the first model, whose
    # -0.0 would survive where 0.0 + -0.0 gives +0.0
    acc = np.zeros_like(self_model)
    for j in sorted(accepted_models):
        acc += accepted_models[j]
    acc *= (1 - alpha) / len(accepted_models)
    out = np.multiply(self_model, alpha, out=out)
    out += acc
    return out


def dfedavg_aggregate(
    self_model: np.ndarray,
    neighbor_models: Mapping[int, np.ndarray],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform mean over self and every neighbor, no screening. Written
    into `out` when given (which is returned, and must not be a neighbor's
    model), else into a new array; both give the same bits."""
    if out is None:
        out = np.empty_like(self_model)
    np.copyto(out, self_model)
    for j in sorted(neighbor_models):
        out += neighbor_models[j]
    out /= 1 + len(neighbor_models)
    return out


def _pairwise_sq_distances(stack: np.ndarray) -> np.ndarray:
    """(n, n) squared distances between the rows of `stack`, bit-identical to
    `((stack[:, None] - stack[None]) ** 2).sum(axis=2)`.

    Only the upper triangle is computed, then mirrored: b - a is exactly
    -(a - b), and each row sum is the same pairwise sum as in the broadcast,
    so the bits match with half the subtractions and an (n - 1, d) buffer
    instead of an (n, n, d) temporary. Not a Gram-matrix expansion, which
    rounds differently, and no BLAS, whose bits depend on its thread count.
    """
    n = len(stack)
    sq = np.zeros((n, n))
    buf = np.empty((n - 1, stack.shape[1]))
    for i in range(n - 1):
        diff = np.subtract(stack[i + 1:], stack[i], out=buf[: n - 1 - i])
        np.multiply(diff, diff, out=diff)
        sq[i, i + 1:] = sq[i + 1:, i] = np.add.reduce(diff, axis=1)
    return sq


class PairTable:
    """Squared distances between every two vectors that meet in a pool,
    each unordered pair computed once however many pools hold it.

    `pools` maps a key to the vector ids of one pool, in pool order; the
    layout is fixed here. `compute(vectors)` returns one flat table for a
    list of vectors indexed by id, and `submatrix(table, key)` reads that
    pool's (m, m) matrix out of it. Memory grows with the number of distinct
    pairs, not with the number of vectors squared, and the distances go
    through a buffer of at most BATCH_BYTES.
    """

    BATCH_BYTES = 1 << 20

    def __init__(self, pools: Mapping[object, Sequence[int]]) -> None:
        slots: dict[tuple[int, int], int] = {}
        self._positions: dict[object, np.ndarray] = {}
        for key, ids in pools.items():
            m = len(ids)
            # the diagonal reads slot -1, the table's trailing 0.0
            pos = np.full((m, m), -1, dtype=np.intp)
            for r in range(m):
                for c in range(r + 1, m):
                    pair = (ids[r], ids[c]) if ids[r] <= ids[c] else (ids[c], ids[r])
                    pos[r, c] = pos[c, r] = slots.setdefault(pair, len(slots))
            self._positions[key] = pos
        # grouped by the lower id: one anchor is subtracted from its partners
        partners: dict[int, list[tuple[int, int]]] = {}
        for (a, b), slot in slots.items():
            partners.setdefault(a, []).append((b, slot))
        self._anchors = [
            (a, [b for b, _ in row], np.array([slot for _, slot in row], dtype=np.intp))
            for a, row in sorted(partners.items())
        ]
        self.n_pairs = len(slots)

    def compute(self, vectors: Sequence[np.ndarray], threads: int = 1) -> np.ndarray:
        """Flat table of the layout's squared distances, plus a trailing
        0.0. Each entry is bitwise the `_pairwise_sq_distances` entry of the
        same two vectors: the same squares ((b - a)² is exactly (a - b)²)
        summed by the same row reduction, without BLAS. With threads > 1
        the anchors are dealt out to that many threads, each with its own
        buffer; no entry depends on which thread computes it."""
        table = np.zeros(self.n_pairs + 1)
        if not self._anchors:
            return table
        d = len(vectors[self._anchors[0][0]])
        rows = min(max(1, self.BATCH_BYTES // (8 * d)),
                   max(len(row) for _, row, _ in self._anchors))

        def fill(anchors: list) -> None:
            buf = np.empty((rows, d))
            for a, row, slots in anchors:
                anchor = vectors[a]
                for lo in range(0, len(row), rows):
                    chunk = row[lo: lo + rows]
                    block = buf[: len(chunk)]
                    for r, b in enumerate(chunk):
                        np.subtract(vectors[b], anchor, out=block[r])
                    np.multiply(block, block, out=block)
                    table[slots[lo: lo + len(chunk)]] = np.add.reduce(block, axis=1)

        if threads <= 1:
            fill(self._anchors)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(fill, [self._anchors[w::threads] for w in range(threads)]))
        return table

    def submatrix(self, table: np.ndarray, key: object) -> np.ndarray:
        """The (m, m) squared-distance matrix of pool `key`."""
        return table[self._positions[key]]


def krum_select_index(
    models: Sequence[np.ndarray], f: int, sq: np.ndarray | None = None
) -> int:
    """Index of the model whose summed squared distance to its n-f-2
    nearest peers is smallest (first index on ties). `sq`, when given, is
    the models' (n, n) squared-distance matrix, as a PairTable submatrix
    gives it; else it is computed here."""
    n = len(models)
    if f < 0:
        raise ConfigurationError(f"f must be >= 0, got {f}")
    if n < f + 3:
        raise ConfigurationError(
            f"krum needs at least f+3 = {f + 3} models, got {n}"
        )
    if sq is None:
        sq = _pairwise_sq_distances(np.stack(models))
    return int(np.argmin(_krum_scores(sq, n - f - 2)))


def _krum_scores(sq: np.ndarray, keep: int) -> np.ndarray:
    """Each row's sum of its `keep` smallest off-diagonal entries, all rows
    at once; each sum adds the same sorted elements in the same pairwise
    order as a sort and sum of that row alone."""
    n = len(sq)
    # drop the diagonal: after the first entry, every (n + 1)-th is diagonal
    others = sq.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)
    return np.add.reduce(np.sort(others, axis=1)[:, :keep], axis=1)
