"""Neighbor screening and robust aggregation: the kernels engine.RULES
combines, one row per aggregator kind (a new rule is one more row there),
from a pair layout (a star PairTable or a pool of all pairs), a screening
space (full models, or sketch values behind sketch_filter's hash-family
check), a selection (balance_filter's decaying threshold, krum_select_index
or all) and a mixing (aggregate_mixed, a copy, or dfedavg_aggregate).

Every kernel has one calling convention, the engine's: screening reads
the squared distances of the round's PairTable (`sq`), and mixing writes
into a row the engine owns (`out`)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, ProtocolError
# sketch_distance is not called here, but perfbench/tracing.py patches
# aggregation.sketch_distance, so the name stays
from .sketch import Sketch, _batch_buffer, _distance, _sq_distances, sketch_distance  # noqa: F401

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


def balance_filter(
    self_model: np.ndarray,
    neighbor_models: Mapping[int, object],
    gamma: float,
    kappa: float,
    t: int,
    rounds: int,
    sq: np.ndarray,
) -> FilterOutcome:
    """The screening rule, on full models or sketch values alike: accept
    every neighbour within the adaptive threshold of the node's own
    vector; if none is, fall back to the single closest at a finite
    distance (lowest id on ties), and with no finite distance accept
    nobody, so the node keeps its own model. `sq` holds the squared
    distances to the neighbours in the order `neighbor_models` lists
    their ids, as a star PairTable's row gives them (one per id, else
    ValueError); only those ids are read, never the mapping's values."""
    threshold = adaptive_threshold(gamma, kappa, t, rounds, _distance(self_model))
    distances = dict(zip(neighbor_models, map(math.sqrt, sq.tolist()), strict=True))
    accepted = sorted(j for j, d in distances.items() if d <= threshold)
    finite = sorted(j for j, d in distances.items() if math.isfinite(d))
    if accepted or not finite:
        return FilterOutcome(accepted, False, threshold, distances)
    return FilterOutcome([min(finite, key=distances.__getitem__)], True, threshold, distances)


def sketch_filter(
    self_sketch: Sketch,
    neighbor_sketches: Mapping[int, Sketch],
    gamma: float,
    kappa: float,
    t: int,
    rounds: int,
    sq: np.ndarray,
) -> FilterOutcome:
    """balance_filter run on sketch values, once every sketch is known to
    come from the node's own hash family; `sq` is the star row of the
    sketches' squared distances."""
    if any(s.fingerprint != self_sketch.fingerprint for s in neighbor_sketches.values()):
        raise ProtocolError(
            "sketch fingerprints differ; sketches come from different hash families"
        )
    return balance_filter(self_sketch.values, neighbor_sketches, gamma, kappa, t, rounds, sq)


def aggregate_mixed(
    self_model: np.ndarray,
    accepted_models: Mapping[int, np.ndarray],
    alpha: float,
    out: np.ndarray,
) -> np.ndarray:
    """alpha * self + (1 - alpha) * mean(accepted) over a nonempty accepted
    set, summing in ascending node-id order so results are
    bit-reproducible, written into `out`, which is returned and may be
    self_model itself."""
    if not 0 <= alpha <= 1:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
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
    out: np.ndarray,
) -> np.ndarray:
    """Uniform mean over self and every neighbor, no screening, written
    into `out`, which is returned, may be self_model itself, and must not
    be a neighbor's model."""
    np.copyto(out, self_model)
    for j in sorted(neighbor_models):
        out += neighbor_models[j]
    out /= 1 + len(neighbor_models)
    return out


class PairTable:
    """Squared distances between every two vectors that meet in a pool,
    each unordered pair computed once however many pools hold it.

    `pools` maps a key to the vector ids of one pool, in pool order; the
    layout is fixed here. A star layout (`star=True`) holds only the pairs
    of each pool's first id with the others. The pairs are dealt here into
    at most `parts` parts, by their lower id; `compute(vectors, pmap)` runs
    the parts through the caller's map and returns one flat table for a
    list of vectors indexed by id. `submatrix(table, key)` reads a pool's
    (m, m) matrix out of it, and `row(table, key)` the distances from its
    first vector to the others. Memory grows with the number of distinct
    pairs, not with the number of vectors squared, and each part's
    distances go through a buffer of at most sketch.BATCH_BYTES.
    """

    def __init__(self, pools: Mapping[object, Sequence[int]], star: bool = False,
                 parts: int = 1) -> None:
        slots: dict[tuple[int, int], int] = {}
        self._positions: dict[object, np.ndarray] = {}
        for key, ids in pools.items():
            m = len(ids)
            # the diagonal, and in a star every pair without the first id,
            # reads slot -1, the table's trailing 0.0
            pos = np.full((m, m), -1, dtype=np.intp)
            for r in range(1 if star else m):
                for c in range(r + 1, m):
                    pair = (ids[r], ids[c]) if ids[r] <= ids[c] else (ids[c], ids[r])
                    pos[r, c] = pos[c, r] = slots.setdefault(pair, len(slots))
            self._positions[key] = pos
        # grouped by the lower id: one anchor is subtracted from its partners
        partners: dict[int, list[tuple[int, int]]] = {}
        for (a, b), slot in slots.items():
            partners.setdefault(a, []).append((b, slot))
        anchors = [
            (a, [b for b, _ in row], np.array([slot for _, slot in row], dtype=np.intp))
            for a, row in sorted(partners.items())
        ]
        self._parts = [anchors[w::parts] for w in range(min(parts, len(anchors)))]
        self._widest = max((len(row) for _, row, _ in anchors), default=0)
        self.n_pairs = len(slots)

    def compute(self, vectors: Sequence[np.ndarray], pmap: Callable = map) -> np.ndarray:
        """Flat table of the layout's squared distances, plus a trailing
        0.0, each entry computed by _sq_distances from the lower id's
        vector; no entry depends on which part, or thread, computes it."""
        table = np.zeros(self.n_pairs + 1)

        def fill(anchors: list) -> None:
            buf = _batch_buffer(self._widest, len(vectors[0]))
            for a, row, slots in anchors:
                table[slots] = _sq_distances(vectors[a], [vectors[b] for b in row], buf)

        list(pmap(fill, self._parts))
        return table

    def submatrix(self, table: np.ndarray, key: object) -> np.ndarray:
        """The (m, m) squared-distance matrix of pool `key`."""
        return table[self._positions[key]]

    def row(self, table: np.ndarray, key: object) -> np.ndarray:
        """Squared distances from pool `key`'s first vector to the others."""
        return table[self._positions[key][0, 1:]]


def krum_select_index(models: Sequence[np.ndarray], f: int, sq: np.ndarray) -> int:
    """Index of the model whose summed squared distance to its n-f-2
    nearest peers is smallest (first index on ties, a NaN score after
    every number: a stable sort puts NaN last). `sq` is the models' (n, n)
    squared-distance matrix, as a PairTable submatrix gives it; of
    `models` only their count is read."""
    n = len(models)
    if f < 0:
        raise ConfigurationError(f"f must be >= 0, got {f}")
    if n < f + 3:
        raise ConfigurationError(
            f"krum needs at least f+3 = {f + 3} models, got {n}"
        )
    return int(np.argsort(_krum_scores(sq, n - f - 2), kind="stable")[0])


def _krum_scores(sq: np.ndarray, keep: int) -> np.ndarray:
    """Each row's sum of its `keep` smallest off-diagonal entries, all rows
    at once; each sum adds the same sorted elements in the same pairwise
    order as a sort and sum of that row alone."""
    n = len(sq)
    # drop the diagonal: after the first entry, every (n + 1)-th is diagonal
    others = sq.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)
    return np.add.reduce(np.sort(others, axis=1)[:, :keep], axis=1)
