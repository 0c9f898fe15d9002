"""Communication graph construction and Byzantine placement.

All generators draw from PCG64 streams keyed on the topology seed, so a
(kind, n, seed) triple always yields the same graph. Random kinds retry
with fresh sub-seeds until connected and fail with GraphGenerationError
once the retry budget is spent.

The k-regular budget is MAX_ATTEMPTS draws. The Erdos-Renyi budget is
counted in random numbers instead: max(MAX_ATTEMPTS, ceil(10**6 / n**2))
draws of G(n, p), each costing n**2 uniforms. Below the connectivity
threshold p = ln(n) / n a single draw is rarely connected (about 0.5% at
n=7, p=0.1), so small graphs get many cheap draws while large infeasible
ones still fail after MAX_ATTEMPTS. For n <= 40 and p >= 0.1 the budget
runs out with probability below 1e-25, so GraphGenerationError (CLI exit
3) is left to configurations that cannot be connected in practice.

Every generator builds one symmetric (n, n) boolean adjacency matrix,
which `_graph` turns into a Graph, and one frontier search `_connected`
answers every connectivity question, on a whole matrix or on the
submatrix of the honest nodes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GraphGenerationError
from .sketch import combine64

MAX_ATTEMPTS = 100
_ER_DRAW_BUDGET = 10**6  # uniforms an Erdos-Renyi search may consume

KINDS = ("ring", "erdos-renyi", "k-regular", "full")


@dataclass(frozen=True)
class TopologySpec:
    kind: str = "erdos-renyi"
    p: float = 0.45        # erdos-renyi edge probability
    degree: int = 2        # k-regular degree

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r}, expected one of {KINDS}"
            )
        if self.kind == "erdos-renyi" and not 0 < self.p <= 1:
            raise ConfigurationError(f"edge probability must be in (0, 1], got {self.p}")
        if self.kind == "k-regular" and self.degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {self.degree}")


@dataclass(frozen=True)
class Graph:
    """Undirected graph as sorted per-node neighbor tuples (no self-loops)."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in self.neighbors[i] if i < j]

    def edge_list_text(self) -> str:
        """One `i j` line per edge with i < j, ascending; newline-terminated."""
        lines = [f"{i} {j}" for i, j in self.edges()]
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        return hashlib.sha256(self.edge_list_text().encode()).hexdigest()


def _graph(adj: np.ndarray) -> Graph:
    """Graph of a symmetric boolean adjacency matrix with a false diagonal."""
    return Graph(
        n=len(adj), neighbors=tuple(tuple(np.flatnonzero(row).tolist()) for row in adj)
    )


def _connected(adj: np.ndarray) -> bool:
    """Frontier BFS from node 0; zero or one node counts as connected."""
    seen = np.arange(len(adj)) == 0
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _adjacency(graph: Graph) -> np.ndarray:
    """The inverse of `_graph`."""
    adj = np.zeros((graph.n, graph.n), dtype=bool)
    for i, nbrs in enumerate(graph.neighbors):
        adj[i, list(nbrs)] = True
    return adj


def is_connected(graph: Graph) -> bool:
    return _connected(_adjacency(graph))


def honest_subgraph_connected(graph: Graph, byzantine: set[int] | list[int]) -> bool:
    """Connectivity of the graph induced on non-Byzantine nodes.

    Zero or one honest node counts as connected.
    """
    byzantine = set(byzantine)
    honest = [i for i in range(graph.n) if i not in byzantine]
    return _connected(_adjacency(graph)[np.ix_(honest, honest)])


def _ring(n: int) -> np.ndarray:
    succ = np.roll(np.eye(n, dtype=bool), 1, axis=1)  # i -> i + 1 mod n
    return succ | succ.T


def _full(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def erdos_renyi_attempts(n: int) -> int:
    """Connectivity draws `_erdos_renyi` makes on n nodes before giving up."""
    return max(MAX_ATTEMPTS, -(-_ER_DRAW_BUDGET // (n * n)))


def _erdos_renyi(n: int, p: float, seed: int) -> np.ndarray:
    attempts = erdos_renyi_attempts(n)
    for attempt in range(attempts):
        rng = np.random.Generator(np.random.PCG64(combine64(seed, attempt)))
        upper = np.triu(rng.random((n, n)) < p, k=1)
        adj = upper | upper.T
        if _connected(adj):
            return adj
    raise GraphGenerationError(
        f"no connected Erdos-Renyi graph (n={n}, p={p}) in {attempts} attempts"
    )


def _stubs_can_be_wired(adj: np.ndarray, pending: dict[int, int]) -> bool:
    """True when some pair of nodes with unpaired stubs is not yet joined."""
    nodes = list(pending)
    return not (adj[np.ix_(nodes, nodes)] | np.eye(len(nodes), dtype=bool)).all()


def _pair_stubs(n: int, degree: int, rng: np.random.Generator) -> np.ndarray | None:
    """Pairing-model draw with local repair: pair shuffled stubs, re-queue
    the ones that would form self-loops or duplicates, and give up (None)
    only when the leftovers cannot be wired at all."""
    adj = np.zeros((n, n), dtype=bool)
    stubs = np.repeat(np.arange(n), degree)
    while len(stubs):
        pending: dict[int, int] = {}
        rng.shuffle(stubs)
        for a, b in stubs.reshape(-1, 2):
            i, j = int(a), int(b)
            if i != j and not adj[i, j]:
                adj[i, j] = adj[j, i] = True
            else:
                pending[i] = pending.get(i, 0) + 1
                pending[j] = pending.get(j, 0) + 1
        if not pending:
            return adj
        if not _stubs_can_be_wired(adj, pending):
            return None
        stubs = np.array(
            [node for node, count in sorted(pending.items()) for _ in range(count)]
        )
    return adj


def _k_regular(n: int, degree: int, seed: int) -> np.ndarray:
    if degree >= n:
        raise ConfigurationError(f"degree {degree} must be below n={n}")
    if (n * degree) % 2 != 0:
        raise ConfigurationError(f"n*degree must be even, got n={n}, degree={degree}")
    if degree == n - 1:
        return _full(n)
    # Dense half: stub repair livelocks when leftovers are already joined,
    # so pair the sparse complement instead. Min degree > (n-1)/2 makes the
    # complemented result connected by pigeonhole, no retry filter needed.
    pair_degree = degree if 2 * degree <= n - 1 else n - 1 - degree
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.Generator(np.random.PCG64(combine64(seed, attempt)))
        adj = _pair_stubs(n, pair_degree, rng)
        if adj is None:
            continue
        if pair_degree != degree:
            adj = ~adj & _full(n)
        if _connected(adj):
            return adj
    raise GraphGenerationError(
        f"no connected {degree}-regular graph on {n} nodes in {MAX_ATTEMPTS} attempts"
    )


def build_topology(spec: TopologySpec, n: int, seed: int = 0) -> Graph:
    if n < 2:
        raise ConfigurationError(f"need at least 2 nodes, got {n}")
    if spec.kind == "ring":
        return _graph(_ring(n))
    if spec.kind == "full":
        return _graph(_full(n))
    if spec.kind == "erdos-renyi":
        return _graph(_erdos_renyi(n, spec.p, seed))
    return _graph(_k_regular(n, spec.degree, seed))


def sample_byzantine_nodes(n: int, fraction: float, seed: int) -> list[int]:
    """Sorted ids of round(n * fraction) compromised nodes, at most n - 1
    so at least one honest node always remains."""
    if not 0 <= fraction <= 1:
        raise ConfigurationError(f"byzantine fraction must be in [0, 1], got {fraction}")
    count = min(int(np.floor(n * fraction + 0.5)), n - 1)
    if count <= 0:
        return []
    rng = np.random.Generator(np.random.PCG64(combine64(seed, n)))
    return sorted(int(i) for i in rng.choice(n, size=count, replace=False))
