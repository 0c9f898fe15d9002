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
"""
from __future__ import annotations

import hashlib
from collections import deque
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


def _from_edge_set(n: int, edges: set[tuple[int, int]]) -> Graph:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        if i == j:
            continue
        adj[i].add(j)
        adj[j].add(i)
    return Graph(n=n, neighbors=tuple(tuple(sorted(s)) for s in adj))


def _connected(adj: list[set[int]] | tuple[tuple[int, ...], ...], nodes: list[int]) -> bool:
    if len(nodes) <= 1:
        return True
    allowed = set(nodes)
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in allowed and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(nodes)


def is_connected(graph: Graph) -> bool:
    return _connected(graph.neighbors, list(range(graph.n)))


def honest_subgraph_connected(graph: Graph, byzantine: set[int] | list[int]) -> bool:
    """Connectivity of the graph induced on non-Byzantine nodes.

    Zero or one honest node counts as connected.
    """
    byzantine = set(byzantine)
    honest = [i for i in range(graph.n) if i not in byzantine]
    return _connected(graph.neighbors, honest)


def _ring(n: int) -> Graph:
    edges = {(i, (i + 1) % n) for i in range(n)}
    return _from_edge_set(n, {(min(a, b), max(a, b)) for a, b in edges})


def _full(n: int) -> Graph:
    return _from_edge_set(n, {(i, j) for i in range(n) for j in range(i + 1, n)})


def erdos_renyi_attempts(n: int) -> int:
    """Connectivity draws `_erdos_renyi` makes on n nodes before giving up."""
    return max(MAX_ATTEMPTS, -(-_ER_DRAW_BUDGET // (n * n)))


def _adjacency_connected(adj: np.ndarray) -> bool:
    """Frontier BFS from node 0 over a symmetric boolean adjacency matrix."""
    seen = np.zeros(len(adj), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _erdos_renyi(n: int, p: float, seed: int) -> Graph:
    attempts = erdos_renyi_attempts(n)
    for attempt in range(attempts):
        rng = np.random.Generator(np.random.PCG64(combine64(seed, attempt)))
        upper = np.triu(rng.random((n, n)) < p, k=1)
        adj = upper | upper.T
        if _adjacency_connected(adj):
            return Graph(
                n=n, neighbors=tuple(tuple(np.flatnonzero(row).tolist()) for row in adj)
            )
    raise GraphGenerationError(
        f"no connected Erdos-Renyi graph (n={n}, p={p}) in {attempts} attempts"
    )


def _stubs_can_be_wired(edges: set[tuple[int, int]], pending: dict[int, int]) -> bool:
    """True when some pair of nodes with unpaired stubs is not yet joined."""
    nodes = sorted(pending)
    for a_pos, a in enumerate(nodes):
        for b in nodes[a_pos + 1 :]:
            if (a, b) not in edges:
                return True
    return not nodes


def _pair_stubs(n: int, degree: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """Pairing-model draw with local repair: pair shuffled stubs, re-queue
    the ones that would form self-loops or duplicates, and give up (None)
    only when the leftovers cannot be wired at all."""
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(n), degree)
    while len(stubs):
        pending: dict[int, int] = {}
        rng.shuffle(stubs)
        for a, b in stubs.reshape(-1, 2):
            i, j = int(min(a, b)), int(max(a, b))
            if i != j and (i, j) not in edges:
                edges.add((i, j))
            else:
                pending[i] = pending.get(i, 0) + 1
                pending[j] = pending.get(j, 0) + 1
        if not pending:
            return edges
        if not _stubs_can_be_wired(edges, pending):
            return None
        stubs = np.array(
            [node for node, count in sorted(pending.items()) for _ in range(count)]
        )
    return edges


def _k_regular(n: int, degree: int, seed: int) -> Graph:
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
        edges = _pair_stubs(n, pair_degree, rng)
        if edges is None:
            continue
        if pair_degree != degree:
            edges = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if (i, j) not in edges
            }
        graph = _from_edge_set(n, edges)
        if is_connected(graph):
            return graph
    raise GraphGenerationError(
        f"no connected {degree}-regular graph on {n} nodes in {MAX_ATTEMPTS} attempts"
    )


def build_topology(spec: TopologySpec, n: int, seed: int = 0) -> Graph:
    if n < 2:
        raise ConfigurationError(f"need at least 2 nodes, got {n}")
    if spec.kind == "ring":
        return _ring(n)
    if spec.kind == "full":
        return _full(n)
    if spec.kind == "erdos-renyi":
        return _erdos_renyi(n, spec.p, seed)
    return _k_regular(n, spec.degree, seed)


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
