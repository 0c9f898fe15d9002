"""Graph generation, connectivity, and Byzantine placement."""
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchdfl.errors import ConfigurationError
from sketchdfl.sketch import combine64
from sketchdfl.topology import (
    MAX_ATTEMPTS,
    Graph,
    TopologySpec,
    build_topology,
    erdos_renyi_attempts,
    honest_subgraph_connected,
    is_connected,
    sample_byzantine_nodes,
)


def test_ring_structure():
    g = build_topology(TopologySpec(kind="ring"), 5)
    assert g.neighbors == ((1, 4), (0, 2), (1, 3), (2, 4), (0, 3))
    assert all(g.degree(i) == 2 for i in range(5))


def test_ring_two_nodes_degenerates_to_one_edge():
    g = build_topology(TopologySpec(kind="ring"), 2)
    assert g.neighbors == ((1,), (0,))


def test_full_structure():
    g = build_topology(TopologySpec(kind="full"), 4)
    for i in range(4):
        assert g.neighbors[i] == tuple(j for j in range(4) if j != i)


def test_edge_list_text_and_digest():
    g = build_topology(TopologySpec(kind="ring"), 4)
    text = g.edge_list_text()
    assert text == "0 1\n0 3\n1 2\n2 3\n"
    assert g.digest() == hashlib.sha256(text.encode()).hexdigest()


@given(
    n=st.integers(min_value=2, max_value=40),
    p=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=25)
@example(n=5, p=0.125, seed=1)  # first connected draw is attempt 239
@example(n=7, p=0.1, seed=0)  # least likely connected point of the range
def test_erdos_renyi_connected_and_deterministic(n, p, seed):
    spec = TopologySpec(kind="erdos-renyi", p=p)
    g1 = build_topology(spec, n, seed)
    g2 = build_topology(spec, n, seed)
    assert g1 == g2
    assert is_connected(g1)
    for i in range(n):
        assert i not in g1.neighbors[i]
        for j in g1.neighbors[i]:
            assert i in g1.neighbors[j]


@pytest.mark.digest
@pytest.mark.parametrize(
    "n,p,seed,edges,digest",
    [
        # configs/default.ini's graph
        (20, 0.45, 2, 89, "6ad9ec920b2975444edea21762e09e19a867dce707ca226922b0bc1965793a87"),
        (40, 0.1, 7, 78, "a808cdedd3dfd507a351bd59dcdd463589c54bee6671f229290a82dda217ffd2"),
    ],
)
def test_erdos_renyi_pinned_digests(n, p, seed, edges, digest):
    g = build_topology(TopologySpec(kind="erdos-renyi", p=p), n, seed)
    assert len(g.edges()) == edges
    assert g.digest() == digest


@pytest.mark.digest
@pytest.mark.parametrize(
    "n,degree,seed,edges,digest",
    [
        (64, 16, 2, 512, "8c9fe84f21835c1d05ba6afa5710e9f62ded2a9be524b11e0bfd4d31e2be0559"),
        (16, 4, 2, 32, "0aec308d46f0435ef977445c143fae8dc7989681efde04d901be8f050a5222ec"),
        # above half density: the complement of a paired sparse graph
        (20, 16, 3, 160, "aca69c679b3b77ae428ff1c666ca7acf4fc4a1ca2ba1d14d1cf8a10adf2f73a1"),
        (35, 32, 3, 560, "8346a6441ec48f405542e8b07f393de194a0b4458c1796ac671a25c499b7e8c3"),
    ],
)
def test_k_regular_pinned_digests(n, degree, seed, edges, digest):
    g = build_topology(TopologySpec(kind="k-regular", degree=degree), n, seed)
    assert len(g.edges()) == edges
    assert g.digest() == digest


@pytest.mark.digest
@pytest.mark.parametrize(
    "kind,n,digest",
    [
        ("ring", 64, "f3101995b0c6e2ee3cf1c4ab3ebc8988b68061c4b267447eaca4f40762f279a6"),
        ("full", 6, "10f8fabbdd44b6eb3554b8013d838563d26e22309e4b3e6deef9756fb5eed11a"),
    ],
)
def test_fixed_kind_pinned_digests(kind, n, digest):
    assert build_topology(TopologySpec(kind=kind), n).digest() == digest


def _connected_probability(n_max, p):
    """Exact P(G(n, p) connected) for n = 1..n_max: one minus the chance
    that node 0's component has k < n nodes, summed over k."""
    q = 1 - p
    conn = {1: Fraction(1)}
    for n in range(2, n_max + 1):
        conn[n] = 1 - sum(
            math.comb(n - 1, k - 1) * conn[k] * q ** (k * (n - k)) for k in range(1, n)
        )
    return conn


def test_erdos_renyi_budget_guarantee():
    # connectivity is monotone in p, so p = 0.1 is the worst case of p >= 0.1
    conn = _connected_probability(40, Fraction(1, 10))
    assert float(conn[7]) == pytest.approx(0.0055, abs=1e-4)
    for n in range(2, 41):
        log10_fail = erdos_renyi_attempts(n) * math.log10(1 - float(conn[n]))
        assert log10_fail < -25, n
    assert erdos_renyi_attempts(2000) == MAX_ATTEMPTS  # large infeasible graphs fail fast


def _bfs_connected(adj, nodes):
    """Plain breadth-first search over neighbour sets: is the subgraph
    induced on `nodes` connected? Zero or one node counts as connected."""
    nodes = set(nodes)
    if len(nodes) <= 1:
        return True
    queue = [min(nodes)]
    seen = set(queue)
    for u in queue:  # grows as the search reaches new nodes
        for v in adj[u]:
            if v in nodes and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen == nodes


def _erdos_renyi_reference(n, p, seed):
    """Per-pair loop over the same PCG64 streams as the vectorised draw."""
    for attempt in range(erdos_renyi_attempts(n)):
        rng = np.random.Generator(np.random.PCG64(combine64(seed, attempt)))
        mask = rng.random((n, n)) < p
        adj = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if mask[i, j]:
                    adj[i].add(j)
                    adj[j].add(i)
        if _bfs_connected(adj, range(n)):
            return Graph(n=n, neighbors=tuple(tuple(sorted(a)) for a in adj))
    raise AssertionError("reference exhausted its budget")


@given(
    n=st.integers(min_value=2, max_value=40),
    p=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=25)
def test_erdos_renyi_matches_loop_reference(n, p, seed):
    g = build_topology(TopologySpec(kind="erdos-renyi", p=p), n, seed)
    assert g == _erdos_renyi_reference(n, p, seed)
    assert all(type(j) is int for nbrs in g.neighbors for j in nbrs)


@given(
    n=st.integers(min_value=4, max_value=30),
    degree=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=25)
def test_k_regular_degrees_exact(n, degree, seed):
    if degree >= n or (n * degree) % 2 != 0:
        return
    g = build_topology(TopologySpec(kind="k-regular", degree=degree), n, seed)
    assert all(g.degree(i) == degree for i in range(n))
    assert is_connected(g)
    assert g == build_topology(TopologySpec(kind="k-regular", degree=degree), n, seed)


@pytest.mark.parametrize("n,degree", [(35, 32), (100, 96), (20, 16), (9, 6)])
def test_k_regular_dense_complement_route(n, degree):
    # above half density the generator pairs the complement; regularity,
    # connectivity, and determinism must hold exactly as on the sparse side
    spec = TopologySpec(kind="k-regular", degree=degree)
    g = build_topology(spec, n, seed=3)
    assert all(g.degree(i) == degree for i in range(n))
    assert is_connected(g)
    assert g == build_topology(spec, n, seed=3)


def test_k_regular_infeasible_rejected():
    with pytest.raises(ConfigurationError):
        build_topology(TopologySpec(kind="k-regular", degree=5), 5)  # odd product
    with pytest.raises(ConfigurationError):
        build_topology(TopologySpec(kind="k-regular", degree=6), 5)  # degree >= n


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        TopologySpec(kind="torus")
    with pytest.raises(ConfigurationError):
        TopologySpec(kind="erdos-renyi", p=0.0)
    with pytest.raises(ConfigurationError):
        TopologySpec(kind="erdos-renyi", p=1.5)
    with pytest.raises(ConfigurationError):
        build_topology(TopologySpec(kind="ring"), 1)


def test_honest_subgraph_connectivity():
    # path 0-1-2-3-4: knocking out the middle splits the honest part
    g = Graph(n=5, neighbors=((1,), (0, 2), (1, 3), (2, 4), (3,)))
    assert honest_subgraph_connected(g, set())
    assert not honest_subgraph_connected(g, {2})
    assert honest_subgraph_connected(g, {0})
    assert honest_subgraph_connected(g, {0, 1, 2, 3})  # single honest node
    assert honest_subgraph_connected(g, {0, 1, 2, 3, 4})  # none left


@st.composite
def graphs_with_byzantine(draw):
    """A graph on 1..12 nodes from any edge set, connected or not, and the
    Byzantine ids that leave an honest set of 0..n nodes."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    honest = draw(st.integers(min_value=0, max_value=min(n, 3)) | st.just(n))
    byz = draw(st.permutations(range(n)))[honest:]
    return n, edges, sorted(byz)


@given(drawn=graphs_with_byzantine())
@settings(max_examples=300)
@example(drawn=(4, {(0, 1), (2, 3)}, []))  # two components
@example(drawn=(4, {(0, 1), (2, 3)}, [0, 1, 2, 3]))  # no honest node
@example(drawn=(4, {(0, 1), (2, 3)}, [0, 1, 2]))  # one honest node
@example(drawn=(4, {(0, 1), (2, 3)}, [0, 3]))  # two honest, not adjacent
@example(drawn=(4, {(0, 1), (2, 3)}, [2, 3]))  # two honest, adjacent
def test_connectivity_matches_plain_bfs(drawn):
    n, edges, byz = drawn
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    g = Graph(n=n, neighbors=tuple(tuple(sorted(a)) for a in adj))
    assert is_connected(g) == _bfs_connected(adj, range(n))
    honest = set(range(n)) - set(byz)
    assert honest_subgraph_connected(g, byz) == _bfs_connected(adj, honest)


class CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_honest_subgraph_connectivity_reads_the_byzantine_list_once():
    g = build_topology(TopologySpec(kind="k-regular", degree=4), 40, seed=1)
    byz = list(range(0, 40, 3))
    want = honest_subgraph_connected(g, set(byz))
    counted = CountingList(byz)
    assert honest_subgraph_connected(g, counted) == want
    assert counted.iterations == 1


def test_byzantine_sampling_counts_and_determinism():
    assert sample_byzantine_nodes(20, 0.0, seed=1) == []
    assert len(sample_byzantine_nodes(20, 0.3, seed=1)) == 6
    assert len(sample_byzantine_nodes(20, 0.25, seed=1)) == 5
    assert len(sample_byzantine_nodes(10, 0.25, seed=1)) == 3  # rounds half up
    assert sample_byzantine_nodes(20, 0.3, seed=1) == sample_byzantine_nodes(20, 0.3, seed=1)
    assert sample_byzantine_nodes(20, 0.3, seed=1) != sample_byzantine_nodes(20, 0.3, seed=2)


def test_byzantine_sampling_never_swallows_every_node():
    assert len(sample_byzantine_nodes(2, 0.8, seed=0)) == 1
    with pytest.raises(ConfigurationError):
        sample_byzantine_nodes(10, 1.2, seed=0)


@given(
    n=st.integers(min_value=2, max_value=60),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=50)
def test_byzantine_ids_valid(n, frac, seed):
    ids = sample_byzantine_nodes(n, frac, seed)
    assert ids == sorted(set(ids))
    assert all(0 <= i < n for i in ids)
    assert len(ids) <= n - 1
