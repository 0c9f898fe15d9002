"""Round-based protocol orchestration, metrics, and complexity accounting.

One round has four phases: every node trains locally, then in one attack
phase each compromised node substitutes its transmission, then every node
screens its neighbors with one rule (on sketches or full models depending
on the aggregator) and mixes the accepted models that passed the sender
check. That check runs once a round, and only where a pair can mismatch,
on an attacker advertising a stale sketch: an honest sender's pair, and a
consistent attacker's, match by construction (the modelled agg_ops still
bill every receiver's check). Screening distances are measured once per
distinct pair per round, in one table shared by every receiver (from
either end a pair has the same bits); the modelled screen_ops still bill
each receiver for its own. A run holds two (n, d) model stacks, both
allocated before round 0, as a double buffer: lockstep training trains the
round-start stack in place, and settlement writes the other one, which
then starts the next round. Each attacker writes its transmission into its
own row of the stack settlement writes, and settles into its trained row,
which only it reads; that row is copied back after settlement. Evaluation
scores the honest models in blocks of bounded size, and per-client
evaluation reads the shards in place. So no phase allocates another (n, d)
array, or a row per attacker, or a copy of the honest shards.
A run with threads > 1 keeps one pool of min(threads, n_nodes) threads
open throughout, and sketching, the attack phase (one item per attacker,
after directed-deviation's colluding vector is built, read-only), the
pair table and settlement all run through its map; the hash family is
built before it first maps. While it is open numpy's OpenBLAS is held at
one thread, so no idle BLAS worker spins on a core the pool needs. Phases are
bulk-synchronous: each reads only the frozen snapshot from the
previous phase, every random draw comes from a stream keyed on (seed,
round, node), and reductions run in node-id order, so results are
byte-identical whatever the thread budget.
"""
from __future__ import annotations

import ctypes
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from typing import Callable, Iterator

import numpy as np

from . import __version__, sketch
from .aggregation import (
    SKETCH_KINDS,
    AggregatorSpec,
    PairTable,
    aggregate_mixed,
    balance_filter,
    dfedavg_aggregate,
    krum_select_index,
    sketch_filter,
    gamma_eff,
)
from .attacks import AttackSpec, apply_attack, attacker_message, colluding_vector, round_start_mean
from .errors import ConfigurationError
from .io import CSV_COLUMNS
from .learning import (
    FederatedData,
    TaskSpec,
    generate_federated_data,
    local_update,
    make_task,
    test_error_rate,
)
from .sketch import (
    DISTORTION_COEFF,
    Sketch,
    SketchParams,
    combine64,
    compute_sketch,
    default_sketch_width,
    epsilon_hat,
    verify_model_against_sketch,
)
from .topology import (
    TopologySpec,
    build_topology,
    honest_subgraph_connected,
    sample_byzantine_nodes,
)


@dataclass(frozen=True)
class Seeds:
    data: int = 1
    topology: int = 2
    byzantine: int = 3
    training: int = 4
    attack: int = 5
    sketch: int = 42


@dataclass(frozen=True)
class SimConfig:
    task: TaskSpec = field(default_factory=TaskSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    n_nodes: int = 20
    byz_fraction: float = 0.0
    rounds: int = 10
    local_epochs: int = 3
    lr: float = 0.05
    batch_size: int = 64
    threads: int = 1
    verification: bool = True
    per_client_eval: bool = False  # score nodes on their own shards instead of the shared set
    seeds: Seeds = field(default_factory=Seeds)

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if not 0 <= self.byz_fraction <= 0.8:
            raise ConfigurationError(
                f"byz_fraction must be in [0, 0.8], got {self.byz_fraction}"
            )
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if self.local_epochs < 1:
            raise ConfigurationError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.lr < 0:
            raise ConfigurationError(f"lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {self.threads}")
        if self.per_client_eval and self.task.kind == "quadratic":
            raise ConfigurationError(
                "per_client_eval needs a classification task: the quadratic "
                "task scores global suboptimality and reads no evaluation set"
            )


@dataclass
class RoundMetrics:
    """Honest-side aggregates for one round.

    accept_frac averages each honest node's screening-phase acceptance
    ratio (fallback included), so it reflects the filter itself;
    byz_accept_frac is the micro-averaged fraction of Byzantine neighbor
    slots whose models survived into aggregation, i.e. post-verification.
    agg_ops_mean is not a CSV column; library callers read it from
    RunResult.metrics.
    """

    round: int
    mean_ter: float
    params_tx_mean: float
    screen_ops_mean: float
    accept_frac: float
    byz_accept_frac: float
    verify_fail: int
    fallback_count: int
    agg_ops_mean: float = 0.0


@dataclass
class RunResult:
    metrics: list[RoundMetrics]
    manifest: dict
    final_models: np.ndarray  # (n_nodes, dim), post-aggregation round T-1


def node_stream(seed: int, round_index: int, node: int, tag: int = 0) -> np.random.Generator:
    """Independent PCG64 stream for one (node, round) cell; keying on ids
    rather than draw order is what makes thread counts irrelevant."""
    return np.random.Generator(
        np.random.PCG64(combine64(seed, round_index, node, tag))
    )


def screening_ops(kind: str, d: int, k: int, n_neighbors: int) -> int:
    """Distance-evaluation cost of the screening phase, in exact
    multiply-accumulate counts."""
    if kind == "dfedavg":
        return 0
    if kind == "balance":
        return d * n_neighbors
    if kind in SKETCH_KINDS:
        return k * n_neighbors
    # krum: pairwise distances over self + neighbors
    m = n_neighbors + 1
    return d * (m * (m - 1) // 2)


def aggregation_ops(kind: str, d: int, k: int, n_candidates: int, n_accepted: int) -> int:
    """Post-screening cost: verification sketches plus the mixing sum.
    n_candidates is the pre-verification accepted count (models fetched),
    n_accepted the post-verification survivor count."""
    if kind == "dfedavg":
        return d * (n_candidates + 1)
    if kind == "krum":
        return d
    if kind == "balance":
        return d * (n_accepted + 1)
    # sketch aggregators: own sketch + one recompute per fetched model + mixing
    return d * (1 + n_candidates) + d * (n_accepted + 1)


def account_communication(kind: str, n_neighbors: int, n_accepted: int, d: int, k: int) -> int:
    """Outbound parameter count for one node and round: sketches go to all
    neighbors and the full model only to the n_accepted neighbors that
    requested it; full-precision aggregators broadcast the model."""
    if n_accepted > n_neighbors:
        raise ConfigurationError(
            f"accepted count {n_accepted} exceeds neighbor count {n_neighbors}"
        )
    if min(n_neighbors, n_accepted, d, k) < 0:
        raise ConfigurationError("communication accounting needs nonnegative counts")
    if kind in SKETCH_KINDS:
        return k * n_neighbors + d * n_accepted
    return d * n_neighbors


@cache
def _blas_threads_api() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of the OpenBLAS numpy links, or None
    where numpy links another BLAS. A dlsym on numpy's core module also
    searches the libraries it loaded, so a bundled OpenBLAS is found."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_blas_lock = threading.Lock()
_blas_depth = 0  # pooled runs in progress
_blas_saved = 0  # the count before the first of them


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Holds OpenBLAS at one thread while a pooled run is in progress, so
    its idle workers do not spin on the pool's cores; the count is
    process-wide, so the first run in saves it and the last one out
    restores it. Output bits do not depend on the BLAS thread count."""
    global _blas_depth, _blas_saved
    api = _blas_threads_api()
    if api is None:
        yield
        return
    get, set_ = api
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


@contextmanager
def _run_pool(workers: int) -> Iterator[Callable]:
    """The run's map: the builtin map for one worker, else the map of one
    executor of that many workers, open for the whole run with OpenBLAS
    held at one thread. The executor's workers are joined before the
    BLAS count is restored, whether the run returns or raises."""
    if workers == 1:
        yield map
        return
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _resolve_sketch_params(config: SimConfig, dim: int) -> SketchParams:
    width = config.aggregator.sketch_size or default_sketch_width(dim)
    if width > dim:
        raise ConfigurationError(
            f"sketch_size {width} exceeds model dimension {dim}"
        )
    if not config.aggregator.sketch_size and epsilon_hat(width) >= 0.99:
        warnings.warn(
            f"default sketch width {width} is 36 or less, where epsilon_hat is "
            "capped at 0.99 and bounds no distortion; set [aggregator] sketch_size",
            RuntimeWarning,
        )
    seed = config.aggregator.sketch_seed
    return SketchParams(dim=dim, width=width, seed=config.seeds.sketch if seed is None else seed)


def _krum_f(config: SimConfig, n_models: int) -> int:
    if config.aggregator.krum_f is not None:
        f = config.aggregator.krum_f
    else:
        f = int(np.floor(config.byz_fraction * n_models + 0.5))
    return max(0, min(f, n_models - 3))


def run_simulation(
    config: SimConfig,
    run_id: str | None = None,
    data: FederatedData | None = None,
) -> RunResult:
    """Execute the full protocol for config.rounds rounds.

    Returns per-round honest metrics, a manifest sufficient to reproduce
    the run, and the final models. Deterministic in everything including
    the thread budget. `data`, when given, must be what
    `generate_federated_data` returns for this config's task, node count
    and data seed; the run only reads it, so runs may share it. With
    threads > 1 the run holds numpy's OpenBLAS at one thread and restores
    its count on exit, whether the run returns or raises.
    """
    workers = min(config.threads, config.n_nodes)
    with _run_pool(workers) as pmap:
        return _simulate(config, run_id, data, pmap, workers)


def _simulate(config: SimConfig, run_id: str | None, data: FederatedData | None,
              pmap: Callable, workers: int) -> RunResult:
    kind = config.aggregator.kind
    agg = config.aggregator
    if data is None:
        data = generate_federated_data(config.task, config.n_nodes, config.seeds.data)
    elif (data.spec, data.seed, len(data.labels)) != (
        config.task, config.seeds.data, config.n_nodes
    ):
        raise ConfigurationError(
            "data was generated for another task spec, data seed or node count"
        )
    task = make_task(config.task, data)
    graph = build_topology(config.topology, config.n_nodes, config.seeds.topology)
    byz = sample_byzantine_nodes(config.n_nodes, config.byz_fraction, config.seeds.byzantine)
    byz_set = set(byz)
    honest = [i for i in range(config.n_nodes) if i not in byz_set]
    honest_connected = honest_subgraph_connected(graph, byz_set)
    if not honest_connected:
        warnings.warn(
            "honest subgraph is disconnected; continuing (flagged in manifest)",
            RuntimeWarning,
        )

    sketching = kind in SKETCH_KINDS
    params = None
    if sketching:  # built here, not once by each pool worker that misses the cache
        params = _resolve_sketch_params(config, task.dim)
        sketch.hash_tables(params)

    models = np.empty((config.n_nodes, task.dim))  # (n, d), one row per node
    models[...] = task.init_model(node_stream(config.seeds.training, 0, 0, tag=0xC0))
    spare = np.empty_like(models)
    attacking = bool(byz) and config.attack.kind != "none"

    screening = kind != "dfedavg"
    if screening:
        # vector ids: j is what node j sends, and n + i the trained vector
        # attacker i screens with. Every node's pool is its own id, then
        # its neighbours'; Krum measures all pairs of a pool, the filters
        # only the first id against the others.
        own = [config.n_nodes + i if attacking and i in byz_set else i
               for i in range(config.n_nodes)]
        star = kind != "krum"
        pairs = PairTable({i: [own[i], *graph.neighbors[i]] for i in range(config.n_nodes)},
                          star=star, parts=workers)

    metrics: list[RoundMetrics] = []
    for t in range(config.rounds):
        if attacking:  # read before training overwrites the round-start rows
            start_mean = round_start_mean(config.attack, [models[i] for i in honest])
        trained = local_update(
            task, models, data.features, data.labels,
            config.lr, config.local_epochs, config.batch_size,
            [node_stream(config.seeds.training, t, i, tag=1) for i in range(config.n_nodes)],
        )
        mixed = spare

        # Phase 2: what each node puts on the wire. Every receiver gets the
        # same (model, sketch) pair from a sender, so whether j's model
        # matches its advertised sketch is one answer per sender and round;
        # an attack that sent each receiver a different message would need
        # this check per edge again. An honest pair matches by construction
        # (the recompute is bit-identical, a gap of exactly 0), and so does
        # a consistent attacker's, whose sketch is folded from the bits it
        # sent; only an attacker advertising a stale sketch is checked.
        transmit = list(trained)
        verified = [True] * config.n_nodes
        if sketching:
            own_sketch = list(pmap(lambda v: compute_sketch(params, v), trained))
            tx_sketch = list(own_sketch)
        if attacking:
            colluding = colluding_vector(config.attack, [trained[i] for i in honest], start_mean)

            def attack(j: int) -> tuple[np.ndarray, Sketch | None, bool]:
                """Attacker j's transmission, written into its own row of
                mixed, which settlement writes only once every receiver has
                read it; under a sketch protocol also the sketch it
                advertises and whether the pair passes the sender check,
                which runs only on a stale sketch."""
                sent = apply_attack(
                    config.attack, trained[j], colluding,
                    node_stream(config.seeds.attack, t, j, tag=2),
                    out=mixed[j],
                )
                if not sketching:
                    return sent, None, True
                message = attacker_message(config.attack, params, sent, own_sketch[j])
                passed = (not config.verification or config.attack.consistent_sketch
                          or verify_model_against_sketch(params, sent, message, agg.rel_tol))
                return sent, message, passed

            for j, (sent, message, passed) in zip(byz, pmap(attack, byz)):
                transmit[j], verified[j] = sent, passed
                if sketching:
                    tx_sketch[j] = message
            del colluding, start_mean  # directed-deviation's round state

        if screening:
            vectors = ([s.values for s in (*tx_sketch, *own_sketch)] if sketching
                       else [*transmit, *trained])
            sq = pairs.compute(vectors, pmap)

        def settle(i: int) -> tuple[list[int], bool]:
            """Writes node i's new model into mixed[i], or, for an attacker
            whose transmission mixed[i] holds until every receiver has read
            it, into its trained row, which only it reads; returns
            (screening-accepted neighbors, fallback used)."""
            nbrs = graph.neighbors[i]
            dest = trained[i] if attacking and i in byz_set else mixed[i]
            if kind == "dfedavg":
                dfedavg_aggregate(trained[i], {j: transmit[j] for j in nbrs}, out=dest)
                return list(nbrs), False
            if kind == "krum":
                pool = [trained[i]] + [transmit[j] for j in nbrs]
                chosen = 0  # krum is undefined below 3 models: keep own model
                if len(pool) >= 3:
                    chosen = krum_select_index(pool, _krum_f(config, len(pool)),
                                               sq=pairs.submatrix(sq, i))
                dest[...] = pool[chosen]
                return [] if chosen == 0 else [nbrs[chosen - 1]], False
            screen, mine, sent = ((sketch_filter, own_sketch[i], tx_sketch) if sketching
                                  else (balance_filter, trained[i], transmit))
            screened = screen(mine, {j: sent[j] for j in nbrs},
                              agg.gamma, agg.kappa, t, config.rounds, pairs.row(sq, i))
            if chosen := {j: transmit[j] for j in screened.accepted if verified[j]}:
                aggregate_mixed(trained[i], chosen, agg.alpha, out=dest)
            else:
                dest[...] = trained[i]
            return screened.accepted, screened.fallback_used

        accepted, fallback = zip(*pmap(settle, range(config.n_nodes)))
        if attacking:
            for j in byz:  # row by row: mixed[byz] = trained[byz] gathers a copy first
                mixed[j] = trained[j]
        models, spare = mixed, trained

        # modelled costs are per receiver: each node pays for its own fetches
        # and checks, whichever sender they reach
        d = task.dim
        width = params.width if params else 0
        survivors = {i: [j for j in accepted[i] if verified[j]] for i in honest}
        # outbound accounting: uploads happen for every fetched (pre-verify) model
        uploads = [0] * config.n_nodes
        for fetched in accepted:
            for j in fetched:
                uploads[j] += 1

        active = models[:, : task.active_dim]
        if config.per_client_eval:  # shards read in place; attackers' scores dropped
            scores = test_error_rate(task, active, data.features, data.labels)[honest]
        else:
            scores = test_error_rate(task, active[honest], data.test_features, data.test_labels)
        ter = float(np.mean(scores))
        byz_slots = sum(len(byz_set & set(graph.neighbors[i])) for i in honest)
        byz_taken = sum(len(byz_set & set(survivors[i])) for i in honest)
        metrics.append(RoundMetrics(
            round=t,
            mean_ter=ter,
            params_tx_mean=float(np.mean([
                account_communication(kind, graph.degree(i), uploads[i], d, width)
                for i in honest
            ])),
            screen_ops_mean=float(np.mean([
                screening_ops(kind, d, width, graph.degree(i)) for i in honest
            ])),
            accept_frac=float(np.mean([
                len(accepted[i]) / graph.degree(i) for i in honest
            ])),
            byz_accept_frac=byz_taken / byz_slots if byz_slots else 0.0,
            verify_fail=sum(len(accepted[i]) - len(survivors[i]) for i in honest),
            fallback_count=sum(fallback[i] for i in honest),
            agg_ops_mean=float(np.mean([
                aggregation_ops(kind, d, width, len(accepted[i]), len(survivors[i]))
                for i in honest
            ])),
        ))

    if run_id is None:
        run_id = f"{kind}-{config.attack.kind}-b{config.byz_fraction:g}"
    manifest = build_manifest(config, run_id, graph, byz, honest_connected, task, params)
    return RunResult(metrics=metrics, manifest=manifest, final_models=models)


def build_manifest(config, run_id, graph, byz, honest_connected, task, params) -> dict:
    """Everything needed to reproduce the run; a function of the config and
    the code version alone."""
    sketch_info = None
    if params is not None:
        eps = epsilon_hat(params.width)
        sketch_info = {
            "width": params.width,
            "seed": params.seed,
            "epsilon_hat": eps,
            "gamma_eff": gamma_eff(config.aggregator.gamma, eps),
            "distortion_coeff": DISTORTION_COEFF,
        }
    return {
        "run_id": run_id,
        "code_version": __version__,
        "config": asdict(config),
        "byzantine_nodes": list(byz),
        "honest_subgraph_connected": honest_connected,
        "topology_digest": graph.digest(),
        "topology_edges": len(graph.edges()),
        "model_dim": task.dim,
        "metric_name": task.metric_name,
        "sketch": sketch_info,
    }


def derive_seeds(master: int, sketch_seed: int = Seeds.sketch) -> Seeds:
    """Replicate-specific seeds for a sweep: every stream is re-keyed from
    the master except the sketch seed, which stays shared so hash families
    line up across replicates."""
    return Seeds(
        data=combine64(master, 0xD0),
        topology=combine64(master, 0x70),
        byzantine=combine64(master, 0xB0),
        training=combine64(master, 0x40),
        attack=combine64(master, 0xA0),
        sketch=sketch_seed,
    )


def sweep(
    config: SimConfig,
    fractions: list[float],
    masters: list[int],
) -> tuple[list[tuple], list[dict]]:
    """One run per (fraction, master seed); returns CSV-ready rows and the
    per-run manifests, fraction-major. Rows carry the master seed, not the
    derived ones. Every fraction of a master draws the same data seed, so
    each listed master's data is generated once and shared by its runs."""
    if not fractions:
        raise ConfigurationError("sweep needs at least one byzantine fraction")
    for frac in fractions:
        if not 0 <= frac <= 0.8:
            raise ConfigurationError(f"sweep fraction {frac} outside [0, 0.8]")
    if not masters:
        raise ConfigurationError("sweep needs at least one master seed")
    # cells[f][s] holds (manifest, rows) of fractions[f] x masters[s], by
    # position, so duplicate entries stay separate runs
    cells: list[list] = [[None] * len(masters) for _ in fractions]
    for s, master in enumerate(masters):
        seeds = derive_seeds(master, config.seeds.sketch)
        data = generate_federated_data(config.task, config.n_nodes, seeds.data)
        for f, frac in enumerate(fractions):
            cfg = replace(config, byz_fraction=frac, seeds=seeds)
            run_id = f"{cfg.aggregator.kind}-{cfg.attack.kind}-b{frac:g}-m{master}"
            result = run_simulation(cfg, run_id=run_id, data=data)
            cells[f][s] = (result.manifest, metrics_rows(run_id, master, frac, result.metrics))
        del data  # one master's data alive at a time
    manifests = [manifest for row in cells for manifest, _ in row]
    rows = [r for row in cells for _, cell_rows in row for r in cell_rows]
    return rows, manifests


def metrics_rows(run_id: str, seed: int, byz_fraction: float, metrics: list[RoundMetrics]) -> list[tuple]:
    """CSV rows: the run's identity cells, then the RoundMetrics fields that
    the remaining CSV_COLUMNS name."""
    return [
        (run_id, seed, byz_fraction, *(getattr(m, column) for column in CSV_COLUMNS[3:]))
        for m in metrics
    ]
