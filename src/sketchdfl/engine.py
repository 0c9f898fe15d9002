"""Round-based protocol orchestration, metrics, and complexity accounting.

One round has four phases: every node trains locally, then in one attack
phase each compromised node substitutes its transmission, then every node
screens its neighbors and mixes by its aggregator's row of RULES: which
pairs screening reads, whether it reads sketch values (then the run
sketches, attackers advertise sketches and fetched models are checked),
how it selects neighbors, and how it mixes the selected models that pass
that check. Settlement runs every row alike and the modelled costs are
derived from the row, so a new rule is one more row, written in
tests/reference_sim.py first. Screening distances are measured once per
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
after the attack row's shared vector is built, read-only), the
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
import math
import threading
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__, sketch
from .aggregation import (
    AggregatorSpec,
    PairTable,
    aggregate_mixed,
    balance_filter,
    dfedavg_aggregate,
    krum_select_index,
    sketch_filter,
    gamma_eff,
)
from .attacks import ATTACKS, AttackSpec, apply_attack, attacker_message
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
        # every float field, nested specs' too, walked as config's schema is:
        # a nan or inf passes range checks but no emitted config replays it
        specs = {"": self} | {f"{f.name}.": getattr(self, f.name) for f in fields(self)
                              if is_dataclass(f.default_factory)}
        for prefix, spec in specs.items():
            for f in fields(spec):
                if f.type == "float" and not math.isfinite(value := getattr(spec, f.name)):
                    raise ConfigurationError(f"{prefix}{f.name} must be finite, got {value}")
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


class Rule(NamedTuple):
    """A row of RULES, as the module docstring describes it."""

    layout: str | None  # None, "star" or "pool"
    sketch: bool  # screens sketch values
    select: Callable  # (own, {j: neighbour's}, distances, config, t) -> (accepted, fallback)
    mix: Callable  # (own model, {j: survivor's model}, alpha, out) writes the new model


def _threshold(screen: Callable, own, neighbours, sq, config: SimConfig, t: int):
    agg = config.aggregator
    out = screen(own, neighbours, agg.gamma, agg.kappa, t, config.rounds, sq)
    return out.accepted, out.fallback_used


def _krum(own, neighbours, sq, config: SimConfig, t: int):
    pool = [own, *neighbours.values()]
    if len(pool) < 3:  # krum is undefined below 3 models: keep own model
        return [], False
    f = config.aggregator.krum_f
    if f is None:
        f = int(np.floor(config.byz_fraction * len(pool) + 0.5))
    chosen = krum_select_index(pool, min(f, len(pool) - 3), sq=sq)  # f + 3 <= len(pool)
    return ([] if chosen == 0 else [list(neighbours)[chosen - 1]]), False


def _copy(own, survivors, alpha, out) -> None:
    np.copyto(out, *survivors.values())


# Rows look their kernels up in engine when they run, so a test or tracer
# that patches engine.balance_filter (say) sees every call.
RULES = {
    "dfedavg": Rule(None, False, lambda own, neighbours, *_: (list(neighbours), False),
                    lambda own, survivors, alpha, out: dfedavg_aggregate(own, survivors, out=out)),
    "krum": Rule("pool", False, _krum, _copy),
    "balance": Rule("star", False, lambda *a: _threshold(balance_filter, *a),
                    lambda *a: aggregate_mixed(*a)),
    "sketchfilter": Rule("star", True, lambda *a: _threshold(sketch_filter, *a),
                         lambda *a: aggregate_mixed(*a)),
}


def screening_ops(kind: str, d: int, k: int, n_neighbors: int) -> int:
    """Distance-evaluation cost of the screening phase, in exact
    multiply-accumulate counts: k (sketches) or d per pair of the layout."""
    rule = RULES[kind]
    pairs = {None: 0, "star": n_neighbors, "pool": n_neighbors * (n_neighbors + 1) // 2}
    return (k if rule.sketch else d) * pairs[rule.layout]


def aggregation_ops(kind: str, d: int, k: int, n_candidates: int, n_accepted: int) -> int:
    """Post-screening cost: under sketches the own sketch and one recompute
    per fetched model (n_candidates, pre-verification), then the mix: a
    copy of Krum's pick, else the sum of the own model and the n_accepted
    survivors (without sketches nothing is checked, so the counts agree)."""
    rule = RULES[kind]
    checks = d * (1 + n_candidates) if rule.sketch else 0
    return checks + (d if rule.mix is _copy else d * (n_accepted + 1))


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
    if RULES[kind].sketch:
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
    rule = RULES[kind]
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

    params = _resolve_sketch_params(config, task.dim) if rule.sketch else None
    if params:  # built here, not once by each pool worker that misses the cache
        sketch.hash_tables(params)

    models = np.empty((config.n_nodes, task.dim))  # (n, d), one row per node
    models[...] = task.init_model(node_stream(config.seeds.training, 0, 0, tag=0xC0))
    spare = np.empty_like(models)
    threat = ATTACKS.get(config.attack.kind) if byz else None  # the attack's row, if any

    if rule.layout:
        # vector ids: j is what node j sends, and n + i the trained vector
        # attacker i screens with. Every node's pool is its own id, then
        # its neighbours'; a star measures only the first id against the
        # others, and each node reads its row, a pool its whole submatrix.
        own = [config.n_nodes + i if threat and i in byz_set else i for i in range(config.n_nodes)]
        pairs = PairTable({i: [own[i], *graph.neighbors[i]] for i in range(config.n_nodes)},
                          star=rule.layout == "star", parts=workers)
        near = pairs.row if rule.layout == "star" else pairs.submatrix

    def honest_mean(value: Callable[[int], float]) -> float:
        return float(np.mean([value(i) for i in honest]))

    metrics: list[RoundMetrics] = []
    for t in range(config.rounds):
        if threat:  # read before training overwrites the round-start rows
            state = threat.start and threat.start(config.attack, [models[i] for i in honest])
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
        own_sketch = (list(pmap(lambda v: compute_sketch(params, v), trained)) if rule.sketch
                      else [None] * config.n_nodes)
        tx_sketch = list(own_sketch)
        if threat:
            shared = threat.shared and threat.shared(config.attack,
                                                     [trained[i] for i in honest], state)

            def attack(j: int) -> tuple[np.ndarray, Sketch | None, bool]:
                """Attacker j's transmission, written into its own row of
                mixed, which settlement writes only once every receiver has
                read it; under sketches also the sketch it advertises and
                whether the pair passes the sender check."""
                sent = apply_attack(
                    config.attack, trained[j], shared,
                    node_stream(config.seeds.attack, t, j, tag=2),
                    out=mixed[j],
                )
                if not rule.sketch:
                    return sent, None, True
                message = attacker_message(config.attack, params, sent, own_sketch[j])
                passed = (not config.verification or config.attack.consistent_sketch
                          or verify_model_against_sketch(params, sent, message,
                                                         config.aggregator.rel_tol))
                return sent, message, passed

            for j, (sent, message, passed) in zip(byz, pmap(attack, byz)):
                transmit[j], tx_sketch[j], verified[j] = sent, message, passed
            del shared, state  # the attack's round state

        if rule.layout:
            vectors = ([s.values for s in (*tx_sketch, *own_sketch)] if rule.sketch
                       else [*transmit, *trained])
            sq = pairs.compute(vectors, pmap)

        def settle(i: int) -> tuple[list[int], dict, bool]:
            """Writes node i's new model into mixed[i], or, for an attacker
            whose transmission mixed[i] holds until every receiver has read
            it, into its trained row, which only it reads; returns the rule's
            selection, its survivors of the sender check, and the fallback."""
            dest = trained[i] if threat and i in byz_set else mixed[i]
            own, sent = (own_sketch[i], tx_sketch) if rule.sketch else (trained[i], transmit)
            accepted, fallback = rule.select(own, {j: sent[j] for j in graph.neighbors[i]},
                                             near(sq, i) if rule.layout else None, config, t)
            if survivors := {j: transmit[j] for j in accepted if verified[j]}:
                rule.mix(trained[i], survivors, config.aggregator.alpha, dest)
            else:
                dest[...] = trained[i]
            return accepted, survivors, fallback

        accepted, survivors, fallback = zip(*pmap(settle, range(config.n_nodes)))
        if threat:
            for j in byz:  # row by row: mixed[byz] = trained[byz] gathers a copy first
                mixed[j] = trained[j]
        models, spare = mixed, trained

        # modelled costs are per receiver: each node pays for its own fetches
        # and checks, whichever sender they reach
        d = task.dim
        width = params.width if params else 0
        # outbound accounting: uploads happen for every fetched (pre-verify) model
        uploads = Counter(j for fetched in accepted for j in fetched)

        active = models[:, : task.active_dim]
        if config.per_client_eval:  # shards read in place; attackers' scores dropped
            scores = test_error_rate(task, active, data.features, data.labels)[honest]
        else:
            scores = test_error_rate(task, active[honest], data.test_features, data.test_labels)
        byz_slots = sum(len(byz_set & set(graph.neighbors[i])) for i in honest)
        byz_taken = sum(len(byz_set & set(survivors[i])) for i in honest)
        metrics.append(RoundMetrics(
            round=t,
            mean_ter=float(np.mean(scores)),
            params_tx_mean=honest_mean(
                lambda i: account_communication(kind, graph.degree(i), uploads[i], d, width)),
            screen_ops_mean=honest_mean(lambda i: screening_ops(kind, d, width, graph.degree(i))),
            accept_frac=honest_mean(lambda i: len(accepted[i]) / graph.degree(i)),
            byz_accept_frac=byz_taken / byz_slots if byz_slots else 0.0,
            verify_fail=sum(len(accepted[i]) - len(survivors[i]) for i in honest),
            fallback_count=sum(fallback[i] for i in honest),
            agg_ops_mean=honest_mean(
                lambda i: aggregation_ops(kind, d, width, len(accepted[i]), len(survivors[i]))),
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
    cells: SimConfig | list[tuple[str, SimConfig]],
    fractions: list[float],
    masters: list[int],
) -> tuple[list[tuple], list[dict]]:
    """One run per (cell, fraction, master seed); returns CSV-ready rows and
    the per-run manifests, cell-major, then fraction, then master. `cells`
    lists (run-id suffix, config) pairs; a bare config is one cell with no
    suffix. Rows carry the master seed, not the derived ones. Every run of
    a master draws the same data seed, so its data is generated once per
    distinct (task, node count) and shared by those cells' runs, one
    master's data alive at a time."""
    if isinstance(cells, SimConfig):
        cells = [("", cells)]
    if not fractions:
        raise ConfigurationError("sweep needs at least one byzantine fraction")
    for frac in fractions:
        if not 0 <= frac <= 0.8:
            raise ConfigurationError(f"sweep fraction {frac} outside [0, 0.8]")
    if not masters:
        raise ConfigurationError("sweep needs at least one master seed")
    # results[c, f, s] holds (manifest, rows) by position, so duplicate
    # entries stay separate runs
    results: dict[tuple[int, int, int], tuple] = {}
    for s, master in enumerate(masters):
        data = {}  # (task, node count) -> this master's data
        for c, (suffix, config) in enumerate(cells):
            seeds = derive_seeds(master, config.seeds.sketch)
            key = (config.task, config.n_nodes)
            if key not in data:
                data[key] = generate_federated_data(*key, seeds.data)
            for f, frac in enumerate(fractions):
                cfg = replace(config, byz_fraction=frac, seeds=seeds)
                run_id = f"{cfg.aggregator.kind}-{cfg.attack.kind}-b{frac:g}-m{master}{suffix}"
                result = run_simulation(cfg, run_id=run_id, data=data[key])
                results[c, f, s] = (result.manifest,
                                    metrics_rows(run_id, master, frac, result.metrics))
        del data  # one master's data alive at a time
    ordered = [results[c, f, s] for c in range(len(cells))
               for f in range(len(fractions)) for s in range(len(masters))]
    return [r for _, rows in ordered for r in rows], [manifest for manifest, _ in ordered]


def metrics_rows(run_id: str, seed: int, byz_fraction: float, metrics: list[RoundMetrics]) -> list[tuple]:
    """CSV rows: the run's identity cells, then the RoundMetrics fields that
    the remaining CSV_COLUMNS name."""
    return [
        (run_id, seed, byz_fraction, *(getattr(m, column) for column in CSV_COLUMNS[3:]))
        for m in metrics
    ]
