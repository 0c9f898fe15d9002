"""Round orchestration: determinism, accounting, barriers, sweep."""
import hashlib
import json
import math
import random
import sys
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sketchdfl.aggregation as aggregation
import sketchdfl.engine as engine
import sketchdfl.sketch as sketch
from sketchdfl.aggregation import AGGREGATOR_KINDS, AggregatorSpec, PairTable
from sketchdfl.attacks import AttackSpec
from sketchdfl.config import parse_config
from sketchdfl.engine import (
    Seeds,
    SimConfig,
    account_communication,
    aggregation_ops,
    derive_seeds,
    metrics_rows,
    node_stream,
    run_simulation,
    screening_ops,
    sweep,
)
from sketchdfl.errors import ConfigurationError, NumericalDivergenceError
from sketchdfl.io import metrics_csv_text
from sketchdfl.learning import TaskSpec, generate_federated_data
from sketchdfl.topology import TopologySpec, build_topology, sample_byzantine_nodes

ROBUSTNESS_INI = Path(__file__).resolve().parent.parent / "configs" / "robustness.ini"


def tiny_config(**overrides) -> SimConfig:
    base = dict(
        task=TaskSpec(kind="quadratic", features=8, samples_per_client=32,
                      test_samples=64),
        topology=TopologySpec(kind="full"),
        aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=8),
        n_nodes=6,
        byz_fraction=0.0,
        rounds=3,
        local_epochs=1,
        lr=0.05,
        batch_size=16,
        seeds=Seeds(),
    )
    base.update(overrides)
    return SimConfig(**base)


def csv_bytes(result) -> bytes:
    rows = metrics_rows("t", 0, 0.0, result.metrics)
    return metrics_csv_text(rows).encode()


# ---------------------------------------------------------------- determinism

def test_identical_configs_give_identical_runs():
    a = run_simulation(tiny_config())
    b = run_simulation(tiny_config())
    assert csv_bytes(a) == csv_bytes(b)
    np.testing.assert_array_equal(a.final_models, b.final_models)


@pytest.mark.parametrize("threads", [2, 8])
def test_thread_budget_does_not_change_output(threads):
    # every aggregator, with attackers advertising stale sketches, so each
    # screening path's threaded pair table is checked byte for byte, and
    # with colluding attackers, which copy one vector built once a round
    for attack in (AttackSpec(kind="gaussian", consistent_sketch=False),
                   AttackSpec(kind="directed-deviation", lam=0.5)):
        for kind in ("sketchfilter", "balance", "dfedavg", "krum"):
            cfg = tiny_config(aggregator=AggregatorSpec(kind=kind, sketch_size=8),
                              byz_fraction=0.3, attack=attack)
            serial = run_simulation(cfg)
            pooled = run_simulation(replace(cfg, threads=threads))
            assert csv_bytes(serial) == csv_bytes(pooled), (kind, attack.kind)
            assert serial.final_models.tobytes() == pooled.final_models.tobytes(), kind


# ---------------------------------------------------------------- BLAS budget

@pytest.fixture
def blas_count():
    """numpy's OpenBLAS thread count getter, set to 2 first so the guard's
    change to 1 shows on any host; the count is restored afterwards."""
    api = engine._blas_threads_api()
    if api is None:
        pytest.skip("numpy does not link OpenBLAS")
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)


def test_blas_setter_found_where_numpy_links_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "").lower():
        pytest.skip(f"numpy links {blas.get('name')}, not OpenBLAS")
    assert engine._blas_threads_api() is not None


def test_pooled_run_holds_blas_at_one_thread_then_restores_it(monkeypatch, blas_count):
    seen: list[int] = []
    evaluate = engine.test_error_rate

    def probed(*args):
        seen.append(blas_count())
        return evaluate(*args)

    monkeypatch.setattr(engine, "test_error_rate", probed)
    cfg = tiny_config(threads=2)
    run_simulation(cfg)
    assert seen == [1] * cfg.rounds
    assert blas_count() == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the update overflows
def test_pooled_run_that_raises_restores_blas_count(blas_count):
    with pytest.raises(NumericalDivergenceError):
        run_simulation(tiny_config(threads=2, lr=1e200))
    assert blas_count() == 2


def test_serial_run_never_sets_blas_count(monkeypatch):
    def refuse(count):
        raise AssertionError(f"a threads = 1 run set the BLAS count to {count}")

    monkeypatch.setattr(engine, "_blas_threads_api", lambda: (lambda: 2, refuse))
    run_simulation(tiny_config(threads=1))


def test_nested_and_concurrent_pooled_runs_save_and_restore_blas_count_once(monkeypatch):
    count, sets = [3], []

    # each call yields the interpreter lock inside the guard's check-then-act
    def get():
        time.sleep(0)
        return count[0]

    def set_(k):
        time.sleep(0)
        sets.append(k)
        count[0] = k

    monkeypatch.setattr(engine, "_blas_threads_api", lambda: (get, set_))
    held: list[int] = []

    def runs(_):
        for _ in range(200):
            with engine._one_blas_thread():
                with engine._one_blas_thread():
                    held.append(count[0])
                held.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(runs, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(held) == 2 * 8 * 200 and set(held) == {1}
    # every save is paired with one restore, the last to the count before
    assert sets[0::2] == [1] * (len(sets) // 2) and sets[1::2] == [3] * (len(sets) // 2)
    assert count == [3]


class _SerialExecutor:
    """A serial stand-in for engine.ThreadPoolExecutor that starts no
    thread. Each one built is logged with its max_workers, the item count
    of each map call, the name of each mapped function with its items, and
    the fake BLAS count when it exits; `shuffle`, when set, is a
    random.Random that runs each map's items in a shuffled order."""

    log: list = []
    blas = [3]
    shuffle: random.Random | None = None

    def __init__(self, max_workers):
        self.max_workers, self.maps, self.blas_at_exit = max_workers, [], None
        self.calls: list[tuple[str, list]] = []
        self.log.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.blas_at_exit = self.blas[0]

    def map(self, fn, items):
        items = list(items)
        self.maps.append(len(items))
        self.calls.append((fn.__name__, items))
        order = list(range(len(items)))
        if self.shuffle is not None:
            self.shuffle.shuffle(order)
        out = [None] * len(items)
        for k in order:
            out[k] = fn(items[k])
        return iter(out)


@pytest.fixture
def serial_pool(monkeypatch):
    """Puts _SerialExecutor in engine's thread pool and a fake BLAS count
    of 3 behind the BLAS guard; returns the executor class."""
    monkeypatch.setattr(_SerialExecutor, "log", [])
    monkeypatch.setattr(_SerialExecutor, "blas", [3])
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _SerialExecutor)
    blas = _SerialExecutor.blas
    monkeypatch.setattr(engine, "_blas_threads_api",
                        lambda: (lambda: blas[0], lambda k: blas.__setitem__(0, k)))
    return _SerialExecutor


# maps a round of an attacking run makes: sketching (sketch aggregators),
# the attack phase, the pair table (screening aggregators) and settlement
_POOLED_PHASES = {"sketchfilter": 4, "balance": 3, "dfedavg": 2, "krum": 3}


def _attacked_config(kind, attack=AttackSpec(kind="gaussian", consistent_sketch=False),
                     **overrides):
    return tiny_config(**{"aggregator": AggregatorSpec(kind=kind, sketch_size=8),
                          "byz_fraction": 0.3, "attack": attack, **overrides})


def test_shuffled_node_processing_order_is_invisible(serial_pool, monkeypatch):
    # barrier semantics: every pooled phase (sketching, the attack phase,
    # the pair table's 3 parts, settlement) may run its items in any order;
    # attackers advertising stale sketches, colluding on one round's honest
    # statistics, and recomputing the sketch of what they send
    monkeypatch.setattr(serial_pool, "shuffle", random.Random(99))
    for attack in (AttackSpec(kind="gaussian", consistent_sketch=False),
                   AttackSpec(kind="directed-deviation", lam=0.5),
                   AttackSpec(kind="gaussian", consistent_sketch=True)):
        for kind in AGGREGATOR_KINDS:
            cfg = _attacked_config(kind, attack)
            reference = run_simulation(cfg)
            shuffled = run_simulation(replace(cfg, threads=3))
            assert csv_bytes(reference) == csv_bytes(shuffled), (kind, attack)
            assert reference.final_models.tobytes() == shuffled.final_models.tobytes(), kind
    assert 3 in serial_pool.log[-1].maps  # the last run's pair table


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging run overflows
def test_pooled_run_builds_one_executor_and_joins_it_before_restoring_blas(serial_pool):
    for kind in AGGREGATOR_KINDS:
        cfg = _attacked_config(kind, threads=3)
        serial_pool.log.clear()
        run_simulation(cfg)
        [pool] = serial_pool.log
        assert pool.max_workers == 3
        assert len(pool.maps) == cfg.rounds * _POOLED_PHASES[kind], kind
        byz = sample_byzantine_nodes(cfg.n_nodes, cfg.byz_fraction, cfg.seeds.byzantine)
        assert byz and [items for name, items in pool.calls if name == "attack"] == (
            [byz] * cfg.rounds), kind
        assert pool.blas_at_exit == 1 and serial_pool.blas == [3]
        run_simulation(replace(cfg, threads=1))
        assert len(serial_pool.log) == 1
    serial_pool.log.clear()
    with pytest.raises(NumericalDivergenceError):
        run_simulation(tiny_config(threads=3, lr=1e200))
    [pool] = serial_pool.log
    assert pool.blas_at_exit == 1 and serial_pool.blas == [3]


def test_runs_without_an_attack_map_no_attack_phase(serial_pool):
    for kind in AGGREGATOR_KINDS:
        for cfg in (_attacked_config(kind, AttackSpec(kind="none"), threads=3),
                    _attacked_config(kind, byz_fraction=0.0, threads=3)):
            serial_pool.log.clear()
            run_simulation(cfg)
            [pool] = serial_pool.log
            assert len(pool.maps) == cfg.rounds * (_POOLED_PHASES[kind] - 1), kind
            assert "attack" not in {name for name, _ in pool.calls}, kind


def test_pooled_run_builds_its_hash_family_before_the_first_map(serial_pool, monkeypatch):
    # on a cold cache, a family first needed inside the pool's sketching
    # phase is built by every worker that misses it
    misses = []
    serial_map = serial_pool.map

    def probed(self, fn, items):
        misses.append(sketch.hash_tables.cache_info().misses)
        return serial_map(self, fn, items)

    monkeypatch.setattr(serial_pool, "map", probed)
    sketch.hash_tables.cache_clear()
    run_simulation(_attacked_config("sketchfilter", threads=3))
    assert misses[0] == 1
    assert sketch.hash_tables.cache_info().misses == 1


def test_thread_budget_is_bounded_by_the_node_count(serial_pool):
    # the fake starts no thread, so an absurd budget is safe to ask for
    for kind in AGGREGATOR_KINDS:
        serial_pool.log.clear()
        run_simulation(_attacked_config(kind, n_nodes=20, threads=10**6))
        [pool] = serial_pool.log
        assert pool.max_workers == 20
        assert pool.maps and max(pool.maps) <= 20, kind


def test_node_streams_are_keyed_not_ordered():
    a = node_stream(7, 2, 3, tag=1).standard_normal(4)
    b = node_stream(7, 2, 3, tag=1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    for other in [(8, 2, 3, 1), (7, 1, 3, 1), (7, 2, 4, 1), (7, 2, 3, 2)]:
        assert not np.array_equal(a, node_stream(*other[:3], tag=other[3]).standard_normal(4))


# ------------------------------------------------------------- honest runs

def test_attack_spec_is_inert_without_byzantine_nodes():
    calm = run_simulation(tiny_config(attack=AttackSpec(kind="none")))
    armed = run_simulation(tiny_config(attack=AttackSpec(kind="gaussian", sigma=5.0)))
    np.testing.assert_array_equal(calm.final_models, armed.final_models)
    assert csv_bytes(calm) == csv_bytes(armed)


def test_none_attack_byzantine_nodes_behave_honestly():
    # compromised nodes run the honest protocol internally; with no attack
    # on the wire the model trajectories match the all-honest run exactly
    honest = run_simulation(tiny_config())
    marked = run_simulation(tiny_config(byz_fraction=0.3))
    np.testing.assert_array_equal(honest.final_models, marked.final_models)


def test_dfedavg_quadratic_suboptimality_decreases_to_plateau():
    cfg = tiny_config(
        aggregator=AggregatorSpec(kind="dfedavg"),
        task=TaskSpec(kind="quadratic", features=8, samples_per_client=64,
                      noise=0.0, concentration=1e8),
        rounds=30,
        lr=0.5,
        batch_size=64,
    )
    ters = [m.mean_ter for m in run_simulation(cfg).metrics]
    # the metric clamps at 1.0 until the gap drops below the normalizer
    live = [v for v in ters if 1e-12 < v < 0.999]
    assert len(live) >= 5
    assert all(b < a for a, b in zip(live, live[1:]))
    assert ters[-1] < 1e-6


def test_zero_lr_keeps_models_at_init_under_dfedavg():
    cfg = tiny_config(aggregator=AggregatorSpec(kind="dfedavg"), lr=0.0, rounds=2)
    res = run_simulation(cfg)
    first = res.final_models[0]
    for row in res.final_models[1:]:
        np.testing.assert_allclose(row, first, rtol=1e-12)


def test_per_client_eval_scores_on_local_shards():
    # a classification task: the quadratic one rejects per_client_eval
    task = TaskSpec(kind="logistic", features=7, classes=3,
                    samples_per_client=40, test_samples=90, concentration=0.2)
    kwargs = dict(task=task,
                  aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=8),
                  lr=0.2)
    shared = run_simulation(tiny_config(**kwargs))
    local = run_simulation(tiny_config(per_client_eval=True, **kwargs))
    np.testing.assert_array_equal(shared.final_models, local.final_models)
    assert shared.metrics[-1].mean_ter != local.metrics[-1].mean_ter


# ------------------------------------------------------------- accounting

def test_accounting_matches_closed_form_when_everyone_accepts():
    n, d, k = 6, 8, 8
    cfg = tiny_config(aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=k,
                                                gamma=1e9))
    res = run_simulation(cfg)
    expect_tx = account_communication("sketchfilter", n - 1, n - 1, d, k)
    for m in res.metrics:
        assert m.params_tx_mean == expect_tx
        assert m.screen_ops_mean == screening_ops("sketchfilter", d, k, n - 1)
        assert m.accept_frac == 1.0
        assert m.fallback_count == 0


@pytest.mark.parametrize("kind", ["dfedavg", "balance", "krum"])
def test_full_precision_accounting(kind):
    n, d = 6, 8
    cfg = tiny_config(aggregator=AggregatorSpec(kind=kind, gamma=1e9))
    res = run_simulation(cfg)
    for m in res.metrics:
        assert m.params_tx_mean == account_communication(kind, n - 1, n - 1, d, 0)
        assert m.screen_ops_mean == screening_ops(kind, d, 0, n - 1)
        assert m.verify_fail == 0


def test_screening_op_formulas():
    assert screening_ops("dfedavg", 100, 8, 7) == 0
    assert screening_ops("balance", 100, 8, 7) == 700
    assert screening_ops("sketchfilter", 100, 8, 7) == 56
    assert screening_ops("krum", 100, 8, 7) == 100 * 28


def test_aggregation_op_formulas():
    assert aggregation_ops("dfedavg", 10, 0, 4, 4) == 50
    assert aggregation_ops("krum", 10, 0, 1, 1) == 10
    assert aggregation_ops("balance", 10, 0, 4, 3) == 40
    assert aggregation_ops("sketchfilter", 10, 8, 4, 3) == 10 * 5 + 10 * 4


def test_account_communication_validation():
    assert account_communication("sketchfilter", 100, 50, 6_600_000, 1000) == 330_100_000
    assert account_communication("balance", 100, 50, 6_600_000, 1000) == 660_000_000
    with pytest.raises(ConfigurationError, match="exceeds neighbor count"):
        account_communication("sketchfilter", 3, 4, 10, 2)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        account_communication("balance", -1, -1, 10, 2)


def test_verification_rejects_mismatched_sketches_but_still_bills_upload():
    # inconsistent attackers pass screening, get fetched (paid for), then fail
    n, d, k = 6, 8, 8
    cfg = tiny_config(
        byz_fraction=0.2,
        attack=AttackSpec(kind="gaussian", sigma=3.0, consistent_sketch=False),
        aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=k, gamma=1e9),
    )
    res = run_simulation(cfg)
    assert len(res.manifest["byzantine_nodes"]) == 1
    honest_count = n - 1
    for m in res.metrics:
        # every honest node screens the attacker in (sketch looks honest)...
        assert m.accept_frac == 1.0
        # ...then verification catches the model/sketch mismatch
        assert m.verify_fail == honest_count
        assert m.byz_accept_frac == 0.0
        # outbound accounting covers the fetch that verification later voids
        assert m.params_tx_mean == account_communication(
            "sketchfilter", n - 1, n - 1, d, k
        )
        # ...and so does the modelled check of every fetched model
        assert m.agg_ops_mean == aggregation_ops("sketchfilter", d, k, n - 1, n - 2)


def test_consistent_attacker_survives_verification():
    cfg = tiny_config(
        byz_fraction=0.2,
        attack=AttackSpec(kind="gaussian", sigma=0.01, consistent_sketch=True),
        aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=8, gamma=1e9),
    )
    res = run_simulation(cfg)
    for m in res.metrics:
        assert m.verify_fail == 0
        assert m.byz_accept_frac == 1.0  # tiny offsets sail through at gamma=1e9


@pytest.mark.parametrize("consistent", [False, True])
def test_each_model_is_folded_once_and_only_stale_sketches_are_checked(
    monkeypatch, consistent
):
    # a stale sketch is checked once a round, and no pair per edge; a
    # consistent attacker advertises the fold of what it sends, so like an
    # honest pair it matches by construction and is never checked. Either
    # way a round folds every model once, plus each attacker's message or check.
    n = 10
    cfg = tiny_config(
        n_nodes=n,
        byz_fraction=0.3,
        rounds=2,
        attack=AttackSpec(kind="gaussian", sigma=3.0, consistent_sketch=consistent),
        aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=8, gamma=1e9),
    )
    calls = folds = 0
    verify = engine.verify_model_against_sketch
    fold = sketch.fold_with_tables

    def counting_verify(*args, **kwargs):
        nonlocal calls
        calls += 1
        return verify(*args, **kwargs)

    def counting_fold(*args, **kwargs):
        nonlocal folds
        folds += 1
        return fold(*args, **kwargs)

    monkeypatch.setattr(engine, "verify_model_against_sketch", counting_verify)
    monkeypatch.setattr(sketch, "fold_with_tables", counting_fold)
    res = run_simulation(cfg)
    byz = len(res.manifest["byzantine_nodes"])
    assert byz == 3
    assert folds == (n + byz) * cfg.rounds
    assert calls == (0 if consistent else byz * cfg.rounds)
    # every honest node screens every attacker in at gamma=1e9, and only a
    # stale pair fails the check, at every receiver
    for m in res.metrics:
        assert m.verify_fail == (0 if consistent else (n - byz) * byz)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the draws overflow to +-inf
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["sketchfilter", "balance", "krum"])
def test_screening_survives_transmissions_that_overflow(monkeypatch, kind, threads):
    # sigma = 1e308 overflows the attackers' gaussian draws to +-inf, so a
    # sketch bucket that sums +inf and -inf holds NaN; were a NaN distance
    # ever a filter's fallback, an honest node would mix in an inf model and
    # the run would stop on divergence
    nan_seen = []
    screen = engine.sketch_filter

    def recorded(*args):
        out = screen(*args)
        nan_seen.append(any(math.isnan(d) for d in out.distances.values()))
        return out

    monkeypatch.setattr(engine, "sketch_filter", recorded)
    res = run_simulation(_overflow_config(kind, TopologySpec(kind="k-regular", degree=4),
                                          0.25, threads))
    assert all(m.byz_accept_frac == 0.0 for m in res.metrics)
    assert np.isfinite(res.final_models).all()
    assert any(nan_seen) == (kind == "sketchfilter")


def _overflow_config(kind, topology, byz_fraction, threads):
    """Gaussian attackers with sigma = 1e308, whose draws overflow to +-inf."""
    return SimConfig(
        task=TaskSpec(kind="logistic", features=15, classes=4, samples_per_client=40,
                      test_samples=200),
        topology=topology,
        aggregator=AggregatorSpec(kind=kind, sketch_size=64, gamma=0.05),
        attack=AttackSpec(kind="gaussian", sigma=1e308),
        n_nodes=16,
        byz_fraction=byz_fraction,
        rounds=3,
        local_epochs=1,
        lr=0.1,
        batch_size=16,
        threads=threads,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the draws overflow to +-inf
@pytest.mark.parametrize("byz_fraction", [0.25, 0.4])
@pytest.mark.parametrize("kind", ["sketchfilter", "balance"])
def test_node_that_meets_no_finite_distance_keeps_its_own_model(monkeypatch, kind,
                                                                byz_fraction):
    # on a ring an honest node whose two neighbours both send overflowed
    # models meets no finite distance; were its fallback one of them, it
    # would mix in inf and the run would stop on divergence
    name = "sketch_filter" if kind == "sketchfilter" else "balance_filter"
    screen, outcomes = getattr(engine, name), []

    def recorded(*args):
        out = screen(*args)
        outcomes.append(out)
        return out

    monkeypatch.setattr(engine, name, recorded)
    serial, pooled = (run_simulation(_overflow_config(kind, TopologySpec(kind="ring"),
                                                      byz_fraction, threads))
                      for threads in (1, 2))
    assert csv_bytes(serial) == csv_bytes(pooled)
    assert serial.final_models.tobytes() == pooled.final_models.tobytes()
    assert all(m.byz_accept_frac == 0.0 for m in serial.metrics)
    assert np.isfinite(serial.final_models).all()
    blind = [o for o in outcomes if not any(map(math.isfinite, o.distances.values()))]
    assert blind and all(o.accepted == [] and not o.fallback_used for o in blind)


# ------------------------------------------------------------- krum paths

def test_krum_engine_tolerates_gaussian_attack():
    cfg = tiny_config(
        aggregator=AggregatorSpec(kind="krum"),
        byz_fraction=0.2,
        attack=AttackSpec(kind="gaussian", sigma=50.0),
        rounds=4,
    )
    res = run_simulation(cfg)
    assert all(m.byz_accept_frac == 0.0 for m in res.metrics)
    assert np.isfinite(res.final_models).all()


def test_krum_f_override_and_derivation():
    cfg = tiny_config(aggregator=AggregatorSpec(kind="krum", krum_f=2))
    assert engine._krum_f(cfg, 10) == 2
    derived = tiny_config(aggregator=AggregatorSpec(kind="krum"), byz_fraction=0.3)
    assert engine._krum_f(derived, 10) == 3
    # clamp: never demand more tolerated faults than krum can score
    assert engine._krum_f(derived, 4) == 1
    assert engine._krum_f(tiny_config(aggregator=AggregatorSpec(kind="krum")), 10) == 0


@pytest.mark.parametrize("chosen, accept_frac", [(0, 0.0), (1, 0.25)])
def test_krum_accept_frac_counts_only_a_chosen_neighbour(monkeypatch, chosen, accept_frac):
    # index 0 of the pool is the node's own model: keeping it accepts no neighbour
    monkeypatch.setattr(engine, "krum_select_index", lambda pool, f, sq=None: chosen)
    cfg = tiny_config(
        aggregator=AggregatorSpec(kind="krum"),
        topology=TopologySpec(kind="k-regular", degree=4),
    )
    res = run_simulation(cfg)
    assert [m.accept_frac for m in res.metrics] == [accept_frac] * cfg.rounds


class _Tagged(np.ndarray):
    """A vector that logs the ids of every subtraction it takes part in."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.subtract:
            self.log.append(frozenset(x.tag for x in inputs))
        plain = [x.view(np.ndarray) if isinstance(x, _Tagged) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _measured_pairs(monkeypatch, kind, attack, threads):
    """Runs a 12-node graph under `kind`; returns the run, its graph, each
    node's own vector id (an attacker screens with its trained vector, id
    n + i, not the one it sends), and per round the id pairs the engine's
    PairTable differenced. Any screening distance taken outside the table
    fails the run."""
    cfg = tiny_config(
        aggregator=AggregatorSpec(kind=kind, sketch_size=8),
        topology=TopologySpec(kind="erdos-renyi", p=0.5),
        n_nodes=12,
        byz_fraction=0.25,
        attack=AttackSpec(kind=attack),
        threads=threads,
    )
    rounds: list[list] = []

    class RecordingTable(PairTable):
        def compute(self, vectors, pmap=map):
            log: list = []
            rounds.append(log)
            tagged = [w.view(_Tagged) for w in vectors]
            for v, w in enumerate(tagged):
                w.tag, w.log = v, log
            return super().compute(tagged, pmap)

    kernel = aggregation._sq_distances

    def table_only(anchor, rows, buf=None):
        assert isinstance(anchor, _Tagged), "a screening distance outside the pair table"
        return kernel(anchor, rows, buf)

    monkeypatch.setattr(engine, "PairTable", RecordingTable)
    monkeypatch.setattr(aggregation, "_sq_distances", table_only)
    res = run_simulation(cfg)
    n = cfg.n_nodes
    assert len(rounds) == cfg.rounds
    byz = set(res.manifest["byzantine_nodes"])
    own = [n + i if i in byz and attack != "none" else i for i in range(n)]
    return res, build_topology(cfg.topology, n, cfg.seeds.topology), own, rounds


_PAIR_CASES = [("none", 1), ("none", 2), ("directed-deviation", 1), ("directed-deviation", 2)]


@pytest.mark.parametrize("attack, threads", _PAIR_CASES)
def test_krum_measures_each_pool_pair_once_a_round(monkeypatch, attack, threads):
    # directed-deviation attackers all send one model but screen with their
    # own: both ids must be measured, and each distinct pair only once
    res, graph, own, rounds = _measured_pairs(monkeypatch, "krum", attack, threads)
    n = len(own)
    byz = set(res.manifest["byzantine_nodes"])
    pools = [[own[i], *graph.neighbors[i]] for i in range(n)]
    needed = {frozenset((a, b)) for ids in pools for a in ids for b in ids if a != b}
    per_node = sum(len(ids) * (len(ids) - 1) // 2 for ids in pools)
    assert len(needed) < per_node
    for log in rounds:
        assert len(log) == len(set(log)) and set(log) == needed
    # the modelled cost still bills every receiver for its whole pool
    d = res.final_models.shape[1]
    honest = [i for i in range(n) if i not in byz]
    for m in res.metrics:
        assert m.screen_ops_mean == np.mean([
            d * graph.degree(i) * (graph.degree(i) + 1) // 2 for i in honest])


@pytest.mark.parametrize("kind", ["balance", "sketchfilter"])
@pytest.mark.parametrize("attack, threads", _PAIR_CASES)
def test_filters_measure_each_edge_once_a_round(monkeypatch, kind, attack, threads):
    # a receiver needs only its own vector against each neighbour's; an
    # edge between two nodes that screen with what they send is one pair
    res, graph, own, rounds = _measured_pairs(monkeypatch, kind, attack, threads)
    n = len(own)
    needed = {frozenset((own[i], j)) for i in range(n) for j in graph.neighbors[i]}
    plain = sum(own[a] == a and own[b] == b for a, b in graph.edges())
    assert len(needed) == 2 * len(graph.edges()) - plain and plain > 0
    for log in rounds:
        assert len(log) == len(set(log)) and set(log) == needed
    # the modelled cost still bills every receiver for each neighbour
    d, k = res.manifest["model_dim"], (res.manifest["sketch"] or {}).get("width", 0)
    honest = [i for i in range(n) if i not in set(res.manifest["byzantine_nodes"])]
    for m in res.metrics:
        assert m.screen_ops_mean == np.mean([
            screening_ops(kind, d, k, graph.degree(i)) for i in honest])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_settlement_screens_through_one_engine_filter_per_node_and_round(
    monkeypatch, kind, threads
):
    # the tracer times the filters under the names settlement looks up in
    # the engine; sketch values reach the rule only through sketch_filter's
    # fingerprint check, which calls aggregation's balance_filter, not the
    # engine's, so a traced balance span comes only from a balance run
    calls: list[str] = []  # list.append is atomic, so pool threads may share it

    def count(module, name: str, label: str) -> None:
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(label)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(engine, "sketch_filter", "engine.sketch_filter")
    count(engine, "balance_filter", "engine.balance_filter")
    count(aggregation, "balance_filter", "aggregation.balance_filter")
    cfg = tiny_config(
        aggregator=AggregatorSpec(kind=kind, sketch_size=8),
        byz_fraction=0.2,
        attack=AttackSpec(kind="gaussian"),
        threads=threads,
    )
    run_simulation(cfg)
    per_run = cfg.n_nodes * cfg.rounds
    sketching, balance = kind == "sketchfilter", kind == "balance"
    assert calls.count("engine.sketch_filter") == (per_run if sketching else 0)
    assert calls.count("engine.balance_filter") == (per_run if balance else 0)
    assert calls.count("aggregation.balance_filter") == (per_run if sketching else 0)


def test_attackers_advertising_their_own_sketch_screen_under_their_own_id(monkeypatch):
    # an attacker screens under id n + i also when it advertises its own
    # sketch (consistent_sketch = false), so the table holds every edge
    # that does not join two attackers, plus one pair per attacker and
    # neighbour
    n_pairs: list[int] = []

    class RecordingTable(PairTable):
        def __init__(self, pools, star=False, parts=1):
            super().__init__(pools, star, parts)
            n_pairs.append(self.n_pairs)

    monkeypatch.setattr(engine, "PairTable", RecordingTable)
    cfg = tiny_config(
        topology=TopologySpec(kind="k-regular", degree=16),
        n_nodes=64,
        byz_fraction=0.25,
        attack=AttackSpec(kind="gaussian", consistent_sketch=False),
        rounds=1,
    )
    res = run_simulation(cfg)
    graph = build_topology(cfg.topology, 64, cfg.seeds.topology)
    byz = set(res.manifest["byzantine_nodes"])
    plain = sum(not {a, b} <= byz for a, b in graph.edges())
    assert n_pairs == [plain + sum(graph.degree(i) for i in byz)] == [737]


# ------------------------------------------------------------- config guards

def test_simconfig_validation():
    with pytest.raises(ConfigurationError, match="n_nodes"):
        tiny_config(n_nodes=1)
    with pytest.raises(ConfigurationError, match="byz_fraction"):
        tiny_config(byz_fraction=0.9)
    with pytest.raises(ConfigurationError, match="rounds"):
        tiny_config(rounds=0)
    with pytest.raises(ConfigurationError, match="local_epochs"):
        tiny_config(local_epochs=0)
    with pytest.raises(ConfigurationError, match="lr"):
        tiny_config(lr=-0.1)
    with pytest.raises(ConfigurationError, match="batch_size"):
        tiny_config(batch_size=0)
    with pytest.raises(ConfigurationError, match="threads"):
        tiny_config(threads=0)
    with pytest.raises(ConfigurationError, match="per_client_eval"):
        tiny_config(per_client_eval=True)  # quadratic task


def test_sketch_width_must_fit_model():
    cfg = tiny_config(aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=512))
    with pytest.raises(ConfigurationError, match="exceeds model dimension"):
        run_simulation(cfg)


def _padded_quadratic(dim, sketch_size=0) -> SimConfig:
    task = TaskSpec(kind="quadratic", features=8, dim=dim, samples_per_client=32, test_samples=64)
    return tiny_config(task=task, rounds=1,
                       aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=sketch_size))


@pytest.mark.parametrize("dim, width", [(8, 8), (288, 36)])
def test_default_sketch_width_warns_where_epsilon_hat_is_capped(dim, width):
    # at k <= 36 epsilon_hat sits at its 0.99 cap and bounds nothing
    with pytest.warns(RuntimeWarning, match=f"default sketch width {width} is 36 or less") as caught:
        res = run_simulation(_padded_quadratic(dim))
    assert len(caught) == 1 and res.manifest["sketch"]["epsilon_hat"] == 0.99
    # a default of 37, or a width the config sets, stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_simulation(_padded_quadratic(296)).manifest["sketch"]["width"] == 37
        run_simulation(_padded_quadratic(dim, sketch_size=8))


def test_disconnected_honest_subgraph_warns_and_flags():
    # ring of four: compromising the two opposite nodes splits the rest
    seed = next(
        s for s in range(200)
        if sample_byzantine_nodes(4, 0.5, s) in ([0, 2], [1, 3])
    )
    cfg = tiny_config(
        n_nodes=4,
        topology=TopologySpec(kind="ring"),
        byz_fraction=0.5,
        seeds=Seeds(byzantine=seed),
        rounds=1,
    )
    with pytest.warns(RuntimeWarning, match="disconnected"):
        res = run_simulation(cfg)
    assert res.manifest["honest_subgraph_connected"] is False


# ------------------------------------------------------------- manifest

def test_manifest_reproduces_run_inputs():
    cfg = tiny_config(byz_fraction=0.3)
    res = run_simulation(cfg, run_id="probe")
    man = res.manifest
    assert man["run_id"] == "probe"
    assert man["config"]["n_nodes"] == 6
    assert man["config"]["aggregator"]["kind"] == "sketchfilter"
    assert man["byzantine_nodes"] == sorted(man["byzantine_nodes"])
    assert len(man["byzantine_nodes"]) == 2
    assert len(man["topology_digest"]) == 64
    assert man["topology_edges"] == 15
    assert man["model_dim"] == 8
    assert man["metric_name"] == "suboptimality"
    assert man["sketch"]["width"] == 8
    assert man["sketch"]["seed"] == 42
    assert man["sketch"]["gamma_eff"] > man["config"]["aggregator"]["gamma"]
    # the config and code version are the manifest's only inputs
    assert set(man) == {
        "run_id", "code_version", "config", "byzantine_nodes", "honest_subgraph_connected",
        "topology_digest", "topology_edges", "model_dim", "metric_name", "sketch",
    }


def test_default_run_id_names_the_setup():
    res = run_simulation(tiny_config(rounds=1))
    assert res.manifest["run_id"] == "sketchfilter-none-b0"


# ------------------------------------------------------------- sweep

def test_derive_seeds_rekeys_everything_but_sketch():
    a, b = derive_seeds(0), derive_seeds(1)
    assert a.sketch == b.sketch == 42
    assert a.data != b.data
    assert a.topology != b.topology
    assert a.training != b.training
    assert len({a.data, a.topology, a.byzantine, a.training, a.attack}) == 5


def test_sweep_emits_one_row_per_round_per_run():
    cfg = tiny_config(rounds=2)
    rows, manifests = sweep(cfg, [0.0, 0.25], [0, 1])
    assert len(rows) == 2 * 2 * 2
    assert len(manifests) == 4
    assert rows[0][0] == "sketchfilter-none-b0-m0"
    assert {r[1] for r in rows} == {0, 1}          # master seed column
    assert {r[2] for r in rows} == {0.0, 0.25}     # fraction column
    assert [r[3] for r in rows[:2]] == [0, 1]      # round column


def test_sweep_validates_inputs():
    cfg = tiny_config(rounds=1)
    with pytest.raises(ConfigurationError, match="outside"):
        sweep(cfg, [0.9], [0])
    with pytest.raises(ConfigurationError, match="master seed"):
        sweep(cfg, [0.0], [])
    with pytest.raises(ConfigurationError, match="byzantine fraction"):
        sweep(cfg, [], [0])


SWEEP_CONFIG = SimConfig(
    task=TaskSpec(kind="logistic", features=6, classes=3, samples_per_client=24,
                  test_samples=60, concentration=0.3),
    topology=TopologySpec(kind="k-regular", degree=4),
    aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=8, gamma=1.0, kappa=2.0),
    attack=AttackSpec(kind="gaussian", sigma=1.0, consistent_sketch=False),
    n_nodes=10,
    rounds=3,
    local_epochs=1,
    lr=0.2,
    batch_size=8,
)
# (fractions, masters, SHA-256 of the metrics CSV text, of json.dumps(manifests));
# duplicate entries still give one run per listed pair
SWEEP_CASES = {
    "grid": ([0.0, 0.2, 0.4], [3, 4], (
        "4e7e54b48ff7a3beed356c1f0dc496f8fb17794ac190cf79764171df66980069",
        "4bfbf668d1ddf7daea48107647d04332805b78f3eb29599730124c40f210bc8a",
    )),
    "duplicates": ([0.2, 0.2], [5, 5], (
        "11707fd18b1b77e7af4cc3a5620054fb5b083b95711cd3173b76955fb3e39885",
        "b461a95bcfdfd521727381980019c9c116bce2e7ffa65f88c9ff5da9ba247a47",
    )),
}


@pytest.mark.digest
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # byz 0.4 cuts the honest subgraph
@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_matches_pinned_digests(name):
    fractions, masters, (csv_digest, manifests_digest) = SWEEP_CASES[name]
    rows, manifests = sweep(SWEEP_CONFIG, fractions, masters)
    assert len(manifests) == len(fractions) * len(masters)
    assert hashlib.sha256(metrics_csv_text(rows).encode()).hexdigest() == csv_digest
    assert hashlib.sha256(json.dumps(manifests).encode()).hexdigest() == manifests_digest


def test_sweep_generates_each_listed_masters_data_once(monkeypatch):
    made = []

    def generate(spec, n_clients, seed):
        assert all(ref() is None for ref in made)  # the previous master's data is freed
        data = real(spec, n_clients, seed)
        made.append(weakref.ref(data))
        return data

    real = engine.generate_federated_data
    monkeypatch.setattr(engine, "generate_federated_data", generate)
    masters = [3, 4, 3]
    rows, _ = sweep(tiny_config(rounds=1), [0.0, 0.2, 0.4], masters)
    assert len(made) == len(masters)
    assert [r[:3] for r in rows] == [
        (f"sketchfilter-none-b{frac:g}-m{m}", m, frac) for frac in (0.0, 0.2, 0.4) for m in masters
    ]


def test_run_rejects_data_generated_for_another_config():
    cfg = tiny_config(rounds=2)
    data = generate_federated_data(cfg.task, cfg.n_nodes, cfg.seeds.data)
    given = run_simulation(cfg, data=data)
    assert csv_bytes(given) == csv_bytes(run_simulation(cfg))
    for other in (
        generate_federated_data(replace(cfg.task, noise=0.2), cfg.n_nodes, cfg.seeds.data),
        generate_federated_data(cfg.task, cfg.n_nodes, cfg.seeds.data + 1),
        generate_federated_data(cfg.task, cfg.n_nodes + 1, cfg.seeds.data),
    ):
        with pytest.raises(ConfigurationError, match="another task spec"):
            run_simulation(cfg, data=other)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dfedavg_degrades_with_byzantine_fraction():
    # regression baseline: 9 fractions x 3 seeds on the logistic fixture;
    # the 3-seed mean TER trends up with at most 1pp of saturation wiggle
    base = parse_config(ROBUSTNESS_INI)
    cfg = replace(base, aggregator=replace(base.aggregator, kind="dfedavg"))
    fractions = [round(0.1 * i, 1) for i in range(9)]
    rows, manifests = sweep(cfg, fractions, [0, 1, 2])
    assert len(rows) == 9 * 3 * cfg.rounds
    assert len(manifests) == 27
    finals = {}
    for r in rows:
        if r[3] == cfg.rounds - 1:
            finals.setdefault(r[2], []).append(r[4])
    means = [float(np.mean(finals[f])) for f in fractions]
    assert all(b >= a - 0.01 for a, b in zip(means, means[1:]))
    assert means[-1] - means[0] >= 0.20


# ------------------------------------------------------------- memory

@pytest.mark.parametrize("kind", ["sketchfilter", "balance", "dfedavg", "krum"])
def test_run_holds_two_model_stacks(kind):
    # a run keeps the round-start stack and one spare for training; a
    # third model-sized array per round (a fresh training copy, mixing
    # output or evaluation gather) would push the peak past 3.5 stacks.
    # Attackers transmit from their own round-start rows, so half the
    # nodes attacking costs at most one more model row than none: a fresh
    # transmission per attacker would cost one row each
    n, d = 16, 40_000
    data = generate_federated_data(TaskSpec(kind="logistic", dim=d), n, Seeds().data)

    def peak_bytes(attack, byz_fraction):
        cfg = SimConfig(
            task=data.spec,
            topology=TopologySpec(kind="k-regular", degree=4),
            aggregator=AggregatorSpec(kind=kind),
            attack=AttackSpec(kind=attack),
            n_nodes=n,
            byz_fraction=byz_fraction,
            rounds=3,
        )
        tracemalloc.start()
        try:
            run_simulation(cfg, data=data)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for attack in ("gaussian", "directed-deviation"):
        peaks = [peak_bytes(attack, byz) for byz in (0.0, 0.25, 0.5)]
        assert max(peaks) < 3.5 * n * d * 8, attack
        assert peaks[2] <= peaks[0] + d * 8, attack


@pytest.mark.parametrize("attack", ["gaussian", "directed-deviation"])
def test_training_alternates_between_two_stacks_allocated_before_round_0(monkeypatch, attack):
    # local_update trains the stack it is given in place; the two stacks,
    # both allocated before round 0's training, swap roles every round
    n, d, rounds = 8, 20_000, 4
    stack_bytes = n * d * 8
    data = generate_federated_data(TaskSpec(kind="logistic", dim=d), n, Seeds().data)
    given, held = [], []
    engine_local_update = engine.local_update

    def recording(task, models, *args, **kwargs):
        given.append(models)
        held.append(tracemalloc.get_traced_memory()[0])
        trained = engine_local_update(task, models, *args, **kwargs)
        assert trained is models
        return trained

    monkeypatch.setattr(engine, "local_update", recording)
    for kind in AGGREGATOR_KINDS:
        cfg = SimConfig(
            task=data.spec,
            topology=TopologySpec(kind="k-regular", degree=4),
            aggregator=AggregatorSpec(kind=kind),
            attack=AttackSpec(kind=attack),
            n_nodes=n,
            byz_fraction=0.25,
            rounds=rounds,
        )
        given.clear()
        held.clear()
        tracemalloc.start()
        try:
            result = run_simulation(cfg, data=data)
        finally:
            tracemalloc.stop()
        first, second = given[:2]
        assert first is not second and not np.shares_memory(first, second), kind
        assert all(models is (first, second)[t % 2] for t, models in enumerate(given)), kind
        assert all(s.shape == (n, d) and s.flags.c_contiguous for s in (first, second)), kind
        assert result.final_models is (first, second)[rounds % 2], kind
        assert held[0] >= 2 * stack_bytes, kind  # the spare exists before round 0 trains


def test_per_client_eval_reads_shards_in_place():
    # scoring each honest node on its own shard reads the shard stack in
    # place: a gathered copy of the honest shards, held for the whole run,
    # would alone outweigh the run's peak (models here are small, shards big)
    n, byz_fraction = 16, 0.25
    data = generate_federated_data(TaskSpec(kind="logistic", samples_per_client=4000), n,
                                   Seeds().data)
    cfg = SimConfig(
        task=data.spec,
        topology=TopologySpec(kind="k-regular", degree=4),
        attack=AttackSpec(kind="gaussian"),
        n_nodes=n,
        byz_fraction=byz_fraction,
        rounds=1,
        per_client_eval=True,
    )
    honest_copy = (1 - byz_fraction) * (data.features.nbytes + data.labels.nbytes)
    tracemalloc.start()
    try:
        run_simulation(cfg, data=data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < honest_copy, (peak, honest_copy)


# ------------------------------------------------------------- screening cost

def test_screening_ops_double_with_degree():
    # sketch and full-precision screening both cost one distance per neighbor
    def screen_ops(kind, degree):
        cfg = SimConfig(
            task=TaskSpec(kind="quadratic", features=32, samples_per_client=64, dim=2000),
            topology=TopologySpec(kind="k-regular", degree=degree),
            aggregator=AggregatorSpec(kind=kind),
            n_nodes=12, rounds=1, local_epochs=1, lr=0.01,
        )
        return run_simulation(cfg).metrics[0].screen_ops_mean

    for kind in ("sketchfilter", "balance"):
        assert screen_ops(kind, 8) == 2 * screen_ops(kind, 4) > 0, kind


def test_bench_dims_fixed_sketch_cost():
    # sketch screening costs sketch_size per neighbor whatever the dimension;
    # full-precision screening costs dim per neighbor
    def screen_ops(kind, dim):
        cfg = SimConfig(
            task=TaskSpec(kind="quadratic", features=32, samples_per_client=64, dim=dim),
            topology=TopologySpec(kind="k-regular", degree=8),
            aggregator=AggregatorSpec(kind=kind, sketch_size=64),
            n_nodes=12, rounds=1, local_epochs=1, lr=0.01,
        )
        return run_simulation(cfg).metrics[0].screen_ops_mean

    sf = [screen_ops("sketchfilter", dim) for dim in (1000, 10_000)]
    fp = [screen_ops("balance", dim) for dim in (1000, 10_000)]
    assert sf[0] == sf[1] == 64 * 8
    assert fp[1] == 10 * fp[0] == 10_000 * 8
