"""Round orchestration: determinism, accounting, barriers, sweep, bench."""
import hashlib
import json
import random
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sketchdfl.engine as engine
import sketchdfl.sketch as sketch
from sketchdfl.aggregation import AggregatorSpec, PairTable
from sketchdfl.attacks import AttackSpec
from sketchdfl.config import parse_config
from sketchdfl.engine import (
    BenchRow,
    Seeds,
    SimConfig,
    account_communication,
    aggregation_ops,
    bench,
    derive_seeds,
    metrics_rows,
    node_stream,
    run_simulation,
    screening_ops,
    sweep,
)
from sketchdfl.errors import ConfigurationError
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
    serial = run_simulation(tiny_config(threads=1))
    pooled = run_simulation(tiny_config(threads=threads))
    assert csv_bytes(serial) == csv_bytes(pooled)
    np.testing.assert_array_equal(serial.final_models, pooled.final_models)


def test_shuffled_node_processing_order_is_invisible(monkeypatch):
    # barrier semantics: per-phase results may be computed in any order
    reference = run_simulation(tiny_config())

    def scrambled_pmap(fn, n, threads):
        order = list(range(n))
        random.Random(99).shuffle(order)
        out = [None] * n
        for i in order:
            out[i] = fn(i)
        return out

    monkeypatch.setattr(engine, "_pmap", scrambled_pmap)
    shuffled = run_simulation(tiny_config())
    assert csv_bytes(reference) == csv_bytes(shuffled)
    np.testing.assert_array_equal(reference.final_models, shuffled.final_models)


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


def test_verification_rejects_mismatched_sketches_but_still_bills_upload(monkeypatch):
    # inconsistent attackers pass screening, get fetched (paid for), then fail
    n, d, k = 6, 8, 8
    cfg = tiny_config(
        byz_fraction=0.2,
        attack=AttackSpec(kind="gaussian", sigma=3.0, consistent_sketch=False),
        aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=k, gamma=1e9),
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
    assert byz == 1
    # only attackers' pairs are checked, once a round each: an honest pair
    # matches by construction, and no pair is checked per edge
    assert calls == byz * cfg.rounds
    # each model is sketched once; the only recompute is the attacker's check
    assert folds == (n + byz) * cfg.rounds
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


@pytest.mark.parametrize("attack, threads", [("none", 1), ("directed-deviation", 1),
                                            ("directed-deviation", 2)])
def test_krum_measures_each_pool_pair_once_a_round(monkeypatch, attack, threads):
    # directed-deviation attackers all send one model but screen with their
    # own: both ids must be measured, and each distinct pair only once
    cfg = tiny_config(
        aggregator=AggregatorSpec(kind="krum"),
        topology=TopologySpec(kind="erdos-renyi", p=0.5),
        n_nodes=12,
        byz_fraction=0.25,
        attack=AttackSpec(kind=attack),
        threads=threads,
    )
    rounds: list[list] = []

    class RecordingTable(PairTable):
        def compute(self, vectors, threads=1):
            log: list = []
            rounds.append(log)
            tagged = [w.view(_Tagged) for w in vectors]
            for v, w in enumerate(tagged):
                w.tag, w.log = v, log
            return super().compute(tagged, threads)

    monkeypatch.setattr(engine, "PairTable", RecordingTable)
    res = run_simulation(cfg)
    n = cfg.n_nodes
    graph = build_topology(cfg.topology, n, cfg.seeds.topology)
    byz = set(res.manifest["byzantine_nodes"])
    own = [n + i if i in byz and attack != "none" else i for i in range(n)]
    pools = [[own[i], *graph.neighbors[i]] for i in range(n) if graph.degree(i) >= 2]
    needed = {frozenset((a, b)) for ids in pools for a in ids for b in ids if a != b}
    per_node = sum(len(ids) * (len(ids) - 1) // 2 for ids in pools)
    assert len(rounds) == cfg.rounds and len(needed) < per_node
    for log in rounds:
        assert len(log) == len(set(log)) and set(log) == needed
    # the modelled cost still bills every receiver for its whole pool
    d = res.final_models.shape[1]
    honest = [i for i in range(n) if i not in byz]
    for m in res.metrics:
        assert m.screen_ops_mean == np.mean([
            d * graph.degree(i) * (graph.degree(i) + 1) // 2 for i in honest])


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
    # output or evaluation gather) would push the peak past 3.5 stacks
    n, d = 16, 40_000
    cfg = SimConfig(
        task=TaskSpec(kind="logistic", dim=d),
        topology=TopologySpec(kind="k-regular", degree=4),
        aggregator=AggregatorSpec(kind=kind),
        attack=AttackSpec(kind="gaussian"),
        n_nodes=n,
        byz_fraction=0.25,
        rounds=3,
    )
    tracemalloc.start()
    try:
        run_simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * n * d * 8


# ------------------------------------------------------------- bench

def bench_base(**overrides) -> SimConfig:
    # pin the sketch width so dim rungs share one screening budget
    base = dict(
        task=TaskSpec(kind="quadratic", features=32, samples_per_client=64),
        topology=TopologySpec(kind="k-regular", degree=8),
        aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=64),
        n_nodes=16,
        rounds=1,
        local_epochs=1,
        lr=0.01,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_bench_dims_fixed_sketch_cost():
    rows = bench("dims", config=bench_base(), dim_ladder=(1000, 10_000))
    sf = [r for r in rows if r.aggregator == "sketchfilter"]
    fp = [r for r in rows if r.aggregator == "balance"]
    assert [r.x_value for r in sf] == [1000, 10_000]
    assert sf[0].screen_ops == sf[1].screen_ops == 64 * 8
    assert fp[1].screen_ops == 10 * fp[0].screen_ops
    assert not any(r.truncated for r in rows)


def test_bench_dims_runs_small_rungs_at_a_large_natural_size():
    # natural size 10 * (300 + 1) = 3010: the two lower rungs collapse onto it
    task = TaskSpec(kind="logistic", features=300, samples_per_client=8, test_samples=16)
    rows = bench("dims", config=bench_base(task=task), dim_ladder=(2000, 3000, 10_000))
    balance = [(r.x_value, r.screen_ops) for r in rows if r.aggregator == "balance"]
    # full-precision screening costs dim multiply-adds per neighbor
    assert balance == [(3010, 3010.0 * 8), (10_000, 10_000.0 * 8)]


def test_bench_degree_grows_screening_linearly():
    rows = bench("degree", degree_ladder=((4, 12), (8, 12)))
    sf = [r for r in rows if r.aggregator == "sketchfilter"]
    assert [r.x_value for r in sf] == [4, 8]
    assert sf[1].screen_ops == 2 * sf[0].screen_ops


def test_bench_budget_truncates_ladder():
    rows = bench("dims", dim_ladder=(1000, 50_000_000), budget_bytes=10_000_000)
    assert [r.truncated for r in rows] == [False, False, True, True]
    marker = rows[-1]
    assert isinstance(marker, BenchRow)
    assert marker.x_value == 50_000_000
    assert marker.screen_ops == 0.0


def test_bench_rejects_unknown_mode():
    with pytest.raises(ConfigurationError, match="bench mode"):
        bench("nodes")
