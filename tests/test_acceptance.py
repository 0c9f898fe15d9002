"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured values, then
asserts. Heavy fixtures are shared at module scope so the whole file
stays in the tens of seconds.
"""
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sketchdfl.aggregation import (
    AggregatorSpec,
    balance_filter,
    gamma_eff,
    sketch_filter,
)
from sketchdfl.attacks import AttackSpec
from sketchdfl.config import parse_config
from sketchdfl.engine import (
    SimConfig,
    Seeds,
    account_communication,
    bench,
    derive_seeds,
    metrics_rows,
    node_stream,
    run_simulation,
)
from sketchdfl.io import metrics_csv_text
from sketchdfl.learning import (
    TaskSpec,
    generate_federated_data,
    local_update,
    make_task,
)
from sketchdfl.sketch import SketchParams, compute_sketch, epsilon_hat
from sketchdfl.topology import TopologySpec

ROBUSTNESS_INI = Path(__file__).resolve().parent.parent / "configs" / "robustness.ini"


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d} [{label}]: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def robustness_config() -> SimConfig:
    return parse_config(ROBUSTNESS_INI)


def _fixture_runs(config, kind, fractions, masters, **agg_overrides):
    out = {}
    for frac in fractions:
        for master in masters:
            cfg = replace(
                config,
                byz_fraction=frac,
                seeds=derive_seeds(master, config.seeds.sketch),
                aggregator=replace(config.aggregator, kind=kind, **agg_overrides),
            )
            out[(frac, master)] = run_simulation(cfg)
    return out


@pytest.fixture(scope="module")
def sketchfilter_runs(robustness_config):
    return _fixture_runs(robustness_config, "sketchfilter", (0.3, 0.5), (0, 1, 2))


@pytest.fixture(scope="module")
def balance_runs(robustness_config):
    return _fixture_runs(robustness_config, "balance", (0.3, 0.5), (0, 1, 2))


@pytest.fixture(scope="module")
def dfedavg_runs(robustness_config):
    return _fixture_runs(robustness_config, "dfedavg", (0.5,), (0, 1, 2))


def final_ter(result) -> float:
    return result.metrics[-1].mean_ter


# -------------------------------------------------------------------------

def test_criterion_01_sketch_linearity():
    dim, width = 10_000, 512
    params = SketchParams(dim=dim, width=width, seed=101)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        a, b = rng.uniform(-2, 2, size=2)
        combined = compute_sketch(params, a * u + b * v).values
        separate = a * compute_sketch(params, u).values + b * compute_sketch(params, v).values
        err = float(np.linalg.norm(combined - separate))
        scale = max(float(np.linalg.norm(separate)), 1e-30)
        worst = max(worst, err / scale)
    report(1, "sketch linearity", worst <= 1e-6,
           f"max relative error {worst:.2e} over 100 pairs at d=1e4, k=512")


def test_criterion_02_distance_preservation_band():
    dim, width = 10_000, 2000
    eps = epsilon_hat(width)
    params = SketchParams(dim=dim, width=width, seed=77)
    rng = np.random.default_rng(7)
    inside = 0
    pairs = 1000
    for _ in range(pairs):
        diff = rng.standard_normal(dim)  # CS(u) - CS(v) = CS(u - v)
        ratio = compute_sketch(params, diff).norm() ** 2 / float(diff @ diff)
        inside += abs(ratio - 1.0) <= eps
    frac = inside / pairs
    report(2, "distance preservation", frac >= 0.99,
           f"{frac:.1%} of {pairs} pairs within 1±{eps:.4f} at k=2000")


def test_criterion_03_gamma_eff_formula():
    worst = max(
        abs(gamma_eff(g, 0.1) - 1.1055 * g) for g in (0.5, 1.0, 2.0, 3.7)
    )
    report(3, "gamma_eff formula", worst <= 1e-3,
           f"max |gamma_eff(g, 0.1) - 1.1055 g| = {worst:.2e}")


def test_criterion_04_filter_equivalence_outside_band():
    dim, width = 512, 256
    gamma, kappa, t, rounds = 1.5, 1.0, 2, 10
    root = np.random.default_rng(20260816)
    mismatches = 0
    fixtures = 500
    for _ in range(fixtures):
        rng = np.random.default_rng(root.integers(2**63))
        params = SketchParams(dim=dim, width=width, seed=int(rng.integers(2**31)))
        ref = rng.standard_normal(dim)
        ref *= 10.0 / np.linalg.norm(ref)
        tau = gamma * math.exp(-kappa * t / rounds) * float(np.linalg.norm(ref))
        models = {}
        for j in range(8):
            frac = rng.uniform(0.15, 0.55) if j % 2 == 0 else rng.uniform(2.6, 4.0)
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            models[j] = ref + frac * tau * direction
        full = balance_filter(ref, models, gamma, kappa, t, rounds)
        sk = sketch_filter(
            compute_sketch(params, ref),
            {j: compute_sketch(params, w) for j, w in models.items()},
            gamma, kappa, t, rounds,
        )
        mismatches += full.accepted != sk.accepted
    report(4, "filter equivalence", mismatches == 0,
           f"{fixtures - mismatches}/{fixtures} acceptance sets identical "
           f"(distances kept clear of the tau band)")


def test_criterion_05_gamma_infinity_degeneracy():
    n, rounds, alpha, lr, epochs, batch = 10, 5, 0.5, 0.05, 1, 32
    task_spec = TaskSpec(kind="quadratic", features=16, samples_per_client=32,
                         test_samples=16)
    seeds = Seeds()

    def run(kind):
        cfg = SimConfig(
            task=task_spec,
            topology=TopologySpec(kind="full"),
            aggregator=AggregatorSpec(kind=kind, gamma=1e9, alpha=alpha,
                                      sketch_size=16),
            n_nodes=n, rounds=rounds, local_epochs=epochs, lr=lr,
            batch_size=batch, seeds=seeds,
        )
        return run_simulation(cfg).final_models

    sketched = run("sketchfilter")
    full_precision = run("balance")

    # independent alpha-mixing replay with every neighbor always accepted
    data = generate_federated_data(task_spec, n, seeds.data)
    task = make_task(task_spec, data)
    init = task.init_model(node_stream(seeds.training, 0, 0, tag=0xC0))
    models = [init.copy() for _ in range(n)]
    for t in range(rounds):
        trained = local_update(task, models, data.features, data.labels, lr, epochs, batch,
                               [node_stream(seeds.training, t, i, tag=1) for i in range(n)])
        nxt = []
        for i in range(n):
            acc = np.zeros_like(trained[i])
            nbrs = [j for j in range(n) if j != i]
            for j in nbrs:
                acc += trained[j]
            nxt.append(alpha * trained[i] + (1 - alpha) / len(nbrs) * acc)
        models = nxt
    reference = np.stack(models)

    same_pair = bool((sketched == full_precision).all())
    same_ref = bool((sketched == reference).all())
    report(5, "gamma to infinity degeneracy", same_pair and same_ref,
           f"sketch==full bitwise: {same_pair}; ==alpha-mix replay: {same_ref} "
           f"({rounds} rounds, n={n}, full graph)")


def test_criterion_06_communication_arithmetic():
    neighbors, d, k = 100, 6_600_000, 1000
    sketch_half = account_communication("sketchfilter", neighbors, 50, d, k)
    baseline = account_communication("balance", neighbors, neighbors, d, k)
    reduction_half = 1 - sketch_half / baseline
    benign = account_communication("sketchfilter", neighbors, neighbors, d, k)
    penalty = (benign - baseline) / baseline
    sketch_30 = account_communication("sketchfilter", neighbors, 30, d, k)
    reduction_70 = 1 - sketch_30 / baseline
    ok = (
        sketch_half == 330_100_000
        and baseline == 660_000_000
        and 0.49 <= reduction_half <= 0.51
        and 0 < penalty < 0.0002
        and sketch_30 == 198_100_000
        and 0.699 <= reduction_70 <= 0.701
    )
    report(6, "communication arithmetic", ok,
           f"330.1M vs 660M ({reduction_half:.2%} cut), benign penalty "
           f"{penalty:.4%}, 70% filtering -> {reduction_70:.2%} cut")


def test_criterion_07_screening_cost_independent_of_dimension():
    base = SimConfig(
        task=TaskSpec(kind="quadratic", features=32, samples_per_client=64),
        topology=TopologySpec(kind="k-regular", degree=8),
        aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=256),
        n_nodes=16, rounds=1, local_epochs=1, lr=0.01,
    )
    rows = bench("dims", config=base, dim_ladder=(22_000, 220_000))
    sf = {r.x_value: r for r in rows if r.aggregator == "sketchfilter"}
    fp = {r.x_value: r for r in rows if r.aggregator == "balance"}
    sketch_flat = sf[22_000].screen_ops == sf[220_000].screen_ops == 256 * 8
    full_tenfold = fp[220_000].screen_ops == 10 * fp[22_000].screen_ops
    report(7, "screening cost vs dimension", sketch_flat and full_tenfold,
           f"sketch ops {sf[22_000].screen_ops:.0f} == {sf[220_000].screen_ops:.0f} "
           f"across 10x dim; full-precision {fp[22_000].screen_ops:.0f} -> "
           f"{fp[220_000].screen_ops:.0f}")


def test_criterion_08_strongly_convex_convergence():
    topology = TopologySpec(kind="erdos-renyi", p=0.45)

    def build(batch, noise, conc, rounds):
        return SimConfig(
            task=TaskSpec(kind="quadratic", features=32, samples_per_client=200,
                          noise=noise, concentration=conc),
            topology=topology,
            aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=16),
            n_nodes=10, rounds=rounds, local_epochs=1, lr=0.0,
            batch_size=batch, seeds=Seeds(),
        )

    probe = build(200, 0.0, 1e8, 30)
    data = generate_federated_data(probe.task, probe.n_nodes, probe.seeds.data)
    task = make_task(probe.task, data)
    eta = 1.0 / (4.0 * task.lipschitz)
    bound = (1.0 - task.mu * eta) + 0.05

    smooth = run_simulation(replace(probe, lr=eta))
    ters = [m.mean_ter for m in smooth.metrics]
    # skip the clamped head (metric pegged at 1.0) and the numeric floor
    live = [(a, b) for a, b in zip(ters, ters[1:]) if 1e-13 < a < 0.999]
    ratios = [b / a for a, b in live]
    contraction_ok = len(ratios) >= 5 and all(r <= bound for r in ratios)
    decreasing_ok = all(r < 1.0 for r in ratios)

    noisy = run_simulation(replace(build(8, 0.1, 1.0, 40), lr=eta))
    tail = [m.mean_ter for m in noisy.metrics[-8:]]
    plateau_ok = min(tail) > 0.01 and max(tail) / min(tail) < 2.0
    separation_ok = ters[-1] < 1e-3

    ok = contraction_ok and decreasing_ok and plateau_ok and separation_ok
    report(8, "strongly convex convergence", ok,
           f"max ratio {max(ratios):.3f} <= bound {bound:.3f} over {len(ratios)} "
           f"rounds; minibatch floor {min(tail):.3f} vs full-batch final "
           f"{ters[-1]:.1e}")


def test_criterion_09_desk_scale_robustness(sketchfilter_runs, balance_runs,
                                            dfedavg_runs):
    gaps = [
        abs(final_ter(sketchfilter_runs[key]) - final_ter(balance_runs[key]))
        for key in sketchfilter_runs
    ]
    mean_gap = float(np.mean(gaps))

    sf_50 = float(np.mean([final_ter(sketchfilter_runs[(0.5, m)]) for m in (0, 1, 2)]))
    df_50 = float(np.mean([final_ter(dfedavg_runs[(0.5, m)]) for m in (0, 1, 2)]))
    lead = df_50 - sf_50

    late_byz = max(
        m.byz_accept_frac
        for result in sketchfilter_runs.values()
        for m in result.metrics
        if m.round > 2
    )

    ok = mean_gap <= 0.010 and lead >= 0.10 and late_byz < 0.05
    report(9, "desk-scale robustness", ok,
           f"mean |sketch-full| gap {mean_gap * 100:.2f}pp; dfedavg trails by "
           f"{lead * 100:.1f}pp at 50%; late byz acceptance {late_byz:.1%}")


def test_criterion_10_verification_efficacy(robustness_config):
    base = replace(
        robustness_config,
        byz_fraction=0.5,
        seeds=derive_seeds(0, robustness_config.seeds.sketch),
        attack=replace(robustness_config.attack, consistent_sketch=False),
    )
    guarded = run_simulation(base)
    exposed = run_simulation(replace(base, verification=False))
    removed_all = all(m.byz_accept_frac == 0.0 for m in guarded.metrics)
    fired = sum(m.verify_fail for m in guarded.metrics)
    degradation = final_ter(exposed) - final_ter(guarded)
    ok = removed_all and fired > 0 and degradation > 0.02
    report(10, "verification efficacy", ok,
           f"verification removed 100% of mismatches ({fired} rejections); "
           f"disabling it degrades TER by {degradation * 100:.1f}pp")


def test_criterion_11_thread_determinism(robustness_config, sketchfilter_runs):
    serial = sketchfilter_runs[(0.3, 0)]
    pooled = run_simulation(
        replace(
            robustness_config,
            byz_fraction=0.3,
            seeds=derive_seeds(0, robustness_config.seeds.sketch),
            threads=8,
        ),
    )
    a = metrics_csv_text(metrics_rows("r", 0, 0.3, serial.metrics)).encode()
    b = metrics_csv_text(metrics_rows("r", 0, 0.3, pooled.metrics)).encode()
    same = a == b and bool((serial.final_models == pooled.final_models).all())
    report(11, "thread determinism", same,
           f"CSV bytes identical across thread budgets 1 and 8 "
           f"({len(a)} bytes compared)")


def test_criterion_12_sketch_size_insensitivity(robustness_config,
                                                sketchfilter_runs):
    means = {}
    means[256] = float(np.mean(
        [final_ter(sketchfilter_runs[(0.5, m)]) for m in (0, 1, 2)]
    ))
    for width in (64, 1024):
        runs = _fixture_runs(robustness_config, "sketchfilter", (0.5,), (0, 1, 2),
                             sketch_size=width)
        means[width] = float(np.mean([final_ter(r) for r in runs.values()]))
    spread = max(means.values()) - min(means.values())
    report(12, "sketch size insensitivity", spread <= 0.010,
           f"TER spread {spread * 100:.2f}pp across k in {{64, 256, 1024}} "
           f"at 50% byzantine (means: " +
           ", ".join(f"k={k}: {v:.4f}" for k, v in sorted(means.items())) + ")")
