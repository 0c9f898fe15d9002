"""Runtime property suites behind the `check` CLI subcommand.

Each suite is a list of (name, callable); a callable returns a short
detail string on success and raises on failure. These are fast smoke
versions of the pytest invariants, runnable in the field without the
test harness installed.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .aggregation import AggregatorSpec, balance_filter, sketch_filter
from .attacks import AttackSpec
from .engine import (
    SimConfig,
    account_communication,
    metrics_rows,
    run_simulation,
    screening_ops,
)
from .errors import ConfigurationError
from .io import metrics_csv_text
from .learning import TaskSpec
from .sketch import (
    SketchParams,
    compute_sketch,
    derive_hash,
    epsilon_hat,
    hash_tables,
)
from .topology import TopologySpec


def _check_hash_agreement() -> str:
    params = SketchParams(dim=4096, width=333, seed=97)
    buckets, signs = hash_tables(params)
    for i in (0, 1, 17, 4095, 2048):
        b, s = derive_hash(params, i)
        assert buckets[i] == b and signs[i] == s, i
    return "scalar and vectorized hash agree on 5 probes"


def _check_linearity() -> str:
    params = SketchParams(dim=2000, width=128, seed=5)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        u, v = rng.normal(size=2000), rng.normal(size=2000)
        a, b = rng.normal(), rng.normal()
        lhs = compute_sketch(params, a * u + b * v).values
        rhs = a * compute_sketch(params, u).values + b * compute_sketch(params, v).values
        denom = max(1.0, float(np.linalg.norm(rhs)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / denom)
    assert worst < 1e-9, worst
    return f"linearity relative error <= {worst:.2e} over 20 pairs"


def _check_distance_band() -> str:
    width = 512
    eps = epsilon_hat(width)
    rng = np.random.default_rng(7)
    bad = 0
    for t in range(200):
        params = SketchParams(dim=4096, width=width, seed=t)
        diff = rng.normal(size=4096)
        ratio = compute_sketch(params, diff).norm() ** 2 / float(diff @ diff)
        bad += not (1 - eps <= ratio <= 1 + eps)
    assert bad <= 2, bad
    return f"{200 - bad}/200 pairs inside the (1 +/- {eps:.3f}) band"


def _check_filter_boundary() -> str:
    me = np.array([1.0, 0.0])
    out = balance_filter(
        me, {1: np.array([1.0, 2.0]), 2: np.array([1.0, 2.0001])},
        gamma=2.0, kappa=0.0, t=0, rounds=10)
    assert out.accepted == [1] and not out.fallback_used, out
    far = balance_filter(
        me, {1: np.array([9.0, 0.0]), 2: np.array([5.0, 0.0])},
        gamma=2.0, kappa=0.0, t=0, rounds=10)
    assert far.accepted == [2] and far.fallback_used, far
    return "threshold boundary inclusive; fallback picks nearest"


def _check_sketch_matches_full_filter() -> str:
    params = SketchParams(dim=512, width=256, seed=3)
    rng = np.random.default_rng(3)
    me = rng.normal(size=512)
    neighbors = {1: me + 0.01 * rng.normal(size=512), 2: me + 50.0}
    full = balance_filter(me, neighbors, gamma=2.0, kappa=1.0, t=0, rounds=10)
    compressed = sketch_filter(
        compute_sketch(params, me),
        {j: compute_sketch(params, w) for j, w in neighbors.items()},
        gamma=2.0, kappa=1.0, t=0, rounds=10)
    assert full.accepted == compressed.accepted == [1]
    return "full and sketch screening agree on a clear-cut fixture"


def _tiny_config(**kw) -> SimConfig:
    base = SimConfig(
        task=TaskSpec(kind="quadratic", features=8, samples_per_client=24, test_samples=32),
        topology=TopologySpec(kind="full"),
        aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=8),
        n_nodes=6,
        rounds=3,
        local_epochs=1,
        lr=0.05,
        batch_size=8,
    )
    return replace(base, **kw)


def _check_determinism() -> str:
    rows = []
    for threads in (1, 3):
        res = run_simulation(_tiny_config(threads=threads), run_id="det")
        rows.append(metrics_csv_text(metrics_rows("det", 0, 0.0, res.metrics)))
    assert rows[0] == rows[1], "thread budget changed the CSV"
    return "CSV byte-identical across thread budgets 1 and 3"


def _check_accounting() -> str:
    wide_open = AggregatorSpec(kind="sketchfilter", sketch_size=8, gamma=1e9)
    res = run_simulation(_tiny_config(aggregator=wide_open), run_id="acct")
    m = res.metrics[0]
    # full graph, threshold wide open: everyone accepts everyone
    want = account_communication("sketchfilter", 5, 5, 8, 8)
    assert m.params_tx_mean == want, (m.params_tx_mean, want)
    assert m.screen_ops_mean == screening_ops("sketchfilter", 8, 8, 5)
    return f"params_tx matches closed form ({want} per node)"


def _check_attack_indistinguishable() -> str:
    benign = _tiny_config(byz_fraction=0.3, attack=AttackSpec(kind="none"))
    honest = _tiny_config(byz_fraction=0.0, attack=AttackSpec(kind="none"))
    a = run_simulation(benign, run_id="x")
    b = run_simulation(honest, run_id="x")
    assert np.array_equal(a.final_models, b.final_models)
    return "kind=none attackers leave the trajectory untouched"


SUITES: dict[str, list[tuple[str, object]]] = {
    "sketch": [
        ("hash-agreement", _check_hash_agreement),
        ("linearity", _check_linearity),
        ("distance-band", _check_distance_band),
    ],
    "filter": [
        ("boundary", _check_filter_boundary),
        ("sketch-vs-full", _check_sketch_matches_full_filter),
    ],
    "engine": [
        ("determinism", _check_determinism),
        ("accounting", _check_accounting),
        ("benign-attackers", _check_attack_indistinguishable),
    ],
}


def run_checks(suite: str | None = None) -> tuple[int, int, list[str]]:
    """Run one suite (or all); returns (passed, failed, report lines)."""
    if suite is not None and suite not in SUITES:
        raise ConfigurationError(
            f"unknown suite {suite!r}, expected one of {sorted(SUITES)}"
        )
    names = [suite] if suite else sorted(SUITES)
    passed = failed = 0
    lines = []
    for name in names:
        for label, fn in SUITES[name]:
            try:
                detail = fn()
            except Exception as exc:  # noqa: BLE001 - reported, not hidden
                failed += 1
                lines.append(f"FAIL {name}:{label} - {exc!r}")
            else:
                passed += 1
                lines.append(f"ok   {name}:{label} - {detail}")
    lines.append(f"{passed} passed, {failed} failed")
    return passed, failed, lines
