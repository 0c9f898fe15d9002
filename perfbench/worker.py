"""Run one workload in this process and print its result as one JSON line.

Started by run.py, one process per workload, so that ru_maxrss is this
workload's alone. Drives sketchdfl only through `cli.main` and the public
set-up functions, with the checkout's `src/` on the import path.

--trace 0: median set-up time over repeated cold set-ups, then repetitions
  of the whole workload for about --seconds seconds, each invocation timed
  end to end with a cold hash-table cache.
--trace 1: one untraced repetition, one traced repetition, and one
  repetition at the other thread count (1 <-> 2) with only run_simulation
  wrapped, to check that the modelled counts repeat exactly. Per-layer
  metrics come from the traced repetition's spans; tracing overhead is
  traced minus untraced wall time.

Every invocation counts as one attempted operation. It fails when the CLI
raises or exits non-zero, when its CSV differs from the first CSV that
aggregator wrote in this process, or when a final mean_ter is not finite
and within [0, 1].
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from sketchdfl import cli, engine, learning, sketch, topology  # noqa: E402
from sketchdfl.aggregation import SKETCH_KINDS  # noqa: E402
from sketchdfl.config import parse_config  # noqa: E402

import tracing  # noqa: E402
from workloads import ALL_AGGREGATORS, WORKLOADS  # noqa: E402

HASH_TABLES = sketch.hash_tables  # the lru_cache itself, also while traced
SETUP_MIN_PASSES, SETUP_MAX_PASSES, SETUP_MIN_SECONDS = 5, 41, 2.0


class Runner:
    """Invokes a workload's cells and checks what each invocation wrote."""

    def __init__(self, cells, out: Path):
        self.cells = cells
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.final_ter: dict[str, float] = {}
        self.samples: dict = {}

    def config_path(self, cell, label: str, threads: int | None = None) -> Path:
        where = self.out / label / cell.aggregator
        where.mkdir(parents=True, exist_ok=True)
        path = where / "config.ini"
        path.write_text(cell.ini_text(threads))
        return path

    def invoke(self, cell, label: str, threads: int | None = None) -> float:
        """One sketchdfl invocation, cold cache; returns its wall seconds."""
        ini = self.config_path(cell, label, threads)
        output = ini.parent / cell.csv_name
        output.unlink(missing_ok=True)
        argv = [cell.command, "--config", str(ini), "--out", str(ini.parent), *cell.args]
        HASH_TABLES.cache_clear()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        problem = f"exit {code}" if code != 0 else self._check(cell, output)
        if problem:
            self.failed += 1
            self.failures.append(f"{label}/{cell.aggregator}: {problem}")
        return seconds

    def _check(self, cell, output: Path) -> str | None:
        if not output.exists():
            return f"no {cell.csv_name} written"
        raw = output.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if self.digests.setdefault(cell.aggregator, digest) != digest:
            return f"{cell.csv_name} differs from the first repetition"
        last: dict[str, tuple[int, float]] = {}
        rows = 0
        for row in csv.DictReader(io.StringIO(raw.decode())):
            rows += 1
            last[row["run_id"]] = max(last.get(row["run_id"], (-1, 0.0)),
                                      (int(row["round"]), float(row["mean_ter"])))
        sims = len(simulation_configs(cell, parse_config(output.parent / "config.ini")))
        rounds = int(cell.sections["run"]["rounds"])
        if len(last) != sims or rows != sims * rounds:
            return f"{rows} rows over {len(last)} runs, expected {sims} x {rounds}"
        ters = [ter for _, ter in last.values()]
        if not all(math.isfinite(t) and 0.0 <= t <= 1.0 for t in ters):
            return f"final mean_ter outside [0, 1]: {ters}"
        self.final_ter[cell.aggregator] = statistics.fmean(ters)
        return None

    def repetition(self, label: str) -> dict[str, float]:
        return {cell.aggregator: self.invoke(cell, label) for cell in self.cells}


def simulation_configs(cell, config) -> list:
    """The SimConfig of every simulation one invocation runs, as sweep derives them."""
    if cell.command == "run":
        return [config]
    return [
        replace(config, byz_fraction=frac,
                seeds=engine.derive_seeds(master, config.seeds.sketch))
        for frac in cell.fractions
        for master in cell.masters
    ]


def setup_pass(runner: Runner) -> float:
    """Everything a fresh `sketchdfl` process does before round 0 of each of
    the workload's simulations: config parse, data, task, topology,
    Byzantine draw and the hash tables, with the cache cold per process."""
    paths = [runner.config_path(cell, "setup") for cell in runner.cells]
    start = time.perf_counter()
    for cell, path in zip(runner.cells, paths):
        HASH_TABLES.cache_clear()
        for cfg in simulation_configs(cell, parse_config(path)):
            data = learning.generate_federated_data(cfg.task, cfg.n_nodes, cfg.seeds.data)
            task = learning.make_task(cfg.task, data)
            graph = topology.build_topology(cfg.topology, cfg.n_nodes, cfg.seeds.topology)
            byz = topology.sample_byzantine_nodes(cfg.n_nodes, cfg.byz_fraction,
                                                  cfg.seeds.byzantine)
            topology.honest_subgraph_connected(graph, set(byz))
            if cfg.aggregator.kind in SKETCH_KINDS:
                agg = cfg.aggregator
                width = agg.sketch_size or sketch.default_sketch_width(task.dim)
                seed = cfg.seeds.sketch if agg.sketch_seed is None else agg.sketch_seed
                HASH_TABLES(sketch.SketchParams(dim=task.dim, width=width, seed=seed))
            task.init_model(engine.node_stream(cfg.seeds.training, 0, 0, tag=0xC0))
    return time.perf_counter() - start


def measure_setup(runner: Runner) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_MAX_PASSES and (
        len(times) < SETUP_MIN_PASSES or time.perf_counter() - start < SETUP_MIN_SECONDS
    ):
        times.append(setup_pass(runner))
    return times


def timed(runner: Runner, seconds: float) -> dict:
    """Median wall time per invocation over about `seconds` of repetitions."""
    setup_times = measure_setup(runner)
    reps = [runner.repetition("timed")]
    count = max(1, round(seconds / sum(reps[0].values())))
    reps += [runner.repetition("timed") for _ in range(count - 1)]
    metrics = {
        f"sim_s.{agg}": (statistics.median(rep[agg] for rep in reps), "s")
        for agg in ALL_AGGREGATORS
    }
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    runner.samples = {"setup_s": setup_times, "repetitions": reps}
    return metrics


CALLS_AND_BUSY = (
    "sketch.verify", "sketch.compute_sketch", "sketch.sketch_distance",
    "aggregation.sketch_filter", "aggregation.balance_filter",
    "aggregation.aggregate_mixed", "aggregation.dfedavg_aggregate",
    "aggregation.krum_select_index",
    "learning.local_update", "learning.grad", "learning.test_error_rate",
)
BUSY_ONLY = (
    "attacks.apply_attack", "attacks.attacker_message",
    "learning.generate_federated_data", "learning.make_task",
    "topology.build_topology", "sketch.hash_tables", "config.parse_config",
    "io.write_metrics_csv", "io.write_manifest",
)
# which spans do each aggregator's screening, and which its verify + mix
SCREEN_SPANS = {
    "sketchfilter": ("aggregation.sketch_filter",),
    "balance": ("aggregation.balance_filter",),
    "krum": ("aggregation.krum_select_index",),
}
VERIFY_MIX_SPANS = {
    "sketchfilter": ("sketch.verify", "aggregation.aggregate_mixed"),
    "balance": ("aggregation.aggregate_mixed",),
    "dfedavg": ("aggregation.dfedavg_aggregate",),
}
MODELLED = ("screen_ops_mean", "agg_ops_mean", "params_tx_mean")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(runner: Runner, spans_path: Path) -> dict:
    phases = {}
    start = time.perf_counter()
    untraced = runner.repetition("untraced")
    phases["untraced"] = time.perf_counter() - start
    tracer = tracing.Tracer()
    traced_s: dict[str, float] = {}
    with tracer.installed():
        for cell in runner.cells:
            tracer.tag = cell.aggregator
            traced_s[cell.aggregator] = runner.invoke(cell, "traced")
    phases["traced"] = time.perf_counter() - start - phases["untraced"]
    # the thread budget must change wall time only: same bytes, same counts
    other = tracing.Tracer()
    other_s: dict[str, float] = {}
    with other.installed(names={tracing.SIM_SPAN}):
        for cell in runner.cells:
            other.tag = cell.aggregator
            other_s[cell.aggregator] = runner.invoke(
                cell, "other-threads", threads=3 - min(cell.threads, 2))
    phases["other_threads"] = time.perf_counter() - start - sum(phases.values())
    for agg in ALL_AGGREGATORS:
        mine = {k: tracer.observed[agg][k] for k in ("rounds", *MODELLED)}
        theirs = {k: other.observed[agg][k] for k in ("rounds", *MODELLED)}
        if mine != theirs or not mine["rounds"]:
            runner.failures.append(f"{agg}: modelled counts differ across repetitions")

    s = tracing.summarize(tracer.spans)
    threads = {cell.aggregator: cell.threads for cell in runner.cells}
    for agg in ALL_AGGREGATORS:
        covered = s["sim_total"][agg] - s["sim_self"][agg]
        busy = s["sim_child_busy"][agg]
        serial_mismatch = threads[agg] == 1 and abs(busy - covered) > 1e-6 * max(busy, 1.0)
        if covered > busy * (1 + 1e-9) + 1e-9 or serial_mismatch:
            runner.failures.append(f"{agg}: child spans do not account for the simulation span")

    m: dict[str, tuple] = {}
    for name in CALLS_AND_BUSY:
        m[f"{name}.calls"] = (s["calls"][name], "count")
        m[f"{name}.busy_s"] = (s["busy"][name], "s")
    for name in BUSY_ONLY:
        m[f"{name}.busy_s"] = (s["busy"][name], "s")
    obs = tracer.observed
    total: Counter = sum(obs.values(), Counter())
    m["sketch.verify.pass_ratio"] = (_ratio(total["verify.passed"], total["verify.attempted"]), "ratio")
    m["sketch.fold_bytes_computed"] = (total["fold.bytes"], "bytes")
    for agg in ("sketchfilter", "balance"):
        m[f"aggregation.accept_ratio.{agg}"] = (
            _ratio(obs[agg]["screen.accepted"], obs[agg]["screen.candidates"]), "ratio")
    m["aggregation.fallback_ratio.sketchfilter"] = (
        _ratio(obs["sketchfilter"]["screen.fallbacks"], obs["sketchfilter"]["screen.filters"]),
        "ratio")
    for agg in ALL_AGGREGATORS:
        m[f"engine.sim_span_s.{agg}"] = (s["sim_total"][agg], "s")
        m[f"engine.self_s.{agg}"] = (s["sim_self"][agg], "s")
        m[f"engine.children_busy_s.{agg}"] = (s["sim_child_busy"][agg], "s")
        for key in MODELLED:
            m[f"engine.{key}.{agg}"] = (_ratio(obs[agg][key], obs[agg]["rounds"]), "count")
        m[f"final_ter.{agg}"] = (runner.final_ter.get(agg, 0.0), "fraction")
    for agg, names in SCREEN_SPANS.items():
        busy = sum(s["busy_by_tag"][(name, agg)] for name in names)
        m[f"engine.ns_per_screen_op.{agg}"] = (1e9 * _ratio(busy, obs[agg]["screen.ops"]), "ns")
    for agg, names in VERIFY_MIX_SPANS.items():
        busy = sum(s["busy_by_tag"][(name, agg)] for name in names)
        m[f"engine.ns_per_verify_mix_op.{agg}"] = (
            1e9 * _ratio(busy, obs[agg]["verify_mix.ops"]), "ns")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.sim_s"] = (sum(traced_s.values()), "s")
    m["trace.overhead_s"] = (sum(traced_s.values()) - sum(untraced.values()), "s")
    for agg in ALL_AGGREGATORS:
        m[f"trace.overhead_s.{agg}"] = (traced_s[agg] - untraced[agg], "s")
        m[f"other_threads.sim_s.{agg}"] = (other_s[agg], "s")
    tracer.write(spans_path)
    phases["report"] = time.perf_counter() - start - sum(phases.values())
    runner.samples = {"phases_s": phases, "untraced": untraced, "traced": traced_s}
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    runner = Runner(WORKLOADS[args.workload].cells(args.seed), args.out)
    if args.trace:
        metrics = traced(runner, args.out / f"spans-seed{args.seed}.csv")
    else:
        metrics = timed(runner, args.seconds)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for failure in runner.failures:
        print(f"failed: {failure}", file=sys.stderr)
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__}
    record = {**result, "seed": args.seed, "machine": machine, "failures": runner.failures,
              "final_ter": runner.final_ter, "samples": runner.samples}
    (args.out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
