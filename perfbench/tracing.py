"""Call-site spans for the traced pass.

The tracer replaces each public sketchdfl function under the name its
caller looks up (for example `sketchdfl.engine.compute_sketch`, not only
`sketchdfl.sketch.compute_sketch`) with a wrapper that records a span:
id, parent id, name, start, end and a tag naming the aggregator being run.
Each thread keeps its own span stack. A span opened on a pool thread whose
stack is empty takes the innermost open span of the main thread as its
parent, which is the `run_simulation` blocked in the engine's thread pool.
Spans stay in memory until the benchmark writes them out.
"""
from __future__ import annotations

import csv
import inspect
import itertools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from sketchdfl import aggregation, attacks, cli, engine, learning, sketch

# (attribute looked up in the calling module, span name); the callee's own
# module names the span, whichever module looks it up.
_ENGINE_CALLS = (
    ("generate_federated_data", "learning.generate_federated_data"),
    ("make_task", "learning.make_task"),
    ("build_topology", "topology.build_topology"),
    ("sample_byzantine_nodes", "topology.sample_byzantine_nodes"),
    ("honest_subgraph_connected", "topology.honest_subgraph_connected"),
    ("node_stream", "engine.node_stream"),
    ("local_update", "learning.local_update"),
    ("apply_attack", "attacks.apply_attack"),
    ("attacker_message", "attacks.attacker_message"),
    ("compute_sketch", "sketch.compute_sketch"),
    ("verify_model_against_sketch", "sketch.verify"),
    ("screening_ops", "engine.screening_ops"),
    ("aggregation_ops", "engine.aggregation_ops"),
    ("account_communication", "engine.account_communication"),
    ("sketch_filter", "aggregation.sketch_filter"),
    ("balance_filter", "aggregation.balance_filter"),
    ("aggregate_mixed", "aggregation.aggregate_mixed"),
    ("dfedavg_aggregate", "aggregation.dfedavg_aggregate"),
    ("krum_select_index", "aggregation.krum_select_index"),
    ("test_error_rate", "learning.test_error_rate"),
    ("build_manifest", "engine.build_manifest"),
    ("run_simulation", "engine.run_simulation"),  # as engine.sweep calls it
    ("metrics_rows", "engine.metrics_rows"),
)
_CLI_CALLS = (
    ("parse_config", "config.parse_config"),
    ("emit_config", "config.emit_config"),
    ("write_metrics_csv", "io.write_metrics_csv"),
    ("write_manifest", "io.write_manifest"),
    ("run_simulation", "engine.run_simulation"),
    ("sweep", "engine.sweep"),
    ("metrics_rows", "engine.metrics_rows"),
)
# (object whose attribute is replaced, attribute, span name)
TARGETS = (
    *((engine, attr, name) for attr, name in _ENGINE_CALLS),
    *((cli, attr, name) for attr, name in _CLI_CALLS),
    (aggregation, "sketch_distance", "sketch.sketch_distance"),
    (sketch, "compute_sketch", "sketch.compute_sketch"),   # inside verify
    (sketch, "hash_tables", "sketch.hash_tables"),         # inside compute_sketch
    (attacks, "compute_sketch", "sketch.compute_sketch"),
    *((task, "grad", "learning.grad")
      for task in (learning.QuadraticTask, learning.LogisticTask, learning.TinyMlpTask)),
    *((task, "error_rate", "learning.error_rate")
      for task in (learning.QuadraticTask, learning.LogisticTask, learning.TinyMlpTask)),
)

SIM_SPAN = "engine.run_simulation"


def _observe_sketch_filter(obs, a, result):
    n = len(a["neighbor_sketches"])
    obs["screen.candidates"] += n
    obs["screen.accepted"] += len(result.accepted)
    obs["screen.filters"] += 1
    obs["screen.fallbacks"] += result.fallback_used
    obs["screen.ops"] += engine.screening_ops("sketchfilter", 0, len(a["self_sketch"].values), n)


def _observe_balance_filter(obs, a, result):
    n = len(a["neighbor_models"])
    obs["screen.candidates"] += n
    obs["screen.accepted"] += len(result.accepted)
    obs["screen.filters"] += 1
    obs["screen.fallbacks"] += result.fallback_used
    obs["screen.ops"] += engine.screening_ops("balance", len(a["self_model"]), 0, n)


def _observe_krum(obs, a, result):
    models = a["models"]
    obs["screen.ops"] += engine.screening_ops("krum", len(models[0]), 0, len(models) - 1)


def _observe_fold(obs, a, result):
    # computed, not measured: read the vector, bucket and sign tables, write the sketch
    params = a["params"]
    obs["fold.bytes"] += 8 * (3 * params.dim + params.width)


def _observe_verify(obs, a, result):
    obs["verify.attempted"] += 1
    obs["verify.passed"] += bool(result)
    obs["verify_mix.ops"] += a["params"].dim


def _observe_mixed(obs, a, result):
    obs["verify_mix.ops"] += len(a["self_model"]) * (len(a["accepted_models"]) + 1)


def _observe_dfedavg(obs, a, result):
    obs["verify_mix.ops"] += len(a["self_model"]) * (len(a["neighbor_models"]) + 1)


def _observe_run(obs, a, result):
    for m in result.metrics:
        obs["rounds"] += 1
        obs["screen_ops_mean"] += m.screen_ops_mean
        obs["agg_ops_mean"] += m.agg_ops_mean
        obs["params_tx_mean"] += m.params_tx_mean


OBSERVERS = {
    "aggregation.sketch_filter": _observe_sketch_filter,
    "aggregation.balance_filter": _observe_balance_filter,
    "aggregation.krum_select_index": _observe_krum,
    "sketch.compute_sketch": _observe_fold,
    "sketch.verify": _observe_verify,
    "aggregation.aggregate_mixed": _observe_mixed,
    "aggregation.dfedavg_aggregate": _observe_dfedavg,
    SIM_SPAN: _observe_run,
}


class Tracer:
    """Span recorder. `tag` names what the main thread is running; spans
    and observations are filed under it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent, name, start, end, tag)
        self.observed: dict[str, Counter] = defaultdict(Counter)
        self.tag = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._observe_lock = threading.Lock()  # pool threads add to shared counters

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack and stack is not main_stack else 0
            span_id = next(ids)
            tag = self.tag
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, tag))
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._observe_lock:
                    observe(self.observed[tag], bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, names=None):
        """Patch every target, or those whose span name is in `names`, for
        the duration of the block."""
        targets = [t for t in TARGETS if names is None or t[2] in names]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for (owner, attr, name), (_, _, fn) in zip(targets, originals):
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "parent", "name", "start", "end", "tag"))
            writer.writerows(self.spans)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per-name calls and inclusive busy seconds, per-tag busy seconds, and
    per-tag simulation self time (span minus the union of its children)."""
    calls: Counter = Counter()
    busy: Counter = Counter()
    busy_by_tag: Counter = Counter()
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, parent, name, start, end, tag in spans:
        calls[name] += 1
        busy[name] += end - start
        busy_by_tag[(name, tag)] += end - start
        children[parent].append((start, end))
    sim_total: Counter = Counter()
    sim_self: Counter = Counter()
    sim_child_busy: Counter = Counter()
    for span_id, parent, name, start, end, tag in spans:
        if name != SIM_SPAN:
            continue
        kids = children.get(span_id, [])
        sim_total[tag] += end - start
        sim_self[tag] += (end - start) - _covered(kids)
        sim_child_busy[tag] += sum(e - s for s, e in kids)
    return {
        "calls": calls,
        "busy": busy,
        "busy_by_tag": busy_by_tag,
        "sim_total": sim_total,
        "sim_self": sim_self,
        "sim_child_busy": sim_child_busy,
    }
