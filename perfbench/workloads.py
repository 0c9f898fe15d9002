"""Benchmark workloads: the sketchdfl invocations each one makes, built from a seed.

A workload is a list of cells, one `sketchdfl run` or `sketchdfl sweep`
invocation per aggregator. Every input is an INI file written from the
workload's settings and the benchmark seed, so the same seed gives the same
files. This module imports nothing from sketchdfl, so the launcher can use it
before the package is importable.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

SEED_KEYS = ("data", "topology", "byzantine", "training", "attack", "sketch")


@dataclass(frozen=True)
class Cell:
    """One CLI invocation: `sketchdfl <command> --config <ini> <args>`."""

    aggregator: str
    sections: dict            # INI section -> {key: value}
    fractions: tuple = ()     # sweep only: --byz values
    masters: tuple = ()       # sweep only: --seeds master seeds

    @property
    def command(self) -> str:
        return "sweep" if self.masters else "run"

    @property
    def args(self) -> tuple:
        if not self.masters:
            return ()
        return ("--byz", ",".join(map(str, self.fractions)),
                "--seeds", ",".join(map(str, self.masters)))

    @property
    def threads(self) -> int:
        return int(self.sections["run"]["threads"])

    @property
    def csv_name(self) -> str:
        return "sweep.csv" if self.command == "sweep" else "metrics.csv"

    def ini_text(self, threads: int | None = None) -> str:
        lines = []
        for section, values in self.sections.items():
            lines.append(f"[{section}]")
            for key, value in values.items():
                if section == "run" and key == "threads" and threads is not None:
                    value = threads
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: object             # (seed) -> list[Cell]


def _seeds(seed: int) -> dict:
    rng = random.Random(seed)
    return {key: rng.randrange(1, 2**31) for key in SEED_KEYS}


def _cell(aggregator, settings, seed, fractions=(), masters=()) -> Cell:
    sections = {name: dict(values) for name, values in settings.items()}
    sections["aggregator"] = {"kind": aggregator, **sections.get("aggregator", {})}
    sections["seeds"] = _seeds(seed)
    return Cell(aggregator, sections, tuple(fractions), tuple(masters))


ALL_AGGREGATORS = ("sketchfilter", "balance", "dfedavg", "krum")

# configs/robustness.ini, spelled out so the benchmark does not move when
# that file is edited.
_DESK = {
    "task": {"kind": "logistic", "features": 127, "classes": 10,
             "samples_per_client": 200, "concentration": 1.0},
    "topology": {"kind": "erdos-renyi", "p": 0.45},
    "aggregator": {"sketch_size": 256},
    "attack": {"kind": "gaussian", "sigma": 1.0},
    "run": {"nodes": 20, "rounds": 10, "local_epochs": 3, "lr": 0.2,
            "batch_size": 64, "threads": 1},
}
_DESK_FRACTIONS = (0.0, 0.2, 0.4)


def _desk_sweep(seed: int) -> list[Cell]:
    rng = random.Random(seed ^ 0x5EE9)
    masters = tuple(rng.randrange(1, 2**31) for _ in range(2))
    return [_cell(agg, _DESK, seed, _DESK_FRACTIONS, masters) for agg in ALL_AGGREGATORS]


_WIDE = {
    "task": {"kind": "logistic", "samples_per_client": 100, "dim": 100_000},
    "topology": {"kind": "k-regular", "degree": 16},
    "attack": {"kind": "gaussian", "sigma": 1.0, "consistent_sketch": "false"},
    "run": {"nodes": 64, "byz_fraction": 0.25, "rounds": 4, "local_epochs": 1,
            "threads": 2},
}
# Krum's (m, m, d) broadcast costs about 0.24 s per call at m=17 and
# d=100k, a minute per repetition, so its cell keeps the wide model on a
# ring (m=3) and measures the per-coordinate cost of its pairwise stage.
_WIDE_KRUM = {**_WIDE, "topology": {"kind": "ring"}}


def _wide_model(seed: int) -> list[Cell]:
    cells = [_cell(agg, _WIDE, seed) for agg in ("sketchfilter", "balance", "dfedavg")]
    return cells + [_cell("krum", _WIDE_KRUM, seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-sweep",
            "the paper's robustness sweep as users run it: many small runs where "
            "local SGD and evaluation dominate, so per-coordinate kernel changes "
            "are bypassed and per-call overheads show",
            _desk_sweep,
        ),
        Workload(
            "wide-model",
            "the paper's cost claim: d=100k, so per-coordinate sketch fold, verify, "
            "full-precision distances and mixing dominate, on the threads=2 pool",
            _wide_model,
        ),
    )
}
