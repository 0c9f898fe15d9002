"""File formats: metrics and bench CSV, run manifests.

Each writer renders its format through the two private helpers below.
Everything here is deterministic text so emitted artifacts diff cleanly
and reproduce byte-for-byte across platforms.
"""
from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

from .errors import ConfigurationError

# the run's identity, then RoundMetrics fields (engine.metrics_rows reads them by name)
CSV_COLUMNS = (
    "run_id",
    "seed",
    "byz_fraction",
    "round",
    "mean_ter",
    "params_tx_mean",
    "screen_ops_mean",
    "accept_frac",
    "byz_accept_frac",
    "verify_fail",
    "fallback_count",
)

# BenchRow fields
BENCH_COLUMNS = ("mode", "x_value", "aggregator", "screen_ops", "agg_ops", "params_tx")


def _cell(value) -> str:
    # repr round-trips floats exactly; everything else is printed plainly
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns: tuple[str, ...], rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def metrics_csv_text(rows: list[tuple]) -> str:
    for row in rows:
        if len(row) != len(CSV_COLUMNS):
            raise ConfigurationError(
                f"metrics row has {len(row)} cells, schema needs {len(CSV_COLUMNS)}"
            )
    return _csv_text(CSV_COLUMNS, rows)


def write_metrics_csv(path: str | Path, rows: list[tuple]) -> None:
    _write_text(path, metrics_csv_text(rows))


def bench_csv_text(rows) -> str:
    return _csv_text(BENCH_COLUMNS, ([getattr(r, c) for c in BENCH_COLUMNS] for r in rows))


def write_bench_csv(path: str | Path, rows) -> None:
    _write_text(path, bench_csv_text(rows))


def write_manifest(path: str | Path, manifest: dict) -> None:
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
