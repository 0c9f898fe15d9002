"""File formats: metrics and bench CSV, run manifests.

Everything here is deterministic text so emitted artifacts diff cleanly
and reproduce byte-for-byte across platforms.
"""
from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

from .errors import ConfigurationError

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

BENCH_COLUMNS = ("mode", "x_value", "aggregator", "screen_ops", "agg_ops", "params_tx")


def _cell(value) -> str:
    # repr round-trips floats exactly; everything else is printed plainly
    if isinstance(value, float):
        return repr(value)
    return str(value)


def metrics_csv_text(rows: list[tuple]) -> str:
    for row in rows:
        if len(row) != len(CSV_COLUMNS):
            raise ConfigurationError(
                f"metrics row has {len(row)} cells, schema needs {len(CSV_COLUMNS)}"
            )
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def write_metrics_csv(path: str | Path, rows: list[tuple]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_csv_text(rows))


def bench_csv_text(rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for r in rows:
        writer.writerow(
            [r.mode, r.x_value, r.aggregator, _cell(r.screen_ops), _cell(r.agg_ops), _cell(r.params_tx)]
        )
    return buf.getvalue()


def write_bench_csv(path: str | Path, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(bench_csv_text(rows))


def write_manifest(path: str | Path, manifest: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
