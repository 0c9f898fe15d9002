"""File formats: the metrics CSV and run manifests.

Both writers create the parent directory and write the whole text at once.
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


def _cell(value) -> str:
    # repr round-trips floats exactly; everything else is printed plainly
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def write_metrics_csv(path: str | Path, rows: list[tuple]) -> None:
    _write_text(path, metrics_csv_text(rows))


def write_manifest(path: str | Path, manifest: dict) -> None:
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
