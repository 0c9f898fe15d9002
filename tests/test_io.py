"""CSV schemas and manifests."""
import json

import pytest

from sketchdfl.errors import ConfigurationError
from sketchdfl.io import (
    CSV_COLUMNS,
    metrics_csv_text,
    write_manifest,
    write_metrics_csv,
)


def test_metrics_csv_header_is_the_published_schema():
    assert metrics_csv_text([]).splitlines()[0] == (
        "run_id,seed,byz_fraction,round,mean_ter,params_tx_mean,"
        "screen_ops_mean,accept_frac,byz_accept_frac,verify_fail,fallback_count"
    )


def test_metrics_csv_floats_round_trip():
    value = 0.1 + 0.2  # 0.30000000000000004, a classic repr victim
    row = ("r", 3, 0.3, 0, value, 1.0, 2.0, 0.5, 0.0, 0, 1)
    line = metrics_csv_text([row]).splitlines()[1]
    cells = line.split(",")
    assert cells[4] == "0.30000000000000004"
    assert float(cells[4]) == value


def test_metrics_csv_rejects_misshapen_rows():
    with pytest.raises(ConfigurationError, match="schema needs 11"):
        metrics_csv_text([("r", 1, 0.0)])


def test_write_metrics_csv_creates_parents(tmp_path):
    target = tmp_path / "deep" / "dir" / "metrics.csv"
    write_metrics_csv(target, [])
    assert target.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_manifest_json_is_stable_and_sorted(tmp_path):
    target = tmp_path / "manifest.json"
    write_manifest(target, {"zeta": 1, "alpha": {"b": 2, "a": 3}})
    text = target.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": {"b": 2, "a": 3}}
