"""Distortion calibration: sampling, fitting, and the committed table."""
import csv
from pathlib import Path

import numpy as np
import pytest

from sketchdfl.calibration import (
    CalibrationRow,
    calibrate_widths,
    distortion_samples,
    fit_distortion_coefficient,
    table_text,
    write_table,
)
from sketchdfl.errors import ConfigurationError
from sketchdfl.sketch import DISTORTION_COEFF

REPO_TABLE = Path(__file__).resolve().parents[1] / "calibration" / "k_epsilon.csv"


def test_distortion_samples_are_positive_and_reproducible():
    a = distortion_samples(64, 50, 512, seed=1)
    b = distortion_samples(64, 50, 512, seed=1)
    np.testing.assert_array_equal(a, b)
    assert (a >= 0).all()


def test_distortion_shrinks_with_width():
    narrow = distortion_samples(32, 200, 2048, seed=3)
    wide = distortion_samples(512, 200, 4096, seed=3)
    assert np.median(wide) < np.median(narrow)


def test_distortion_samples_validation():
    with pytest.raises(ConfigurationError):
        distortion_samples(64, 0, 512, seed=0)
    with pytest.raises(ConfigurationError):
        distortion_samples(512, 10, 256, seed=0)  # dim below width


def test_fit_is_an_envelope():
    rows = calibrate_widths(widths=(32, 64, 128), pairs=120, seed=5)
    coeff = fit_distortion_coefficient(rows)
    for r in rows:
        assert coeff / r.width**0.5 >= r.epsilon_hat
    with pytest.raises(ConfigurationError):
        fit_distortion_coefficient([])


def test_table_roundtrip(tmp_path):
    rows = [
        CalibrationRow(width=64, epsilon_hat=0.61, violation_rate=0.001),
        CalibrationRow(width=1024, epsilon_hat=0.15, violation_rate=0.0015),
    ]
    assert table_text(rows) == "k,epsilon_hat,violation_rate\n64,0.61,0.001\n1024,0.15,0.0015\n"
    path = tmp_path / "sub" / "table.csv"
    write_table(rows, path)
    assert path.read_text() == table_text(rows)


def test_committed_table_is_covered_by_frozen_coefficient():
    # the constant baked into sketch.py must dominate every measured row
    with REPO_TABLE.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {int(r["k"]) for r in rows} >= {256, 1024, 4096}
    for r in rows:
        assert DISTORTION_COEFF / int(r["k"]) ** 0.5 >= float(r["epsilon_hat"])
        assert 0 <= float(r["violation_rate"]) <= 0.01
