"""Monte Carlo calibration of sketch distance distortion.

For random Gaussian vector pairs, the ratio ||CS(u)-CS(v)||^2 / ||u-v||^2
concentrates around 1 as the sketch width grows. This module measures the
99.9th-percentile relative error at several widths, fits the single-constant
model epsilon_hat(width) = coeff / sqrt(width), and writes the supporting
table (calibration/k_epsilon.csv). The fitted constant is frozen in
sketch.DISTORTION_COEFF so library users never need to re-run this.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .io import csv_text, write_text
from .sketch import SketchParams, combine64, compute_sketch

DEFAULT_WIDTHS = (64, 128, 256, 512, 1024, 2048, 4096)
QUANTILE = 0.999

CSV_HEADER = ("k", "epsilon_hat", "violation_rate")


@dataclass(frozen=True)
class CalibrationRow:
    width: int
    epsilon_hat: float
    violation_rate: float


def distortion_samples(width: int, pairs: int, dim: int, seed: int) -> np.ndarray:
    """|ratio - 1| samples for `pairs` fresh hash families at one width.

    Uses sketch linearity: CS(u) - CS(v) = CS(u - v), so each pair needs a
    single sketch of the difference vector.
    """
    if pairs < 1:
        raise ConfigurationError(f"pairs must be >= 1, got {pairs}")
    if dim < width:
        raise ConfigurationError(f"dim {dim} must be >= width {width}")
    rng = np.random.Generator(np.random.PCG64(combine64(seed, width)))
    out = np.empty(pairs)
    for p in range(pairs):
        params = SketchParams(dim=dim, width=width, seed=combine64(seed, width, p))
        diff = rng.normal(size=dim)
        ratio = compute_sketch(params, diff).norm() ** 2 / float(diff @ diff)
        out[p] = abs(ratio - 1.0)
    return out


def calibrate_widths(
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    pairs: int = 1000,
    dim_factor: int = 8,
    seed: int = 2024,
) -> list[CalibrationRow]:
    """Per-width empirical distortion rows: epsilon_hat is the QUANTILE-level
    relative error, violation_rate the tail mass beyond it (~= 1 - QUANTILE).
    """
    rows = []
    for width in widths:
        dim = max(width * dim_factor, 4096)
        samples = distortion_samples(width, pairs, dim, seed)
        eps = float(np.quantile(samples, QUANTILE))
        violation = float(np.mean(samples > eps))
        rows.append(CalibrationRow(width=width, epsilon_hat=eps, violation_rate=violation))
    return rows


def fit_distortion_coefficient(rows: list[CalibrationRow], margin: float = 1.05) -> float:
    """Smallest c with c/sqrt(width) >= measured eps at every width, times a
    small safety margin against Monte Carlo noise."""
    if not rows:
        raise ConfigurationError("cannot fit a coefficient from zero rows")
    c = max(r.epsilon_hat * r.width**0.5 for r in rows)
    return c * margin


def table_text(rows: list[CalibrationRow]) -> str:
    return csv_text(
        CSV_HEADER, ([r.width, f"{r.epsilon_hat:.6g}", f"{r.violation_rate:.6g}"] for r in rows)
    )


def write_table(rows: list[CalibrationRow], path: str | Path) -> None:
    write_text(path, table_text(rows))
