"""Command-line entry point.

Subcommands: run, sweep. Exit codes: 0 success, 2 configuration
problem, 3 protocol/invariant violation, 4 numerical divergence.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import emit_config, grid, parse_config
from .engine import metrics_rows, run_simulation, sweep
from .errors import (
    ConfigurationError,
    GraphGenerationError,
    NumericalDivergenceError,
    ProtocolError,
)
from .io import write_manifest, write_metrics_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_DIVERGENCE = 4
# most values a --byz LO:HI:STEP range, or a --seeds count, may expand to
MAX_RANGE_VALUES = 10_000
# the keys every sweep run sets itself: the fraction, and each seed that
# engine.derive_seeds re-keys from the master (seeds.sketch it keeps)
SWEPT_KEYS = ("run.byz_fraction", "seeds.data", "seeds.topology", "seeds.byzantine",
              "seeds.training", "seeds.attack")


def _parse_fractions(text: str) -> list[float]:
    """Either LO:HI:STEP (inclusive, at most MAX_RANGE_VALUES values) or a
    comma list."""
    parts = text.split(":") if ":" in text else [p for p in text.split(",") if p.strip()]
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(f"cannot parse --byz value {text!r}") from None
    if ":" not in text:
        return numbers
    if len(numbers) != 3:
        raise ConfigurationError(f"--byz range must be LO:HI:STEP, got {text!r}")
    lo, hi, step = numbers
    if not (step > 0 and lo <= hi):
        raise ConfigurationError(f"--byz range {text!r} is empty or reversed")
    span = (hi - lo) / step  # round(span) + 1 values; inf if the step underflows
    if not span < MAX_RANGE_VALUES - 0.5:
        raise ConfigurationError(
            f"--byz range {text!r} has {span + 1:.6g} values, more than {MAX_RANGE_VALUES}"
        )
    values = [round(lo + i * step, 10) for i in range(round(span) + 1)]
    return [v for v in values if v <= hi + 1e-12]


def _parse_masters(text: str) -> list[int]:
    """A count ("3" -> seeds 0,1,2; at most MAX_RANGE_VALUES) or an
    explicit comma list."""
    try:
        if "," in text:
            return [int(p) for p in text.split(",") if p.strip()]
        count = int(text)
    except ValueError:
        raise ConfigurationError(f"cannot parse --seeds value {text!r}") from None
    if count > MAX_RANGE_VALUES:
        raise ConfigurationError(f"--seeds count {count} is more than {MAX_RANGE_VALUES}")
    return list(range(count))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchdfl",
        description="Byzantine-robust decentralized FL simulator with sketch screening",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single simulation from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default="results/run")
    run_p.add_argument("--run-id", default=None)

    sweep_p = sub.add_parser("sweep", help="config grid x byzantine fractions x seed replicates")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=V1,V2",
                         help="one grid axis over a config key's values (repeatable)")
    sweep_p.add_argument("--byz", required=True, help="LO:HI:STEP or comma list")
    sweep_p.add_argument("--seeds", default="3", help="replicate count or comma list of master seeds")
    sweep_p.add_argument("--out", default="results/sweep")
    return parser


def _out_dir(path: str) -> Path:
    """Create the output directory up front, so a bad --out fails before
    the simulation runs rather than after."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use --out {out}: {exc}") from None
    return out


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    out = _out_dir(args.out)
    result = run_simulation(config, run_id=args.run_id)
    run_id = result.manifest["run_id"]
    rows = metrics_rows(run_id, config.seeds.training, config.byz_fraction, result.metrics)
    write_metrics_csv(out / "metrics.csv", rows)
    result.manifest["resolved_config_ini"] = emit_config(config)
    write_manifest(out / "manifest.json", result.manifest)
    last = result.metrics[-1]
    print(f"run {run_id}: {config.rounds} rounds, final mean_ter={last.mean_ter:.4f}")
    print(f"wrote {out / 'metrics.csv'} and {out / 'manifest.json'}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cells = grid(parse_config(args.config), args.set, SWEPT_KEYS)
    fractions = _parse_fractions(args.byz)
    masters = _parse_masters(args.seeds)
    out = _out_dir(args.out)
    rows, manifests = sweep([("".join(f"-{label}" for label in labels), config)
                             for labels, config in cells], fractions, masters)
    write_metrics_csv(out / "sweep.csv", rows)
    write_manifest(out / "manifests.json", {"runs": manifests})
    runs = len(cells) * len(fractions) * len(masters)
    print(f"sweep: {len(cells)} cells x {len(fractions)} fractions x {len(masters)} seeds = "
          f"{runs} runs, {len(rows)} rows")
    print(f"wrote {out / 'sweep.csv'}")
    # mean final-round error over the masters, one column per cell: each
    # run's rows end where the next run's round 0 starts, and runs come
    # cell-major, then fraction, then master
    finals = [row[4] for row, later in zip(rows, [*rows[1:], None]) if later is None or later[3] == 0]
    blocks = [finals[k:k + len(masters)] for k in range(0, len(finals), len(masters))]
    names = ["/".join(label.split("=", 1)[1] for label in labels) or "mean_ter"
             for labels, _ in cells]
    print()
    print("byz_frac  " + "  ".join(f"{name:>12s}" for name in names))
    for f, frac in enumerate(fractions):
        means = [sum(block) / len(block) for block in blocks[f::len(fractions)]]
        print(f"{frac:8.2f}  " + "  ".join(f"{mean:12.4f}" for mean in means))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProtocolError, GraphGenerationError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NumericalDivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
