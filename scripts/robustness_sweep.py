#!/usr/bin/env python3
"""Byzantine-fraction sweep across aggregators.

Runs the same fraction x seed grid once per aggregator, writes one
metrics CSV per aggregator plus all run manifests, and prints a mean
final-error table so the degradation curves can be eyeballed without
opening the CSVs. Errors exit with the sketchdfl CLI's codes; a
configuration error, such as an unknown aggregator name, exits 2 before
any run.
"""
import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sketchdfl.aggregation import AGGREGATOR_KINDS
from sketchdfl.cli import _parse_fractions, exit_code
from sketchdfl.config import parse_config
from sketchdfl.engine import sweep
from sketchdfl.errors import ConfigurationError
from sketchdfl.io import write_manifest, write_metrics_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/robustness.ini")
    ap.add_argument("--fractions", default="0:0.8:0.1",
                    help="comma list or LO:HI:STEP, inclusive")
    ap.add_argument("--seeds", type=int, default=3,
                    help="master seeds 0..N-1")
    ap.add_argument("--aggregators", default=",".join(AGGREGATOR_KINDS))
    ap.add_argument("--out", default="results/robustness")
    args = ap.parse_args()

    base = parse_config(args.config)
    fractions = _parse_fractions(args.fractions)
    masters = list(range(args.seeds))
    aggregators = [a.strip() for a in args.aggregators.split(",") if a.strip()]
    if not aggregators:
        raise ConfigurationError("--aggregators names no aggregator")
    # every name is checked before the first run
    configs = {kind: replace(base, aggregator=replace(base.aggregator, kind=kind))
               for kind in aggregators}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # {aggregator: {fraction: mean final TER across masters}}
    table: dict[str, dict[float, float]] = {}
    for kind, cfg in configs.items():
        rows, manifests = sweep(cfg, fractions, masters)
        write_metrics_csv(out / f"metrics_{kind}.csv", rows)
        for manifest in manifests:
            write_manifest(out / f"manifest_{manifest['run_id']}.json", manifest)
        finals: dict[float, list[float]] = {f: [] for f in fractions}
        last_round = cfg.rounds - 1
        for row in rows:
            if row[3] == last_round:
                finals[row[2]].append(row[4])
        table[kind] = {f: sum(v) / len(v) for f, v in finals.items()}
        print(f"wrote {out / f'metrics_{kind}.csv'} "
              f"({len(rows)} rows, {len(manifests)} manifests)")

    header = "byz_frac  " + "  ".join(f"{k:>12s}" for k in aggregators)
    print()
    print(header)
    for frac in fractions:
        cells = "  ".join(f"{table[k][frac]:12.4f}" for k in aggregators)
        print(f"{frac:8.2f}  {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
