#!/usr/bin/env python3
"""Sweep the three reference sources through the consistency experiment.

Writes one JSON report and one CSV summary per source. At the full scale
(--trials 100 --n 1000,10000,100000) this reproduces the Monte Carlo
acceptance numbers; the defaults finish in about a minute.

Usage:
    python scripts/consistency_sweep.py --out-dir results --trials 20
"""

from __future__ import annotations

import argparse
from pathlib import Path

from mol import (
    ExperimentConfig,
    consistency_experiment,
    experiment_summary_rows,
    fair_coin,
    make_markov,
    sticky_chain,
)
from mol.cli import _csv_table, _dump_json


def reference_sources():
    return [
        fair_coin(),
        sticky_chain(0.9),
        make_markov(2, 2, seed=11, concentration=1.0, label="random-order2"),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--n", default="1000,10000")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lengths = tuple(int(part) for part in args.n.split(",") if part)

    for src in reference_sources():
        config = ExperimentConfig(
            lengths=lengths,
            trials=args.trials,
            seed=args.seed,
            backends=("ppm", "lz78"),
            estimators=("universal", "kt"),
            ppm_exact=True,
            jobs=args.jobs,
        )
        report = consistency_experiment(src, config)
        name = (src.label or "source").replace(".", "_")
        (out_dir / f"{name}.json").write_text(_dump_json(report), encoding="utf-8")
        header = ["n", "backend", "hit_rate", "mean_M", "mean_K", "h_at_M", "h_P"]
        lines = _csv_table(header, experiment_summary_rows(report))
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        final = [r for r in report["runs"] if r["backend"] == "ppm"][-1]
        print(
            f"{src.label}: true order {src.order}, "
            f"hit rate at n={final['n']}: {final['hit_rate']:.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
