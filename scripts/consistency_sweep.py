#!/usr/bin/env python3
"""Sweep the three reference sources through `mol simulate`.

Runs `mol simulate` once per source and writes its JSON report and CSV
summary per source. At the full scale (--trials 100 --n 1000,10000,100000)
this reproduces the Monte Carlo acceptance numbers; the defaults finish in
about a minute. Exits with the first nonzero `mol` exit code.

Usage:
    python scripts/consistency_sweep.py --out-dir results --trials 20
"""

import argparse
import json
from pathlib import Path

from mol.cli import main as mol_main

SOURCES = [
    ("fair-coin", ["--order", "0", "--d", "2"]),
    ("sticky-0.9", ["--order", "1", "--sticky", "0.9"]),
    ("random-order2", ["--order", "2", "--d", "2", "--source-seed", "11"]),
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
    for label, flags in SOURCES:
        base = out_dir / label.replace(".", "_")  # the file names of earlier sweeps
        code = mol_main([
            "simulate", *flags, "--backends", "ppm,lz78", "--estimators", "universal,kt",
            "--ppm-exact", f"--n={args.n}", f"--trials={args.trials}",
            f"--seed={args.seed}", f"--jobs={args.jobs}", "--out", str(base),
        ])
        if code:
            return code
        report = json.loads(Path(f"{base}.json").read_text(encoding="utf-8"))
        final = [r for r in report["runs"] if r["backend"] == "ppm"][-1]
        print(
            f"{label}: true order {report['true_order']}, "
            f"hit rate at n={final['n']}: {final['hit_rate']:.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
