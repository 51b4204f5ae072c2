"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs every operation of every input variant once through `mol.cli.main` and
writes perfbench/reference/<workload>.json. Run it only on a commit whose
outputs are the reference; the benchmark itself never rewrites these files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads as wl  # noqa: E402
from perfbench.run import environment, import_mol  # noqa: E402


def record(mol, workload: str) -> dict:
    variants = {}
    for variant in range(wl.VARIANTS):
        workdir = ROOT / ".perfbench_work" / f"record-{workload}-{variant}"
        try:
            wl.write_inputs(mol, workload, variant, workdir)
            outputs = {}
            for op in wl.operations(workload, variant, workdir):
                code, out = wl.call_cli(mol.cli, op.argv)
                units = wl.extract_units(workload, code, out)
                if not units:
                    raise RuntimeError(f"{op.key}: exit {code} with no output")
                outputs[op.key] = units
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        variants[str(variant)] = outputs
        print(f"{workload} variant {variant} recorded", file=sys.stderr)
    return variants


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    args = p.parse_args()
    mol = import_mol()
    env = environment()
    for workload in args.workload or wl.WORKLOADS:
        payload = {"recorded_with": {k: env[k] for k in ("mol", "git_commit", "src_sha256")},
                   "variants": record(mol, workload)}
        path = ROOT / "perfbench" / "reference" / f"{workload}.json"
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
