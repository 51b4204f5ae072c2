"""The scripts under scripts/, run as a user runs them, at a tiny scale."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mol

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(Path(mol.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)


def test_consistency_sweep_writes_a_report_and_a_summary_per_source(tmp_path):
    proc = run_script("consistency_sweep.py", "--n", "100", "--trials", "2", "--jobs", "1",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = ["fair-coin", "sticky-0_9", "random-order2"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.{ext}" for name in names for ext in ("json", "csv")
    )
    for name in names:
        report = json.loads((tmp_path / f"{name}.json").read_text())
        assert [(r["n"], r["backend"]) for r in report["runs"]] == [(100, "ppm"), (100, "lz78")]
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert rows[0].startswith("# tool=mol") and rows[1].startswith("# seed=")
        assert rows[2] == "n,backend,hit_rate,mean_M,mean_K,h_at_M,h_P"
        assert [row.split(",")[:2] for row in rows[3:]] == [["100", "ppm"], ["100", "lz78"]]
    assert len(proc.stdout.splitlines()) == 3


def test_consistency_sweep_runs_the_reference_sources(tmp_path):
    proc = run_script("consistency_sweep.py", "--n", "40,80", "--trials", "2", "--jobs", "1",
                      "--seed", "5", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    config = mol.ExperimentConfig(lengths=(40, 80), trials=2, seed=5, backends=("ppm", "lz78"),
                                  estimators=("universal", "kt"), ppm_exact=True, jobs=1)
    sources = {"fair-coin": mol.fair_coin(), "sticky-0_9": mol.sticky_chain(0.9),
               "random-order2": mol.make_markov(2, 2, seed=11)}
    keys = ("runs", "true_order", "entropy_rate_bits", "cond_entropy_bits")
    for name, src in sources.items():
        got = json.loads((tmp_path / f"{name}.json").read_text())
        want = json.loads(json.dumps(mol.consistency_experiment(src, config)))
        assert {k: got[k] for k in keys} == {k: want[k] for k in keys}
        assert got["meta"]["config"] == want["meta"]["config"]


def test_consistency_sweep_bad_values_exit_3(tmp_path):
    for flag in ("--trials", "--n", "--jobs"):
        proc = run_script("consistency_sweep.py", "--n", "40", "--trials", "1", "--jobs", "1",
                          flag, "0", "--out-dir", str(tmp_path))
        assert proc.returncode == 3, (flag, proc.stderr)
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("mol: invalid config:")


def test_hilberg_profile_prints_the_profile_and_both_fits():
    proc = run_script("hilberg_profile.py", "--log2-min", "3", "--log2-max", "6")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,m,I_bits,order_M,vocab_M,bound_rhs,bound_ok"
    assert [row.split(",")[:2] for row in lines[1:5]] == [
        [str(2**e), str(2 ** (e + 1))] for e in range(3, 7)
    ]
    assert lines[5].startswith("# hilberg exponent of MI:")
    assert lines[6].startswith("# hilberg exponent of vocab at universal order:")
    assert len(lines) == 7


def test_hilberg_profile_rejects_a_grid_it_cannot_fit():
    for argv in (["--log2-min", "3", "--log2-max", "5"], ["--log2-min", "6", "--log2-max", "3"],
                 ["--log2-min", "0", "--log2-max", "5"]):
        proc = run_script("hilberg_profile.py", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage:")
        assert proc.stderr.splitlines()[-1].startswith("hilberg_profile.py: error:")
