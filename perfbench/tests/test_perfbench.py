"""Tests of the benchmark itself: seeded inputs, the checker, metric names."""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, workloads as wl  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

mol = run.import_mol()


def reference(workload, seed=wl.DEFAULT_SEED):
    return run.load_reference(workload, seed)


def input_bytes(tmp_path, workload, seed):
    workdir = tmp_path / f"{workload}-{seed}"
    wl.write_inputs(mol, workload, seed, workdir)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", sorted(wl.FILE_INPUTS))
def test_same_seed_same_files_other_seed_other_files(tmp_path, workload):
    first = input_bytes(tmp_path / "a", workload, 1)
    assert first == input_bytes(tmp_path / "b", workload, 1)
    for other in (2, 1 + wl.VARIANTS):
        files = input_bytes(tmp_path, workload, other)
        assert files.keys() == first.keys()
        assert all(files[name] != first[name] for name in files)


def test_seeds_of_one_variant_ingest_to_the_same_ids(tmp_path):
    # The spelling differs but the symbol ids, hence every output, agree.
    a = input_bytes(tmp_path, "estimate-lz78", 3)
    b = input_bytes(tmp_path, "estimate-lz78", 3 + wl.VARIANTS)
    for name in a:
        mode = "tokens" if name.endswith(".txt") else "bytes"
        assert mol.ingest(a[name], mode=mode).ids.tolist() == \
            mol.ingest(b[name], mode=mode).ids.tolist()


@pytest.mark.parametrize("workload", ["simulate", "verify"])
def test_cli_inputs_follow_the_seed(tmp_path, workload):
    def argv(seed):
        return [op.argv for op in wl.operations(workload, seed, tmp_path)]

    assert argv(1) == argv(1)
    assert argv(1) != argv(2)


def test_checker_accepts_the_reference_and_tiny_float_noise():
    want = reference("estimate-ppm")["exact/order2"]
    got = copy.deepcopy(want)
    got[0]["H_bits"] += 1e-10
    assert wl.count_failures(got, want) == (1, 0)


def test_checker_counts_bits_off_by_1e_6():
    want = reference("estimate-ppm")["exact/order2"]
    got = copy.deepcopy(want)
    got[0]["H_bits"] += 1e-6
    assert wl.count_failures(got, want) == (1, 1)
    got = copy.deepcopy(want)
    got[0]["profile"][-1][1] -= 1e-6
    assert wl.count_failures(got, want) == (1, 1)


def test_checker_counts_a_changed_order():
    want = reference("estimate-lz78")["lz78/order2_1m"]
    for field in ("order", "mgz"):
        got = copy.deepcopy(want)
        got[0][field] += 1
        assert wl.count_failures(got, want) == (1, 1)
    trials = reference("simulate")["simulate/sticky"]
    got = copy.deepcopy(trials)
    got[3]["ppm"]["order"] += 1
    assert wl.count_failures(got, trials) == (len(trials), 1)


def test_checker_counts_case_counts_and_missing_output():
    suites = reference("verify")["verify"]
    got = copy.deepcopy(suites)
    got[0]["cases"] += 1
    assert wl.count_failures(got, suites) == (16, 1)
    assert wl.count_failures([], suites) == (16, 16)


def test_checker_reads_cli_output():
    want = reference("verify")["verify"]
    text = "".join(f"{u['suite']}  cases={u['cases']} {'PASS' if u['passed'] else 'FAIL'}\n"
                   for u in want)
    assert wl.extract_units("verify", 0, text) == want
    assert wl.extract_units("estimate-ppm", 3, "") == []


def declared():
    return run.declared_metrics()


def test_end_to_end_names_are_declared():
    ops = wl.operations("verify", wl.DEFAULT_SEED, Path("."))
    passes = run.Passes("verify", reference("verify"), ops, run.InProcess(mol).call)
    passes.ref_times["verify"] = [2.0, 1.0, 3.0]
    metrics = run.end_to_end(passes, [0.5, 0.7, 0.6], 100.0)
    assert metrics.keys() == declared()["end_to_end"].keys()
    assert metrics["setup_s"] == 0.6
    assert metrics["work_per_ref_s"] == wl.work_of("verify", reference("verify")["verify"]) / 2.0
    with pytest.raises(run.BenchError):
        run.finish({"no_such_metric": 1.0}, declared()["end_to_end"])


def test_sampler_leaves_kernel_runs_out_of_own_time():
    with run.Sampler(run.Kernel()) as sampler:
        _, own, ref = sampler.timed(lambda: time.sleep(0.35))
        during = len(sampler.samples)
        _, own_paused, ref_paused = sampler.timed(lambda: time.sleep(0.25), during=False)
    assert during >= 3
    assert 0.2 < own < 0.35 and ref > 0
    assert own_paused >= 0.25 and ref_paused > 0
    assert wl.runs_pool(["simulate", "--jobs", "2"])
    assert not wl.runs_pool(["estimate", "--jobs", "1", "x.bin"])
    assert not wl.runs_pool(["verify"])


def small_traced_estimates(tmp_path):
    """Traced estimate ops on short inputs; span names do not depend on size."""
    tr = Tracer()
    outputs = {}
    small = {"estimate-ppm": wl.FileInput("fair", "fair", 3000),
             "estimate-lz78": wl.FileInput("tokens", "tokens8", 3000, mode="tokens")}
    sources = wl.make_sources(mol)
    for workload, inp in small.items():
        path = wl.input_path(tmp_path, inp)
        ids, D = wl._symbol_ids(mol, sources, inp, 0)
        path.write_bytes(wl._spell(ids, D, inp, 0))
        kinds = ("exact", "capped") if workload == "estimate-ppm" else ("lz78",)
        for kind in kinds:
            key = f"{kind}/{inp.name}"
            op = next(o for o in wl.operations(workload, 0, tmp_path) if o.key == key)
            want = wl.extract_units(workload, *wl.call_cli(mol.cli, op.argv))
            got = wl._estimate_traced(mol, tr, workload, key, path, inp, want[0])
            assert wl.count_failures([got], want) == (1, 0)
            outputs[key] = [got]
    return tr, outputs


def test_per_layer_names_are_declared(tmp_path):
    names = declared()["per_layer"]
    tr, outputs = small_traced_estimates(tmp_path)
    emitted = dict(run.pass_layer_times("estimate-ppm", tr))
    emitted.update(run.counters("estimate-ppm", outputs, {"fair": 1, "tokens": 1}))
    emitted.update({f"verify.suite.{s}_s": 0.0 for s in mol.verify.SUITES})
    emitted.update({f"count.verify.{s}": 0 for s in mol.verify.SUITES})
    for name in ("verify.universe_s", "stats.maxrep_s", "sources.pool_efficiency",
                 "trace.untraced_s", "trace.unattributed_s", "count.verify.universe",
                 "count.simulate.trials"):
        emitted[name] = 0
    assert set(emitted) <= set(names)
    assert run.finish(emitted, names).keys() == names.keys()


def test_traced_simulate_matches_reference_and_declares_its_spans():
    ref = reference("simulate", 0)["simulate/fair"]
    tr = Tracer()
    units = wl._simulate_traced(mol, tr, wl.simulate_source(mol, "fair"), 0, ref)
    assert wl.count_failures(units, ref) == (len(ref), 0)
    assert set(run.pass_layer_times("simulate", tr)) <= set(declared()["per_layer"])


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_follows_its_own_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_unreadable_output_fails_the_operation():
    want = reference("estimate-ppm")["capped/fair"]
    assert wl.count_failures(wl.extract_units("estimate-ppm", 0, "not json"), want) == (1, 1)
    assert wl.extract_units("simulate", 0, '{"runs": [{"n": 1}]}') == []
