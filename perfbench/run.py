"""Benchmark of the `mol` pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload estimate-ppm --seed 1 --seconds 18 --trace 0

Run from the root of a checkout. With `--trace 0` the run times whole
`mol.cli.main` calls in a worker process, against a calibration kernel run
every tenth of a second during them, and reports the end-to-end metrics; with `--trace 1` it also
runs the pipeline through direct library calls inside spans and reports the
per-layer metrics. Human-readable lines come first; the last line of
stdout is one JSON object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 4
SAMPLE_INTERVAL_S = 0.1
PAUSED_MARGIN_S = 0.3
SETUP_SPEED_S = 0.3

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads as wl  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked; the run exits 2 without a result."""


def import_mol():
    src = ROOT / "src"
    if not (src / "mol" / "__init__.py").is_file():
        raise BenchError(f"no mol sources under {src}")
    sys.path.insert(0, str(src))
    import mol
    import mol.cli

    if Path(mol.__file__).resolve().parent != (src / "mol").resolve():
        raise BenchError(f"imported mol from {mol.__file__}, not from {src}")
    return mol


def declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    spec = json.loads(path.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def load_reference(workload: str, seed: int) -> dict:
    path = ROOT / "perfbench" / "reference" / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing reference outputs {path}")
    return json.loads(path.read_text())["variants"][str(wl.variant_of(seed))]


# -- set-up --------------------------------------------------------------------


def setup_child(workload: str, seed: int, workdir: Path) -> None:
    """Body of one set-up process: import mol, build sources, write inputs."""
    mol = import_mol()
    wl.write_inputs(mol, workload, seed, workdir)


def timed_setups(workload: str, seed: int, workdir: Path, repeats: int) -> tuple[list, list]:
    """Times `repeats` fresh set-up processes, each from process start until
    the inputs are on disk: (wall seconds, reference seconds). A set-up's
    reference seconds scale its wall time by the host's mean speed, measured
    by kernel runs just before and just after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    kernel = Kernel()
    walls, refs = [], []
    before = kernel.speed(SETUP_SPEED_S)
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, timeout=120)
        walls.append(time.perf_counter() - t0)
        after = kernel.speed(SETUP_SPEED_S)
        refs.append(walls[-1] * (before + after) / 2)
        before = after
    return walls, refs


# -- untraced passes -----------------------------------------------------------


class Kernel:
    """A fixed job of the kinds `mol` does, timed while CLI calls run: group
    ids by `np.unique` and a stable `argsort` over a large array and over many
    small ones, and a dict keyed by tuples.

    On a virtual machine whose host is shared, speed changes by tens of
    percent from second to second. This job does not depend on `mol`, so the
    ratio of a call's time to the job's time during it measures the program,
    not the host.
    """

    NOMINAL_S = 0.005  # the job's time on a quiet machine of the kind described in README.md

    def __init__(self):
        rng = np.random.default_rng(20260810)
        self.keys = rng.integers(0, 1 << 20, size=20_000)
        self.items = self.keys[:6_000].tolist()
        self.small = [rng.integers(0, 4, size=int(m)) for m in rng.integers(4, 200, size=40)]

    def run(self) -> None:
        _, inv = np.unique(self.keys, return_inverse=True)
        np.argsort(inv, kind="stable")
        table = {}
        for i, a in enumerate(self.items):
            table[(a >> 3, a & 7)] = i
        for s in self.small:
            _, inv = np.unique(s, return_inverse=True)
            for j, v in enumerate(np.argsort(inv, kind="stable")[:20].tolist()):
                table[(len(s), j)] = v

    def speed(self, seconds: float) -> float:
        """Mean host speed (NOMINAL_S over the job's time) over runs for `seconds`."""
        speeds, start = [], time.perf_counter()
        while not speeds or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            self.run()
            speeds.append(self.NOMINAL_S / (time.perf_counter() - t0))
        return statistics.fmean(speeds)


class Sampler:
    """Runs the kernel every SAMPLE_INTERVAL_S seconds from a SIGALRM handler,
    in the middle of whatever the process is doing, and keeps each run's
    (end time, duration)."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []
        self.paused = False

    def _tick(self, signum, frame) -> None:
        if self.paused:
            return
        t0 = time.perf_counter()
        self.kernel.run()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, during: bool = True):
        """(fn(), own seconds, reference seconds).

        Own seconds leave out the kernel runs during the call. Reference
        seconds scale them by the host's mean speed over the call, measured
        by the kernel runs during it and the one on each side. With
        `during` false the kernel pauses for the call, because the call runs
        processes of its own that the kernel would compete with; the speed
        then comes from the runs in the PAUSED_MARGIN_S seconds around it.
        """
        margin = 0.0 if during else PAUSED_MARGIN_S
        t0 = time.perf_counter()
        first = len(self.samples)
        self.paused = not during
        try:
            result = fn()
        finally:
            self.paused = False
        t1 = time.perf_counter()
        last = len(self.samples)
        while len(self.samples) == last or self.samples[-1][0] < t1 + margin:
            time.sleep(SAMPLE_INTERVAL_S / 10)
        own = t1 - t0 - sum(d for _, d in self.samples[first:last])
        start = bisect.bisect_left(self.samples, (t0 - margin,))
        window = self.samples[max(start - 1, 0):]
        speed = statistics.fmean(Kernel.NOMINAL_S / d for _, d in window)
        return result, own, own * speed


class InProcess:
    """Runs CLI calls in this process; the traced run's untraced baseline."""

    def __init__(self, mol):
        self.mol = mol

    def run_cli(self, argv) -> tuple[int, str]:
        try:
            return wl.call_cli(self.mol.cli, argv)
        except Exception:  # a call that raises counts as failed
            traceback.print_exc()
            return -1, ""

    def call(self, argv) -> tuple[int, str, float, None]:
        """(exit code, stdout, wall seconds, None) of one `mol.cli.main` call."""
        gc.collect()
        t0 = time.perf_counter()
        code, out = self.run_cli(argv)
        return code, out, time.perf_counter() - t0, None


def serve() -> None:
    """Body of the worker process. Each stdin line is a JSON list of CLI
    arguments, answered with [exit code, stdout, own seconds, reference
    seconds]. At end of input it writes its peak RSS in MB."""
    runner = InProcess(import_mol())
    with Sampler(Kernel()) as sampler:
        for line in sys.stdin:
            argv = json.loads(line)
            gc.collect()
            (code, out), own, ref = sampler.timed(lambda: runner.run_cli(argv),
                                                  during=not wl.runs_pool(argv))
            sys.stdout.write(json.dumps([code, out, own, ref]) + "\n")
            sys.stdout.flush()
    sys.stdout.write(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))


class Worker:
    """Runs CLI calls in a fresh interpreter, as a user's `mol` process runs
    them, so that its peak RSS is the workload's own and the harness
    (reference outputs, checking) stays out of it."""

    def __enter__(self) -> "Worker":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        return self

    def call(self, argv) -> tuple[int, str, float, float]:
        self.proc.stdin.write(json.dumps(list(argv)) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the worker process ended early")
        return tuple(json.loads(line))

    def peak_rss_mb(self) -> float:
        """Ends the worker and returns its peak resident memory."""
        out, _ = self.proc.communicate(timeout=60)
        return float(out)

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Passes:
    """Whole passes of CLI calls, timed per call and checked against the reference.

    `times` holds each call's seconds and `ref_times` its reference seconds,
    when the runner measures them (the worker does; see `Sampler.timed`).
    """

    def __init__(self, workload: str, reference: dict, ops: list, call):
        self.workload, self.reference, self.ops, self.call = workload, reference, ops, call
        self.times: dict[str, list[float]] = {op.key: [] for op in ops}
        self.ref_times: dict[str, list[float]] = {op.key: [] for op in ops}
        self.walls: list[float] = []
        self.attempted = self.failed = 0

    def run_one(self) -> None:
        wall = 0.0
        for op in self.ops:
            code, out, dt, ref = self.call(op.argv)
            wall += dt
            self.times[op.key].append(dt)
            if ref is not None:
                self.ref_times[op.key].append(ref)
            units = wl.extract_units(self.workload, code, out)
            a, f = wl.count_failures(units, self.reference[op.key])
            self.attempted, self.failed = self.attempted + a, self.failed + f
        self.walls.append(wall)

    def run_for(self, seconds: float) -> "Passes":
        """At least one pass; another only while it fits in `seconds`."""
        start = time.perf_counter()
        while True:
            self.run_one()
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.walls) > seconds:
                return self

    def median_pass_s(self, ref: bool = False) -> float:
        """Sum over calls of each call's median time: one pass, robust to one slow call."""
        times = self.ref_times if ref else self.times
        return sum(statistics.median(t) for t in times.values())

    def work_per_s(self, ref: bool = False) -> float:
        work = sum(wl.work_of(self.workload, self.reference[op.key]) for op in self.ops)
        return work / self.median_pass_s(ref)


# -- traced run ------------------------------------------------------------------


def pass_layer_times(workload: str, tr: Tracer) -> dict:
    """Per-layer self time of one traced pass, with per-input codes.* variants."""
    out: dict[str, float] = {}
    for span, self_s in tr.self_times():
        if span.name == "op":
            continue
        names = [span.name + "_s"]
        if span.name.startswith("codes.") and workload in wl.FILE_INPUTS:
            names.append(f"{span.name}_s.{span.input}")
        for name in names:
            out[name] = out.get(name, 0.0) + self_s
    return out


def counters(workload: str, outputs: dict, L: dict) -> dict:
    """Exact counters from the traced outputs: n, D, L, M, K and case counts."""
    out: dict[str, int] = {}
    if workload in wl.FILE_INPUTS:
        for key, units in outputs.items():
            if not units:
                continue
            kind, name = key.split("/")
            if kind == "capped":
                continue
            rec = units[0]
            out.update({f"count.{name}.n": rec["n"], f"count.{name}.D": rec["alphabet_size"],
                        f"count.{name}.L": L[name], f"count.{name}.M": rec["order"]})
            if "kt" in rec:
                out[f"count.{name}.K"] = rec["kt"]
    elif workload == "simulate":
        out["count.simulate.trials"] = sum(len(u) for u in outputs.values())
    elif workload == "verify":
        for unit in outputs.get("verify", []):
            out[f"count.verify.{unit['suite']}"] = unit["cases"]
        out["count.verify.universe"] = L["universe"]
    return out


def traced_run(mol, workload: str, seed: int, workdir: Path, reference: dict,
               seconds: float) -> tuple[dict, int, int, list]:
    """Untraced passes, then traced passes, then the maxrep probe. The spans
    come back as one list per traced pass, then one for the probe; `parent`
    indexes into the same list.

    For simulate the untraced baseline runs at --jobs 1, like the traced
    pass, and a further untraced pass set at --jobs SIM_JOBS gives the pool
    efficiency.
    """
    phases = 3 if workload == "simulate" else 2
    local = InProcess(mol).call
    base = Passes(workload, reference, wl.operations(workload, seed, workdir, jobs=1), local)
    base.run_for(seconds / phases)
    attempted, failed = base.attempted, base.failed
    metrics: dict = {"trace.untraced_s": base.median_pass_s()}

    per_pass, sums, walls, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        tr = Tracer()
        gc.collect()
        t0 = time.perf_counter()
        a, f, outputs = wl.traced_pass(mol, workload, seed, workdir, reference, tr)
        walls.append(time.perf_counter() - t0)
        attempted, failed = attempted + a, failed + f
        per_pass.append(pass_layer_times(workload, tr))
        sums.append(sum(t for span, t in tr.self_times() if span.name != "op"))
        spans.append([s.to_json() for s in tr.spans])
        if time.perf_counter() - start + statistics.median(walls) > seconds / phases:
            break
    for name in {n for layers in per_pass for n in layers}:
        metrics[name] = statistics.median(layers.get(name, 0.0) for layers in per_pass)
    metrics["trace.unattributed_s"] = metrics["trace.untraced_s"] - statistics.median(sums)

    if workload == "simulate":
        pool = Passes(workload, reference, wl.operations(workload, seed, workdir), local)
        pool.run_for(seconds / phases)
        attempted, failed = attempted + pool.attempted, failed + pool.failed
        metrics["sources.pool_efficiency"] = statistics.median(sums) / (
            wl.SIM_JOBS * pool.median_pass_s())

    probe = Tracer()
    L = wl.maxrep_probe(mol, workload, seed, workdir, probe)
    metrics["stats.maxrep_s"] = sum(s.end - s.start for s in probe.spans)
    spans.append([s.to_json() for s in probe.spans])
    metrics.update(counters(workload, outputs, L))
    return metrics, attempted, failed, spans


# -- report ----------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    import mol

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mol": mol.__version__, "git_commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16]}


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one; benchmark checkouts may not."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(passes: Passes, setups: list[float], peak_rss_mb: float) -> dict:
    return {
        "work_per_ref_s": passes.work_per_s(ref=True),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def finish(metrics: dict, declared: dict) -> dict:
    """Every declared metric, in declared order; undeclared names are an error.
    A layer or input the workload does not run reads 0."""
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {name: {"value": metrics.get(name, 0), "unit": unit}
            for name, unit in declared.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    p.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not args.serve:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.setup_only:
        setup_child(args.workload, args.seed, Path(args.workdir))
        return 0
    if args.serve:
        serve()
        return 0

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        declared = declared_metrics()
        reference = load_reference(args.workload, args.seed)
        mol = import_mol()
        # setup_s is an end-to-end metric; the traced run needs the inputs only
        setup_walls, setups = timed_setups(args.workload, args.seed, workdir,
                              1 if args.trace else SETUP_REPEATS)
        if args.trace:
            op_times, raw = {}, {}
            metrics, attempted, failed, spans = traced_run(
                mol, args.workload, args.seed, workdir, reference, args.seconds)
            metrics = finish(metrics, declared["per_layer"])
        else:
            with Worker() as worker:
                passes = Passes(args.workload, reference,
                                wl.operations(args.workload, args.seed, workdir),
                                worker.call)
                passes.run_for(args.seconds)
                peak_rss_mb = worker.peak_rss_mb()
            attempted, failed, spans = passes.attempted, passes.failed, []
            op_times = {"own": passes.times, "ref": passes.ref_times}
            raw = {f"wall {wl.WORK_UNIT[args.workload]}_per_s": passes.work_per_s(),
                   "wall setup_s": statistics.median(setup_walls)}
            metrics = finish(end_to_end(passes, setups, peak_rss_mb), declared["end_to_end"])
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "setup_s": {"wall": setup_walls, "ref": setups}, "op_times_s": op_times, "raw": raw,
              "attempted": attempted, "failed": failed,
              "metrics": metrics, "spans": spans}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} (variant {wl.variant_of(args.seed)})"
          f" trace {args.trace}: attempted {attempted} failed {failed}"
          f" fail_frac {failed / attempted:.6g}")
    unit_note = {"work_per_ref_s": f"{wl.WORK_UNIT[args.workload]} per reference second"}
    for name, m in metrics.items():
        note = f"  ({unit_note[name]})" if name in unit_note else ""
        print(f"# {name:<40} {m['value']:>16.6g} {m['unit']}{note}")
    for name, value in raw.items():
        print(f"# {name:<40} {value:>16.6g}  (not a bounded metric)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
