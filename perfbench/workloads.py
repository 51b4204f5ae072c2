"""The four benchmark workloads: seeded inputs, the CLI operations a pass
runs, the traced pipelines that call the library directly, and the checker
that compares outputs with the recorded reference.

Inputs come from the workload seed alone. `seed % VARIANTS` picks one of the
recorded input variants (the sample seeds of the sources, the CLI `--seed` of
`simulate` and `verify`); the full seed also picks which byte values or
token strings spell the symbols of the input files. `mol.ingest` numbers
symbols by first occurrence, so the spelling changes the file bytes and
leaves every output unchanged, which is what lets one recorded reference per
variant check every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .trace import Tracer

VARIANTS = 16
DEFAULT_SEED = 1
# Used only to confirm a claim made on other seeds (a variant of its own).
HELD_OUT_SEED = 9

SIM_TRIALS = 6
SIM_LENGTHS = (1_000, 10_000)
SIM_JOBS = 2
VERIFY_CASES = 50

# Bits tolerance of the checker, as ROADMAP states it: absolute, in bits.
BITS_TOL = 1e-9


@dataclass(frozen=True)
class FileInput:
    name: str
    source: str
    n: int
    mode: str = "bytes"


PPM_INPUTS = (
    FileInput("fair", "fair", 100_000),
    FileInput("sticky", "sticky", 100_000),
    FileInput("order2", "order2", 100_000),
    # These two stay at this size: exact PPM and the KT order are quadratic
    # on them today, and the benchmark must show that path.
    FileInput("constant", "constant", 10_000),
    FileInput("periodic", "periodic", 10_002),
)
LZ78_INPUTS = (
    FileInput("fair_1m", "fair", 1_000_000),
    FileInput("sticky_1m", "sticky", 1_000_000),
    FileInput("order2_1m", "order2", 1_000_000),
    FileInput("tokens", "tokens8", 200_000, mode="tokens"),
)
FILE_INPUTS = {"estimate-ppm": PPM_INPUTS, "estimate-lz78": LZ78_INPUTS}

SIM_SOURCES = {
    "fair": ("--order", "0", "--d", "2"),
    "sticky": ("--order", "1", "--sticky", "0.9"),
    "order2": ("--order", "2", "--d", "2", "--source-seed", "11"),
}
PERIOD = (0, 1, 2, 0, 1, 3)  # "abcabd"

WORKLOADS = ("estimate-ppm", "estimate-lz78", "simulate", "verify")
WORK_UNIT = {
    "estimate-ppm": "symbols",
    "estimate-lz78": "symbols",
    "simulate": "trials",
    "verify": "cases",
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _stream(name: str) -> int:
    return zlib.crc32(name.encode())


def make_sources(mol) -> dict:
    """The reference sources, built with the library's own constructors."""
    return {
        "fair": mol.fair_coin(),
        "sticky": mol.sticky_chain(0.9),
        "order2": mol.make_markov(2, 2, seed=11),
        "tokens8": mol.make_markov(8, 1, seed=8),
    }


def _symbol_ids(mol, sources: dict, inp: FileInput, variant: int) -> tuple[np.ndarray, int]:
    if inp.source == "constant":
        return np.zeros(inp.n, dtype=np.int64), 1
    if inp.source == "periodic":
        reps = -(-inp.n // len(PERIOD))
        return np.tile(np.array(PERIOD, dtype=np.int64), reps)[: inp.n], 4
    src = sources[inp.source]
    seq = src.sample(inp.n, seed=np.random.SeedSequence([variant, _stream(inp.name)]))
    return seq.ids, src.alphabet_size


def _spell(ids: np.ndarray, D: int, inp: FileInput, seed: int) -> bytes:
    """Encode symbol ids with seed-chosen byte values or token strings."""
    rng = np.random.default_rng([seed, _stream(inp.name)])
    if inp.mode == "bytes":
        table = rng.choice(256, size=D, replace=False).astype(np.uint8)
        return table[ids].tobytes()
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: list[str] = []
    while len(words) < D:
        word = "".join(rng.choice(letters, size=int(rng.integers(3, 8))))
        if word not in words:
            words.append(word)
    return " ".join(np.array(words)[ids].tolist()).encode()


def input_path(workdir: Path, inp: FileInput) -> Path:
    return workdir / (inp.name + (".txt" if inp.mode == "tokens" else ".bin"))


def write_inputs(mol, workload: str, seed: int, workdir: Path) -> None:
    """Set-up: sample and write the workload's input files (file workloads only)."""
    inputs = FILE_INPUTS.get(workload, ())
    if not inputs:
        return
    workdir.mkdir(parents=True, exist_ok=True)
    sources = make_sources(mol)
    for inp in inputs:
        ids, D = _symbol_ids(mol, sources, inp, variant_of(seed))
        input_path(workdir, inp).write_bytes(_spell(ids, D, inp, seed))


# -- operations ----------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One `mol` CLI call of a pass; `key` names its reference record."""

    key: str
    argv: tuple


def operations(workload: str, seed: int, workdir: Path, jobs: int = SIM_JOBS) -> list[Op]:
    """The CLI calls of one pass, in order. `jobs` applies to simulate only."""
    cli_seed = str(variant_of(seed))
    if workload == "estimate-ppm":
        exact = [Op("exact/" + i.name,
                    ("estimate", "--backend", "ppm", "--ppm-exact", "--kt", "--jobs", "1",
                     str(input_path(workdir, i)))) for i in PPM_INPUTS]
        capped = [Op("capped/" + i.name,
                     ("estimate", "--backend", "ppm", "--jobs", "1",
                      str(input_path(workdir, i)))) for i in PPM_INPUTS]
        return exact + capped
    if workload == "estimate-lz78":
        return [Op("lz78/" + i.name,
                   ("estimate", "--backend", "lz78", "--mgz", "0.1", "--ram", "1:0.05",
                    "--jobs", "1", "--mode", i.mode, str(input_path(workdir, i))))
                for i in LZ78_INPUTS]
    if workload == "simulate":
        lengths = ",".join(str(n) for n in SIM_LENGTHS)
        return [Op("simulate/" + name,
                   ("simulate", *flags, "--n", lengths, "--trials", str(SIM_TRIALS),
                    "--backends", "ppm,lz78", "--estimators", "universal,kt",
                    "--ppm-exact", "--jobs", str(jobs), "--seed", cli_seed))
                for name, flags in SIM_SOURCES.items()]
    if workload == "verify":
        return [Op("verify", ("verify", "--cases", str(VERIFY_CASES), "--seed", cli_seed))]
    raise ValueError(f"unknown workload: {workload!r}")


def runs_pool(argv) -> bool:
    """Whether a CLI call fans out to worker processes of its own."""
    argv = list(argv)
    return "--jobs" in argv and argv[argv.index("--jobs") + 1] != "1"


def call_cli(mol_cli, argv) -> tuple[int, str]:
    """Run `mol.cli.main(argv)` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mol_cli.main(list(argv))
    return code, out.getvalue()


# -- records and the checker ---------------------------------------------------
#
# A record is the part of an output the reference pins down. Each operation's
# output is split into units, one per counted operation: one record for an
# estimate call, one per trial for simulate, one per suite for verify.


def _estimate_record(result: dict) -> dict:
    rec = {
        "n": result["n"],
        "alphabet_size": result["alphabet_size"],
        "order": result["order"],
        "H_bits": result["H_bits"],
        "profile": [[e["k"], e["h"], e["weighted"]] for e in result["profile"]],
    }
    for key in ("kt", "mgz"):
        if key in result:
            rec[key] = result[key]
    if "ram" in result:
        rec["ram"] = {"statistic": result["ram"]["statistic"],
                      "reject": result["ram"]["reject"]}
    return rec


def extract_units(workload: str, code: int, stdout: str) -> list:
    """Split one CLI output into per-operation records; [] when the call
    failed or its output cannot be read."""
    try:
        return _extract(workload, code, stdout)
    except (ValueError, KeyError, TypeError, IndexError):
        return []


def _extract(workload: str, code: int, stdout: str) -> list:
    if workload.startswith("estimate"):
        if code != 0:
            return []
        return [_estimate_record(r) for r in json.loads(stdout)["results"]]
    if workload == "simulate":
        if code != 0:
            return []
        runs = json.loads(stdout)["runs"]
        trials: dict = {}
        for run in runs:
            for t, order in enumerate(run["orders"]):
                rec = trials.setdefault((run["n"], t), {"n": run["n"]})
                rec[run["backend"]] = {"order": order, "H_bits": run["H_bits"][t],
                                       "h_at_order": run["h_at_order"][t]}
                if "kt_orders" in run:
                    rec["kt"] = run["kt_orders"][t]
        return [trials[key] for key in sorted(trials)]
    if workload == "verify":
        units = []
        for line in stdout.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1].startswith("cases="):
                units.append({"suite": parts[0], "cases": int(parts[1][6:]),
                              "passed": parts[2] == "PASS"})
        return units
    raise ValueError(f"unknown workload: {workload!r}")


def same(a, b) -> bool:
    """Equal structure; bits equal to BITS_TOL; orders, flags and counts exact."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isfinite(a) and abs(a - b) <= BITS_TOL
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same, a, b))
    return a == b


def count_failures(units: list, reference: list) -> tuple[int, int]:
    """(attempted, failed) for one operation's units against its reference.

    Every reference unit is attempted; a unit fails when it is missing or
    differs. Output that cannot be paired with the reference fails whole.
    """
    if len(units) != len(reference):
        return len(reference), len(reference)
    failed = sum(1 for got, want in zip(units, reference) if not same(got, want))
    return len(reference), failed


def work_of(workload: str, reference: list) -> int:
    """Work units of one operation, from its reference: symbols, trials or cases."""
    if workload.startswith("estimate"):
        return sum(r["n"] for r in reference)
    if workload == "simulate":
        return len(reference)
    return sum(r["cases"] for r in reference)


# -- traced pipelines ----------------------------------------------------------


def _known_code(mol, name: str, bits: float):
    """A code whose length was measured by the span before; no re-evaluation."""

    class KnownLength(mol.CodeLengthFunction):
        def evaluate(self, x):
            return bits

    code = KnownLength()
    code.name = name
    return code


def _estimate_traced(mol, tr: Tracer, workload: str, key: str, path: Path,
                     inp: FileInput, ref: dict) -> dict:
    data = path.read_bytes()
    with tr.span("sequence.ingest", inp.name):
        x = mol.ingest(data, mode=inp.mode)
    with tr.span("stats.h_profile", inp.name):
        mol.build_index(x).profile(ref["order"])
    if workload == "estimate-ppm":
        exact = key.startswith("exact/")
        layer = "codes.ppm_mixture" if exact else "codes.ppm_capped"
        with tr.span(layer, inp.name):
            H = mol.PpmCode(exact=exact).evaluate(x)
        name = "ppm"
    else:
        with tr.span("codes.lz78", inp.name):
            H = mol.Lz78Code().evaluate(x)
        name = "lz78"
    with tr.span("orders.universal", inp.name):
        report = mol.universal_markov_order(x, _known_code(mol, name, H))
    result = {"n": len(x), "alphabet_size": x.alphabet.size, **report.to_json_dict()}
    if key.startswith("exact/"):
        with tr.span("orders.kt", inp.name):
            result["kt"] = mol.kt_order(x)
    if workload == "estimate-lz78":
        with tr.span("orders.mgz", inp.name):
            result["mgz"] = mol.mgz_order(x, 0.1)
        with tr.span("orders.ram", inp.name):
            res = mol.ram_test(x, 1, 0.05, mol.Lz78Code())
        result["ram"] = {"statistic": res.statistic, "reject": res.reject}
    return _estimate_record(result)


def _simulate_traced(mol, tr: Tracer, source, cli_seed: int, ref: list) -> list:
    units = []
    for n_index, n in enumerate(SIM_LENGTHS):
        for trial in range(SIM_TRIALS):
            want = ref[n_index * SIM_TRIALS + trial]
            with tr.span("sources.sample"):
                x = source.sample(n, seed=np.random.SeedSequence((cli_seed, n_index, trial)))
            with tr.span("stats.h_profile"):
                mol.build_index(x).profile(max(want["ppm"]["order"], want["lz78"]["order"]))
            rec: dict = {"n": n}
            for name, layer in (("ppm", "codes.ppm_mixture"), ("lz78", "codes.lz78")):
                with tr.span(layer):
                    H = mol.make_code(name, ppm_exact=True).evaluate(x)
                with tr.span("orders.universal"):
                    report = mol.universal_markov_order(x, _known_code(mol, name, H))
                rec[name] = {"order": report.estimate, "H_bits": report.H_bits,
                             "h_at_order": report.profile.h[report.estimate]}
            with tr.span("orders.kt"):
                rec["kt"] = mol.kt_order(x)
            units.append(rec)
    return units


def _verify_budget(mol, seed: int):
    # Field for field what `mol verify --cases VERIFY_CASES --seed <variant>` builds.
    return mol.VerifyBudget(alphabet_size=2, exhaustive_max_n=10, kraft_max_n=10,
                            random_cases=VERIFY_CASES, random_max_n=512,
                            random_max_alphabet=4, random_seed=variant_of(seed))


def _verify_traced(mol, tr: Tracer, seed: int) -> list:
    from mol.verify import SUITES, Workspace

    ws = Workspace(_verify_budget(mol, seed))
    with tr.span("verify.universe"):
        ws.exhaustive()
        ws.random()
    units = []
    for name, suite in SUITES.items():
        with tr.span("verify.suite." + name):
            res = suite(ws)
        units.append({"suite": res.name, "cases": res.cases, "passed": res.passed})
    return units


def traced_pass(mol, workload: str, seed: int, workdir: Path, reference: dict,
                tr: Tracer) -> tuple[int, int, dict]:
    """One pass over the workload's inputs through direct library calls, each
    call inside a span. Returns (attempted, failed) against the reference and
    the output units per operation key."""
    attempted = failed = 0
    outputs: dict = {}
    for op in operations(workload, seed, workdir):
        want = reference[op.key]
        with tr.span("op", op.key):
            try:
                if workload.startswith("estimate"):
                    inp = next(i for i in FILE_INPUTS[workload] if i.name == op.key.split("/")[1])
                    units = [_estimate_traced(mol, tr, workload, op.key,
                                              input_path(workdir, inp), inp, want[0])]
                elif workload == "simulate":
                    source = simulate_source(mol, op.key.split("/")[1])
                    units = _simulate_traced(mol, tr, source, variant_of(seed), want)
                else:
                    units = _verify_traced(mol, tr, seed)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                units = []
        a, f = count_failures(units, want)
        attempted, failed = attempted + a, failed + f
        outputs[op.key] = units
    return attempted, failed, outputs


def simulate_source(mol, name: str):
    """The source `mol simulate` builds from SIM_SOURCES[name]."""
    if name == "fair":
        return mol.make_iid([0.5, 0.5])
    if name == "sticky":
        return mol.sticky_chain(0.9)
    return mol.make_markov(2, 2, seed=11, concentration=1.0)


# -- probes outside the pipeline sum -------------------------------------------


def maxrep_probe(mol, workload: str, seed: int, workdir: Path, tr: Tracer) -> dict:
    """Time `max_repetition()` on fresh sequences; returns L per input name."""
    L: dict = {}
    if workload in FILE_INPUTS:
        for inp in FILE_INPUTS[workload]:
            x = mol.ingest(input_path(workdir, inp).read_bytes(), mode=inp.mode)
            with tr.span("stats.maxrep", inp.name):
                L[inp.name] = mol.build_index(x).max_repetition()
    elif workload == "verify":
        from mol.verify import Workspace

        ws = Workspace(_verify_budget(mol, seed))
        strings = ws.exhaustive() + ws.random()
        with tr.span("stats.maxrep"):
            for x in strings:
                mol.build_index(x).max_repetition()
        L["universe"] = len(strings)
    return L
