import json
import pickle
import subprocess
import sys
import time

import pytest

import mol.cli
import mol.sources
from mol import ingest, make_code, mi_report
from mol.cli import main
from mol.codes import CodeLengthFunction
from mol.verify import VerifyBudget, Workspace, suite_kraft


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.bin"
    path.write_bytes(b"aaaa" * 50)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_json_shape(capsys, sample_file):
    code, out, _ = run_cli(capsys, "estimate", "--backend", "ppm", "--seed", "3", sample_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["tool"] == "mol"
    assert payload["meta"]["seed"] == 3
    assert payload["meta"]["backend"] == "ppm"
    assert len(payload["meta"]["config_hash"]) == 12
    (result,) = payload["results"]
    assert result["order"] == 0  # constant file
    assert result["n"] == 200
    assert "profile" in result and result["profile"][0]["k"] == 0


def test_estimate_with_extra_estimators(capsys, sample_file):
    code, out, _ = run_cli(
        capsys, "estimate", "--backend", "lz78", "--kt", "--mgz", "0.1",
        "--ram", "0:0.05", "--seed", "0", sample_file,
    )
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["backend"] == "lz78"
    assert result["mgz"] == 0
    assert result["kt"] >= result["order"]
    assert set(result["ram"]) == {"M", "alpha", "statistic", "reject"}
    assert not result["ram"]["reject"]


def test_estimate_csv_format(capsys, sample_file):
    code, out, _ = run_cli(capsys, "estimate", "--format", "csv", "--seed", "1", sample_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# tool=mol")
    assert lines[1].startswith("# seed=1")
    assert lines[2].split(",")[:3] == ["file", "n", "alphabet_size"]
    assert len(lines) == 4


def test_estimate_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "estimate", str(tmp_path / "nope.bin"))
    assert code == 2
    assert "i/o error" in err


def test_bad_ram_flag_is_config_error(capsys, sample_file):
    code, _, err = run_cli(capsys, "estimate", "--ram", "banana", sample_file)
    assert code == 3
    assert "invalid config" in err


def test_unknown_flag_is_config_error(capsys, sample_file):
    code, _, err = run_cli(capsys, "estimate", "--frobnicate", sample_file)
    assert code == 3


def test_mol_seed_env(capsys, sample_file, monkeypatch):
    monkeypatch.setenv("MOL_SEED", "99")
    code, out, _ = run_cli(capsys, "estimate", sample_file)
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 99
    monkeypatch.setenv("MOL_SEED", "pear")
    code, _, err = run_cli(capsys, "estimate", sample_file)
    assert code == 3


def test_explicit_alphabet_flow(capsys, tmp_path):
    data = tmp_path / "tokens.txt"
    data.write_text("the cat the dog", encoding="utf-8")
    alpha_file = tmp_path / "alpha.json"
    alpha_file.write_text(json.dumps(["the", "cat", "dog"]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "estimate", "--alphabet", str(alpha_file), str(data))
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["alphabet_size"] == 3

    alpha_file.write_text(json.dumps(["the", "cat"]), encoding="utf-8")
    code, _, err = run_cli(capsys, "estimate", "--alphabet", str(alpha_file), str(data))
    assert code == 3


@pytest.mark.parametrize("command", ["estimate", "profile"])
def test_alphabet_must_be_a_json_array_of_strings(capsys, tmp_path, command):
    data = tmp_path / "tokens.txt"
    data.write_text("a b a", encoding="utf-8")
    alpha_file = tmp_path / "alpha.json"
    for bad in ["5", '[["a"], ["b"]]', '"ab"', '{"a": 1, "b": 2}']:
        alpha_file.write_text(bad, encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--alphabet", str(alpha_file), str(data))
        assert code == 3
        assert out == ""
        assert err.startswith("mol: invalid config:") and "JSON array of strings" in err
        assert err.count("\n") == 1 and "Traceback" not in err
    alpha_file.write_text("[", encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--alphabet", str(alpha_file), str(data))
    assert code == 2
    assert out == "" and err.startswith("mol: i/o error:")


@pytest.mark.parametrize(
    "argv, first, second",
    [
        (["estimate"], ["--mode", "bytes"], ["--mode", "tokens"]),
        (["estimate"], ["--alphabet", ["a", "b", "c"]], ["--alphabet", ["a", "b", "c", "d"]]),
        (["profile", "--kmax", "2"], ["--mode", "bytes"], ["--mode", "tokens"]),
        # h_k does not depend on the alphabet size, the PPM code of the MI table does
        (["profile", "--kmax", "2", "--blocks", "3"], ["--alphabet", ["a", "b", "c"]],
         ["--alphabet", ["a", "b", "c", "d"]]),
    ],
)
def test_config_hash_covers_how_the_input_is_read(capsys, tmp_path, argv, first, second):
    data = tmp_path / "tokens.txt"
    data.write_text("a b a b c a b b a c", encoding="utf-8")
    outputs = []
    for i, flags in enumerate((first, second)):
        args = list(argv)
        for flag in flags:
            if isinstance(flag, list):
                path = tmp_path / f"alphabet{i}.json"
                path.write_text(json.dumps(flag), encoding="utf-8")
                flag = str(path)
            args.append(flag)
        code, out, _ = run_cli(capsys, *args, "--format", "json", str(data))
        assert code == 0
        outputs.append(json.loads(out))
    meta = [o.pop("meta") for o in outputs]
    assert outputs[0] != outputs[1]
    assert meta[0]["config_hash"] != meta[1]["config_hash"]


_TEXT = b"a b r a c a d a b r a " * 20
_EDITED = b"a b r a c a d a b r x " * 20


@pytest.mark.parametrize(
    "argv, flags, data, stdout_changes, hash_changes",
    [
        pytest.param(["estimate"], ["--backend", "lz78"], _TEXT, True, True, id="estimate-backend"),
        pytest.param(["estimate"], ["--kt"], _TEXT, True, True, id="estimate-kt"),
        pytest.param(["estimate"], ["--mgz", "0.1"], _TEXT, True, True, id="estimate-mgz"),
        pytest.param(["estimate"], ["--ram", "1:0.05"], _TEXT, True, True, id="estimate-ram"),
        pytest.param(["estimate"], ["--mode", "tokens"], _TEXT, True, True, id="estimate-mode"),
        # new bytes under the same path
        pytest.param(["estimate"], [], _EDITED, True, True, id="estimate-bytes"),
        pytest.param(["estimate"], ["--seed", "5"], _TEXT, False, True, id="estimate-seed"),
        pytest.param(["estimate"], ["--jobs", "2"], _TEXT, False, False, id="estimate-jobs"),
        pytest.param(["profile", "--kmax", "3"], ["--kmax", "5"], _TEXT, True, True, id="profile-kmax"),
        pytest.param(["profile", "--kmax", "3"], ["--blocks", "4,8"], _TEXT, True, True, id="profile-blocks"),
        pytest.param(["profile", "--kmax", "3"], ["--mode", "tokens"], _TEXT, True, True, id="profile-mode"),
        pytest.param(["profile", "--kmax", "3"], [], _EDITED, True, True, id="profile-bytes"),
        pytest.param(["profile", "--kmax", "3"], [], _TEXT, False, False, id="profile-same"),
    ],
)
def test_config_hash_changes_whenever_stdout_does(
    capsys, tmp_path, argv, flags, data, stdout_changes, hash_changes
):
    # one flag or the input's bytes change at a time; the output is compared
    # without its metadata, whose seed and hash always follow the config.
    # --format and --out only write the same results another way
    path = tmp_path / "input.txt"
    outputs = []
    for extra, content in (([], _TEXT), (flags, data)):
        path.write_bytes(content)
        code, out, _ = run_cli(capsys, *argv, *extra, "--format", "json", str(path))
        assert code == 0
        outputs.append(json.loads(out))
    hashes = [o.pop("meta")["config_hash"] for o in outputs]
    assert (outputs[0] != outputs[1]) == stdout_changes
    assert (hashes[0] != hashes[1]) == hash_changes
    assert hash_changes or not stdout_changes


def test_profile_rows(capsys, tmp_path):
    path = tmp_path / "p.bin"
    path.write_bytes(b"abracadabra" * 4)
    code, out, _ = run_cli(capsys, "profile", "--kmax", "8", "--format", "csv", str(path))
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "k,h_bits,weighted_bits,vocab"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    weighted = [float(r[2]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(weighted, weighted[1:]))


def test_profile_with_blocks_emits_mi_table(capsys, tmp_path):
    path = tmp_path / "p.bin"
    path.write_bytes(bytes([i % 2 for i in range(64)]))
    code, out, _ = run_cli(
        capsys, "profile", "--kmax", "3", "--blocks", "4,8", "--format", "csv", str(path)
    )
    assert code == 0
    assert "n,m,I_bits,order_M,vocab_M,bound_rhs,bound_ok" in out
    code, out, _ = run_cli(
        capsys, "profile", "--kmax", "3", "--blocks", "4,8", "--format", "json", str(path)
    )
    payload = json.loads(out)
    assert len(payload["mi_profile"]) == 2
    assert len(payload["entropy_profile"]) == 4


def test_profile_mi_rows_equal_mi_report(capsys, tmp_path):
    data = b"abcabd" * 6
    path = tmp_path / "p.bin"
    path.write_bytes(data)
    code, out, _ = run_cli(capsys, "profile", "--blocks", "4,8,16", "--format", "json", str(path))
    assert code == 0
    rows = json.loads(out)["mi_profile"]
    x = ingest(data)
    want = []
    for n in (4, 8, 16):
        rep = mi_report(x.slice(1, 2 * n), n, make_code("ppm"))
        want.append({"n": n, "m": 2 * n, "I_bits": rep.I_bits, "order_M": rep.order,
                     "vocab_M": rep.vocab, "bound_rhs": rep.bound_rhs, "bound_ok": rep.bound_ok})
    assert rows == want
    assert [r["order_M"] for r in rows] == [0, 0, 1]


def test_simulate_deterministic_across_jobs(tmp_path):
    args = [
        "simulate", "--order", "1", "--sticky", "0.9", "--n", "200,400",
        "--trials", "3", "--seed", "7", "--ppm-exact",
        "--estimators", "universal,kt",
    ]
    outputs = []
    for jobs, name in ((1, "a"), (1, "b"), (2, "c")):
        base = tmp_path / name
        code = main(args + ["--jobs", str(jobs), "--out", str(base)])
        assert code == 0
        outputs.append(
            (base.with_suffix(".json").read_bytes(), base.with_suffix(".csv").read_bytes())
        )
    assert outputs[0] == outputs[1] == outputs[2]
    header = outputs[0][1].decode().splitlines()
    assert header[2] == "n,backend,hit_rate,mean_M,mean_K,h_at_M,h_P"


def test_simulate_out_appends_the_extensions_to_a_dotted_base(tmp_path):
    for p in ("0.9", "0.8"):
        code = main(["simulate", "--order", "1", "--sticky", p, "--n", "50", "--trials", "1",
                     "--out", str(tmp_path / f"sticky-{p}")])
        assert code == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "sticky-0.8.csv", "sticky-0.8.json", "sticky-0.9.csv", "sticky-0.9.json"
    ]
    for p in ("0.9", "0.8"):
        report = json.loads((tmp_path / f"sticky-{p}.json").read_text())
        assert report["meta"]["source"]["label"] == f"sticky-{p}"
        assert (tmp_path / f"sticky-{p}.csv").read_text().splitlines()[2].startswith("n,backend")


def test_simulate_stdout_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "100", "--trials", "2", "--seed", "1",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[2].startswith("n,backend")


@pytest.mark.parametrize("length", ["0", "-3"])
def test_simulate_nonpositive_length_is_config_error(capsys, length):
    code, out, err = run_cli(capsys, "simulate", f"--n={length}", "--trials", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("mol: invalid config:") and "--n" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("d", ["0", "1", "-2"])
def test_simulate_alphabet_below_two_is_config_error(capsys, d):
    code, out, err = run_cli(capsys, "simulate", "--order", "0", "--d", d, "--n", "50", "--trials", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("mol: invalid config:") and "--d" in err and ">= 2" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_simulate_invariant_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(mol.sources, "kt_order", lambda x: 0)
    code, out, err = run_cli(
        capsys, "simulate", "--order", "1", "--sticky", "0.9", "--n", "300",
        "--trials", "1", "--seed", "2", "--estimators", "universal,kt", "--jobs", "1",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("mol: invariant violated:") and "exceeded KT order 0" in err
    assert "n=300" in err and "(2, 0, 0)" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_trial_invariant_error_pickles():
    # --jobs > 1 hands it from a pool worker to the parent by pickling
    err = mol.sources._TrialInvariantError(300, (2, 0, 1), "order above KT")
    back = pickle.loads(pickle.dumps(err))
    assert back.args == (300, (2, 0, 1), "order above KT")
    assert str(back) == str(err)


@pytest.mark.parametrize("flag, value", [
    ("--estimators", "universal,bogus"), ("--backends", ","), ("--backends", "ppm,zip"),
])
def test_simulate_unknown_names_fail_before_any_trial(capsys, monkeypatch, flag, value):
    monkeypatch.setattr(mol.cli, "consistency_experiment", lambda *a: pytest.fail("trial ran"))
    code, out, err = run_cli(capsys, "simulate", "--n", "100", "--trials", "1", flag, value)
    assert code == 3
    assert out == ""
    assert err.startswith("mol: invalid config:") and err.count("\n") == 1
    assert flag in err and repr(value) in err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("estimators", ["universal", "mgz"])
def test_simulate_bad_mgz_fails_before_any_trial(capsys, monkeypatch, value, estimators):
    # also when mgz does not run: the value would enter config and config_hash
    monkeypatch.setattr(mol.cli, "consistency_experiment", lambda *a: pytest.fail("trial ran"))
    code, out, err = run_cli(
        capsys, "simulate", "--n", "10", "--trials", "1", "--estimators", estimators,
        f"--mgz={value}",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("mol: invalid config:") and "--mgz" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_estimate_bad_mgz_fails_before_reading_any_file(capsys, monkeypatch, sample_file, value):
    # the check and message of simulate, for a missing file and for a readable one
    monkeypatch.setattr(mol.cli, "_estimate_file", lambda task: pytest.fail("file read"))
    _, _, want = run_cli(capsys, "simulate", "--n", "10", "--trials", "1", f"--mgz={value}")
    for path in ("missing.txt", sample_file):
        code, out, err = run_cli(capsys, "estimate", f"--mgz={value}", path)
        assert (code, out, err) == (3, "", want)


@pytest.mark.parametrize("argv", [
    ["estimate", "--backend", "lz78", "--mgz", "nan"],
    ["simulate", "--order", "1", "--concentration", "0", "--n", "50", "--trials", "1"],
    ["simulate", "--order", "1", "--concentration", "nan", "--n", "50", "--trials", "1"],
])
def test_nan_and_zero_parameters_are_config_errors(sample_file, argv):
    # a subprocess, so that a numpy RuntimeWarning would show on the real stderr
    if argv[0] == "estimate":
        argv = argv + [sample_file]
    proc = subprocess.run([sys.executable, "-m", "mol", *argv], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("mol: invalid config:") and proc.stderr.count("\n") == 1


def test_simulate_bad_source_flags(capsys):
    code, _, err = run_cli(capsys, "simulate", "--sticky", "0.9", "--order", "2")
    assert code == 3


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "kraft", "--kraft-nmax", "3", "--cases", "0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("kraft") and lines[0].endswith("PASS")


def test_verify_runs_each_named_suite_once_in_first_seen_order(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "kraft", "--suite", "ppm-identities", "--suite", "kraft",
        "--kraft-nmax", "3", "--nmax", "3", "--cases", "0",
    )
    assert code == 0
    rows = [line.split()[0] for line in out.splitlines()]
    assert rows == ["kraft", "ppm-identities"]


def test_verify_negative_control():
    class Broken(CodeLengthFunction):
        name = "broken"

        def evaluate(self, x):
            return -1.0

    ws = Workspace(VerifyBudget(kraft_max_n=3, random_cases=0))
    result = suite_kraft(ws, codes=[Broken()])
    assert not result.passed
    assert "broken" in result.violations[0]


def test_cli_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "mol", "verify", "--suite", "kraft",
         "--kraft-nmax", "2", "--cases", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_simulate_budget_error_is_config_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--order", "30", "--n", "100", "--trials", "1")
    assert code == 3
    assert err.startswith("mol: invalid config:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["profile"])
def test_negative_kmax_is_config_error(capsys, sample_file, command):
    code, out, err = run_cli(capsys, command, "--kmax", "-5", sample_file)
    assert code == 3
    assert out == ""
    assert "--kmax" in err and ">= 0" in err


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_jobs_below_one_is_config_error(capsys, sample_file, command):
    rest = ["--n", "100", "--trials", "1"] if command == "simulate" else [sample_file]
    argv = [command, *rest]
    for jobs in ("0", "-2"):
        code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
        assert code == 3
        assert out == ""
        assert "--jobs" in err and ">= 1" in err


@pytest.mark.parametrize("command, flag, value", [
    ("estimate", "--kmax", "3"), ("profile", "--backend", "lz78"), ("profile", "--jobs", "2"),
])
def test_removed_flags_are_config_errors(capsys, sample_file, command, flag, value):
    code, out, err = run_cli(capsys, command, flag, value, sample_file)
    assert code == 3
    assert out == ""
    assert err.startswith("mol: invalid config:") and flag in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--backend", "lz78", "--n", "100", "--trials", "1"],
    ["estimate", "--back", "ppm"],
])
def test_abbreviated_flags_are_config_errors(capsys, sample_file, argv):
    # simulate has --backends but no --backend; estimate has --backend but no --back
    if argv[0] == "estimate":
        argv = [*argv, sample_file]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("mol: invalid config:") and err.count("\n") == 1


def test_profile_zero_block_is_config_error(capsys, sample_file):
    code, out, err = run_cli(capsys, "profile", "--blocks", "4,0", sample_file)
    assert code == 3
    assert out == ""
    assert "--blocks" in err and ">= 1" in err


@pytest.mark.parametrize("flag, value, low", [
    ("--nmax", "-1", 1), ("--nmax", "0", 1), ("--cases", "-5", 0),
    ("--random-nmax", "4", 8), ("--random-dmax", "1", 2), ("--d", "1", 2),
    ("--kraft-nmax", "0", 1), ("--kraft-nmax", "-3", 1),
])
def test_verify_budget_flags_are_validated(capsys, flag, value, low):
    code, out, err = run_cli(capsys, "verify", "--suite", "kraft", flag, value)
    assert code == 3
    assert out == ""
    assert err.startswith("mol: invalid config:") and err.count("\n") == 1
    assert flag in err and f">= {low}" in err


@pytest.mark.parametrize("d, nmax", [
    ("2", "40"), ("2", "1000000000"), ("4", "11"), ("1025", "2"), ("2", "17"),
])
def test_verify_kraft_nmax_beyond_guard_fails_fast(capsys, d, nmax):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "kraft", "--d", d, "--kraft-nmax", nmax)
    assert time.perf_counter() - start < 5.0
    assert code == 3
    assert out == ""
    assert err.startswith("mol: invalid config:") and err.count("\n") == 1
    assert f"--kraft-nmax {nmax}" in err


@pytest.mark.parametrize("argv", [
    ["--suite", "h-forms"], ["--suite", "mi-vocab-bound"], ["--kraft-nmax", "1"],
    ["--suite", "kraft", "--suite", "order-le-kt", "--kraft-nmax", "2"],
])
def test_verify_universe_beyond_guard_fails_fast(capsys, monkeypatch, argv):
    def build(self, n):
        raise AssertionError(f"built the strings of length {n}")

    monkeypatch.setattr(Workspace, "of_length", build)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--d", "16", "--cases", "0", *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 3
    assert out == ""
    assert err.startswith("mol: invalid config:") and err.count("\n") == 1
    assert "--nmax 10" in err and "16^10" in err


def test_verify_universe_unguarded_for_suites_that_never_read_it(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d", "16", "--suite", "ppm-identities",
                           "--suite", "kraft", "--kraft-nmax", "2", "--cases", "0")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_kraft_nmax_ignored_without_kraft_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "h-forms", "--nmax", "3",
                           "--cases", "0", "--kraft-nmax", "40")
    assert code == 0
    assert out.startswith("h-forms") and out.rstrip().endswith("PASS")


def test_no_command_imports_scipy():
    probe = (
        "import sys, mol, mol.cli\n"
        "try:\n"
        "    mol.cli.main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
