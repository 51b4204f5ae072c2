"""Command-line front end: estimate, profile, simulate, verify.

Outputs are deterministic for a fixed config and seed at any --jobs value:
no timestamps are emitted and parallel results are collected in input order.
Exit codes: 0 ok, 1 invariant violation, 2 I/O error, 3 invalid config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ._version import __version__
from .codes import BACKENDS, KRAFT_ENUM_GUARD, BudgetError, exceeds_enum_guard, make_code
from .mi import mi_profile
from .orders import kt_order, mgz_order, ram_test, universal_markov_order
from .sequence import ingest
from .sources import (
    ExperimentConfig,
    _TrialInvariantError,
    consistency_experiment,
    experiment_summary_rows,
    make_iid,
    make_markov,
    sticky_chain,
)
from .stats import build_index
from .verify import SUITES, UNIVERSE_FREE, VerifyBudget, run_suites


class ConfigError(ValueError):
    """Bad flags or option values; exits with status 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _digest(data: bytes) -> str:
    """The digest of an input's bytes, which the config hash covers with its path."""
    return hashlib.sha256(data).hexdigest()


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("MOL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"MOL_SEED must be an integer, got {env!r}") from None
    return 0


def _meta(command: str, seed: int, backend: str, config: dict) -> dict:
    return {
        "tool": "mol",
        "version": __version__,
        "command": command,
        "seed": seed,
        "backend": backend,
        "config_hash": _config_hash(config),
    }


def _meta_lines(meta: dict) -> list[str]:
    return [
        f"# tool={meta['tool']} version={meta['version']} command={meta['command']}",
        f"# seed={meta['seed']} backend={meta['backend']} config={meta['config_hash']}",
    ]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_table(header: list[str], rows: list) -> list[str]:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return lines


# -- estimate ----------------------------------------------------------------


def _ingest_mode(args):
    """(mode, alphabet): explicit mode over the token list of --alphabet, a JSON
    array of strings, or else --mode with no alphabet."""
    if not args.alphabet:
        return args.mode, None
    alphabet = json.loads(Path(args.alphabet).read_text(encoding="utf-8"))
    if not isinstance(alphabet, list) or not all(isinstance(t, str) for t in alphabet):
        raise ConfigError(f"--alphabet must hold a JSON array of strings: {args.alphabet}")
    return "explicit", alphabet


def _estimate_file(task: dict) -> tuple[dict, str]:
    """The result for one input file, and the digest of its bytes."""
    data = Path(task["path"]).read_bytes()
    x = ingest(data, mode=task["mode"], alphabet=task["alphabet"])
    code = make_code(task["backend"], ppm_exact=task["ppm_exact"])
    report = universal_markov_order(x, code)
    result = {
        "file": task["path"],
        "alphabet_size": x.alphabet.size,
        **report.to_json_dict(),
    }
    if task["kt"]:
        result["kt"] = kt_order(x)
    if task["mgz"] is not None:
        result["mgz"] = mgz_order(x, task["mgz"])
    if task["ram"] is not None:
        M, alpha = task["ram"]
        res = ram_test(x, M, alpha, code)
        result["ram"] = {
            "M": res.M,
            "alpha": res.alpha,
            "statistic": res.statistic,
            "reject": res.reject,
        }
    return result, _digest(data)


def _cmd_estimate(args) -> int:
    seed = _resolve_seed(args.seed)
    _check_mgz(args.mgz)
    mode, alphabet = _ingest_mode(args)
    options = {
        "mode": mode,
        "alphabet": alphabet,
        "backend": args.backend,
        "ppm_exact": args.ppm_exact,
        "kt": args.kt,
        "mgz": args.mgz,
        "ram": _parse_ram(args.ram) if args.ram else None,
    }
    tasks = [{"path": path, **options} for path in args.files]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            done = list(pool.map(_estimate_file, tasks))
    else:
        done = [_estimate_file(t) for t in tasks]
    results = [result for result, _ in done]
    # the hash reads the (M, alpha) tuple of --ram as a JSON list
    config = {"command": "estimate", **options, "files": args.files, "seed": seed,
              "digests": [digest for _, digest in done]}
    meta = _meta("estimate", seed, args.backend, config)

    if args.format == "json":
        _emit(_dump_json({"meta": meta, "results": results}), args.out)
    else:
        header = ["file", "n", "alphabet_size", "backend", "H_bits", "order",
                  "kt", "mgz", "ram_statistic", "ram_reject"]
        rows = []
        for r in results:
            ram_res = r.get("ram") or {}
            rows.append(
                (r["file"], r["n"], r["alphabet_size"], r["backend"], r["H_bits"],
                 r["order"], r.get("kt"), r.get("mgz"),
                 ram_res.get("statistic"), ram_res.get("reject"))
            )
        _emit("\n".join(_meta_lines(meta) + _csv_table(header, rows)) + "\n", args.out)
    return 0


def _check_mgz(value: float | None) -> None:
    if value is not None and not 0 < value < math.inf:
        raise ConfigError(f"--mgz must be finite and positive, got {value!r}")


def _parse_ram(text: str):
    try:
        m_text, alpha_text = text.split(":")
        M, alpha = int(m_text), float(alpha_text)
    except ValueError:
        raise ConfigError(f"--ram expects M:alpha, got {text!r}") from None
    if not 0.0 < alpha < 1.0:
        raise ConfigError("--ram significance must lie in (0, 1)")
    return M, alpha


# -- profile -----------------------------------------------------------------


def _cmd_profile(args) -> int:
    seed = _resolve_seed(args.seed)
    blocks = _parse_int_list(args.blocks) if args.blocks else []
    if any(b < 1 for b in blocks):
        raise ConfigError(f"--blocks sizes must be >= 1, got {args.blocks!r}")
    data = Path(args.file).read_bytes()
    mode, alphabet = _ingest_mode(args)
    x = ingest(data, mode=mode, alphabet=alphabet)
    if len(x) == 0:
        raise ConfigError("cannot profile an empty sequence")
    kmax = min(args.kmax, len(x) - 1)
    profile = build_index(x).profile(kmax)
    config = {
        "command": "profile",
        "mode": mode,
        "alphabet": alphabet,
        "ppm_exact": args.ppm_exact,
        "kmax": args.kmax,
        "blocks": blocks,
        "file": args.file,
        "digest": _digest(data),
        "seed": seed,
    }
    meta = _meta("profile", seed, "ppm", config)
    mi_rows = []
    if blocks:
        code = make_code("ppm", ppm_exact=args.ppm_exact)
        for rep in mi_profile(x, blocks, code):
            mi_rows.append((rep.n, rep.m, rep.I_bits, rep.order, rep.vocab,
                            rep.bound_rhs, rep.bound_ok))

    if args.format == "json":
        payload = {
            "meta": meta,
            "entropy_profile": [
                {"k": k, "h": h, "weighted": w, "vocab": v}
                for k, h, w, v in profile.rows()
            ],
        }
        if blocks:
            payload["mi_profile"] = [
                {"n": r[0], "m": r[1], "I_bits": r[2], "order_M": r[3],
                 "vocab_M": r[4], "bound_rhs": r[5], "bound_ok": r[6]}
                for r in mi_rows
            ]
        _emit(_dump_json(payload), args.out)
    else:
        lines = _meta_lines(meta)
        lines += _csv_table(["k", "h_bits", "weighted_bits", "vocab"], profile.rows())
        if blocks:
            lines.append("")
            lines += _csv_table(
                ["n", "m", "I_bits", "order_M", "vocab_M", "bound_rhs", "bound_ok"],
                mi_rows,
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from None


# -- simulate ----------------------------------------------------------------


def _build_source(args):
    if args.sticky is not None:
        if args.order != 1 or args.d != 2:
            raise ConfigError("--sticky defines a binary order-1 chain; use --order 1 --d 2")
        return sticky_chain(args.sticky)
    if args.order == 0:
        return make_iid([1.0 / args.d] * args.d, label=f"uniform-iid-d{args.d}")
    return make_markov(args.d, args.order, seed=args.source_seed,
                       concentration=args.concentration,
                       label=f"random-order{args.order}-d{args.d}")


ESTIMATORS = ("universal", "kt", "mgz")


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    src = _build_source(args)
    lengths = tuple(_parse_int_list(args.n))
    if not lengths:
        raise ConfigError("--n needs at least one length")
    if any(n < 1 for n in lengths):
        raise ConfigError(f"--n lengths must be >= 1, got {args.n!r}")
    estimators = tuple(part for part in args.estimators.split(",") if part)
    if not set(estimators) <= set(ESTIMATORS):
        raise ConfigError(
            f"--estimators must name some of {', '.join(ESTIMATORS)}, got {args.estimators!r}"
        )
    backends = tuple(part for part in args.backends.split(",") if part)
    if not backends or not set(backends) <= set(BACKENDS):
        raise ConfigError(
            f"--backends must name some of {', '.join(BACKENDS)}, got {args.backends!r}"
        )
    # the value enters config and config_hash whichever estimators run
    _check_mgz(args.mgz)
    config = ExperimentConfig(
        lengths=lengths,
        trials=args.trials,
        seed=seed,
        backends=backends,
        estimators=estimators,
        mgz_lambda=args.mgz if args.mgz is not None else 0.1,
        ppm_exact=args.ppm_exact,
        jobs=args.jobs,
    )
    report = consistency_experiment(src, config)
    meta = _meta("simulate", seed, ",".join(backends), config.to_dict())
    report["meta"]["command"] = "simulate"
    report["meta"]["config_hash"] = meta["config_hash"]
    header = ["n", "backend", "hit_rate", "mean_M", "mean_K", "h_at_M", "h_P"]
    csv_text = "\n".join(
        _meta_lines(meta) + _csv_table(header, experiment_summary_rows(report))
    ) + "\n"
    json_text = _dump_json(report)
    if args.out:
        # appended, not with_suffix: a dot in the name (sticky-0.9) is no suffix
        Path(args.out + ".json").write_text(json_text, encoding="utf-8")
        Path(args.out + ".csv").write_text(csv_text, encoding="utf-8")
    elif args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(json_text)
    return 0


# -- verify ------------------------------------------------------------------


def _guard_enumeration(flag: str, d: int, n: int) -> None:
    if exceeds_enum_guard(d, n):
        raise ConfigError(
            f"{flag} {n} enumerates {d}^{n} strings, more than the guard of {KRAFT_ENUM_GUARD}"
        )


def _cmd_verify(args) -> int:
    names = args.suite or None
    if names is None or "kraft" in names:
        _guard_enumeration("--kraft-nmax", args.d, args.kraft_nmax)
    if any(name not in UNIVERSE_FREE for name in names or SUITES):
        _guard_enumeration("--nmax", args.d, args.nmax)
    budget = VerifyBudget(
        alphabet_size=args.d,
        exhaustive_max_n=args.nmax,
        kraft_max_n=args.kraft_nmax,
        random_cases=args.cases,
        random_max_n=args.random_nmax,
        random_max_alphabet=args.random_dmax,
        random_seed=_resolve_seed(args.seed),
    )
    results = run_suites(names, budget)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{r.name:<{width}}  cases={r.cases:<8d} {status}\n")
        if not r.passed:
            failed = True
            for violation in r.violations[:5]:
                sys.stdout.write(f"    counterexample: {violation}\n")
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ppm-exact", action="store_true",
                   help="evaluate the full PPM mixture instead of the capped head")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed; the MOL_SEED env var applies when absent")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mol", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", allow_abbrev=False, help="Markov order estimates for input files")
    p.add_argument("files", nargs="+")
    p.add_argument("--mode", choices=["bytes", "tokens"], default="bytes")
    p.add_argument("--alphabet", default=None, help="JSON array of token strings (explicit mode)")
    p.add_argument("--backend", choices=BACKENDS, default="ppm")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--kt", action="store_true", help="also report the KT order")
    p.add_argument("--mgz", type=float, default=None, metavar="LAMBDA")
    p.add_argument("--ram", default=None, metavar="M:ALPHA")
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("profile", allow_abbrev=False, help="entropy profile and optional MI profile")
    p.add_argument("file")
    p.add_argument("--mode", choices=["bytes", "tokens"], default="bytes")
    p.add_argument("--alphabet", default=None)
    p.add_argument("--kmax", type=_int_at_least(0), default=8)
    p.add_argument("--blocks", default=None, help="comma list of split sizes n (uses x_1^{2n})")
    _add_common(p)
    p.set_defaults(func=_cmd_profile, format="csv")

    p = sub.add_parser("simulate", allow_abbrev=False, help="consistency experiment over a synthetic source")
    p.add_argument("--order", type=int, default=0, help="source Markov order")
    p.add_argument("--d", type=_int_at_least(2), default=2, help="alphabet size")
    p.add_argument("--sticky", type=float, default=None,
                   help="stay probability of the symmetric binary order-1 chain")
    p.add_argument("--source-seed", type=int, default=1,
                   help="seed for randomly generated transition tables")
    p.add_argument("--concentration", type=float, default=1.0)
    p.add_argument("--n", default="1000", help="comma list of sequence lengths")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--backends", default="ppm")
    p.add_argument("--estimators", default="universal")
    p.add_argument("--mgz", type=float, default=None, metavar="LAMBDA")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", allow_abbrev=False, help="run the invariant suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES),
                   help="suite name (repeatable); all suites by default")
    p.add_argument("--nmax", type=_int_at_least(1), default=10, help="exhaustive length budget")
    p.add_argument("--d", type=_int_at_least(2), default=2, help="exhaustive alphabet size")
    p.add_argument("--cases", type=_int_at_least(0), default=2000, help="random case count")
    # random cases draw lengths from 8 (fixed in verify.Workspace.random) up to this
    p.add_argument("--random-nmax", type=_int_at_least(8), default=512)
    p.add_argument("--random-dmax", type=_int_at_least(2), default=4)
    p.add_argument("--kraft-nmax", type=_int_at_least(1), default=10)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, BudgetError) as exc:
        sys.stderr.write(f"mol: invalid config: {exc}\n")
        return 3
    except _TrialInvariantError as exc:
        sys.stderr.write(f"mol: invariant violated: {exc}\n")
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"mol: i/o error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"mol: invalid config: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
