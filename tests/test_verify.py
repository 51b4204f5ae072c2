import math

import numpy as np
import pytest

import mol.codes
import mol.verify
from mol import Sequence, build_index, stats, uniform_alphabet
from mol.codes import BudgetError, Lz78Code, PpmCode, kraft_sum, ppm_cond
from mol.mi import SplitPreconditionError, mi_bound_rhs
from mol.stats import FrequencyIndex
from mol.verify import (
    VerifyBudget,
    Workspace,
    _label,
    _superadditivity_value,
    naive_h_counts,
    naive_h_position_form,
    naive_h_vocab_form,
    run_suites,
    suite_kraft,
)

from oracles import all_strings

SMALL = VerifyBudget(exhaustive_max_n=7, random_cases=20, random_max_n=64)


def test_window_entropy_suites_at_small_budget():
    # every suite, in SUITES order
    cases = {
        "h-forms": 1618,
        "ppm-closed-form": 1424,
        "h-step-drop": 1474,
        "h-prefix-drop": 1474,
        "h-superadditivity": 2448,
        "weighted-monotone": 1728,
        "h-series-bound": 1596,
        "maxrep-lower-bound": 274,
        "code-length-monotone": 274,
        "order-le-maxrep": 548,
        "order-le-kt": 274,
        "order-log-bound": 544,
        "kraft": 20,
        "ppm-gap-sandwich": 1474,
        "mi-vocab-bound": 1342,
        "ppm-identities": 540,
    }
    results = run_suites(None, SMALL)
    assert [r.name for r in results] == list(cases)
    for result in results:
        assert result.passed, result.violations[:3]
        assert result.cases == cases[result.name]


def test_gap_suite_after_the_drop_cases_refines_no_gram_length(monkeypatch):
    ws = Workspace(SMALL)
    ws.drop_cases()
    refined = []
    refine = FrequencyIndex._refine
    monkeypatch.setattr(FrequencyIndex, "_refine",
                        lambda self, prev, length: refined.append(length) or refine(self, prev, length))
    result = mol.verify.SUITES["ppm-gap-sandwich"](ws)
    assert result.passed and result.cases == 1474
    assert refined == []


def test_universe_past_the_enumeration_guard_raises_before_building_a_string(monkeypatch):
    monkeypatch.setattr(mol.codes, "Sequence", lambda *a: pytest.fail("built a string"))
    with pytest.raises(BudgetError, match="16\\^10"):
        run_suites(["h-forms"], VerifyBudget(alphabet_size=16))
    x = Sequence(np.zeros(17, dtype=np.int64), uniform_alphabet(2))
    with pytest.raises(BudgetError, match="2\\^17"):
        Workspace(VerifyBudget(exhaustive_max_n=17)).piece(x, 0, 17)


def test_kraft_sums_the_universe_and_enumerates_beyond_it(monkeypatch):
    # SMALL's universe stops at n = 7 and its Kraft sums run to n = 10
    ws = Workspace(SMALL)
    enumerated = []
    monkeypatch.setattr(mol.verify, "kraft_sum",
                        lambda code, n, D: enumerated.append(n) or kraft_sum(code, n, D))
    assert suite_kraft(ws).passed
    assert enumerated == [8, 9, 10] * 2
    # the same objects, so the code lengths cached by earlier suites are read
    strings = [x for n in range(1, 8) for x in ws.of_length(n).values()]
    assert list(map(id, ws.exhaustive())) == list(map(id, strings))
    for code in (ws.ppm, ws.lz78):
        for n in range(1, 8):
            universe = math.fsum(2.0 ** -code.evaluate(x) for x in ws.of_length(n).values())
            assert universe == kraft_sum(code, n, 2)


def test_failing_cases_format_their_own_values(monkeypatch):
    # detail() must run before the suite moves on to the next case
    monkeypatch.setattr(mol.verify, "kt_order", lambda x: -1)
    budget = VerifyBudget(exhaustive_max_n=4, random_cases=6, random_max_n=32)
    (result,) = run_suites(["order-le-kt"], budget)
    ws = Workspace(budget)
    strings = ws.exhaustive() + ws.random()
    assert result.cases == len(strings)
    assert result.violations == [
        f"M={ws.order('ppm', x).estimate} > K=-1 for {_label(x)}" for x in strings
    ]


def test_superadditivity_value_matches_slice_indexes():
    # the four-part formula on freshly built slice indexes, x_j^k 1-based;
    # the value reads pieces of length <= 7 from SMALL's universe
    ws = Workspace(SMALL)
    for m in range(2, 9):
        for x in all_strings(2, m):
            for nn in range(1, m):
                for k in range(min(nn, m - nn)):
                    want = build_index(x).cond_entropy(k)
                    want -= (nn - k) / (m - k) * build_index(x.slice(1, nn)).cond_entropy(k)
                    if k > 0:
                        mid = build_index(x.slice(nn + 1 - k, nn + k))
                        want -= k / (m - k) * mid.cond_entropy(k)
                    right = build_index(x.slice(nn + 1, m))
                    want -= (m - nn - k) / (m - k) * right.cond_entropy(k)
                    assert _superadditivity_value(ws, x, nn, k) == want


UNIVERSE_ONLY = VerifyBudget(exhaustive_max_n=7, random_cases=0)


def test_every_piece_of_a_universe_string_is_a_universe_string():
    ws = Workspace(UNIVERSE_ONLY)
    for x in ws.exhaustive():
        n = len(x)
        for start in range(n):
            for stop in range(start + 1, n + 1):
                code = int("".join(map(str, x.ids[start:stop].tolist())), 2)
                member = ws.piece(x, start, stop)
                assert member is list(ws.of_length(stop - start).values())[code]
                for k in range(stop - start):
                    got = build_index(member).cond_entropy(k)
                    want = build_index(x).window_cond_entropy(k, start, stop)
                    assert got.hex() == want.hex()


def test_pieces_outside_the_universe_resolve_to_none():
    ws = Workspace(UNIVERSE_ONLY)
    x = Sequence(np.array([0, 1, 1, 0, 1, 0, 0, 1, 1], dtype=np.int64), uniform_alphabet(2))
    assert ws.piece(x, 0, 8) is None and ws.piece(x, 0, 9) is None
    assert ws.piece(x, 1, 8) is list(ws.of_length(7).values())[0b1101001]
    ternary = Sequence(np.array([0, 1, 2, 0], dtype=np.int64), uniform_alphabet(3))
    assert ws.piece(ternary, 0, 2) is None
    assert ws.piece(ternary, 3, 4) is None


def test_h_suites_on_the_universe_refine_nothing_and_query_no_window(monkeypatch):
    # the gram pass of exhaustive() leaves every h_k and |V_l| of the universe
    # on its indexes, and every piece the h suites read is a universe string
    ws = Workspace(UNIVERSE_ONLY)
    ws.exhaustive()
    calls = []
    refine, query = FrequencyIndex._refine, FrequencyIndex.window_cond_entropy
    monkeypatch.setattr(FrequencyIndex, "_refine",
                        lambda self, prev, length: calls.append(length) or refine(self, prev, length))
    monkeypatch.setattr(FrequencyIndex, "window_cond_entropy",
                        lambda self, *a: calls.append(a) or query(self, *a))
    names = ["h-forms", "h-step-drop", "h-prefix-drop", "h-superadditivity",
             "weighted-monotone", "h-series-bound"]
    results = [mol.verify.SUITES[name](ws) for name in names]
    assert all(r.passed and r.cases for r in results)
    assert calls == []


def test_universe_and_random_strings_take_one_ppm_pass_each(monkeypatch):
    # the Workspace fills L and the PPM code lengths of its exhaustive universe
    # and of its random strings by one batch each, not one pass per string
    calls = []
    suffix_array = stats._suffix_array
    monkeypatch.setattr(stats, "_suffix_array", lambda *a: calls.append(1) or suffix_array(*a))
    results = run_suites(["ppm-closed-form", "order-le-maxrep"], SMALL)
    assert all(r.passed and r.cases for r in results)
    assert len(calls) <= 2


def test_mi_and_identity_suites_fill_their_strings_by_one_pass_per_batch(monkeypatch):
    # the MI suite fills the slices of each random string by one pass, and the
    # identity suite its 60 strings by one, not one pass per slice or string
    calls = []
    suffix_array = stats._suffix_array
    monkeypatch.setattr(stats, "_suffix_array", lambda *a: calls.append(1) or suffix_array(*a))
    results = run_suites(["mi-vocab-bound", "ppm-identities"], SMALL)
    assert all(r.passed and r.cases for r in results)
    visited = min(SMALL.random_cases, mol.verify.MI_RANDOM_CASES)
    assert len(calls) <= 2 + visited + 1


def test_naive_forms_build_no_index():
    rng = np.random.default_rng(7)
    strings = [x for n in range(1, 9) for x in all_strings(2, n)]
    strings += [Sequence(rng.integers(0, D, size=n), uniform_alphabet(D))
                for D, n in ((2, 50), (3, 37), (4, 64), (5, 20))]
    for x in strings:
        for k in range(len(x)):
            counts = naive_h_counts(x, k)
            naive_h_position_form(x, k, counts)
            naive_h_vocab_form(x, k, counts)
        assert x._index is None  # the oracles stay independent of FrequencyIndex


def test_identity_suite_draws_its_cases_in_the_order_of_one_loop(monkeypatch):
    # the strings are drawn first and filled by one pass; the draws keep the order
    # of a loop that draws D, n and the ids of a string, then one position per order
    seen = []
    monkeypatch.setattr(mol.verify, "ppm_cond",
                        lambda x, i, k: seen.append((x.ids.tolist(), k, i)) or ppm_cond(x, i, k))
    (result,) = run_suites(["ppm-identities"], SMALL)
    assert result.passed and result.cases == 540
    rng = np.random.default_rng(SMALL.random_seed + 3)
    want = []
    for _ in range(60):
        D = int(rng.integers(2, SMALL.random_max_alphabet + 1))
        n = int(rng.integers(2, 40))
        ids = rng.integers(0, D, size=n)
        for k in (0, 1, 2, 5, 8):
            i = int(rng.integers(1, n + 1))
            for a in range(D):
                changed = ids.copy()
                changed[i - 1] = a
                want.append((changed.tolist(), k, i))
    assert seen == want


def test_order_and_mi_bound_scan_once_per_string_and_code(monkeypatch):
    # the reports live on the index; the workspace keeps only its case lists.
    # Each scan evaluates its code once.
    scans = []
    for cls in (PpmCode, Lz78Code):
        monkeypatch.setattr(cls, "evaluate",
                            lambda self, x, f=cls.evaluate: scans.append(self.name) or f(self, x))
    ws = Workspace(UNIVERSE_ONLY)
    x = list(ws.of_length(7).values())[0b0110100]
    bounds = 0
    for name in ("ppm", "lz78", "ppm"):
        ws.order(name, x)
        for nn in range(1, len(x)):
            try:
                bounds += mi_bound_rhs(x, nn, ws.ppm) > 0
            except SplitPreconditionError:
                pass
    assert bounds and scans == ["ppm", "lz78"]
    assert set(vars(ws)) == {"budget", "ppm", "lz78", "_exhaustive", "_of_length", "_random", "_drop"}
