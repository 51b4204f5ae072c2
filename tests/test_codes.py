import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mol import (
    BudgetError,
    CodeLengthFunction,
    Lz78Code,
    PpmCode,
    build_index,
    fair_coin,
    ingest,
    kraft_sum,
    kt_order,
    lz78_code_length,
    lz78_entropy,
    make_code,
    make_markov,
    ppm_bound_gap,
    ppm_cond,
    ppm_gap_lower,
    ppm_gap_upper,
    ppm_log_measure,
    ppm_log_measure_closed,
    ppm_semidistribution_entropy,
    ram_test,
    sticky_chain,
)
import mol.codes
import mol.stats
from mol.codes import _lg_factorial, _zeta2_tail

from oracles import (
    UniformCode,
    all_strings,
    lz78_oracle,
    ppm_cond_oracle,
    ppm_neglog_oracle,
    ppm_semidist_oracle,
    seq,
)

random_ids = st.lists(st.integers(0, 2), min_size=1, max_size=80)
LOG2_PI2_6 = math.log2(math.pi**2 / 6.0)


# -- PPM conditional law -----------------------------------------------------


def test_ppm_cond_examples():
    x = ingest(b"ab")
    assert ppm_cond(x, 1, 0) == 0.5  # short context branch is forced at i=1
    assert ppm_cond(x, 1, 7) == 0.5
    assert ppm_cond(ingest(b"aa"), 2, 0) == pytest.approx(2.0 / 3.0)
    assert ppm_cond(ingest(b"aba"), 3, 1) == pytest.approx(0.5)  # context unseen
    with pytest.raises(IndexError):
        ppm_cond(x, 3, 0)
    with pytest.raises(ValueError):
        ppm_cond(x, 1, -1)


@given(random_ids, st.integers(0, 8), st.data())
def test_ppm_cond_matches_oracle(ids, k, data):
    x = seq(ids, 3)
    i = data.draw(st.integers(1, len(ids)))
    assert ppm_cond(x, i, k) == pytest.approx(ppm_cond_oracle(ids, 3, i, k), abs=1e-12)


@given(random_ids, st.integers(0, 8), st.data())
def test_ppm_cond_normalizes(ids, k, data):
    x = seq(ids, 3)
    i = data.draw(st.integers(1, len(ids)))
    total = 0.0
    for a in range(3):
        variant = ids.copy()
        variant[i - 1] = a
        total += ppm_cond(seq(variant, 3), i, k)
    assert total == pytest.approx(1.0, abs=1e-12)


# -- PPM log measures --------------------------------------------------------


def test_ppm_log_measure_examples():
    assert ppm_log_measure(ingest(b"aa"), 0) == pytest.approx(math.log2(3), abs=1e-12)
    x = ingest(b"abba")
    for k in (3, 4, 10):  # k > n-2 collapses to the uniform measure
        assert ppm_log_measure(x, k) == pytest.approx(4.0)
    assert ppm_log_measure(ingest(b""), 5) == 0.0


@given(random_ids, st.integers(0, 6))
def test_ppm_log_measure_matches_oracle(ids, k):
    assert ppm_log_measure(seq(ids, 3), k) == pytest.approx(
        ppm_neglog_oracle(ids, 3, k), abs=1e-9
    )


def test_ppm_closed_form_examples():
    assert ppm_log_measure_closed(ingest(b"aa"), 0) == pytest.approx(math.log2(3), abs=1e-9)
    assert ppm_log_measure_closed(ingest(b"aaaa"), 0) == pytest.approx(math.log2(5), abs=1e-9)
    x = ingest(b"abab")
    assert ppm_log_measure_closed(x, 1) == pytest.approx(ppm_log_measure(x, 1), abs=1e-9)
    with pytest.raises(ValueError):
        ppm_log_measure_closed(x, 3)


def test_ppm_closed_form_exhaustive():
    for n in range(2, 9):
        for x in all_strings(2, n):
            for k in range(n - 1):
                assert ppm_log_measure(x, k) == pytest.approx(
                    ppm_log_measure_closed(x, k), abs=1e-9
                )


@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=6),
    st.integers(2, 150),
    st.lists(st.tuples(st.integers(0, 149), st.integers(0, 2)), max_size=3),
)
def test_ppm_log_measure_matches_closed_form_on_repetitive_strings(period, n, edits):
    # long repeats give deep, nested lcp-intervals
    ids = (period * n)[:n]
    for pos, a in edits:
        if pos < n:
            ids[pos] = a
    x = seq(ids, 3)
    for k in range(n - 1):
        assert ppm_log_measure(x, k) == pytest.approx(ppm_log_measure_closed(x, k), abs=1e-9)


@pytest.mark.parametrize("period, kt", [(b"a", 0), (b"abcabd", 3)])
def test_repetitive_inputs_cost_no_quadratic_time(period, kt):
    # a per-order scan costs O(n L) = O(n^2) here; one suffix-array pass does not
    long = ingest((period * 100_000)[:100_000])
    start = time.perf_counter()
    H = PpmCode(exact=True).evaluate(long)
    K = kt_order(long)
    assert time.perf_counter() - start < 15.0
    assert 0 < H < 300.0
    assert K == kt
    short = ingest((period * 300)[:300])
    for k in range(len(short) - 1):
        assert ppm_log_measure(short, k) == pytest.approx(
            ppm_log_measure_closed(short, k), abs=1e-9
        )


@pytest.mark.parametrize("source", [fair_coin(), sticky_chain(0.9), make_markov(2, 2, seed=11)],
                         ids=["fair", "sticky", "order2"])
def test_ppm_table_matches_closed_form_at_1e5_symbols(source):
    # the range README "Scale notes" states: within 1e-9 bits at 10^5 symbols
    # (at 10^6 a float64 log2 c! alone rounds by up to 1.9e-9)
    for seed in (1, 3, 9):
        x = source.sample(10**5, seed=seed)
        for k in range(13):
            assert ppm_log_measure(x, k) == pytest.approx(
                ppm_log_measure_closed(x, k), abs=1e-9
            )


# -- log-factorial and the zeta(2) tail ----------------------------------------


def test_lg_factorial_matches_a_sum_of_logs():
    ms = list(range(2001)) + [10**5]
    logs = [0.0] + [math.log2(i) for i in range(1, ms[-1] + 1)]
    got = _lg_factorial(np.array(ms))
    assert got.shape == (len(ms),) and float(_lg_factorial(10**5)) == got[-1]
    for m, value in zip(ms, got.tolist()):
        assert math.isclose(value, math.fsum(logs[: m + 1]), rel_tol=1e-13)


def test_lg_factorial_table_grows_on_demand_with_the_lgamma_values(monkeypatch):
    monkeypatch.setattr(mol.codes, "_LG_TABLE", np.empty(0))
    sizes = []
    for m in (600, 3, np.array(17), 650, 2000):
        got = _lg_factorial(m)
        assert float(got).hex() == (math.lgamma(int(m) + 1) * mol.codes.LOG2E).hex()
        sizes.append(mol.codes._LG_TABLE.size)
    # grown to the request, then at least doubled; a smaller request reads the table as is
    assert sizes == [601, 601, 601, 1202, 2404]
    want = [(math.lgamma(v + 1) * mol.codes.LOG2E).hex() for v in range(2404)]
    assert [v.hex() for v in _lg_factorial(np.arange(2404)).tolist()] == want
    # a negative count raises, as math.lgamma does at its pole, instead of wrapping round the table
    for bad in (-1, np.array([3, -2]), -2001):
        with pytest.raises(ValueError):
            _lg_factorial(bad)
    assert _lg_factorial(np.array([], dtype=np.int64)).size == 0


def _zeta2_tail_bounds(m: int):
    """sum_{j > m} 1/j^2 from below and above: the terms up to N directly, and
    1/(N + 1/2) - 1/(12 N^3) < sum_{j > N} 1/j^2 < 1/(N + 1/2) by the midpoint rule."""
    N = max(2 * m, 20000)
    direct = math.fsum([1.0 / (j * j) for j in range(m + 1, N + 1)])
    return direct + 1.0 / (N + 0.5) - 1.0 / (12.0 * N**3), direct + 1.0 / (N + 0.5)


@pytest.mark.parametrize("m", list(range(101)) + [10**3, 10**4, 10**5, 10**6])
def test_zeta2_tail_matches_a_direct_sum(m):
    lo, hi = _zeta2_tail_bounds(m)
    assert lo * (1 - 1e-15) <= _zeta2_tail(m) <= hi * (1 + 1e-15)


def test_zeta2_tail_at_zero_is_zeta_two():
    assert _zeta2_tail(0) == math.pi**2 / 6


# -- mixture semi-distribution -----------------------------------------------


def test_semidistribution_entropy_single_symbol():
    # all orders assign 1/2, the order weights sum to pi^2/6
    expected = -math.log2(36 / math.pi**4 * 0.25 * 0.5 * (math.pi**2 / 6))
    assert ppm_semidistribution_entropy(ingest(b"a"), exact=True) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(3.718, abs=1e-3)


def test_semidistribution_entropy_empty():
    assert ppm_semidistribution_entropy(ingest(b""), exact=True) == pytest.approx(
        LOG2_PI2_6, abs=1e-9
    )


@given(random_ids)
def test_semidistribution_matches_oracle(ids):
    x = seq(ids[:24], 3)
    assert ppm_semidistribution_entropy(x, exact=True) == pytest.approx(
        ppm_semidist_oracle(x.ids.tolist(), 3), abs=1e-9
    )


@given(random_ids)
def test_semidistribution_uniform_sandwich(ids):
    x = seq(ids, 3)
    n = len(x)
    H = ppm_semidistribution_entropy(x, exact=True)
    assert H >= math.log2(3) - 1e-9
    assert H <= math.log2(math.pi**4 / 36) + 4 * math.log2(n + 1) + n * math.log2(3) + 1e-9


@given(random_ids)
def test_semidistribution_default_matches_exact_for_short_strings(ids):
    # the default head cap exceeds the maximal repetition here, so no loss
    x = seq(ids, 3)
    assert ppm_semidistribution_entropy(x) == pytest.approx(
        ppm_semidistribution_entropy(x, exact=True), abs=1e-9
    )


# -- LZ78 ---------------------------------------------------------------------


def test_lz78_examples():
    assert lz78_code_length(ingest(b"")) == 0.0
    assert lz78_code_length(ingest(b"a")) == 1.0
    assert lz78_code_length(ingest(b"aaaa")) == 6.0  # phrases a, aa, a
    assert lz78_entropy(ingest(b"")) == pytest.approx(LOG2_PI2_6)
    assert lz78_entropy(ingest(b"a")) == pytest.approx(1 + LOG2_PI2_6 + 2.0)


@given(st.lists(st.integers(0, 2), max_size=300))
def test_lz78_matches_oracle(ids):
    x = seq(ids, 3)
    assert lz78_code_length(x) == lz78_oracle(ids, 3)
    assert lz78_entropy(x) > lz78_code_length(x)


@given(st.integers(2, 400).flatmap(
    lambda D: st.tuples(st.just(D), st.lists(st.integers(0, D - 1), max_size=300))
))
def test_lz78_matches_oracle_wide_alphabet(case):
    # trie keys node * D + a must stay distinct at every alphabet size
    D, ids = case
    assert lz78_code_length(seq(ids, D)) == lz78_oracle(ids, D)


@pytest.mark.parametrize("D", [2, 12, 13, 256])
def test_lz78_matches_oracle_on_both_sides_of_the_list_trie_bound(D):
    # D <= 12 parses on a list trie, a larger D on a dict trie
    assert (D <= mol.codes._LIST_TRIE_MAX_D) == (D <= 12)
    ids = np.random.default_rng(D).integers(0, D, 5000).tolist()
    assert lz78_code_length(seq(ids, D)) == lz78_oracle(ids, D)
    # phrases (D-1) and (0), then a match of phrase 1 that runs out of input
    ends_inside = [D - 1, 0, D - 1]
    assert lz78_code_length(seq(ends_inside, D)) == lz78_oracle(ends_inside, D)


def test_pointer_bits_closed_form_equals_the_sum():
    total = 0
    for phrases in range(20000):
        assert mol.codes._pointer_bits(phrases) == total
        total += phrases.bit_length()  # the pointer of phrase j = phrases + 1


def test_lz78_parses_once_per_sequence(tmp_path, monkeypatch, capsys):
    from mol.cli import main

    calls = []
    parse = mol.codes._lz78_parse

    def counted(ids, D):
        calls.append(len(ids))
        return parse(ids, D)

    monkeypatch.setattr(mol.codes, "_lz78_parse", counted)
    path = tmp_path / "x.bin"
    path.write_bytes(bytes(np.random.default_rng(3).integers(0, 2, 5000).astype(np.uint8)))
    code = main(["estimate", "--backend", "lz78", "--mgz", "0.1", "--ram", "1:0.05",
                 str(path)])
    capsys.readouterr()
    assert code == 0
    assert calls == [5000]  # universal order, MGZ and RAM share one parse


def test_lz78_ram_past_the_refined_grams_runs_no_ppm_pass(tmp_path, monkeypatch, capsys):
    from mol.cli import main

    passes = []
    ppm_pass = mol.stats._ppm_pass
    monkeypatch.setattr(mol.stats, "_ppm_pass", lambda indexes: passes.append(1) or ppm_pass(indexes))
    path = tmp_path / "x.bin"
    path.write_bytes(bytes(sticky_chain(0.9).sample(5000, seed=4).ids.astype(np.uint8)))
    # both order scans stop at k = 1, so grams up to length 2 are refined; h_8 needs length 9
    code = main(["estimate", "--backend", "lz78", "--mgz", "0.1", "--ram", "8:0.05",
                 str(path)])
    ram = json.loads(capsys.readouterr().out)["results"][0]["ram"]
    assert code == 0
    assert passes == []
    # the same statistic as from an index that knows L, which lies past 8
    x = ingest(path.read_bytes())
    assert build_index(x).max_repetition() > 8
    assert ram["statistic"] == ram_test(x, 8, 0.05, make_code("lz78")).statistic


# -- Kraft sums ---------------------------------------------------------------


def test_kraft_uniform_code_is_tight():
    assert kraft_sum(UniformCode(), 3, 2) == pytest.approx(1.0, abs=1e-12)


def test_kraft_backends_small():
    for code in (PpmCode(exact=True), Lz78Code()):
        for n in range(1, 7):
            assert kraft_sum(code, n, 2) <= 1.0 + 1e-9


def test_kraft_negative_control():
    class Broken(CodeLengthFunction):
        name = "broken"

        def evaluate(self, x):
            return -1.0

    assert kraft_sum(Broken(), 3, 2) > 1.0


def test_kraft_budget_guard():
    with pytest.raises(BudgetError):
        kraft_sum(UniformCode(), 25, 2)


# -- redundancy gap -----------------------------------------------------------


def test_gap_lower_bound_is_gamma_value():
    assert ppm_gap_lower(2) == pytest.approx(-math.log2(math.sqrt(math.pi) / 2), abs=1e-12)


def test_gap_example_within_sandwich():
    x = ingest(b"aaaa")
    gap = ppm_bound_gap(x, 0)
    assert ppm_gap_lower(2) - 1e-9 <= gap <= ppm_gap_upper(4) + 1e-9
    with pytest.raises(ValueError):
        ppm_bound_gap(x, 3)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=60), st.integers(0, 4))
def test_gap_sandwich_random(ids, k):
    x = seq(ids)
    if k > len(ids) - 2:
        return
    gap = ppm_bound_gap(x, k)
    assert ppm_gap_lower(2) - 1e-9 <= gap <= ppm_gap_upper(len(ids)) + 1e-9


# -- backend objects ----------------------------------------------------------


def test_make_code_and_test_lengths():
    x = ingest(b"abab")
    ppm = make_code("ppm", ppm_exact=True)
    lz = make_code("lz78")
    assert ppm.name == "ppm" and lz.name == "lz78"
    assert ppm.test_length(x) == ppm.evaluate(x)
    assert lz.test_length(x) == lz78_code_length(x)
    assert lz.evaluate(x) == lz78_entropy(x)
    with pytest.raises(ValueError):
        make_code("huffman")


def test_universality_smoke():
    # H(X_1^n)/n approaches 1 bit on fair-coin samples; the PPM mixture is
    # already inside 0.05 bits at this scale, LZ78 converges like 1/log n
    src = fair_coin()
    for trial in range(2):
        x = src.sample(30000, seed=np.random.SeedSequence((99, trial)))
        assert abs(PpmCode(exact=True).evaluate(x) / len(x) - 1.0) <= 0.05
        lz_rate = Lz78Code().evaluate(x) / len(x)
        assert 1.0 < lz_rate < 1.35
