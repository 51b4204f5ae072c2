import math

import pytest
from hypothesis import given, strategies as st

from mol import (
    CodeLengthFunction,
    Lz78Code,
    OffsetCode,
    PpmCode,
    build_index,
    ingest,
    kt_order,
    lz78_code_length,
    mgz_order,
    ram_test,
    universal_markov_order,
)

from oracles import all_strings, ppm_neglog_oracle, seq

binary_ids = st.lists(st.integers(0, 1), min_size=1, max_size=120)
PPM = PpmCode(exact=True)


# -- universal order ----------------------------------------------------------


def test_universal_order_zero_entropy_string():
    report = universal_markov_order(ingest(b"aaaa"), PPM)
    assert report.estimate == 0
    assert report.H_bits > 0
    assert report.profile.h == [0.0]


def test_universal_order_empty_sequence():
    assert universal_markov_order(ingest(b""), PPM).estimate == 0


@given(binary_ids)
def test_universal_order_defining_inequalities(ids):
    x = seq(ids)
    n = len(x)
    report = universal_markov_order(x, PPM)
    idx = build_index(x)
    M = report.estimate
    assert (n - M) * idx.cond_entropy(M) <= report.H_bits + 1e-9
    if M > 0:
        assert (n - M + 1) * idx.cond_entropy(M - 1) > report.H_bits - 1e-9
    assert M <= idx.max_repetition() + 1


@given(binary_ids)
def test_order_log_bound(ids):
    x = seq(ids)
    n = len(x)
    if n < 2:
        return
    for code in (PPM, Lz78Code()):
        report = universal_markov_order(x, code)
        assert report.estimate / math.log2(n) < n / report.H_bits


@given(binary_ids)
def test_code_length_monotonicity(ids):
    # a larger code length can only lower the order
    x = seq(ids)
    m0 = universal_markov_order(x, PPM).estimate
    m1 = universal_markov_order(x, OffsetCode(PPM, 1.0)).estimate
    m10 = universal_markov_order(x, OffsetCode(PPM, 10.0)).estimate
    assert m0 >= m1 >= m10


def test_order_report_json_shape():
    d = universal_markov_order(ingest(b"abab"), PPM).to_json_dict()
    assert set(d) == {"n", "backend", "H_bits", "order", "profile"}
    assert d["backend"] == "ppm"
    assert all(set(entry) == {"k", "h", "weighted"} for entry in d["profile"])


class FlatCode(CodeLengthFunction):
    """A constant code length; unhashable, like any class that defines __eq__ alone."""

    name = "flat"
    __hash__ = None

    def __init__(self, bits: float):
        self.bits = bits

    def evaluate(self, x):
        return self.bits


def test_order_report_is_kept_on_the_index_per_code_object():
    x = seq([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0])
    report = universal_markov_order(x, PPM)
    assert universal_markov_order(x, PPM) is report
    assert universal_markov_order(x, PpmCode(exact=False)) is not report
    # short-lived codes: each entry holds its code, so no later code can take its id
    got = [universal_markov_order(x, FlatCode(bits)).estimate for bits in (1e9, 0.0, 1e9, 0.0)]
    fresh = [universal_markov_order(seq(x.ids), FlatCode(bits)).estimate for bits in (1e9, 0.0)]
    assert got == fresh * 2 and fresh[0] == 0 < fresh[1]
    first, second = (universal_markov_order(x, FlatCode(1e9)) for _ in range(2))
    assert first is not second and first.profile is second.profile  # one order, one profile
    assert len(build_index(x).orders) == 8


# -- Krichevsky-Trofimov order --------------------------------------------------


def test_kt_order_examples():
    assert kt_order(ingest(b"aaaa")) == 0  # PPM_0 = 1/5 beats 1/8, 1/12, 1/16
    assert kt_order(ingest(b"a")) == 0  # every order ties at 1/2
    assert kt_order(ingest(b"")) == 0


def _kt_oracle(ids, D=2):
    n = len(ids)
    values = [ppm_neglog_oracle(ids, D, k) for k in range(n)]
    best = min(values)
    return next(k for k, v in enumerate(values) if v <= best + 1e-9)


def test_kt_order_exhaustive_small():
    for n in range(1, 9):
        for x in all_strings(2, n):
            assert kt_order(x) == _kt_oracle(x.ids.tolist())


@given(binary_ids)
def test_kt_dominates_universal_order(ids):
    x = seq(ids)
    assert universal_markov_order(x, PPM).estimate <= kt_order(x)


# -- Merhav-Gutman-Ziv estimator ------------------------------------------------


def test_mgz_large_lambda_collapses_to_zero():
    for data in (b"abab", b"abcabc", b"aabbab"):
        x = ingest(data)
        assert mgz_order(x, math.log2(x.alphabet.size)) == 0


def test_mgz_examples():
    assert mgz_order(ingest(b"aaaa"), 0.01) == 0
    x = ingest(b"abab")
    lam = 0.1
    threshold = lz78_code_length(x) / len(x) + lam
    idx = build_index(x)
    brute = next(k for k in range(len(x)) if idx.cond_entropy(k) <= threshold)
    assert mgz_order(x, lam) == brute
    for bad in (0.0, float("nan"), math.inf):
        with pytest.raises(ValueError):
            mgz_order(x, bad)


@given(binary_ids, st.floats(0.01, 2.0))
def test_mgz_matches_brute_force(ids, lam):
    x = seq(ids)
    idx = build_index(x)
    threshold = lz78_code_length(x) / len(x) + lam
    brute = next(k for k in range(len(x) + 1) if k == len(x) or idx.cond_entropy(k) <= threshold)
    assert mgz_order(x, lam) == brute


# -- hypothesis test -------------------------------------------------------------


def test_ram_accepts_beyond_max_repetition():
    x = ingest(b"abab")
    L = build_index(x).max_repetition()
    for code in (PPM, Lz78Code()):
        result = ram_test(x, L + 1, 0.05, code)
        assert not result.reject


def test_ram_reject_definition_and_validation():
    x = ingest(b"abababab")
    res = ram_test(x, 0, 0.05, Lz78Code())
    assert res.reject == (res.statistic > math.log2(1 / 0.05))
    with pytest.raises(ValueError):
        ram_test(x, 0, 0.0, PPM)
    with pytest.raises(ValueError):
        ram_test(x, 0, 1.0, PPM)
    with pytest.raises(ValueError):
        ram_test(x, len(x), 0.05, PPM)


def test_ram_error_rates_monte_carlo():
    import numpy as np

    from mol import fair_coin, make_markov

    # type I: a memoryless source should pass the order-0 test
    coin = fair_coin()
    accept = 0
    trials = 40
    for t in range(trials):
        x = coin.sample(10000, seed=np.random.SeedSequence((31, t)))
        accept += not ram_test(x, 0, 0.05, Lz78Code()).reject
    assert accept / trials >= 0.95

    # type II: strong order-2 dependencies should fail the order-0 test
    chain = make_markov(2, 2, seed=11, concentration=1.0)
    reject = 0
    for t in range(trials):
        x = chain.sample(10000, seed=np.random.SeedSequence((32, t)))
        reject += ram_test(x, 0, 0.05, Lz78Code()).reject
    assert reject / trials >= 0.95
