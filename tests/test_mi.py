import math

import pytest
from hypothesis import given, strategies as st

from mol import (
    PpmCode,
    SplitPreconditionError,
    UniformCode,
    build_index,
    hilberg_estimate,
    ingest,
    mi_bound_rhs,
    mi_profile,
    mi_report,
    pointwise_mi,
    sticky_chain,
    universal_markov_order,
)
from mol.mi import log2_plus

from oracles import all_strings, seq

PPM = PpmCode(exact=True)
binary_ids = st.lists(st.integers(0, 1), min_size=2, max_size=80)


# -- pointwise MI ---------------------------------------------------------------


def test_pointwise_mi_termwise():
    x = ingest(b"aa")
    expected = 2 * PPM.evaluate(x.slice(1, 1)) - PPM.evaluate(x)
    assert pointwise_mi(x, 1, PPM) == pytest.approx(expected, abs=1e-12)


@given(binary_ids, st.data())
def test_pointwise_mi_additive_code_vanishes(ids, data):
    x = seq(ids)
    split = data.draw(st.integers(1, len(ids) - 1))
    assert pointwise_mi(x, split, UniformCode()) == pytest.approx(0.0, abs=1e-9)


def test_pointwise_mi_invalid_split():
    x = ingest(b"abab")
    with pytest.raises(ValueError):
        pointwise_mi(x, 0, PPM)
    with pytest.raises(ValueError):
        pointwise_mi(x, 4, PPM)


# -- vocabulary bound -----------------------------------------------------------


def test_mi_bound_constant_string():
    x = ingest(b"aaaaaaaa")
    report = universal_markov_order(x, PPM)
    assert report.estimate == 0
    vocab = build_index(x).vocab_size(0)
    assert vocab == 1
    rhs = mi_bound_rhs(x, 4, PPM)
    inner = 2 * vocab + 8 * 1.0 / report.H_bits + 2 * math.log2(math.pi**2 / 6) + 4
    assert rhs == pytest.approx(2 * inner * (2 / math.log(2) + 3), abs=1e-9)
    assert pointwise_mi(x, 4, PPM) <= rhs


def test_mi_bound_exhaustive_small():
    for n in range(2, 9):
        for x in all_strings(2, n):
            for split in range(1, n):
                try:
                    rhs = mi_bound_rhs(x, split, PPM)
                except SplitPreconditionError:
                    continue
                assert pointwise_mi(x, split, PPM) <= rhs + 1e-9


def test_mi_bound_precondition_reports_side():
    x = ingest(b"ab" * 32)  # universal order 1
    assert universal_markov_order(x, PPM).estimate == 1
    with pytest.raises(SplitPreconditionError, match="left"):
        mi_bound_rhs(x, 1, PPM)
    with pytest.raises(SplitPreconditionError, match="right"):
        mi_bound_rhs(x, len(x) - 1, PPM)
    with pytest.raises(ValueError):
        mi_bound_rhs(x, 2, UniformCode())


# -- reports and profiles ----------------------------------------------------


def test_mi_report_and_profile_consistency():
    x = sticky_chain(0.9).sample(64, seed=5)
    reports = mi_profile(x, [4, 8, 16], PPM)
    assert [r.n for r in reports] == [4, 8, 16]
    for rep in reports:
        y = x.slice(1, 2 * rep.n)
        assert rep.m == 2 * rep.n
        assert rep.I_bits == pytest.approx(pointwise_mi(y, rep.n, PPM), abs=1e-12)
        direct = mi_report(y, rep.n, PPM)
        assert direct.order == rep.order and direct.vocab == rep.vocab
        if rep.bound_rhs is not None:
            assert rep.bound_ok


def test_mi_profile_block_too_large():
    x = ingest(b"abcd")
    with pytest.raises(ValueError):
        mi_profile(x, [3], PPM)


# -- Hilberg exponent ------------------------------------------------------------


def test_hilberg_power_law_calibration():
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        grid = {2**e: float(2**e) ** beta for e in range(2, 13)}
        est = hilberg_estimate(grid)
        assert abs(est.exponent - beta) <= 0.05


def test_hilberg_constant_and_diagnostics():
    est = hilberg_estimate({2**e: 5.0 for e in range(2, 13)})
    assert est.exponent <= 0.1
    assert len(est.ratios) == len(est.grid) == 11
    assert est.fit["points_used"] == 6
    assert 0.0 <= est.exponent <= 1.0


def test_hilberg_validation():
    with pytest.raises(ValueError):
        hilberg_estimate({4: 1.0, 8: 2.0, 16: 3.0})  # too few points
    with pytest.raises(ValueError):
        hilberg_estimate({1: 1.0, 4: 1.0, 8: 2.0, 16: 3.0})  # n below 2
    assert log2_plus(-3.0) == 0.0
    assert log2_plus(0.0) == 0.0
    assert log2_plus(1.0) == 1.0
