import gc
import math
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mol import build_index, ingest, stats, sticky_chain
from mol.codes import count_in_prefix, ppm_log_measure_closed

from oracles import (
    all_strings,
    count_oracle,
    h_position_oracle,
    h_vocab_oracle,
    lcp_intervals_oracle,
    lcp_oracle,
    maxrep_oracle,
    ppm_table_oracle,
    seq,
    suffix_array_oracle,
    vocab_oracle,
)

random_ids = st.lists(st.integers(0, 3), min_size=1, max_size=120)
binary_ids = st.lists(st.integers(0, 1), min_size=2, max_size=200)


# -- counts ------------------------------------------------------------------


def test_count_examples():
    abab = ingest(b"abab").ids
    assert count_in_prefix(abab, ingest(b"ab").ids, 4) == 2
    assert count_in_prefix(abab, ingest(b"ab").ids, 3) == 1
    assert count_in_prefix(abab, ingest(b"").ids, 4) == 5  # N(lambda | x_1^n) = n + 1
    assert count_in_prefix(ingest(b"aaa").ids, ingest(b"aa").ids, 3) == 2  # overlaps count
    assert count_in_prefix(ingest(b"").ids, seq([], 2).ids, 0) == 1


@given(random_ids, st.lists(st.integers(0, 3), max_size=5))
def test_count_matches_oracle_and_prefix_identity(ids, w):
    xs, word = seq(ids, 4).ids, seq(w, 4).ids
    n = len(ids)
    for m in range(n + 1):
        assert count_in_prefix(xs, word, m) == count_oracle(ids, w, m)
    full = count_in_prefix(xs, word, n)
    prev = count_in_prefix(xs, word, n - 1)
    suffix_match = len(w) <= n and ids[n - len(w) :] == w  # lambda matches too
    assert prev == full - (1 if suffix_match else 0)


@given(random_ids)
def test_gram_count_totals(ids):
    idx = build_index(seq(ids, 4))
    n = len(ids)
    for k in range(n + 1):
        assert int(idx.gram_counts(k).sum()) == n - k + 1


def _stacked_gram_reference(ids, k):
    """(ids, counts) of the k-grams: np.unique over the rows x[i:i+k], i = 0..n-k."""
    n = len(ids)
    if k == 0:
        return [0] * (n + 1), [n + 1]
    a = np.asarray(ids, dtype=np.int64)
    rows = np.stack([a[t : n - k + 1 + t] for t in range(k)], axis=1)
    _, inv, cnt = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    return inv.reshape(-1).tolist(), cnt.tolist()


@settings(max_examples=60)
@given(st.data())
def test_gram_ids_match_stacked_rows_in_both_rank_branches(data):
    # D <= 4 keeps the count table within 4 bins per key, so every length counts;
    # D >= 300 over at most 50 symbols exceeds it at every length, so every length sorts
    wide = data.draw(st.booleans())
    D = data.draw(st.integers(300, 600) if wide else st.integers(2, 4))
    ids = data.draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=50))
    sorted_lengths = []
    rank_by_sort = stats._rank_by_sort
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_rank_by_sort", lambda key, *a: sorted_lengths.append(key.size) or rank_by_sort(key, *a))
        idx = build_index(seq(ids, D))
        n = len(ids)
        for k in range(n + 1):
            ref_ids, ref_counts = _stacked_gram_reference(ids, k)
            assert idx.gram_ids(k).tolist() == ref_ids
            assert idx.gram_counts(k).tolist() == ref_counts
            assert idx.gram_ids(k).dtype == idx.gram_counts(k).dtype == np.int32
            if k < n:
                # h_k as two bincounts over the same gram ids, to the last bit
                m = n - k
                ids_k, ids_k1 = idx.gram_ids(k)[:m], idx.gram_ids(k + 1)[:m]
                log_k = np.log2(np.maximum(np.bincount(ids_k), 1))
                log_k1 = np.log2(np.maximum(np.bincount(ids_k1), 1))
                terms = log_k[ids_k] - log_k1[ids_k1]
                assert idx.cond_entropy(k) == float(terms.sum()) / m
    assert len(sorted_lengths) == (n if wide else 0)


@st.composite
def _packed_ids(draw):
    # D in 2..4, 300..600 and 65536..65600 packs 32 or 16, 4 and 2 symbols per
    # word; symbols from a small pool of the alphabet make repeats on every D
    D = draw(st.integers(2, 4) | st.integers(300, 600) | st.integers(65536, 65600))
    pool = draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=4, unique=True))
    return D, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=200))


def _periodic_with_a_flip(period: int, n: int, seed: int) -> list:
    # long repeats that end on a real symbol, not at the end of the string
    ids = (np.random.default_rng(seed).integers(0, 2, period).tolist() * n)[:n]
    ids[-10] ^= 1
    return ids


_CONSTANT = [0] * 1000  # its one irreducible pair, at position 0, takes five doubling rounds


@given(_packed_ids())
@example((2, _CONSTANT))
@example((4, [0, 1, 2, 0, 1, 3] * 30))
@example((2, _periodic_with_a_flip(40, 1200, 1)))
@example((3, [2] * 70))
@example((300, [299] * 9))
@example((65600, [65599] * 5))
# lengths 1, 2, s - 1, s and s + 1 for s = 32, 16, 4 and 2
@example((2, [1]))
@example((2, [1, 0]))
@example((2, [0, 1] * 15 + [1]))
@example((2, [0, 1] * 16))
@example((2, [0, 1] * 16 + [1]))
@example((4, [3, 0, 1] * 5))
@example((4, [3, 0, 1] * 5 + [2]))
@example((4, [3, 0, 1] * 5 + [2, 3]))
@example((300, [299, 0, 299]))
@example((300, [299, 0, 299, 0]))
@example((300, [299, 0, 299, 0, 0]))
@example((65536, [7]))
@example((65536, [7, 65535]))
@example((65536, [7, 65535, 7]))
# the cases of the irreducible pairs, with s = 2: an open pair at text position
# 0 that a run of reducible pairs follows (lcp 3), an open pair that meets
# suffix 0, and a gather past the end, clamped to the zero word W[n]. No run
# can follow a pair closed in round 0: a reducible r has plcp[r-1] = plcp[r] + 1 > s
@example((65536, [0, 0, 0, 0]))
@example((65536, [0, 0, 0, 1]))
@example((65536, [0, 0, 0, 0, 0]))
# a sticky sample whose lcps take up to ten word rounds of 4 symbols
@example((300, (np.array([0, 299])[sticky_chain(0.9).sample(400, seed=5).ids]).tolist()))
def test_suffix_array_matches_oracle(D_ids):
    D, ids = D_ids
    x = np.array(ids, dtype=np.int64)
    sa = stats._suffix_array(x, D)
    assert sa.tolist() == suffix_array_oracle(ids)
    assert stats._lcp_array(x, D, sa).tolist() == lcp_oracle(ids)


def test_lcp_rounds_grow_with_the_log_of_the_longest_repeat():
    # round 0 closes every lcp below s = 32; k doubling words a round finish the
    # irreducible pair of a long repeat in about log2(n / s) more rounds
    calls = []
    bit_length = stats._bit_length
    n = 10**5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_bit_length", lambda v: calls.append(v.size) or bit_length(v))
        for D, ids, L in [(2, [0] * n, n - 1), (4, [0, 1, 2, 0, 1, 3] * (n // 6), n - n % 6 - 6)]:
            calls.clear()
            assert build_index(seq(ids, D)).max_repetition() == L
            assert len(calls) <= 20
        calls.clear()
        build_index(seq(np.random.default_rng(0).integers(0, 2, 2000), 2)).max_repetition()
        assert len(calls) == 1


def _assert_intervals_match_the_stack_walk(lcp):
    # the same (value, parent, lb, rb) rows as a set: the peel keeps its own order
    lcp = np.asarray(lcp, dtype=np.int64)
    got = stats._lcp_intervals(lcp)
    for a in got:
        assert a.dtype == stats._narrow(lcp.size + 1)  # held, never an index
    rows = sorted(zip(*(a.tolist() for a in got)))
    assert rows == sorted(zip(*(a.tolist() for a in lcp_intervals_oracle(lcp))))


@st.composite
def _interval_ids(draw):
    kind = draw(st.sampled_from(["random", "periodic", "constant"]))
    n = draw(st.integers(1, 200))
    if kind == "constant":
        return [0] * n
    if kind == "random":
        D = draw(st.integers(2, 4))
        return draw(st.lists(st.integers(0, D - 1), min_size=n, max_size=n))
    period = draw(st.lists(st.integers(0, 2), min_size=1, max_size=8))
    ids = (period * n)[:n]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        ids[i] = (ids[i] + 1) % 3
    return ids


@given(_interval_ids())
@example([0])
@example([0, 0])
@example([0, 1])
# lcp [0, 1, 2, 1, 0]: the 1 on the falling side is the interval of the 1 on the
# rising side, so the peel drops it
@example([0, 0, 0, 1, 0])
def test_lcp_intervals_match_the_stack_walk(ids):
    _assert_intervals_match_the_stack_walk(lcp_oracle(ids))


def test_lcp_intervals_match_the_stack_walk_on_every_binary_string():
    for n in range(1, 13):
        for ids in product(range(2), repeat=n):
            _assert_intervals_match_the_stack_walk(lcp_oracle(ids))


def test_peel_rounds_grow_with_the_log_of_n():
    # each round's valleys are local minima of the last round's valleys
    def lcp_of(ids, D):
        x = seq(ids, D).ids
        return stats._lcp_array(x, D, stats._suffix_array(x, D))

    n = 10**5
    bound = math.ceil(math.log2(n)) + 2
    cases = [
        (lcp_of(np.random.default_rng(0).integers(0, 2, n), 2), bound),
        (lcp_of([0] * n, 2), 1),
        (lcp_of([0, 1, 2, 0, 1, 3] * (n // 6), 4), 2),
        # the ruler sequence, and its mirror image, whose valleys halve each round
        ([0] + [(i & -i).bit_length() for i in range(1, n)], 2),
        ([0] + [18 - (i & -i).bit_length() for i in range(1, n)], bound),
        ([0] + [n if i % 2 else i // 2 for i in range(1, n)], 2),  # 0, n, 1, n, 2, n, ...
        (list(range(n)), 1),
        ([0] + list(range(n - 1, 0, -1)), 1),
    ]
    rounds = []
    peel = stats._peel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_peel", lambda *a: rounds.append(1) or peel(*a))
        for lcp, most in cases:
            rounds.clear()
            _assert_intervals_match_the_stack_walk(lcp)
            assert 1 <= len(rounds) <= most


def test_peel_raises_on_a_negative_lcp_instead_of_spinning():
    # a value below the zero ends leaves a stretch that no round closes
    with pytest.raises(ValueError, match="negative"):
        stats._lcp_intervals(np.array([0, 1, -1, 2, 0]))


# -- vocabulary and maximal repetition ---------------------------------------


def test_vocab_examples():
    assert build_index(ingest(b"abab")).vocab_size(2) == 2
    assert build_index(ingest(b"abab")).vocab_size(0) == 1
    assert build_index(ingest(b"aaa")).vocab_size(1) == 1
    assert build_index(ingest(b"abab")).vocab_size(5) == 0


@given(random_ids)
def test_vocab_matches_oracle(ids):
    idx = build_index(seq(ids, 4))
    for k in range(len(ids) + 2):
        assert idx.vocab_size(k) == vocab_oracle(ids, k)


@pytest.mark.parametrize("D, ids", [
    (2, np.random.default_rng(8).integers(0, 2, 150).tolist()),
    (4, np.random.default_rng(9).integers(0, 4, 90).tolist()),
    (2, _periodic_with_a_flip(5, 120, 3)),
    (3, [0, 1, 2] * 40),
    (2, [1] * 60),
    (2, [0, 1]),
])
def test_prefix_vocab_counts_the_contexts_of_x_1_to_n_minus_1(D, ids):
    # |V_k(x_1^{n-1})| counts x[i : i+k] over 0 <= i < n-k; k is asked in random
    # order, so some queries land past lengths already refined and pruned
    n = len(ids)
    rng = np.random.default_rng(n)
    for _ in range(3):
        idx = stats.FrequencyIndex(seq(ids, D))
        for k in rng.permutation(n).tolist():
            assert idx.prefix_vocab_size(k) == vocab_oracle(ids[:-1], k)
            assert idx.vocab_size(k) == vocab_oracle(ids, k)
    for k in (-1, n):
        with pytest.raises(ValueError):
            idx.prefix_vocab_size(k)


def test_maxrep_examples():
    assert build_index(ingest(b"abab")).max_repetition() == 2
    assert build_index(ingest(b"aaaa")).max_repetition() == 3
    assert build_index(ingest(b"ab")).max_repetition() == 0
    with pytest.raises(ValueError):
        build_index(ingest(b"")).max_repetition()


def test_maxrep_exhaustive_small():
    for n in range(1, 9):
        for x in all_strings(2, n):
            assert build_index(x).max_repetition() == maxrep_oracle(x.ids.tolist())


@given(random_ids)
def test_maxrep_matches_oracle(ids):
    assert build_index(seq(ids, 4)).max_repetition() == maxrep_oracle(ids)


@given(binary_ids)
def test_maxrep_lower_bound(ids):
    n = len(ids)
    L = build_index(seq(ids)).max_repetition()
    assert L >= math.log2(n - math.log2(n)) - 1 - 1e-9


@st.composite
def _batch(draw):
    """(D, ids) pairs of a mixed batch: random, constant and periodic strings
    over D in {2, 3, 4, 256}, then a string before its own extension, equal
    adjacent strings, n = 1 and n = 2."""
    got = []
    for _ in range(draw(st.integers(0, 6))):
        D = draw(st.sampled_from([2, 3, 4, 256]))
        n = draw(st.integers(1, 60))
        kind = draw(st.sampled_from(["random", "constant", "periodic"]))
        if kind == "random":
            ids = draw(st.lists(st.integers(0, D - 1), min_size=n, max_size=n))
        elif kind == "constant":
            ids = [draw(st.integers(0, D - 1))] * n
        else:
            ids = (draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=5)) * n)[:n]
        got.append((D, ids))
    same = draw(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    return got + [(2, [0, 1]), (2, [0, 1, 0, 1]), (4, same), (4, same), (3, [2]), (256, [255, 255])]


@given(_batch())
@example([(2, [0, 1] * 40), (2, [0] * 300), (256, list(range(256)) * 2)])
# equal L, so equal levels, and the first string with the smaller K
@example([(2, [0, 0, 0]), (2, [0, 1]), (2, [0, 1, 0, 1]), (4, [0]), (4, [0])])
def test_ppm_pass_over_a_batch_gives_each_string_its_own_values(batch):
    seqs = [seq(ids, D) for D, ids in batch]
    build_index(seqs[-1]).max_repetition()  # it holds its PPM table too, so the pass leaves it out
    calls = []
    suffix_array = stats._suffix_array
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_suffix_array", lambda *a: calls.append(1) or suffix_array(*a))
        stats.ppm_pass(seqs)
    assert len(calls) == 1
    for (D, ids), x in zip(batch, seqs):
        idx, alone = build_index(x), stats.FrequencyIndex(seq(ids, D))
        assert idx.max_repetition() == alone.max_repetition() == maxrep_oracle(ids)
        bits = idx.ppm_code_lengths()
        assert bits.tobytes() == alone.ppm_code_lengths().tobytes()
        assert bits.size == max(min(idx.max_repetition(), len(ids) - 2) + 1, 0)
        for k, b in enumerate(bits.tolist()):
            assert b == pytest.approx(ppm_log_measure_closed(x, k), abs=1e-9)


@st.composite
def _equal_length_batch(draw):
    """Strings of one length over alphabet sizes of 2, 3, 4 or 256: random,
    constant and periodic rows, then a row twice as two strings and one
    string twice."""
    n = draw(st.integers(1, 40))
    got = []
    for _ in range(draw(st.integers(0, 6))):
        D = draw(st.sampled_from([2, 3, 4, 256]))
        kind = draw(st.sampled_from(["random", "constant", "periodic"]))
        if kind == "random":
            ids = draw(st.lists(st.integers(0, D - 1), min_size=n, max_size=n))
        elif kind == "constant":
            ids = [draw(st.integers(0, D - 1))] * n
        else:
            ids = (draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=5)) * n)[:n]
        got.append(seq(ids, D))
    same = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    got += [seq(same, 3), seq(same, 3)]
    return got + [got[-1]]


def _assert_gram_pass_state(seqs):
    # the pass leaves each index in the state a lazy index reaches: its reads
    # up to _KEEP_LEN and of |V_l| and h_k refine nothing, and equal a fresh index's
    stats.gram_pass(seqs)
    keep = stats.FrequencyIndex._KEEP_LEN
    for x in seqs:
        idx, alone, n = build_index(x), stats.FrequencyIndex(seq(x.ids, x.alphabet.size)), len(x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats.FrequencyIndex, "_refine", lambda *a: pytest.fail("refined"))
            got = [(idx.gram_ids(l), idx.gram_counts(l)) for l in range(min(n, keep) + 1)]
            vocab = [idx.vocab_size(l) for l in range(n + 2)]
            prefix = [idx.prefix_vocab_size(k) for k in range(n)]
            h = [idx.cond_entropy(k).hex() for k in range(n)]
        for l, (ids, counts) in enumerate(got):
            for a, b in ((ids, alone.gram_ids(l)), (counts, alone.gram_counts(l))):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert vocab == [alone.vocab_size(l) for l in range(n + 2)]
        assert prefix == [alone.prefix_vocab_size(k) for k in range(n)]
        assert h == [alone.cond_entropy(k).hex() for k in range(n)]
        for l in range(keep + 1, n + 1):
            assert np.array_equal(idx.gram_ids(l), stats.FrequencyIndex(x).gram_ids(l))


@given(_equal_length_batch())
def test_gram_pass_over_a_batch_gives_each_string_its_own_state(batch):
    _assert_gram_pass_state(batch)


@pytest.mark.parametrize("D, top", [(2, 10), (3, 6), (4, 5)])
def test_gram_pass_over_every_short_string_gives_each_its_own_state(D, top):
    for n in range(1, top + 1):
        _assert_gram_pass_state(list(all_strings(D, n)))


def test_a_sequence_and_its_index_go_with_the_last_reference():
    # the index keeps D and the ids, not the sequence that holds it, so the
    # two form no cycle for the collector to find
    def indexes():
        return sum(isinstance(o, stats.FrequencyIndex) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = indexes()
        x = seq(np.random.default_rng(2).integers(0, 3, 200), 3)
        idx = build_index(x)
        idx.ppm_code_lengths()
        idx.cond_entropy(2)
        gone = weakref.ref(idx)
        del x, idx
        assert gone() is None and indexes() == before
    finally:
        gc.enable()


def test_profile_refines_each_gram_length_once(monkeypatch):
    # |V_k| is recorded when length k is refined, so the lengths above
    # _KEEP_LEN that h_0..h_8 refined and dropped are not refined again
    ids = np.random.default_rng(5).integers(0, 2, 2000)
    lengths = []
    refine = stats.FrequencyIndex._refine

    def spy(self, prev, k):
        lengths.append(k)
        return refine(self, prev, k)

    monkeypatch.setattr(stats.FrequencyIndex, "_refine", spy)
    profile = stats.FrequencyIndex(seq(ids, 2)).profile(8)
    assert lengths == list(range(1, 10))
    assert profile.vocab == [vocab_oracle(ids.tolist(), k) for k in range(9)]


def _traced_peak(call):
    """call(), the peak bytes that tracemalloc traced during it and the bytes
    still traced after it, both above what was traced before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = call()
        held, peak = tracemalloc.get_traced_memory()
        return got, peak - base, held - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "name, ids, D",
    [
        ("fair", np.random.default_rng(3).integers(0, 2, 10**5), 2),
        ("constant", np.zeros(10**5, dtype=np.int64), 2),
        ("abcabd", np.tile([0, 1, 2, 0, 1, 3], 10**5 // 6 + 1)[: 10**5], 4),
    ],
)
def test_exact_ppm_holds_under_48_bytes_per_symbol(name, ids, D):
    # every stage of the pass (suffix array, LCP, lcp-intervals, level sums) on
    # a fresh index, above the int64 ids; constant and periodic strings have
    # as many levels as symbols
    x = seq(ids, D)
    idx = stats.FrequencyIndex(x)
    bits, peak, _ = _traced_peak(idx.ppm_code_lengths)
    assert bits.size == min(idx.max_repetition(), len(x) - 2) + 1
    assert peak < 48 * len(x), f"{name}: {peak / len(x):.1f} bytes per symbol"


@pytest.mark.parametrize(
    "name, ids, D, bound",
    [
        # with int64 gram ids and counts: 64, 64 and 117 bytes per symbol
        ("fair", np.random.default_rng(3).integers(0, 2, 10**5), 2, 40),
        ("constant", np.zeros(10**5, dtype=np.int64), 2, 40),
        ("bytes", np.random.default_rng(4).integers(0, 256, 10**5), 256, 100),
    ],
)
def test_entropy_profile_holds_under_its_bytes_per_symbol(name, ids, D, bound):
    # h_0..h_8 and |V_0|..|V_8| on a fresh index, above the int64 ids: the
    # gram ids and counts of lengths 1-4 and the two latest lengths stay held
    x = seq(ids, D)
    profile, peak, _ = _traced_peak(lambda: stats.FrequencyIndex(x).profile(8))
    assert len(profile.h) == 9
    assert peak < bound * len(x), f"{name}: {peak / len(x):.1f} bytes per symbol"


def test_maximal_repetition_comes_with_the_ppm_table_and_holds_no_lcp_table(monkeypatch):
    # L is the end of the PPM table: one pass fills both and keeps neither the
    # suffix array nor the LCP table (4 bytes per symbol when the LCP table was
    # kept for a later PPM pass)
    idx = stats.FrequencyIndex(seq(np.random.default_rng(3).integers(0, 2, 10**5), 2))
    _, _, held = _traced_peak(idx.max_repetition)
    assert held < idx.n, f"{held / idx.n:.2f} bytes per symbol"
    calls = []
    suffix_array = stats._suffix_array
    monkeypatch.setattr(stats, "_suffix_array", lambda *a: calls.append(1) or suffix_array(*a))
    assert idx.ppm_code_lengths().size == min(idx.max_repetition(), idx.n - 2) + 1
    assert calls == []


def test_ppm_pass_can_be_retried_after_it_fails(monkeypatch):
    # the pass stores L and the PPM table only at its end; a failure partway
    # must leave a fresh index that a second call fills
    ids = [0, 1, 2, 0, 1, 3] * 50
    want = build_index(seq(ids, 4)).ppm_code_lengths()

    def fail(*args):
        raise MemoryError

    idx = stats.FrequencyIndex(seq(ids, 4))
    with monkeypatch.context() as m:
        m.setattr(stats, "_ppm_table", fail)
        with pytest.raises(MemoryError):
            idx.max_repetition()
        with pytest.raises(MemoryError):
            idx.ppm_code_lengths()
    got = idx.ppm_code_lengths()
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert idx.max_repetition() == build_index(seq(ids, 4)).max_repetition()


@given(_interval_ids())
@example([0, 0])
@example([0, 1])
@example([0, 0, 0, 1, 0])
def test_ppm_table_matches_the_stack_walks_sums(ids):
    D = max(ids) + 2
    if len(ids) < 2:
        return
    got = build_index(seq(ids, D)).ppm_code_lengths()
    np.testing.assert_allclose(got, ppm_table_oracle(ids, D), rtol=0, atol=1e-9)


def test_ppm_table_across_blocks_of_levels():
    # the level sums go 4096 levels at a time; constant, periodic and doubled
    # strings of some 10^4 symbols have L near n or n / 2, so several blocks
    # carry their running sums.
    # Over two symbols, -log2 PPM_k(0^n) = k + log2(n - k + 1) for k <= n - 2
    n = 10**4
    bits = build_index(seq([0] * n, 2)).ppm_code_lengths()
    k = np.arange(n - 1)
    np.testing.assert_allclose(bits, k + np.log2(n - k + 1), rtol=0, atol=1e-9)
    x = seq([0, 1, 2, 0, 1, 3] * 1400, 4)
    bits = build_index(x).ppm_code_lengths()
    assert bits.size == len(x) - 5  # L = n - 6, one period short of the string
    for k in (0, 1, 4094, 4095, 4096, 4097, 8190, bits.size - 1):
        assert bits[k] == pytest.approx(ppm_log_measure_closed(x, k), abs=1e-9)
    # and the sums of one np.add.at per level sum over the stack walk's list,
    # also where a random half makes many intervals share a level
    half = np.random.default_rng(7).integers(0, 2, 5000)
    for x in (x, seq(np.concatenate([half, half]), 2)):
        D = x.alphabet.size
        sa = stats._suffix_array(x.ids, D)
        want = ppm_table_oracle(x.ids, D, sa, stats._lcp_array(x.ids, D, sa))
        got = build_index(x).ppm_code_lengths()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


# -- conditional entropies ---------------------------------------------------


def test_cond_entropy_examples():
    idx = build_index(ingest(b"aab"))
    assert idx.cond_entropy(0) == pytest.approx(math.log2(3) - 2.0 / 3.0, abs=1e-12)
    assert build_index(ingest(b"aaaa")).cond_entropy(0) == 0.0
    abab = build_index(ingest(b"abab"))
    assert abab.cond_entropy(0) == pytest.approx(1.0, abs=1e-12)
    assert abab.cond_entropy(1) == 0.0


def test_cond_entropy_rejects_large_orders():
    idx = build_index(ingest(b"abc"))
    with pytest.raises(ValueError):
        idx.cond_entropy(3)
    with pytest.raises(ValueError):
        idx.cond_entropy(-1)


def test_form_equivalence_exhaustive():
    for n in range(1, 8):
        for x in all_strings(2, n):
            idx = build_index(x)
            ids = x.ids.tolist()
            for k in range(n):
                lib = idx.cond_entropy(k)
                assert abs(lib - h_position_oracle(ids, k)) <= 1e-12
                assert abs(lib - h_vocab_oracle(ids, k)) <= 1e-12


@given(random_ids)
def test_form_equivalence_random(ids):
    idx = build_index(seq(ids, 4))
    for k in range(min(4, len(ids))):
        lib = idx.cond_entropy(k)
        assert abs(lib - h_position_oracle(ids, k)) <= 1e-12
        assert abs(lib - h_vocab_oracle(ids, k)) <= 1e-12


def test_profile_matches_individual_calls():
    x = ingest(b"abracadabra")
    idx = build_index(x)
    profile = idx.profile(5)
    assert profile.h == [idx.cond_entropy(k) for k in range(6)]
    assert profile.weighted == [(len(x) - k) * profile.h[k] for k in range(6)]
    assert profile.vocab == [idx.vocab_size(k) for k in range(6)]
    assert profile.rows()[0] == (0, profile.h[0], profile.weighted[0], 1)
    assert ingest(b"abab") != ingest(b"abba")


def test_profile_examples():
    p = build_index(ingest(b"abab")).profile(2)
    assert p.h == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert build_index(ingest(b"aaaa")).profile(1).h == [0.0, 0.0]
    with pytest.raises(ValueError):
        build_index(ingest(b"ab")).profile(2)


@given(random_ids)
def test_weighted_monotone_and_zero_beyond_maxrep(ids):
    x = seq(ids, 4)
    idx = build_index(x)
    n = len(x)
    L = idx.max_repetition()
    kmax = min(n - 1, L + 3)
    profile = idx.profile(kmax)
    for k in range(1, kmax + 1):
        assert profile.weighted[k] <= profile.weighted[k - 1] + 1e-9
        if k > L:
            assert profile.h[k] == 0.0


def _windows(n: int, k: int) -> list:
    return [(a, b) for a, b in ((0, n), (1, n), (0, n - 1), (n // 3, n - n // 3)) if a + k < b]


@pytest.mark.parametrize("D, ids", [
    (4, np.random.default_rng(3).integers(0, 4, 300).tolist()),
    (2, _periodic_with_a_flip(7, 300, 2)),
    (3, [0, 1, 2] * 100),
    (2, [1] * 200),
])
def test_windows_past_the_maximal_repetition_refine_nothing(monkeypatch, D, ids):
    x = seq(ids, D)
    n = len(x)
    L = stats.FrequencyIndex(x).max_repetition()
    # the reference refines one gram length at a time and never asks for L
    ref = stats.FrequencyIndex(x)
    want = {(k, a, b): ref.window_cond_entropy(k, a, b) for k in range(n) for a, b in _windows(n, k)}
    assert ref._maxrep is None
    refined = []
    refine = stats.FrequencyIndex._refine
    monkeypatch.setattr(stats.FrequencyIndex, "_refine",
                        lambda self, prev, length: refined.append(length) or refine(self, prev, length))
    # an index that knows L refines nothing past it
    known = stats.FrequencyIndex(x)
    assert known.max_repetition() == L
    for k in range(n - 1, L, -1):
        for a, b in _windows(n, k):
            assert known.window_cond_entropy(k, a, b) == want[k, a, b] == 0.0
    assert refined == []
    # a fresh index refines from length 1 until its grams are all distinct, or
    # for log2 n lengths and then asks for L, and refines nothing past L after
    idx = stats.FrequencyIndex(x)
    for k in range(n - 1, L, -1):
        for a, b in _windows(n, k):
            assert idx.window_cond_entropy(k, a, b) == want[k, a, b] == 0.0
    assert refined == list(range(1, len(refined) + 1))
    assert len(refined) <= min(L + 1, n.bit_length())
    for k in range(min(L, n - 1), -1, -1):
        for a, b in _windows(n, k):
            assert idx.window_cond_entropy(k, a, b) == want[k, a, b]


# -- inequalities for shifted strings ---------------------------------------


def test_step_and_prefix_drop_exhaustive_binary():
    # 0 <= h_k(x_2^n) - h_{k+1}(x_1^n) <= log2 D, and the prefix-drop variant
    for n in range(2, 13):
        for bits in product((0, 1), repeat=n):
            x = seq(bits)
            idx = build_index(x)
            tail = build_index(x.slice(2, n))
            for k in range(n - 1):
                step = tail.cond_entropy(k) - idx.cond_entropy(k + 1)
                assert -1e-9 <= step <= 1.0 + 1e-9
                drop = idx.cond_entropy(k) - (n - 1 - k) / (n - k) * tail.cond_entropy(k)
                assert -1e-9 <= drop <= 1.0 + 1e-9


@settings(max_examples=30)
@given(random_ids)
def test_step_drop_random(ids):
    if len(ids) < 2:
        return
    x = seq(ids, 4)
    n = len(x)
    idx = build_index(x)
    tail = build_index(x.slice(2, n))
    log_d = math.log2(4)
    for k in range(min(6, n - 1)):
        step = tail.cond_entropy(k) - idx.cond_entropy(k + 1)
        assert -1e-9 <= step <= log_d + 1e-9


@settings(max_examples=30)
@given(st.lists(st.integers(0, 1), min_size=4, max_size=150), st.data())
def test_superadditivity_random(ids, data):
    x = seq(ids)
    m = len(x)
    nn = data.draw(st.integers(1, m - 1))
    kcap = min(nn, m - nn)
    k = data.draw(st.integers(0, kcap - 1)) if kcap > 1 else 0
    if k >= kcap:
        return
    v = build_index(x).cond_entropy(k)
    v -= (nn - k) / (m - k) * build_index(x.slice(1, nn)).cond_entropy(k)
    if k > 0:
        # straddling window holding the pairs that end at n+1..n+k
        v -= k / (m - k) * build_index(x.slice(nn + 1 - k, nn + k)).cond_entropy(k)
    v -= (m - nn - k) / (m - k) * build_index(x.slice(nn + 1, m)).cond_entropy(k)
    assert -1e-9 <= v <= 1.0 + 1e-9


def test_series_bound_exhaustive_small():
    # sum_l h_l(x_1^{n+l}) <= log2 n for every prefix decomposition
    for m in range(1, 9):
        for x in all_strings(2, m):
            idx = build_index(x)
            for n in range(1, m + 1):
                total = math.fsum(
                    idx.window_cond_entropy(l, 0, n + l) for l in range(m - n + 1)
                )
                assert total <= math.log2(n) + 1e-9


@given(random_ids)
def test_prefix_cond_entropy_matches_sliced_index(ids):
    x = seq(ids, 4)
    n = len(x)
    idx = build_index(x)
    for p in {max(1, n // 2), n}:
        for k in range(min(3, p)):
            direct = build_index(x.slice(1, p)).cond_entropy(k)
            assert idx.window_cond_entropy(k, 0, p) == pytest.approx(direct, abs=1e-12)


@given(random_ids, st.data())
def test_window_cond_entropy_equals_sliced_index(ids, data):
    x = seq(ids, 4)
    n = len(x)
    idx = build_index(x)
    start = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, min(7, n - 1 - start)))
    stop = data.draw(st.integers(start + k + 1, n))
    # a drawn window, one ending at n, and minimal ones of length k + 1
    windows = {(start, stop), (start, n), (start, start + k + 1), (n - k - 1, n)}
    for a, b in sorted(windows):
        assert idx.window_cond_entropy(k, a, b) == build_index(x.slice(a + 1, b)).cond_entropy(k)


def test_window_cond_entropy_rejects_invalid_windows():
    idx = build_index(ingest(b"abcab"))
    for k, start, stop in [(0, -1, 3), (0, 2, 2), (0, 3, 2), (2, 1, 3), (0, 0, 6), (-1, 0, 3)]:
        with pytest.raises(ValueError):
            idx.window_cond_entropy(k, start, stop)
