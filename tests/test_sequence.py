import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mol import (
    Alphabet,
    AlphabetError,
    Sequence,
    build_index,
    fair_coin,
    ingest,
    sticky_chain,
    uniform_alphabet,
)

from oracles import ingest_bytes_oracle


def test_ingest_bytes_first_occurrence_order():
    x = ingest(b"ab")
    assert x.ids.tolist() == [0, 1]
    assert x.alphabet.size == 2


def test_ingest_empty_bytes():
    x = ingest(b"")
    assert len(x) == 0
    assert x.alphabet.size == 2  # padded to the minimum size


def test_ingest_tokens_repeats_map_to_same_id():
    x = ingest("the cat the", mode="tokens")
    assert x.ids.tolist() == [0, 1, 0]
    assert x.alphabet.size == 2


def test_ingest_constant_input_pads_alphabet():
    x = ingest(b"aaaa")
    assert x.alphabet.size == 2
    assert x.ids.tolist() == [0, 0, 0, 0]
    assert x.render() == b"aaaa"


def test_ingest_pads_with_the_first_free_reserved_tokens():
    x = ingest("<pad0> <pad0>", mode="tokens")
    assert x.alphabet.tokens == ("<pad0>", "<pad1>")
    assert x.ids.tolist() == [0, 0]
    assert ingest("", mode="tokens").alphabet.tokens == ("<pad0>", "<pad1>")


def test_ingest_explicit_mode():
    x = ingest("a b a", mode="explicit", alphabet=["a", "b", "c"])
    assert x.ids.tolist() == [0, 1, 0]
    assert x.alphabet.size == 3
    with pytest.raises(AlphabetError):
        ingest("a z", mode="explicit", alphabet=["a", "b"])
    with pytest.raises(AlphabetError):
        ingest("a", mode="explicit", alphabet=[])


def test_ingest_unknown_mode():
    with pytest.raises(ValueError):
        ingest(b"ab", mode="words")


def test_alphabet_invariants():
    with pytest.raises(AlphabetError):
        Alphabet(("a",))
    with pytest.raises(AlphabetError):
        Alphabet(("a", "a"))
    alpha = Alphabet(("x", "y", "z"))
    assert alpha.size == 3
    assert alpha.id_of("y") == 1
    assert alpha.token_of(2) == "z"
    with pytest.raises(AlphabetError):
        alpha.id_of("w")


def test_slice_examples():
    x = ingest(b"abc")
    assert x.slice(2, 3).render() == b"bc"
    assert len(x.slice(2, 1)) == 0  # empty-string convention
    assert x.slice(1, 3) == x
    with pytest.raises(IndexError):
        x.slice(0, 2)
    with pytest.raises(IndexError):
        x.slice(2, 4)
    with pytest.raises(IndexError):
        x.slice(4, 2)


def test_symbol_positions_are_one_based():
    x = ingest(b"abc")
    assert x.symbol(1) == 0
    assert x.symbol(3) == 2
    with pytest.raises(IndexError):
        x.symbol(0)
    with pytest.raises(IndexError):
        x.symbol(4)


def test_sequence_ids_are_read_only():
    x = ingest(b"ab")
    with pytest.raises(ValueError):
        x.ids[0] = 1


def test_sequence_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        Sequence(np.array([0, 2]), uniform_alphabet(2))


def test_sequence_rejects_non_integer_ids():
    # a cast to int64 would truncate 0.7, 1.9, 1.2 to the ids 0, 1, 1
    alpha = uniform_alphabet(2)
    with pytest.raises(ValueError, match="integer"):
        Sequence([0.7, 1.9, 1.2], alpha)
    with pytest.raises(ValueError, match="integer"):
        Sequence(np.array([0.0, 1.0, 1.0]), alpha)
    assert len(Sequence([], alpha)) == 0  # numpy reads [] as float64


ids_lists = st.lists(st.integers(0, 3), max_size=40)


@given(ids_lists)
def test_render_round_trip_tokens(ids):
    alpha = uniform_alphabet(4)
    x = Sequence(np.array(ids, dtype=np.int64), alpha)
    again = ingest(x.render(), mode="explicit", alphabet=alpha.tokens)
    assert again == x


@given(st.binary(max_size=40))
def test_ingest_render_round_trip_bytes(data):
    assert ingest(data).render() == data


@given(st.binary(max_size=600))
@example(b"")
@example(b"\x00" * 5)  # one distinct byte: padded with the next free value, 1
@example(b"\x07")
@example(b"\x80\x80\x80")  # one value above the padding byte 0
@example(b"\xff\x00\x80\x00")  # first occurrences out of value order
@example(bytes(range(256)))
@example(bytes(range(255, -1, -1)) * 2)
def test_ingest_bytes_matches_first_occurrence_oracle(data):
    x = ingest(data)
    ids, tokens = ingest_bytes_oracle(data)
    assert x.ids.tolist() == ids
    assert x.alphabet.tokens == tuple(tokens)
    assert all(type(t) is int for t in x.alphabet.tokens)
    assert x.alphabet.kind == "bytes"


@given(ids_lists, st.data())
def test_slice_composition(ids, data):
    x = Sequence(np.array(ids, dtype=np.int64), uniform_alphabet(4))
    n = len(x)
    j = data.draw(st.integers(1, n + 1))
    k = data.draw(st.integers(j - 1, n))
    inner = x.slice(j, k)
    m = len(inner)
    j2 = data.draw(st.integers(1, m + 1))
    k2 = data.draw(st.integers(j2 - 1, m))
    direct = x.slice(j + j2 - 1, j + k2 - 1)
    assert inner.slice(j2, k2) == direct


def test_a_writable_caller_array_is_copied_and_a_frozen_one_taken_as_is():
    alpha = uniform_alphabet(2)
    base = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64)
    x = Sequence(base[2:], alpha)
    assert build_index(x).cond_entropy(1) == 0.0
    base[5] = 1  # the caller keeps its array, and writing it changes nothing of x
    assert base.flags.writeable
    assert x.ids.tolist() == [0] * 8 and not x.ids.flags.writeable
    assert build_index(x).cond_entropy(1) == 0.0
    Sequence(base, alpha)
    assert base.flags.writeable  # not frozen under the caller either
    frozen = base[2:]
    frozen.setflags(write=False)
    assert Sequence(frozen, alpha).ids is frozen


def test_ingest_and_sample_hand_their_fresh_arrays_over_without_a_copy(monkeypatch):
    handed = []
    init = Sequence.__init__

    def spy(self, ids, alphabet):
        init(self, ids, alphabet)
        handed.append(self.ids is ids)

    monkeypatch.setattr(Sequence, "__init__", spy)
    ingest(b"abracadabra")
    fair_coin().sample(100, seed=1)  # i.i.d.
    sticky_chain(0.9).sample(100, seed=1)  # a context chain
    assert handed == [True, True, True]
