"""Alphabets and immutable symbol sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


class AlphabetError(ValueError):
    """Invalid alphabet, or a token outside the alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """Bijection between external tokens and contiguous symbol ids 0..D-1.

    kind is "bytes" (tokens are byte values 0..255) or "tokens"
    (whitespace-delimited strings).
    """

    tokens: tuple
    kind: str = "tokens"

    def __post_init__(self):
        if self.kind not in ("bytes", "tokens"):
            raise AlphabetError(f"unknown alphabet kind: {self.kind!r}")
        if len(self.tokens) < 2:
            raise AlphabetError("alphabet needs at least two symbols")
        if len(set(self.tokens)) != len(self.tokens):
            raise AlphabetError("duplicate tokens in alphabet")
        object.__setattr__(self, "_ids", {t: i for i, t in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise AlphabetError(f"token {token!r} not in alphabet") from None

    def token_of(self, symbol_id: int):
        return self.tokens[symbol_id]


def uniform_alphabet(size: int) -> Alphabet:
    """Synthetic alphabet with string tokens "0".."size-1"."""
    return Alphabet(tuple(str(i) for i in range(size)), kind="tokens")


class Sequence:
    """Immutable symbol string x_1^n over a fixed alphabet.

    Positions in the public API are 1-based inclusive (so ``slice(j, k)``
    returns x_j^k and ``slice(j, j-1)`` is the empty string); internal storage
    is a 0-based read-only numpy array. A caller's array that is still
    writable is copied, since the caller could change it under the index; a
    read-only one is taken as is.
    """

    __slots__ = ("ids", "alphabet", "_index", "_hash")

    def __init__(self, ids, alphabet: Alphabet):
        arr = np.ascontiguousarray(ids, dtype=np.int64)
        if arr.flags.writeable and isinstance(ids, np.ndarray) and np.may_share_memory(arr, ids):
            arr = arr.copy()
        if arr.ndim != 1:
            raise ValueError("symbol ids must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= alphabet.size):
            raise ValueError("symbol id outside alphabet range")
        arr.setflags(write=False)
        self.ids = arr
        self.alphabet = alphabet
        self._index = None
        self._hash = None

    def __len__(self) -> int:
        return int(self.ids.size)

    @property
    def n(self) -> int:
        return len(self)

    def symbol(self, i: int) -> int:
        """Symbol id at 1-based position i."""
        if not 1 <= i <= len(self):
            raise IndexError(f"position {i} out of range for length {len(self)}")
        return int(self.ids[i - 1])

    def slice(self, j: int, k: int) -> "Sequence":
        """Subsequence x_j^k, 1-based inclusive; requires 1 <= j <= k+1 <= n+1."""
        n = len(self)
        if not (1 <= j <= k + 1 <= n + 1):
            raise IndexError(f"slice ({j}, {k}) out of range for length {n}")
        return Sequence(self.ids[j - 1 : k], self.alphabet)

    def render(self):
        """Map ids back to the external token stream (bytes or a spaced string)."""
        if self.alphabet.kind == "bytes":
            return bytes(self.alphabet.token_of(int(i)) for i in self.ids)
        return " ".join(self.alphabet.token_of(int(i)) for i in self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return (
            self.alphabet.tokens == other.alphabet.tokens
            and self.alphabet.kind == other.alphabet.kind
            and self.ids.size == other.ids.size
            and bool(np.array_equal(self.ids, other.ids))
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.alphabet.tokens, self.alphabet.kind, self.ids.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:
        shown = self.render() if len(self) <= 24 else f"<{len(self)} symbols>"
        return f"Sequence({shown!r}, D={self.alphabet.size})"


def _pad_tokens(existing: set, kind: str, needed: int) -> list:
    """Reserved filler tokens so inferred alphabets always reach size 2: the
    first `needed` of 0, 1, 2 (bytes) or <pad0>, <pad1>, <pad2> (tokens) not
    already present. At most one token exists, so three candidates suffice."""
    candidates = range(3) if kind == "bytes" else [f"<pad{i}>" for i in range(3)]
    return [t for t in candidates if t not in existing][:needed]


def ingest(data, mode: str = "bytes", alphabet: Iterable | None = None) -> Sequence:
    """Turn raw input into a Sequence.

    mode "bytes": data is a byte string, one symbol per byte.
    mode "tokens": data is text, whitespace-delimited tokens are symbols.
    mode "explicit": like "tokens", but the alphabet (an ordered collection of
    tokens) is supplied and unknown tokens raise AlphabetError.

    Inferred alphabets assign ids in first-occurrence order and are padded
    with reserved tokens up to size 2 so degenerate inputs stay usable.
    """
    if mode == "bytes":
        if isinstance(data, str):
            data = data.encode("utf-8")
        arr = np.frombuffer(data, dtype=np.uint8)
        first = np.full(256, arr.size)  # first position of each byte value
        np.minimum.at(first, arr, np.arange(arr.size))
        # the byte values that occur, by first occurrence (absent ones sort last)
        order = np.argsort(first)[: np.count_nonzero(first < arr.size)]
        rank = np.zeros(256, dtype=np.int64)
        rank[order] = np.arange(order.size)
        ids = rank[arr]
        ids.setflags(write=False)  # fresh, so the Sequence takes it without a copy
        tokens = order.tolist()
        kind = "bytes"
    elif mode in ("tokens", "explicit"):
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        stream = data.split()
        kind = "tokens"
        if mode == "explicit":
            tokens = tuple(alphabet) if alphabet is not None else ()
            if not tokens:
                raise AlphabetError("empty alphabet")
            alpha = Alphabet(tokens, kind=kind)
            return Sequence([alpha.id_of(t) for t in stream], alpha)
        seen: dict = {}
        ids = []
        for t in stream:
            i = seen.get(t)
            if i is None:
                i = len(seen)
                seen[t] = i
            ids.append(i)
        tokens = list(seen)
    else:
        raise ValueError(f"unknown ingest mode: {mode!r}")

    if len(tokens) < 2:
        tokens.extend(_pad_tokens(set(tokens), kind, 2 - len(tokens)))
    alpha = Alphabet(tuple(tokens), kind=kind)
    return Sequence(ids, alpha)
