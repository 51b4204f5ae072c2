"""Universal code-length backends.

Two pointwise entropies H(x) = -log2 Pi(x) are provided: the PPM mixture
semi-distribution and an LZ78 parse cost plus the log(pi^2/6) + 2 log(n+1)
correction that turns it into a semi-distribution over all string lengths.
Everything is computed in log space, base 2.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .sequence import Sequence, uniform_alphabet
from .stats import build_index

LOG2E = 1.0 / math.log(2.0)
LOG2_PI2_OVER_6 = math.log2(math.pi**2 / 6.0)
_LG_TABLE = np.empty(0)  # math.lgamma(v + 1) * LOG2E at v, grown by _lg_factorial

KRAFT_ENUM_GUARD = 1 << 16


class BudgetError(RuntimeError):
    """Enumeration or state-space budget exceeded."""


def exceeds_enum_guard(D: int, n: int) -> bool:
    """Whether the D**n strings of length n over D >= 2 symbols exceed KRAFT_ENUM_GUARD."""
    # D >= 2, so capping the exponent keeps the comparison exact and the power small
    return D ** min(n, KRAFT_ENUM_GUARD.bit_length()) > KRAFT_ENUM_GUARD


def enumerate_strings(D: int, n: int):
    """Every string of length n over D >= 2 symbols, in product order; raises
    BudgetError before building any when they exceed KRAFT_ENUM_GUARD."""
    if exceeds_enum_guard(D, n):
        raise BudgetError(f"enumeration of {D}^{n} strings exceeds the guard")
    alpha = uniform_alphabet(D)
    return (Sequence(ids, alpha) for ids in product(range(D), repeat=n))


def _lg_factorial(m) -> np.ndarray:
    """log2(m!) for m >= 0, read from a table grown on demand by doubling; accepts arrays."""
    global _LG_TABLE
    m = np.asarray(m)
    if (m < 0).any():  # the table would wrap round
        raise ValueError("log-factorial of a negative number")
    try:
        return _LG_TABLE.take(m)
    except IndexError:
        top = max(int(m.max()) + 1, 2 * _LG_TABLE.size)
        _LG_TABLE = np.fromiter((math.lgamma(v + 1) * LOG2E for v in range(top)), float, top)
        return _LG_TABLE.take(m)


def _zeta2_tail(m: int) -> float:
    """sum_{j > m} 1/j^2, exactly the trigamma function at m+1.

    The terms below j = 32 are summed directly; the rest is the trigamma
    function's asymptotic (Euler-Maclaurin) series at x >= 32,
    1/x + 1/2x^2 + 1/6x^3 - 1/30x^5 + 1/42x^7 - 1/30x^9 + 5/66x^11, whose next
    term is below 1e-18 of the sum.
    """
    x = max(m + 1, 32)
    y = 1.0 / (x * x)
    bernoulli = y * (1 / 6 - y * (1 / 30 - y * (1 / 42 - y * (1 / 30 - y * 5 / 66))))
    series = (1.0 + 0.5 / x + bernoulli) / x
    return math.fsum([1.0 / (j * j) for j in range(m + 1, x)] + [series])


def count_in_prefix(xs: np.ndarray, w: np.ndarray, m: int) -> int:
    """Overlapping occurrences N(w | x_1^m) of w in xs[:m]; the empty word counts m+1 times."""
    k = int(w.size)
    if k == 0:
        return m + 1
    if k > m:
        return 0
    lim = m - k + 1
    hits = np.ones(lim, dtype=bool)
    for t in range(k):
        hits &= xs[t : t + lim] == w[t]
    return int(hits.sum())


def ppm_cond(x: Sequence, i: int, k: int) -> float:
    """Adaptive order-k transition probability PPM_k(x_i | x_1^{i-1}).

    Equals 1/D while the context is shorter than the prefix allows (k > i-2),
    else (N(x_{i-k}^i | x_1^{i-1}) + 1) / (N(x_{i-k}^{i-1} | x_1^{i-2}) + D).
    """
    n = len(x)
    if not 1 <= i <= n:
        raise IndexError(f"position {i} out of range for length {n}")
    if k < 0:
        raise ValueError("order must be >= 0")
    D = x.alphabet.size
    if k > i - 2:
        return 1.0 / D
    xs = x.ids
    num = count_in_prefix(xs, xs[i - k - 1 : i], i - 1)
    den = count_in_prefix(xs, xs[i - k - 1 : i - 1], i - 2)
    return (num + 1.0) / (den + D)


def ppm_log_measure(x: Sequence, k: int) -> float:
    """-log2 PPM_k(x_1^n) in bits, from the index's table of every order."""
    if k < 0:
        raise ValueError("order must be >= 0")
    head = build_index(x).ppm_code_lengths()
    if k < head.size:
        return float(head[k])
    # beyond min(L, n-2) every order assigns the uniform measure
    return len(x) * math.log2(x.alphabet.size)


def ppm_log_measure_closed(x: Sequence, k: int) -> float:
    """-log2 PPM_k via the factorial product over contexts, in log-Gamma form.

    Only the orders k <= n-2 admit the closed form; must match
    ppm_log_measure to 1e-9 wherever both are defined. log2 m! comes from a process-wide
    table grown to the largest count asked; a first count of 10^6 costs about 0.2 s and 8 MB.
    """
    n = len(x)
    if k < 0 or k > n - 2:
        raise ValueError(f"closed form needs 0 <= k <= n-2, got k={k}, n={n}")
    D = x.alphabet.size
    idx = build_index(x)
    ids_k = idx.gram_ids(k)
    m = n - k
    ext_counts = idx.gram_counts(k + 1)
    ctx_succ = np.bincount(ids_k[:m])
    ctx_succ = ctx_succ[ctx_succ > 0]
    bits = k * math.log2(D) - (
        ctx_succ.size * (math.lgamma(D) * LOG2E)  # log2 (D-1)!
        + float(_lg_factorial(ext_counts).sum())
        - float(_lg_factorial(ctx_succ + D - 1).sum())
    )
    return bits


def default_mixture_kmax(n: int, D: int) -> int:
    """Head cutoff for the mixture: min(n-2, ceil(log_D n) + 16)."""
    if n < 2:
        return -1
    return min(n - 2, math.ceil(math.log2(max(n, 2)) / math.log2(D)) + 16)


def ppm_semidistribution_entropy(x: Sequence, exact: bool = False) -> float:
    """Pointwise entropy of the PPM mixture semi-distribution, in bits.

    H(x) = -log2[ (36/pi^4) (n+1)^-2 sum_k PPM_k(x)/(k+1)^2 ]. The head of the
    series is summed with log-sum-exp in ascending k; the infinite tail, where
    PPM_k(x) = D^-n, is folded in closed form via the trigamma function.

    With exact=True the head runs until every remaining order provably equals
    the uniform measure, so the value matches the full series; the default
    caps the head at ceil(log_D n) + 16 orders and treats the rest as uniform,
    which is a tight approximation for non-degenerate inputs. The exact value
    is kept on the sequence's index.
    """
    idx = build_index(x)
    if exact and idx.ppm_bits is not None:
        return idx.ppm_bits
    n = len(x)
    D = x.alphabet.size
    kmax = n - 2 if exact else default_mixture_kmax(n, D)
    head = idx.ppm_code_lengths()[: max(kmax + 1, 0)]
    tail = -n * math.log2(D) + math.log2(_zeta2_tail(head.size))
    terms = np.append(-head - 2.0 * np.log2(np.arange(1, head.size + 1)), tail)
    peak = float(terms.max())
    total = peak + math.log2(math.fsum(np.exp2(terms - peak).tolist()))
    bits = 2.0 * math.log2(n + 1) + math.log2(math.pi**4 / 36.0) - total
    if exact:
        idx.ppm_bits = bits
    return bits


def lz78_code_length(x: Sequence) -> float:
    """Total bit cost of the LZ78 incremental parse.

    Phrase j (1-based) is emitted as a dictionary back-reference among j
    options (the empty phrase plus phrases 1..j-1), costing ceil(log2 j)
    bits, followed by one symbol at ceil(log2 D) bits. A trailing match that
    runs out of input is emitted the same way, referencing its parent phrase.
    The parse runs once per sequence; its cost is kept on the sequence's index.
    """
    idx = build_index(x)
    if idx.lz78_bits is None:
        idx.lz78_bits = _lz78_parse(x.ids, x.alphabet.size)
    return idx.lz78_bits


# Per phrase, a list trie holds D slots and the new node's int, 8·D + 28 bytes; a
# dict trie holds 95-123, up to 152 as it resizes (tracemalloc, 10^6 uniform symbols,
# D = 2..256). At D = 12 the two are level (131 against 118-138); from D = 16 the list is larger.
_LIST_TRIE_MAX_D = 12


def _lz78_parse(ids: np.ndarray, D: int) -> float:
    # The trie maps node * D + a to the child of `node` along symbol a; nodes
    # are held pre-multiplied by D, so each step costs one addition and one
    # lookup. Node 0 is the root and no child, so a slot of 0 means none.
    node = 0
    if D <= _LIST_TRIE_MAX_D:
        trie, slots = [0] * D, [0] * D
        for a in ids.astype(np.uint8).tobytes():
            child = trie[node + a]
            if child:
                node = child
            else:
                trie[node + a] = len(trie)
                trie += slots
                node = 0
        phrases = len(trie) // D - 1 + (node != 0)
    else:
        trie = {}
        next_node = D  # node 1, held as 1 * D
        for a in ids.tolist():
            key = node + a
            child = trie.get(key)
            if child is None:
                trie[key] = next_node
                next_node += D
                node = 0
            else:
                node = child
        phrases = len(trie) + (node != 0)
    return float(_pointer_bits(phrases) + phrases * (D - 1).bit_length())


def _pointer_bits(phrases: int) -> int:
    """sum of (j - 1).bit_length() = ceil(log2 j) over j = 1..P: B·P - 2^B + 1, B that of P - 1."""
    b = max(phrases - 1, 0).bit_length()
    return b * phrases - (1 << b) + 1


def lz78_entropy(x: Sequence) -> float:
    """LZ78 code length plus the length correction log2(pi^2/6) + 2 log2(n+1)."""
    return lz78_code_length(x) + LOG2_PI2_OVER_6 + 2.0 * math.log2(len(x) + 1)


def ppm_gap_lower(D: int) -> float:
    """-log2 (1/D)!, reading the factorial as Gamma(1 + 1/D)."""
    return -math.log2(math.gamma(1.0 + 1.0 / D))


def ppm_gap_upper(n: int) -> float:
    """log2(e^2 n)."""
    return 2.0 * LOG2E + math.log2(n)


def ppm_bound_gap(x: Sequence, k: int) -> float:
    """Normalized redundancy gap of PPM_k against the empirical entropy.

    gap = [-log2 PPM_k(x) - k log2 D - (n-k) h_k(x)] / (D |V_k(x_1^{n-1})|);
    it always lies in [ppm_gap_lower(D), ppm_gap_upper(n)].
    """
    n = len(x)
    if k < 0 or k > n - 2:
        raise ValueError(f"gap needs 0 <= k <= n-2, got k={k}, n={n}")
    D = x.alphabet.size
    idx = build_index(x)
    h_k = idx.cond_entropy(k)
    bits = ppm_log_measure(x, k)
    return (bits - k * math.log2(D) - (n - k) * h_k) / (D * idx.prefix_vocab_size(k))


class CodeLengthFunction:
    """A pointwise entropy H(x) = -log2 Pi(x) for a semi-distribution Pi."""

    name = "abstract"

    def evaluate(self, x: Sequence) -> float:
        raise NotImplementedError

    def test_length(self, x: Sequence) -> float:
        """Code length used by the order hypothesis test; defaults to evaluate."""
        return self.evaluate(x)


class PpmCode(CodeLengthFunction):
    """PPM mixture semi-distribution backend."""

    name = "ppm"

    def __init__(self, exact: bool = False):
        self.exact = exact

    def evaluate(self, x: Sequence) -> float:
        return ppm_semidistribution_entropy(x, exact=self.exact)


class Lz78Code(CodeLengthFunction):
    """Corrected LZ78 backend; the raw parse cost feeds the hypothesis test."""

    name = "lz78"

    def evaluate(self, x: Sequence) -> float:
        return lz78_entropy(x)

    def test_length(self, x: Sequence) -> float:
        return lz78_code_length(x)


class UniformCode(CodeLengthFunction):
    """H(x) = n log2 D; its Kraft sum per length is exactly one."""

    name = "uniform"

    def evaluate(self, x: Sequence) -> float:
        return len(x) * math.log2(x.alphabet.size)


class OffsetCode(CodeLengthFunction):
    """A backend shifted by a constant, H(x) + c; used for monotonicity checks."""

    def __init__(self, inner: CodeLengthFunction, offset: float):
        self.inner = inner
        self.offset = float(offset)
        self.name = f"{inner.name}+{offset:g}"

    def evaluate(self, x: Sequence) -> float:
        return self.inner.evaluate(x) + self.offset


BACKENDS = ("ppm", "lz78")


def make_code(name: str, ppm_exact: bool = False) -> CodeLengthFunction:
    """Backend by name: "ppm" or "lz78"."""
    if name == "ppm":
        return PpmCode(exact=ppm_exact)
    if name == "lz78":
        return Lz78Code()
    raise ValueError(f"unknown backend: {name!r}")


def kraft_sum(code: CodeLengthFunction, n: int, D: int) -> float:
    """sum over all x in X^n of 2^-H(x), by full enumeration (guarded)."""
    if n < 0 or D < 2:
        raise ValueError("need n >= 0 and D >= 2")
    return math.fsum(2.0 ** -code.evaluate(x) for x in enumerate_strings(D, n))
