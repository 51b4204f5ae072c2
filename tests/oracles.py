"""Naive reference implementations used as independent oracles.

Everything here is deliberately written by direct scanning over positions and
plain dictionaries, independent of the indexed fast paths in the package.
"""

import math
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import chain, product

import numpy as np

from mol import Sequence, uniform_alphabet


def seq(ids, D: int = 2) -> Sequence:
    return Sequence(np.array(list(ids), dtype=np.int64), uniform_alphabet(D))


def all_strings(D: int, n: int):
    alpha = uniform_alphabet(D)
    for ids in product(range(D), repeat=n):
        yield Sequence(np.array(ids, dtype=np.int64), alpha)


def count_oracle(ids, w, m: int) -> int:
    ids = list(ids)
    w = list(w)
    k = len(w)
    if k == 0:
        return m + 1
    return sum(1 for i in range(m - k + 1) if ids[i : i + k] == w)


def vocab_oracle(ids, k: int) -> int:
    ids = list(ids)
    if k == 0:
        return 1
    if k > len(ids):
        return 0
    return len({tuple(ids[i : i + k]) for i in range(len(ids) - k + 1)})


def maxrep_oracle(ids) -> int:
    ids = list(ids)
    n = len(ids)
    best = 0
    for k in range(1, n):
        grams = [tuple(ids[i : i + k]) for i in range(n - k + 1)]
        if len(set(grams)) < len(grams):
            best = k
    return best


def suffix_array_oracle(ids) -> list:
    ids = list(ids)
    return sorted(range(len(ids)), key=lambda i: ids[i:])


def lcp_oracle(ids) -> list:
    """lcp[r] of the suffixes ranked r-1 and r by suffix_array_oracle, lcp[0] = 0."""
    ids = list(ids)
    n = len(ids)
    sa = suffix_array_oracle(ids)
    out = [0]
    for p, q in zip(sa, sa[1:]):
        k = 0
        while p + k < n and q + k < n and ids[p + k] == ids[q + k]:
            k += 1
        out.append(k)
    return out


def lcp_intervals_oracle(lcp):
    """(value, parent, lb, rb) of every lcp-interval of value >= 1, by the
    bottom-up stack walk of Abouelhoda, Kurtz & Ohlebusch (2004), in the order
    the walk closes them."""
    value, parent, lb, rb = array("q"), array("q"), array("q"), array("q")
    stack_v, stack_lb = [0], [0]
    top = 0
    for i, cur in enumerate(chain(np.asarray(lcp)[1:].tolist(), (0,)), start=1):
        left = i - 1
        while cur < top:
            left = stack_lb.pop()
            value.append(stack_v.pop())
            top = stack_v[-1]
            parent.append(cur if cur > top else top)
            lb.append(left)
            rb.append(i - 1)
        if cur > top:
            stack_v.append(cur)
            stack_lb.append(left)
            top = cur
    return tuple(np.frombuffer(a, dtype=np.int64) for a in (value, parent, lb, rb))


def ppm_table_oracle(ids, D: int, sa=None, lcp=None) -> np.ndarray:
    """-log2 PPM_k for k = 0..min(L, n-2) from the stack walk's intervals, with
    one np.add.at per level sum over the whole list in the walk's order, in
    extended precision: the additions, and so the bits, that the PPM table
    must reproduce. sa and lcp default to the oracles above."""
    ids = list(ids)
    n = len(ids)
    sa = suffix_array_oracle(ids) if sa is None else sa
    lcp = lcp_oracle(ids) if lcp is None else lcp
    L = int(max(lcp))
    value, parent, lb, rb = lcp_intervals_oracle(lcp)
    cnt = rb - lb + 1
    levels = L + 2
    rank = np.empty(n, dtype=np.int64)
    rank[np.asarray(sa)] = np.arange(n)
    s = np.ones(levels, dtype=np.int64)  # counts of the final grams
    s[0] = n + 1
    r = rank[n - value]
    hit = (lb <= r) & (r <= rb)
    s[value[hit]] = cnt[hit]
    lgf = np.arange(n + D + 1, dtype=np.longdouble)  # log2 c!
    np.log2(lgf[1:], out=lgf[1:])
    np.cumsum(lgf[1:], out=lgf[1:])

    def level_sums(w):
        diff = np.zeros(levels + 1, dtype=w.dtype)
        np.add.at(diff[1:], parent, w)
        np.subtract.at(diff[1:], value, w)
        return np.cumsum(diff[:levels])

    A = level_sums(lgf[cnt])
    B = level_sums(lgf[cnt + D - 1] - lgf[D - 1])
    C = level_sums(cnt)
    log_d = np.log2(np.longdouble(D))
    K = min(L, n - 2) + 1
    k = np.arange(K)
    Gh = B[:K] + log_d * (n - k + 1 - C[:K])
    Gh[0] = lgf[n + D] - lgf[D - 1]
    log_s = np.log2((s[:K] + D - 1).astype(np.longdouble))
    return (k * log_d - A[1 : K + 1] + Gh - log_s).astype(np.float64)


def h_position_oracle(ids, k: int) -> float:
    ids = list(ids)
    n = len(ids)
    total = 0.0
    for i in range(k + 1, n + 1):
        ctx = count_oracle(ids, ids[i - k - 1 : i - 1], n - 1)
        ext = count_oracle(ids, ids[i - k - 1 : i], n)
        total += math.log2(ctx / ext)
    return total / (n - k)


def h_vocab_oracle(ids, k: int) -> float:
    ids = list(ids)
    n = len(ids)
    ext = Counter(tuple(ids[i : i + k + 1]) for i in range(n - k))
    return math.fsum(
        c / (n - k) * math.log2(count_oracle(ids, list(w[:-1]), n - 1) / c)
        for w, c in ext.items()
    )


def ppm_cond_oracle(ids, D: int, i: int, k: int) -> float:
    ids = list(ids)
    if k > i - 2:
        return 1.0 / D
    num = count_oracle(ids, ids[i - k - 1 : i], i - 1)
    den = count_oracle(ids, ids[i - k - 1 : i - 1], i - 2)
    return (num + 1.0) / (den + D)


def ppm_neglog_oracle(ids, D: int, k: int) -> float:
    ids = list(ids)
    return -math.fsum(
        math.log2(ppm_cond_oracle(ids, D, i, k)) for i in range(1, len(ids) + 1)
    )


def ppm_semidist_oracle(ids, D: int) -> float:
    ids = list(ids)
    n = len(ids)
    head = math.fsum(
        2.0 ** -ppm_neglog_oracle(ids, D, k) / (k + 1) ** 2 for k in range(max(n - 1, 0))
    )
    zeta_head = math.fsum(1.0 / j**2 for j in range(1, max(n - 1, 0) + 1))
    tail = D**-n * (math.pi**2 / 6.0 - zeta_head)
    pi_val = 36.0 / math.pi**4 / (n + 1) ** 2 * (head + tail)
    return -math.log2(pi_val)


def lz78_oracle(ids, D: int) -> int:
    """Bit cost of the LZ78 parse, phrases kept as explicit tuples."""
    ids = list(ids)
    dictionary = {(): 0}
    bits = 0
    phrase = []
    count = 0
    for a in ids:
        phrase.append(a)
        if tuple(phrase) not in dictionary:
            count += 1
            bits += math.ceil(math.log2(count)) if count > 1 else 0
            bits += math.ceil(math.log2(D))
            dictionary[tuple(phrase)] = count
            phrase = []
    if phrase:
        count += 1
        bits += math.ceil(math.log2(count)) if count > 1 else 0
        bits += math.ceil(math.log2(D))
    return bits


def ingest_bytes_oracle(data: bytes):
    """(ids, tokens) of bytes-mode ingest: ids in first-occurrence order, a
    dict lookup per byte, tokens padded with the smallest free byte values."""
    seen = {}
    ids = []
    for b in data:
        if b not in seen:
            seen[b] = len(seen)
        ids.append(seen[b])
    tokens = list(seen)
    tokens += [b for b in range(256) if b not in seen][: max(0, 2 - len(tokens))]
    return ids, tokens


def sample_oracle(src, n: int, seed) -> np.ndarray:
    """Symbol ids of src.sample(n, seed), by the per-symbol loop: hidden
    initial context from the stationary law, then one bisect per symbol."""
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    D = src.alphabet_size
    if src.order == 0:
        out = rng.choice(D, size=n, p=src.transition[0])
        return out.astype(np.int64)
    S = src.states
    ctx = int(rng.choice(S, p=src.stationary))
    cum = np.cumsum(src.transition, axis=1)
    cum[:, -1] = 1.0
    rows = cum.tolist()
    out = []
    put = out.append
    for u in rng.random(n).tolist():
        a = bisect_right(rows[ctx], u)
        put(a)
        ctx = (ctx * D + a) % S
    return np.array(out, dtype=np.int64)
