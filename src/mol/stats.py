"""Substring statistics: frequencies, vocabulary sizes, maximal repetition,
and empirical conditional entropies.

All entropies are base-2 (bits). The frequency convention counts overlapping
occurrences, with N(lambda | x_1^m) = m + 1 for the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence import Sequence


def _packed_words(x: np.ndarray, D: int):
    """(W, s, b): W[i] packs x[i : i+s] as symbol + 1 in b = D.bit_length() bits,
    the first symbol highest, with 0 past the end; W[n] = 0 closes the array.

    s is the largest power of two with s * b <= 64, so two words compare as
    unsigned ints the way their s-grams compare, the end of the string below
    every symbol. W is built by log2 s shift-or doublings.
    """
    n = int(x.size)
    b = D.bit_length()
    s = 1 << ((64 // b).bit_length() - 1)
    W = np.zeros(n + s, dtype=np.uint64)
    W[:n] = x
    W[:n] += np.uint64(1)
    w = 1
    while w < s:
        W[:n] = (W[:n] << np.uint64(w * b)) | W[w : n + w]
        w *= 2
    return W[: n + 1], s, b


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Position of the highest set bit, plus one, of each uint64: the frexp
    exponent of its higher 32-bit half plus 32, or else of its lower half.
    Each half is exact as a float64, and frexp(0) has exponent 0."""
    hi = np.frexp((v >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((v & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(hi > 0, hi + 32, lo)


def _lcp_array(W: np.ndarray, s: int, b: int, sa: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """lcp[r] = lcp(suffix sa[r-1], suffix sa[r]), from the packed words W.

    Each text position i is paired with its suffix-array predecessor j (the Phi
    array). XOR of W[i + h] and W[j + h] is zero for s more equal symbols, else
    its highest set bit lies in the first differing symbol, the first of the s
    b-bit fields being the highest. One such round over all pairs closes every
    lcp below s.

    An open pair is reducible when x[i-1] == x[j-1]: then plcp[i] = plcp[i-1] - 1
    (Kärkkäinen, Manzini & Puglisi 2009). The others, irreducible, sum to at
    most 2 n log n symbols; they compare k words a round, k doubling while the
    open pairs times k stay within n. Each run of reducible positions then
    counts down from the irreducible pair just before it.
    """
    n = int(rank.size)
    width = s * b
    j = sa[rank - 1]
    j[sa[0]] = n  # the first suffix meets the zero word W[n], so its lcp is 0
    diff = W[:n] ^ W[j]
    plcp = (width - _bit_length(diff)).astype(np.int64) // b  # indexed by text position
    i = np.flatnonzero(diff == 0)  # equal words: plcp[i] = s so far
    del diff
    j = j[i]
    # the leading field of W[i - 1] is x[i - 1] + 1; at i = 0 the index -1 reads
    # the zero word W[n], so a pair at text position 0 or meeting suffix 0 is
    # irreducible
    lead = np.uint64(width - b)
    irreducible = (W[i - 1] >> lead) != (W[j - 1] >> lead)
    reducible = i[~irreducible]
    i, j = i[irreducible], j[irreducible]
    h, k = s, 1
    while i.size:
        step = h + s * np.arange(k)
        # an index past the end reads the zero word W[n], like the fields past the end
        words = W[np.minimum(i[:, None] + step, n)]
        words ^= W[np.minimum(j[:, None] + step, n)]
        col = (words != 0).argmax(axis=1)
        first = words[np.arange(i.size), col]
        plcp[i] = h + s * col + (width - _bit_length(first)) // b
        open_ = first == 0
        i, j = i[open_], j[open_]
        h += s * k
        k = min(2 * k, n // max(i.size, 1))
    # a reducible r has plcp[r - 1] = plcp[r] + 1 > s, so each run of them starts
    # right after an irreducible pair p
    base = np.arange(n)
    base[reducible] = 0
    np.maximum.accumulate(base, out=base)
    p = base[reducible]
    plcp[reducible] = plcp[p] - (reducible - p)
    return plcp[sa]


def _peel(val: np.ndarray, pl: np.ndarray, pr: np.ndarray, span: int):
    """One round of _lcp_intervals: close every element above both valleys of its
    stretch and merge what is left.

    val holds no two equal neighbours; element e covers ranks pl[e]..pr[e]. The
    valleys are both ends and the strict local minima; between two of them,
    values rise strictly and then fall strictly, so an element above both has
    its nearest smaller neighbours inside the stretch. A rising element has its
    left one at e - 1 and a falling one (the peak included) its right one at
    e + 1; the other side is one searchsorted over keys that sort by stretch
    and then by value, which needs span > every value. Returns the remaining
    (val, pl, pr) and the closed intervals (value, parent, lb, rb), one tuple
    for the rising and one for the falling elements.
    """
    m = val.size
    up = val[1:] > val[:-1]
    valley = np.ones(m, dtype=bool)
    valley[1:-1] = up[1:] & ~up[:-1]
    rising = np.zeros(m, dtype=bool)
    rising[1:-1] = up[1:] & up[:-1]
    del up
    sid = np.cumsum(valley) - 1  # stretch of each element; valley s opens stretch s
    floor = val[valley]
    floor = np.maximum(floor[:-1], floor[1:])  # the higher valley of each stretch
    e = np.flatnonzero(~valley)
    e = e[val[e] > floor[sid[e]]]
    del floor
    keep = np.ones(m, dtype=bool)
    keep[e] = False
    rise = rising[e]
    up_e, down_e = e[rise], e[~rise]
    del e, rise
    # a rising element ends before the first smaller element of its falling side,
    # the right valley included, keyed stretch * span - value in rank order
    side = np.flatnonzero(~rising)
    key = (sid[side] - valley[side]) * span - val[side]
    up_r = side[np.searchsorted(key, sid[up_e] * span - val[up_e], side="right")]
    del side, key
    # a falling element starts after the last smaller element of its rising side,
    # the left valley included, keyed stretch * span + value in rank order
    side = np.flatnonzero(rising | valley)
    del rising, valley
    key = sid[side] * span + val[side]
    q = sid[down_e] * span + val[down_e]
    del sid
    at = np.searchsorted(key, q)
    new = key[at] != q  # an equal value on the rising side is the same interval
    del key, q
    down_l = side[at[new] - 1]
    down_e = down_e[new]
    del side, at, new

    def emit(e, left, right):
        return val[e], np.maximum(val[left], val[right]), pr[left], pl[right] - 1

    got = [emit(up_e, up_e - 1, up_r)]
    del up_e, up_r
    got.append(emit(down_e, down_l, down_e + 1))
    del down_e, down_l
    # merge the equal neighbours that the closed elements separated
    rest = np.flatnonzero(keep)
    del keep
    head = np.ones(rest.size + 1, dtype=bool)
    head[1:-1] = val[rest[1:]] != val[rest[:-1]]
    first, last = rest[head[:-1]], rest[head[1:]]
    return val[first], pl[first], pr[last], got


def _lcp_intervals(lcp: np.ndarray):
    """The lcp-intervals (Abouelhoda, Kurtz & Ohlebusch 2004) by tree contraction.

    Returns arrays (value, parent, lb, rb), one entry per lcp-interval of value
    >= 1: the suffixes at ranks lb..rb share their first `value` symbols, and
    the enclosing interval has value `parent`. Each distinct l-gram with
    parent < l <= value therefore occurs rb - lb + 1 times.

    The equal runs of [0, lcp[1:], 0] become elements, and _peel closes them in
    rounds. Each round's valleys are local minima of the last round's, so there
    are at most log2 n + 1 rounds. The intervals come out in the post-order of a
    bottom-up stack walk (by right end, inner before outer), so that sums over
    them add in that order.
    """
    n = int(lcp.size)
    v = np.zeros(n + 1, dtype=np.int64)
    v[1:n] = lcp[1:]
    head = np.ones(n + 2, dtype=bool)
    head[1:-1] = v[1:] != v[:-1]
    pl = np.flatnonzero(head[:-1])
    pr = np.flatnonzero(head[1:])
    val = v[pl]
    del v, head
    parts = [[np.empty(0, dtype=np.int64)] for _ in range(4)]  # value, parent, lb, rb
    while val.size > 1:
        val, pl, pr, got = _peel(val, pl, pr, n + 1)
        for side in got:
            for part, piece in zip(parts, side):
                part.append(piece)
        del got, side
    del val, pl, pr

    def column(c):
        col = np.concatenate(parts[c])
        parts[c].clear()
        return col

    value, rb = column(0), column(3)
    order = rb * (n + 1)
    order += n
    order -= value
    order = np.argsort(order)
    value, rb = value[order], rb[order]
    parent = column(1)[order]
    lb = column(2)[order]
    return value, parent, lb, rb


# past this many count bins per key (plus a small floor) a counting rank's
# table dwarfs the keys, as for long grams over byte or token alphabets
_COUNT_BINS_PER_KEY = 4


def _rank_by_sort(key: np.ndarray):
    """(ids, counts) as _dense_rank gives them, by one sort of the keys."""
    _, inv, cnt = np.unique(key, return_inverse=True, return_counts=True)
    return inv.astype(np.int64), cnt.astype(np.int64)


def _dense_rank(key: np.ndarray, size: int):
    """(ids, counts): the rank of each key among the distinct keys, 0 <= key < size,
    and the count of each distinct key in rank order.

    Counts into a table of `size` bins, O(m + size), unless the table would be
    large next to the m keys; then it sorts, O(m log m). Both give the same ranks.
    """
    if size > _COUNT_BINS_PER_KEY * key.size + 64:
        return _rank_by_sort(key)
    cnt = np.bincount(key, minlength=size)
    seen = cnt > 0
    return (np.cumsum(seen) - 1)[key], cnt[seen]


def _suffix_array(W: np.ndarray, s: int):
    """(sa, rank): the suffix array by prefix doubling, O(n log n), and its inverse.

    Round 0 ranks the packed words, that is the first s symbols of each suffix;
    each later round ranks the pair (rank of the first h symbols, rank of the
    next h or none past the end), with the same count-or-sort ranking as the
    gram ids, until every suffix has its own rank.
    """
    n = int(W.size) - 1
    rank, cnt = _rank_by_sort(W[:n])
    h = s
    while cnt.size < n:
        G = cnt.size
        key = rank * (G + 1)
        key[: n - h] += rank[h:] + 1
        rank, cnt = _dense_rank(key, G * (G + 1))
        h *= 2
    sa = np.empty(n, dtype=np.int64)
    sa[rank] = np.arange(n)
    return sa, rank


def _final_gram_counts(rank, value, lb, rb, cnt, levels: int) -> np.ndarray:
    """s[l] = occurrences of the final l-gram of the text, for l < levels.

    A function of its own, so that its n-long temporaries are freed before the
    PPM pass builds its level sums.
    """
    n = int(rank.size)
    s = np.ones(levels, dtype=np.int64)
    s[0] = n + 1
    # the suffix of length v lies in a v-interval iff the final v-gram repeats
    r = rank[n - value]
    hit = (lb <= r) & (r <= rb)
    s[value[hit]] = cnt[hit]
    return s


def _level_sums(lo: np.ndarray, hi: np.ndarray, w: np.ndarray, levels: int) -> np.ndarray:
    """out[l] = sum of w[j] over the j with lo[j] < l <= hi[j], for l < levels."""
    diff = np.zeros(levels + 1, dtype=w.dtype)
    np.add.at(diff[1:], lo, w)
    np.subtract.at(diff[1:], hi, w)
    return np.cumsum(diff[:levels])


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


@dataclass
class EntropyProfile:
    """Empirical conditional entropies h_k for k = 0..kmax of one string.

    weighted[k] = (n-k) * h[k] is non-increasing in k, and h[k] = 0 beyond the
    maximal repetition length.
    """

    n: int
    h: list
    weighted: list
    vocab: list

    @property
    def kmax(self) -> int:
        return len(self.h) - 1

    def entries(self) -> list:
        return [
            {"k": k, "h": self.h[k], "weighted": self.weighted[k]}
            for k in range(len(self.h))
        ]

    def rows(self) -> list:
        """CSV rows (k, h_k, (n-k)*h_k, |V_k|)."""
        return [
            (k, self.h[k], self.weighted[k], self.vocab[k])
            for k in range(len(self.h))
        ]


class FrequencyIndex:
    """Immutable substring-statistics index over one sequence.

    Distinct k-grams are exposed as dense integer group ids per starting
    position; counts, vocabulary sizes and conditional entropies are all
    derived from those. The inverse suffix array with its LCP table, built
    once, backs the maximal repetition and the PPM code lengths of every order.
    """

    def __init__(self, seq: Sequence):
        self.seq = seq
        self.n = len(seq)
        self._x = seq.ids
        self._gids: dict[int, np.ndarray] = {}
        self._gcounts: dict[int, np.ndarray] = {}
        self._rank = None  # inverse suffix array
        self._lcp = None
        self._maxrep = None
        self._ppm = None
        self._h_cache: dict[int, float] = {}
        self.lz78_bits: float | None = None  # set once by codes.lz78_code_length
        self.ppm_bits: float | None = None  # set once by codes.ppm_semidistribution_entropy

    # -- gram groups ---------------------------------------------------

    # gram-id caches keep all lengths up to this bound; above it only the two
    # most recent consecutive lengths stay resident (refinement locality)
    _KEEP_LEN = 4

    def gram_ids(self, k: int) -> np.ndarray:
        """Dense group ids of the k-grams at starts 0..n-k (equal grams share an id)."""
        if not 0 <= k <= self.n:
            raise ValueError(f"gram length {k} out of range for n={self.n}")
        got = self._gids.get(k)
        if got is None:
            base = max((j for j in self._gids if j < k), default=None)
            if base is None:
                ids = np.zeros(self.n + 1, dtype=np.int64)
                cnt = np.array([self.n + 1], dtype=np.int64)
                self._gids[0], self._gcounts[0] = ids, cnt
                base = 0
            for length in range(base + 1, k + 1):
                ids, cnt = self._refine(self._gids[length - 1], length)
                self._gids[length], self._gcounts[length] = ids, cnt
                self._prune(length)
            got = self._gids[k]
        return got

    def _prune(self, current: int) -> None:
        keep = {current, current - 1}
        for store in (self._gids, self._gcounts):
            for length in [j for j in store if j > self._KEEP_LEN and j not in keep]:
                del store[length]

    def _refine(self, prev: np.ndarray, length: int):
        m = self.n - length + 1
        D = self.seq.alphabet.size
        key = prev[:m] * D + self._x[length - 1 : length - 1 + m]
        return _dense_rank(key, self._gcounts[length - 1].size * D)

    def gram_counts(self, k: int) -> np.ndarray:
        """Occurrence count N(w | x_1^n) per group id, for length-k grams."""
        self.gram_ids(k)
        return self._gcounts[k]

    # -- query surface -----------------------------------------------------

    def count(self, w, m: int | None = None) -> int:
        """Occurrences N(w | x_1^m) of w inside the length-m prefix, m in {n-1, n}.

        Counts overlap; the empty word counts m+1 times.
        """
        n = self.n
        m = n if m is None else m
        if m not in (n, n - 1) or m < 0:
            raise ValueError(f"prefix length must be n or n-1, got {m}")
        ids = w.ids if isinstance(w, Sequence) else np.asarray(w, dtype=np.int64)
        return count_in_prefix(self._x, ids, m)

    def vocab_size(self, k: int) -> int:
        """Number of distinct length-k substrings; 1 for k=0, 0 for k > n."""
        if k < 0:
            raise ValueError("order must be >= 0")
        if k > self.n:
            return 0
        return int(self.gram_counts(k).size)

    def max_repetition(self) -> int:
        """Largest k such that some length-k substring occurs at least twice."""
        if self.n < 1:
            raise ValueError("maximal repetition needs a non-empty sequence")
        if self._maxrep is None:
            W, s, b = _packed_words(self._x, self.seq.alphabet.size)
            sa, self._rank = _suffix_array(W, s)
            self._lcp = _lcp_array(W, s, b, sa, self._rank)
            self._maxrep = int(self._lcp.max()) if self.n > 1 else 0
        return self._maxrep

    def ppm_code_lengths(self) -> np.ndarray:
        """-log2 PPM_k(x_1^n) for k = 0..min(L, n-2), L the maximal repetition.

        Every higher order assigns the uniform measure D^-n. With G_l[f] the
        sum of f(N(w | x_1^n)) over the distinct l-grams w, h(c) =
        log2((c+D-1)!/(D-1)!) and s_k the count of the final k-gram,

            -log2 PPM_k = k log2 D - G_{k+1}[log2 c!] + G_k[h] - log2(s_k + D - 1),

        where the last term takes the final k-gram, which has no successor,
        out of G_k[h]. One pass over the lcp-intervals gives G_l for every l.
        Sums run in extended precision, since the terms cancel to far below
        their size.
        """
        if self._ppm is None:
            self._ppm = self._ppm_pass() if self.n >= 2 else np.empty(0)
            self._ppm.flags.writeable = False  # shared by every caller
        return self._ppm

    def _ppm_pass(self) -> np.ndarray:
        n, D = self.n, self.seq.alphabet.size
        L = self.max_repetition()
        value, parent, lb, rb = _lcp_intervals(self._lcp)
        cnt = rb - lb + 1
        levels = L + 2
        s = _final_gram_counts(self._rank, value, lb, rb, cnt, levels)
        self._rank = self._lcp = None  # nothing else reads them
        # lgf[c] = log2(c!)
        lgf = np.arange(n + D + 1, dtype=np.longdouble)
        np.log2(lgf[1:], out=lgf[1:])
        np.cumsum(lgf[1:], out=lgf[1:])
        A = _level_sums(parent, value, lgf[cnt], levels)
        w = lgf[cnt + D - 1]
        w -= lgf[D - 1]
        B = _level_sums(parent, value, w, levels)
        del w
        C = _level_sums(parent, value, cnt, levels)
        log_d = np.log2(np.longdouble(D))
        # K reaches n on constant and periodic strings, so B and log_s are
        # updated in place to keep the peak memory down
        K = min(L, n - 2) + 1
        k = np.arange(K)
        # each l-gram outside every interval occurs once and adds h(1) = log2 D
        Gh = B[:K]
        Gh += log_d * (n - k + 1 - C[:K])
        Gh[0] = lgf[n + D] - lgf[D - 1]  # the empty word occurs n + 1 times
        log_s = (s[:K] + D - 1).astype(np.longdouble)
        np.log2(log_s, out=log_s)
        bits = k * log_d - A[1 : K + 1] + Gh - log_s
        return bits.astype(np.float64)

    def window_cond_entropy(self, k: int, start: int, stop: int) -> float:
        """h_k of the window x[start:stop] (0-based, half-open), from shared gram ids.

        Equal grams keep equal ids inside any window, so the window's counts,
        and their order by position, are those of an index built on the slice.
        Above the maximal repetition every k-gram and (k+1)-gram occurs once, so
        h_k is 0.0; a query more than one length past the refined grams asks for
        the maximal repetition, O(n log n), instead of refining up to k + 1.
        """
        if not 0 <= start <= start + k < stop <= self.n:
            raise ValueError(
                f"need 0 <= start <= start + k < stop <= n, got k={k}, "
                f"window=({start}, {stop}), n={self.n}"
            )
        # a stepwise query finds k - 1 refined and never takes the max
        if k - 1 not in self._gids and k > max(self._gids, default=0) + 1:
            if k > self.max_repetition():
                return 0.0
        m = stop - start - k
        ids_k = self.gram_ids(k)[start : start + m]
        ids_k1 = self.gram_ids(k + 1)[start : start + m]
        # ids absent from the window count 0 and are never gathered
        log_k = np.log2(np.maximum(np.bincount(ids_k), 1))
        log_k1 = np.log2(np.maximum(np.bincount(ids_k1), 1))
        terms = log_k[ids_k] - log_k1[ids_k1]
        return float(terms.sum()) / m

    def cond_entropy(self, k: int) -> float:
        """Empirical conditional entropy h_k(x_1^n) in bits, for 0 <= k < n.

        h_k = (1/(n-k)) sum_i log2[ N(x_{i-k}^{i-1} | x_1^{n-1}) / N(x_{i-k}^i | x_1^n) ].
        """
        if not 0 <= k < self.n:
            raise ValueError(f"conditional entropy needs 0 <= k < n, got k={k}, n={self.n}")
        got = self._h_cache.get(k)
        if got is None:
            got = self._h_cache[k] = self.window_cond_entropy(k, 0, self.n)
        return got

    def profile(self, kmax: int) -> EntropyProfile:
        """EntropyProfile with h_k, (n-k) h_k and |V_k| for k = 0..kmax (kmax < n)."""
        if not 0 <= kmax < self.n:
            raise ValueError(f"profile needs 0 <= kmax < n, got kmax={kmax}, n={self.n}")
        h = [self.cond_entropy(k) for k in range(kmax + 1)]
        weighted = [(self.n - k) * h[k] for k in range(kmax + 1)]
        vocab = [self.vocab_size(k) for k in range(kmax + 1)]
        return EntropyProfile(n=self.n, h=h, weighted=weighted, vocab=vocab)


def build_index(x: Sequence) -> FrequencyIndex:
    """Index for substring queries; cached on the sequence, built lazily."""
    if x._index is None:
        x._index = FrequencyIndex(x)
    return x._index
