"""Substring statistics: frequencies, vocabulary sizes, maximal repetition,
and empirical conditional entropies.

All entropies are base-2 (bits). The frequency convention counts overlapping
occurrences, with N(lambda | x_1^m) = m + 1 for the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence import Sequence


_CHUNK = 1 << 12  # the shortest slice of a long elementwise pass

_ZERO = np.zeros(1, dtype=np.int32)  # the gram id of the empty word, shared read-only
_ZERO.flags.writeable = False
_END = np.full(1, -1)  # the symbol after each string of a collection


def _slices(size: int):
    """Slices that cover range(size) in at most 16 steps of at least _CHUNK.
    Long elementwise passes go a slice at a time, so that their temporaries
    stay within about a sixteenth of the arrays they read."""
    step = max(_CHUNK, -(-size // 16))
    return (slice(a, a + step) for a in range(0, size, step))


def _narrow(n: int):
    """Integer type of the arrays that only hold values up to n: ranks, lcps,
    counts and gram ids."""
    return np.int32 if n < 2**31 else np.int64


def _packed_words(x: np.ndarray, D: int):
    """(W, s, b): W[i] packs x[i : i+s] as symbol + 1 in b = D.bit_length() bits,
    the first symbol highest, with 0 past the end; W[n] = 0 closes the array.

    s is the largest power of two with s * b <= 64, so two words compare as
    unsigned ints the way their s-grams compare, the end of the string below
    every symbol. W is built by log2 s shift-or doublings between two buffers.
    x may also join strings, each followed by the symbol -1, whose field is 0;
    then s * b leaves room above the fields for the number of each string.
    """
    n = int(x.size)
    cut = (x < 0).nonzero()[0]
    b = D.bit_length()
    s = 1 << (((64 - cut.size.bit_length()) // b).bit_length() - 1)
    W = np.zeros(n + s, dtype=np.uint64)
    W[:n] = x
    W[:n] += np.uint64(1)
    V = np.zeros(n + s, dtype=np.uint64)  # its zeros past n stay
    w = 1
    while w < s:
        np.left_shift(W[:n], np.uint64(w * b), out=V[:n])
        V[:n] |= W[w : n + w]
        W, V = V, W
        w *= 2
    if cut.size:
        number = np.arange(cut.size, dtype=np.uint64) << np.uint64(s * b)
        W[:n] += np.repeat(number, np.diff(cut, prepend=-1))
    return W[: n + 1], s, b


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Position of the highest set bit, plus one, of each uint64: the frexp
    exponent of v with every lower bit cleared, a power of two that a float64
    holds exactly (frexp(0) has exponent 0). v is overwritten."""
    for k in (1, 2, 4, 8, 16, 32):
        v |= v >> np.uint64(k)
    v ^= v >> np.uint64(1)
    f = v.astype(np.float64)
    return np.frexp(f, out=(f, None))[1]


def _lcp_array(x: np.ndarray, D: int, sa: np.ndarray) -> np.ndarray:
    """lcp[r] = lcp(suffix sa[r-1], suffix sa[r]), from the packed words of x.

    Each suffix-array neighbour pair (j, i) = (sa[r-1], sa[r]) compares W[i] with
    W[j]: their XOR is zero for s more equal symbols, else its highest set bit
    lies in the first differing symbol, the first of the s b-bit fields being the
    highest. One such round over all pairs closes every lcp below s.

    An open pair is reducible when x[i-1] == x[j-1]: then plcp[i] = plcp[i-1] - 1
    (Kärkkäinen, Manzini & Puglisi 2009). The others, irreducible, sum to at
    most 2 n log n symbols; they compare k words a round, k doubling while the
    open pairs times k stay within n / 4. t[i] = plcp[i] + i never decreases
    along the text and stays flat over each run of reducible positions, so a
    running maximum over t gives each of them the t of the pair before the run:
    their round-0 value s + i lies below it.
    """
    W, s, b = _packed_words(x, D)
    n = int(sa.size)
    width = s * b
    lead = np.uint64(width - b)
    diff = W[sa[1:]]
    diff ^= W[sa[:-1]]
    bits = _bit_length(diff)  # 0 where s more symbols are equal
    del diff
    t = np.empty(n, dtype=np.int64)  # plcp[i] + i, by text position i
    t[sa[0]] = sa[0]  # the first suffix meets the zero word W[n], so its lcp is 0
    got = bits.astype(np.int64)
    np.subtract(width, got, out=got)
    got //= b
    got += sa[1:]
    t[sa[1:]] = got
    del got
    # the leading field of W[i - 1] is x[i - 1] + 1; at i = 0 the index -1 reads
    # the zero word W[n], so a pair at text position 0 or meeting suffix 0 is
    # irreducible
    pairs = []
    still = (bits == 0).nonzero()[0]
    del bits
    still += 1  # the ranks of the pairs still open
    for at in _slices(still.size):
        r = still[at]
        i, j = sa[r], sa[r - 1]
        irreducible = (W[i - 1] >> lead) != (W[j - 1] >> lead)
        pairs.append((i[irreducible], j[irreducible]))
    del still
    i = j = sa[:0]
    if pairs:
        i = np.concatenate([p[0] for p in pairs])
        j = np.concatenate([p[1] for p in pairs])
    del pairs
    h, k = s, 1
    while i.size:
        step = h + s * np.arange(k)
        rows = max(1, n // (4 * k))
        open_ = np.empty(i.size, dtype=bool)
        for a in range(0, i.size, rows):
            ib, jb = i[a : a + rows], j[a : a + rows]
            # an index past the end reads the zero word W[n], like the fields past the end
            at = ib[:, None] + step
            np.minimum(at, n, out=at)
            words = W[at]
            np.add(jb[:, None], step, out=at)
            np.minimum(at, n, out=at)
            words ^= W[at]
            del at
            col = (words != 0).argmax(axis=1)
            first = words[np.arange(ib.size), col]
            del words
            bits = _bit_length(first).astype(np.int64)
            open_[a : a + rows] = bits == 0
            np.subtract(width, bits, out=bits)
            bits //= b
            bits += h + ib
            bits += s * col
            t[ib] = bits
        i, j = i[open_], j[open_]
        h += s * k
        k = min(2 * k, max(1, n // (4 * max(i.size, 1))))
    del W
    np.maximum.accumulate(t, out=t)
    lcp = t[sa]
    del t
    lcp -= sa
    return lcp


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
    (val, pl, pr) and the closed intervals as [value, parent, lb, rb] pieces.
    """
    m = val.size
    up = val[1:] > val[:-1]
    valley = np.ones(m, dtype=bool)
    valley[1:-1] = up[1:] & ~up[:-1]
    rising = np.zeros(m, dtype=bool)
    rising[1:-1] = up[1:] & up[:-1]
    del up
    sid = valley.cumsum(dtype=val.dtype)
    sid -= 1  # stretch of each element; valley s opens stretch s
    floor = val[valley]
    floor = np.maximum(floor[:-1], floor[1:])  # the higher valley of each stretch
    closed = val > floor.take(sid, mode="clip")  # the last valley reads the last floor
    closed &= ~valley
    del floor
    span = np.int64(span)
    got = []

    def search(queries, side, stretch, add, close):
        key = np.multiply(stretch[side], span, dtype=np.int64)
        add(key, val[side], out=key)
        # the closed intervals (value, parent, lb, rb), filled a slice at a time
        columns = [np.empty(np.count_nonzero(queries), dtype=val.dtype) for _ in range(4)]
        filled = 0
        for at in _slices(m):
            e = queries[at].nonzero()[0]
            e += at.start
            e, left, right = close(e, side, key, add(sid[e] * span, val[e]))
            value, parent, lb, rb = (c[filled : filled + e.size] for c in columns)
            # in range, so mode "clip" changes nothing; "raise" would buffer out
            val.take(e, out=value, mode="clip")
            np.maximum(val[left], val[right], out=parent)
            pr.take(left, out=lb, mode="clip")
            pl.take(right, out=rb, mode="clip")
            rb -= 1
            filled += e.size
        got.append([c[:filled] for c in columns])

    def close_falling(e, side, key, q):
        at = key.searchsorted(q)
        new = key[at] != q  # an equal value on the rising side is the same interval
        e = e[new]
        return e, side[at[new] - 1], e + 1

    def close_rising(e, side, key, q):
        return e, e - 1, side[key.searchsorted(q, side="right")]

    # a falling element starts after the last smaller element of its rising side,
    # the left valley included, keyed stretch * span + value in rank order
    search(closed & ~rising, (rising | valley).nonzero()[0], sid, np.add, close_falling)
    # a rising element ends before the first smaller element of its falling side,
    # the right valley included, keyed stretch * span - value in rank order
    sid -= valley  # the right valley of a stretch
    del valley
    search(closed & rising, (~rising).nonzero()[0], sid, np.subtract, close_rising)
    del rising, sid
    # merge the equal neighbours that the closed elements separated
    rest = (~closed).nonzero()[0]
    del closed
    head = np.empty(rest.size + 1, dtype=bool)
    head[0] = head[-1] = True
    np.not_equal(val[rest[1:]], val[rest[:-1]], out=head[1:-1])
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
    bottom-up stack walk (by right end, inner before outer). A caller that
    passes its only reference to lcp lets it go before the first round.
    """
    n = int(lcp.size)
    narrow = _narrow(n + 1)
    v = np.zeros(n + 1, dtype=narrow)
    v[1:n] = lcp[1:]
    del lcp
    head = np.ones(n + 2, dtype=bool)
    head[1:-1] = v[1:] != v[:-1]
    pl = head[:-1].nonzero()[0].astype(narrow)
    pr = head[1:].nonzero()[0].astype(narrow)
    del head
    val = v[pl]
    del v
    parts = [[np.empty(0, dtype=narrow)] for _ in range(4)]  # value, parent, lb, rb
    while val.size > 1:
        size = val.size
        val, pl, pr, got = _peel(val, pl, pr, n + 1)
        if val.size == size:  # a value below the zero ends leaves a stretch open
            raise ValueError("a peel round closed nothing: the lcp table has a negative entry")
        for c, part in enumerate(parts):
            part.extend(piece[c] for piece in got)
        del got
    del val, pl, pr

    def column(c):
        col = np.concatenate(parts[c])
        parts[c].clear()
        return col

    value, rb = column(0), column(3)
    order = rb.astype(np.int64)
    order *= n + 1
    order += n
    order -= value
    order = order.argsort()
    value, rb = value[order], rb[order]
    parent = column(1)[order]
    lb = column(2)[order]
    return value, parent, lb, rb


def _rank_by_sort(key: np.ndarray, order=None):
    """Replace each key by its rank among the distinct keys, by one argsort unless
    the caller passes the order that sorts the keys. Returns the count of each
    rank and that order. An unsigned key array gets the ranks through its
    int64 view."""
    if order is None:
        order = key.argsort()
    rank = key[order]  # the sorted keys, then their ranks
    head = rank[1:] != rank[:-1]
    rank = rank.view(np.int64)
    rank[0] = 0
    head.cumsum(dtype=np.int64, out=rank[1:])
    del head
    key.view(np.int64)[order] = rank
    return np.bincount(rank), order


# past this many count bins per key (plus a small floor) a counting rank's
# table dwarfs the keys, as for long grams over byte or token alphabets
_COUNT_BINS_PER_KEY = 4


def _dense_rank(key: np.ndarray, size: int, order=None):
    """Replace each key, 0 <= key < size, by its rank among the distinct keys.
    Returns the count of each rank and, where it sorted, the order that sorts
    the keys (else None).

    Counts into a table of `size` bins, O(m + size), unless the table would be
    large next to the m keys; then it sorts, O(m log m). An order that sorts
    the keys but within ties, as the last round of a prefix doubling leaves
    them, is finished by a stable sort, which is fast on such input. Both give
    the same ranks.
    """
    if size > _COUNT_BINS_PER_KEY * key.size + 64:
        if order is not None:
            order = order[key[order].argsort(kind="stable")]
        return _rank_by_sort(key, order)
    table = np.bincount(key, minlength=size)
    counts = table[table > 0]
    np.minimum(table, 1, out=table)
    table.cumsum(out=table)
    table -= 1  # the rank of each seen key
    # every key is read before its own slot is written
    table.take(key, out=key, mode="clip")
    return counts, None


def _gram_step(prev: np.ndarray, x: np.ndarray, D: int, length: int, known: int):
    """The ids, in place of their keys (id of the gram one shorter, next symbol),
    and the counts of the grams of this length in x, a string or a block's rows."""
    m = x.shape[-1] - length + 1
    key = np.multiply(prev[..., :m], D, dtype=np.int64)
    key += x[..., length - 1 : length - 1 + m]
    return key, _dense_rank(key.ravel(), known * D)[0]


def _h_sums(cnt_k: np.ndarray, cnt_k1: np.ndarray, ids_k: np.ndarray, ids_k1: np.ndarray):
    """sum log2 cnt_k[ids_k] - log2 cnt_k1[ids_k1] along the last axis, a count
    below 1 read as 1: (n - k) h_k of a string, or of each row of a block."""
    log_k = np.log2(np.maximum(cnt_k, 1))
    log_k1 = np.log2(np.maximum(cnt_k1, 1))
    terms = np.empty(ids_k.shape)
    for at in _slices(len(terms)):  # positions of a string, rows of a block
        t = terms[at]
        log_k.take(ids_k[at], out=t, mode="clip")  # "raise" would buffer t
        t -= log_k1.take(ids_k1[at])
    return np.add.reduce(terms, -1)  # terms.sum(-1), less its wrapper's cost per call


def _suffix_array(x: np.ndarray, D: int) -> np.ndarray:
    """The suffix array of x by prefix doubling, O(n log n).

    Round 0 sorts the packed words, that is the first s symbols of each suffix,
    and ranks them in the words' own buffer; each later round ranks the pair
    (rank of the first h symbols, rank of the next h or none past the end)
    with the same count-or-sort ranking as the gram ids, handing on the last
    sorting order, until every suffix has its own rank. That order is then the
    suffix array.
    """
    n = int(x.size)
    W, s, _ = _packed_words(x, D)
    rank = W[:n]
    del W
    counts, order = _rank_by_sort(rank)
    G = counts.size
    del counts
    rank = rank.view(np.int64)
    h = s
    while G < n:
        key = rank * (G + 1)
        key[: n - h] += rank[h:]
        key[: n - h] += 1
        del rank
        counts, order = _dense_rank(key, G * (G + 1), order)
        G = counts.size
        del counts
        rank, key = key, None
        h *= 2
    if order is not None:
        return order
    sa = np.empty(n, dtype=np.int64)
    sa[rank] = np.arange(n)
    return sa


def _by_level(target: np.ndarray, span: int, blocks: int, *columns):
    """The entries with target // span == c, for c < blocks <= 2^16: one tuple
    (target, *columns) per block, each in the order of the input."""
    if blocks == 1:
        return [(target, *columns)]
    block = (target // span).astype(np.uint16)
    order = block.argsort(kind="stable")
    ends = np.bincount(block, minlength=blocks).cumsum()
    del block
    got, a = [], 0
    for e in ends.tolist():
        at = order[a:e]
        got.append((target[at], *(c[at] for c in columns)))
        a = e
    return got


def _ppm_pass(indexes: list) -> None:
    """The maximal repetition L, the largest lcp, and the read-only PPM code
    lengths, which end there, of each index that lacks them, from one suffix
    array and LCP table of their strings joined, each followed by the symbol -1
    unless alone: a string's suffixes rank together after its -1, and its lcps
    are its own (Shi 1996). A failed pass stores nothing, so it runs again."""
    indexes = [idx for idx in indexes if idx._maxrep is None and idx.n > 0]
    if not indexes:
        return
    n, D = (np.array(v) for v in zip(*[(i.n, i.D) for i in indexes]))
    end = np.cumsum(n + 1) - 1  # the -1 after each string, or the end of x
    x = indexes[0]._x if n.size == 1 else np.concatenate([p for i in indexes for p in (i._x, _END)])
    sa = _suffix_array(x, int(D.max()))
    lcp = [_lcp_array(x, int(D.max()), sa)]  # in a list, so the peel gets its only reference
    del x
    lo = end - n + (n.size > 1)  # the rank of each string's first suffix
    L = np.maximum.reduceat(lcp[0], lo)
    lcp[0][lo[1:] - 1] = 0  # each -1 after the first: its string's number makes it read -1
    off = np.cumsum(L + 1) - (L + 1)
    tail = np.empty(int(off[-1] + L[-1]) + 1, dtype=_narrow(sa.size))
    # tail[off[j] + v]: the rank of string j's suffix of length v <= L, the
    # first of its v-interval when the final v-gram repeats; a -1, of length 0,
    # goes to the unread tail[off[j]]
    r = (sa >= np.repeat(end - L, n + (n.size > 1))).nonzero()[0]
    for at in _slices(r.size):
        p = sa[r[at]]
        j = end.searchsorted(p)
        tail[off[j] + end[j] - p] = r[at]
        del p, j
    del sa, r
    columns = [*_lcp_intervals(lcp.pop()), tail]
    del tail
    bits = _ppm_table(n, D, L, lo, columns)
    for idx, b, got in zip(indexes, L.tolist(), bits):
        idx._maxrep, idx._ppm = b, got


def _ppm_table(n, D, L, lo, columns: list) -> list:
    """-log2 PPM_k for k = 0..min(L, n-2) of each string of a batch, as
    read-only views of one array, from the lcp-intervals of their joined LCP
    table and the rank of each string's suffix of length v <= L, as a list
    [value, parent, lb, rb, tail], which it empties; n, D, L and lo, the rank
    of each string's first suffix, hold one entry per string.

    s[k], the count of the final k-gram, is 1 unless the suffix of length k
    opens an interval of value k, which then counts it; the empty word occurs
    n + 1 times.

    G_l[f] sums f(count) over the intervals with parent < l <= value: each adds
    at level parent + 1 and subtracts at level value + 1, and a running sum
    over the levels gives G_l. The levels go w at a time, about the mean per
    string, in a row of sums per level and a column per string, so no array is
    as long as L. Within a level of a string the entries add in post-order and
    then subtract in post-order, one at a time, as np.add.at over its list would.
    """
    value, parent, lb, cnt, tail = columns
    columns.clear()
    cnt -= lb
    cnt += 1  # the count of each interval
    m, levels = n.size, L + 2
    mean, top = -(-int(levels.sum()) // m), int(levels.max())
    shift = max(min(_CHUNK.bit_length() - 1, (mean - 1).bit_length()), (top - 1).bit_length() - 16)
    w, blocks = 1 << shift, ((top - 1) >> shift) + 1  # at most 2^16 blocks
    if top * m >= 2**31:
        value, parent = value.astype(np.int64), parent.astype(np.int64)
    order = np.argsort(-levels, kind="stable")  # block c has columns for the first few
    # per string, in the intervals' type: its first rank, where its tail and s
    # start, and its column
    lo, off, col = (np.asarray(a, dtype=value.dtype)
                    for a in (lo, np.cumsum(L + 1) - (L + 1), order.argsort()))
    s = np.ones(int(off[-1] + L[-1]) + 1, dtype=cnt.dtype)
    s[off] = n + 1
    for at in _slices(value.size):
        key, rank = value[at], lb[at]
        if m > 1:  # from each interval's string j, an offset that one string does without
            j = lo.searchsorted(rank, side="right") - 1
            key = key + off[j]
        hit = tail[key] == rank
        s[key[hit]] = cnt[at][hit]
        for v in (parent[at], value[at]):  # level v + 1 of string j, as (v + 1) m + col[j]
            v += 1
            if m > 1:
                v *= m
                v += col[j]
        del key, rank, v  # a view would keep its array
    del lb, tail
    adds = _by_level(parent, m << shift, blocks, cnt)
    del parent
    subs = _by_level(value, m << shift, blocks, cnt)
    del value, cnt
    # lgf[c] = log2(c!)
    lgf = np.arange(int((n + D).max()) + 1, dtype=np.longdouble)
    np.log2(lgf[1:], out=lgf[1:])
    lgf[1:].cumsum(out=lgf[1:])
    K = np.minimum(L, n - 2) + 1
    first = np.cumsum(K) - K  # where each string's bits start
    # by column: n, D - 1, log2 D, G_0[h] (the empty word occurs n + 1 times),
    # where s and the bits start, and K
    cn, cd, log_d, g0, off, first, K = (v[order] for v in (
        n, D - 1, np.log2(D.astype(np.longdouble)), lgf[n + D] - lgf[D - 1], off, first, K))
    d = cd if D.min() < D.max() else int(D[0]) - 1  # D - 1 of each entry's column
    out = []
    # the sums of log2 c!, h(c) = log2((c+D-1)!/(D-1)!) and c from the level
    # before the block on
    sums = [np.zeros((w + 1, m), dtype=t) for t in (np.longdouble, np.longdouble, np.int64)]
    for c in range(blocks):
        a = c * w
        cols = int(np.count_nonzero(levels > a))
        for g in sums:
            g[0, :cols] = g[-1, :cols]
            g[1:, :cols] = 0
        for at, (target, cnt) in ((np.add.at, adds[c]), (np.subtract.at, subs[c])):
            for e in _slices(target.size):
                to = np.subtract(target[e], (a - 1) * m, dtype=np.intp)
                cm = cnt[e].astype(np.intp)
                at(sums[0].reshape(-1), to, lgf[cm])
                dc = d if isinstance(d, int) else d[to % m]
                h = lgf[cm + dc]
                h -= lgf[dc]
                at(sums[1].reshape(-1), to, h)
                at(sums[2].reshape(-1), to, cm)
        G = [g[:, :cols] for g in sums]
        for g in G:
            g.cumsum(axis=0, out=g)
        # bits[k] reads G_{k+1}[log2 c!], G_k[h] and G_k[c], at rows k + 2 - a and
        # k + 1 - a, for k below the block's end and some column's K
        k = np.arange(a - 1, min(a + w - 1, int(K[:cols].max())))[:, None]
        # each l-gram outside every interval occurs once and adds h(1) = log2 D;
        # in place, in the order of k log2 D - A + (G_h + log2 D (n-k+1-C)) - log2 s
        Gh = (cn[:cols] - k + 1 - G[2][: k.size]) * log_d[:cols]
        Gh += G[1][: k.size]
        Gh[k[:, 0] == 0] = g0[:cols]
        bits = k * log_d[:cols]
        bits -= G[0][1 : k.size + 1]
        Gh += bits
        log_s = (s.take(off[:cols] + k, mode="clip") + cd[:cols]).astype(np.longdouble)
        Gh -= np.log2(log_s, out=log_s)
        ok = (k >= 0) & (k < K[:cols])
        out.append(((first[:cols] + k)[ok].astype(s.dtype), Gh[ok].astype(np.float64)))
        del G, k, Gh, bits, log_s, ok
        adds[c] = subs[c] = None
    del lgf
    bits = np.empty(int(K.sum()))
    for at, got in out:
        bits[at] = got
    bits.flags.writeable = False  # shared by every caller
    return [bits[a : a + k] for a, k in zip(first[col].tolist(), K[col].tolist())]


@dataclass(slots=True)
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
    derived from those. One pass over the suffix array and its LCP table
    gives the maximal repetition and the PPM code lengths of every order
    together, and the index keeps neither table.
    """

    def __init__(self, seq: Sequence):
        self.D = seq.alphabet.size  # not seq itself: it holds the index
        self.n = len(seq)
        self._x = seq.ids
        # gram length 0: one id for every start, a read-only view of a single zero
        self._gids = {0: np.ndarray((self.n + 1,), dtype=np.int32, buffer=_ZERO, strides=(0,))}
        self._gcounts = {0: np.array([self.n + 1], dtype=_narrow(self.n + 1))}
        self._vocab = (1,)  # the vocabulary size of each gram length refined, kept past _prune
        self._final_repeats = 0  # the longest length refined whose final gram repeats
        self._maxrep = None  # set with _ppm by the PPM pass
        self._ppm = np.empty(0) if self.n < 2 else None
        self._h_cache: dict[int, float] = {}
        self.lz78_bits: float | None = None  # set once by codes.lz78_code_length
        self.ppm_bits: float | None = None  # set once by codes.ppm_semidistribution_entropy
        self.orders: dict = {}  # id(code) -> (code, OrderReport), by universal_markov_order

    # -- gram groups ---------------------------------------------------

    # gram-id caches keep all lengths up to this bound; above it only the two
    # most recent consecutive lengths stay resident (refinement locality)
    _KEEP_LEN = 4

    def gram_ids(self, k: int) -> np.ndarray:
        """Dense group ids of the k-grams at starts 0..n-k (equal grams share an
        id), as _narrow(n + 1): int32 below 2^31 symbols."""
        if not 0 <= k <= self.n:
            raise ValueError(f"gram length {k} out of range for n={self.n}")
        got = self._gids.get(k)
        if got is None:
            for length in range(max(j for j in self._gids if j < k) + 1, k + 1):
                ids, cnt = self._refine(self._gids[length - 1], length)
                self._gids[length], self._gcounts[length] = ids, cnt
                if length == len(self._vocab):
                    self._vocab += (int(cnt.size),)  # a tuple is the smallest record
                    if cnt[ids[-1]] > 1:
                        self._final_repeats = length
                self._prune(length)
            got = self._gids[k]
        return got

    def _prune(self, current: int) -> None:
        if current <= self._KEEP_LEN:
            return  # nothing longer is resident before every kept length is
        keep = {current, current - 1}
        for store in (self._gids, self._gcounts):
            for length in [j for j in store if j > self._KEEP_LEN and j not in keep]:
                del store[length]

    def _refine(self, prev: np.ndarray, length: int):
        """Ids and counts of the grams of this length, held as _narrow(n + 1)."""
        key, counts = _gram_step(prev, self._x, self.D, length, self._gcounts[length - 1].size)
        narrow = _narrow(self.n + 1)
        return key.astype(narrow), counts.astype(narrow)

    def gram_counts(self, k: int) -> np.ndarray:
        """Occurrence count N(w | x_1^n) per group id, for length-k grams."""
        self.gram_ids(k)
        return self._gcounts[k]

    # -- query surface -----------------------------------------------------

    def vocab_size(self, k: int) -> int:
        """Number of distinct length-k substrings; 1 for k=0, 0 for k > n."""
        if k < 0:
            raise ValueError("order must be >= 0")
        if k > self.n:
            return 0
        top = len(self._vocab) - 1  # the longest gram length refined
        if k > top:
            if self._vocab[top] == self.n - top + 1:
                return self.n - k + 1  # the top-grams are all distinct, so the k-grams are too
            self.gram_ids(k)
        return self._vocab[k]

    def prefix_vocab_size(self, k: int) -> int:
        """|V_k(x_1^{n-1})|, the distinct k-grams that some symbol follows, for
        0 <= k < n: vocab_size(k), less the final k-gram when it occurs only there."""
        if not 0 <= k < self.n:
            raise ValueError(f"prefix vocabulary needs 0 <= k < n, got k={k}, n={self.n}")
        return self.vocab_size(k) - (k > self._final_repeats)

    def max_repetition(self) -> int:
        """Largest k such that some length-k substring occurs at least twice,
        where the table of ppm_code_lengths() ends: one pass gives both."""
        if self.n < 1:
            raise ValueError("maximal repetition needs a non-empty sequence")
        if self._maxrep is None:
            _ppm_pass([self])
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
        their size. ppm_pass fills many indexes at once.
        """
        if self._ppm is None:
            _ppm_pass([self])
        return self._ppm

    def window_cond_entropy(self, k: int, start: int, stop: int) -> float:
        """h_k of the window x[start:stop] (0-based, half-open), from shared gram ids.

        Equal grams keep equal ids inside any window, so the window's counts,
        and their order by position, are those of an index built on the slice.
        Above the maximal repetition L every gram occurs once and h_k is 0.0. A
        query past the refined grams refines one length l at a time, 0.0 once the
        l-grams are all distinct (L < l <= k); it asks for L only if the index
        knows it or after log2 n steps, about the cost of the PPM pass.
        """
        if not 0 <= start <= start + k < stop <= self.n:
            raise ValueError(
                f"need 0 <= start <= start + k < stop <= n, got k={k}, "
                f"window=({start}, {stop}), n={self.n}"
            )
        for _ in range(self.n.bit_length()):
            top = len(self._vocab) - 1  # the longest gram length refined
            if top > k or self._vocab[top] == self.n - top + 1 or self._maxrep is not None:
                break
            self.gram_ids(top + 1)
        top = len(self._vocab) - 1
        if top <= k and (self._vocab[top] == self.n - top + 1 or k > self.max_repetition()):
            return 0.0
        m = stop - start - k
        gids_k = self.gram_ids(k)
        ids_k = gids_k[start : start + m]
        ids_k1 = self.gram_ids(k + 1)[start : start + m]
        if m == self.n - k:
            # the whole string: every (k+1)-gram, and every k-gram but the last
            cnt_k, cnt_k1 = self._gcounts[k].copy(), self._gcounts[k + 1]
            cnt_k[gids_k[m]] -= 1
        else:
            cnt_k, cnt_k1 = np.bincount(ids_k), np.bincount(ids_k1)
        # ids absent from the window count 0 and are never gathered
        return float(_h_sums(cnt_k, cnt_k1, ids_k, ids_k1)) / m

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


def ppm_pass(seqs: list) -> None:
    """Fill max_repetition() and ppm_code_lengths() of each sequence's index by
    one pass over them all, L with the PPM table that ends at it; each gets the
    values it would get alone."""
    _ppm_pass(list(dict.fromkeys(build_index(x) for x in seqs)))


def gram_pass(seqs) -> None:
    """Fill every |V_l| and h_k, and the gram ids and counts up to _KEEP_LEN,
    of the indexes of strings of one length n as each would reach them alone,
    by one ranking per gram length over the rows of their (N, n) block. Row
    r's empty word has id r, so rows share no id; a row's ids less its first are its own."""
    indexes = list(dict.fromkeys(build_index(x) for x in seqs))
    x = np.stack([i._x for i in indexes])
    N, n = x.shape
    D, narrow = max(i.D for i in indexes), _narrow(n + 1)  # a larger D keeps each row's key order
    ids, counts = np.broadcast_to(np.arange(N)[:, None], (N, n + 1)), np.full(N, n + 1)
    vocab, h, repeats = np.ones((n + 1, N), dtype=np.int64), np.empty((n, N)), np.zeros(N, dtype=np.int64)
    for length in range(1, n + 1):
        m = n - length + 1
        key, cnt = _gram_step(ids, x, D, length, counts.size)
        counts[ids[:, m]] -= 1  # the final (length - 1)-gram has no successor
        h[length - 1] = _h_sums(counts, cnt, ids[:, :m], key) / m
        ids, counts = key, cnt
        first = ids.min(axis=1)
        vocab[length] = ids.max(axis=1) - first + 1
        repeats += counts[ids[:, -1]] > 1  # so do the final grams shorter than a repeating one
        if length <= FrequencyIndex._KEEP_LEN:
            own, cut = counts.astype(narrow), np.cumsum(vocab[length]).tolist()
            for idx, row, a, b in zip(indexes, (ids - first[:, None]).astype(narrow), first.tolist(), cut):
                idx._gids[length], idx._gcounts[length] = row, own[a:b]
    for idx, v, hk, r in zip(indexes, vocab.T.tolist(), h.T.tolist(), repeats.tolist()):
        idx._vocab, idx._h_cache, idx._final_repeats = tuple(v), dict(enumerate(hk)), r


def build_index(x: Sequence) -> FrequencyIndex:
    """Index for substring queries; cached on the sequence, built lazily."""
    if x._index is None:
        x._index = FrequencyIndex(x)
    return x._index
