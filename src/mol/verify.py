"""Invariant suites: exhaustive small-alphabet checks plus randomized cases.

Each suite yields one (ok, detail) pair per case; `_suite` turns it into a
SuiteResult runner and registers it in SUITES in file order. The CLI `verify`
command and the acceptance tests run the same battery at different budgets.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .codes import (
    Lz78Code,
    OffsetCode,
    PpmCode,
    enumerate_strings,
    kraft_sum,
    ppm_bound_gap,
    ppm_cond,
    ppm_gap_lower,
    ppm_gap_upper,
    ppm_log_measure,
    ppm_log_measure_closed,
)
from .mi import SplitPreconditionError, mi_bound_rhs
from .orders import kt_order, universal_markov_order
from .sequence import Sequence, uniform_alphabet
from .sources import make_markov
from .stats import build_index, gram_pass, ppm_pass

EPS = 1e-9
FORM_TOL = 1e-12
SAMPLES_PER_CASE = 3  # random splits drawn per random string
MI_RANDOM_CASES = 1000  # random strings the MI suite visits


@dataclass(frozen=True)
class VerifyBudget:
    """Case universe for one battery run."""

    alphabet_size: int = 2
    exhaustive_max_n: int = 10
    kraft_max_n: int = 10
    random_cases: int = 2000
    random_max_n: int = 512
    random_max_alphabet: int = 4
    random_seed: int = 20260810


@dataclass
class SuiteResult:
    name: str
    cases: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _label(x: Sequence) -> str:
    text = x.render()
    if isinstance(text, bytes):
        text = text.decode("latin1")
    return text if len(text) <= 72 else text[:72] + "..."


# -- naive oracles (independent of the indexed fast paths) -------------------


def naive_h_counts(x: Sequence, k: int) -> tuple[Counter, Counter]:
    """The k-grams followed by a symbol and the (k+1)-grams of x, counted by tuple."""
    ids = x.ids.tolist()
    return tuple(Counter(tuple(ids[i : i + j]) for i in range(len(ids) - k)) for j in (k, k + 1))


def naive_h_position_form(x: Sequence, k: int, counts: tuple[Counter, Counter]) -> float:
    ids = x.ids.tolist()
    n = len(ids)
    ctx, ext = counts
    total = 0.0
    for i in range(k, n):
        total += math.log2(ctx[tuple(ids[i - k : i])] / ext[tuple(ids[i - k : i + 1])])
    return total / (n - k)


def naive_h_vocab_form(x: Sequence, k: int, counts: tuple[Counter, Counter]) -> float:
    n = len(x)
    ctx, ext = counts
    return math.fsum(
        c / (n - k) * math.log2(ctx[w[:-1]] / c) for w, c in ext.items()
    )


# -- shared case universe ----------------------------------------------------


class Workspace:
    """The case lists of one battery run: the exhaustive universe, the random
    strings and the drop cases. Code lengths and order reports stay on each
    string's index, so every suite reads them there."""

    def __init__(self, budget: VerifyBudget):
        self.budget = budget
        self.ppm = PpmCode(exact=True)
        self.lz78 = Lz78Code()
        self._exhaustive: list[Sequence] | None = None
        self._of_length: dict[int, dict[bytes, Sequence]] = {}
        self._random: list[Sequence] | None = None
        self._drop: list | None = None

    def of_length(self, n: int) -> dict[bytes, Sequence]:
        """Every string of length n over the budget's alphabet, keyed by its
        ids.tobytes(), in product order.

        The same objects make up exhaustive(), so code lengths cached on them by
        one suite serve the next.
        """
        got = self._of_length.get(n)
        if got is None:
            strings = enumerate_strings(self.budget.alphabet_size, n)
            got = self._of_length[n] = {x.ids.tobytes(): x for x in strings}
        return got

    def exhaustive(self) -> list[Sequence]:
        if self._exhaustive is None:
            top = self.budget.exhaustive_max_n
            self.of_length(top)  # the longest first: past the guard, no string is built
            self._exhaustive = [x for n in range(1, top + 1) for x in self.of_length(n).values()]
            ppm_pass(self._exhaustive)  # L and the PPM code lengths of all, in one pass
            for n in range(1, top + 1):
                gram_pass(self.of_length(n).values())  # |V_l|, h_k and short gram ids, per length
        return self._exhaustive

    def piece(self, x: Sequence, start: int, stop: int) -> Sequence | None:
        """The universe's own string equal to x[start:stop] (0-based, half-open),
        or None when the piece is longer than the universe or x has another
        alphabet size. h_k and code lengths read only the ids and D, so the
        member's cached values are the piece's."""
        D = self.budget.alphabet_size
        if stop - start > self.budget.exhaustive_max_n or x.alphabet.size != D:
            return None
        return self.of_length(stop - start)[x.ids[start:stop].tobytes()]

    def window_h(self, x: Sequence, k: int, start: int, stop: int) -> float:
        """h_k(x[start:stop]): the universe member's own h_k where there is one.

        A window's h_k is the same position sum, over the same counts in the
        same order, as the piece's own index, so both paths agree bit for bit.
        """
        member = self.piece(x, start, stop)
        if member is None:
            return build_index(x).window_cond_entropy(k, start, stop)
        return build_index(member).cond_entropy(k)

    def random(self) -> list[Sequence]:
        if self._random is None:
            b = self.budget
            rng = np.random.default_rng(b.random_seed)
            out = []
            alphabet_cache = {d: uniform_alphabet(d) for d in range(2, b.random_max_alphabet + 1)}
            for case in range(b.random_cases):
                D = int(rng.choice(np.arange(2, b.random_max_alphabet + 1)))
                n = int(round(math.exp(rng.uniform(math.log(8), math.log(b.random_max_n)))))
                style = case % 3
                if style == 0:
                    out.append(Sequence(rng.integers(0, D, size=n), alphabet_cache[D]))
                elif style == 1:
                    p = rng.dirichlet(np.ones(D))
                    p = 0.9 * p + 0.1 / D
                    out.append(Sequence(rng.choice(D, size=n, p=p), alphabet_cache[D]))
                else:
                    src = make_markov(D, 1, seed=int(rng.integers(1 << 30)),
                                      concentration=0.6)
                    out.append(src.sample(n, seed=int(rng.integers(1 << 30))))
            ppm_pass(out)  # L and the PPM code lengths of all, in one pass
            self._random = out
        return self._random

    def k_ranges(self) -> list:
        """(x, kmax) for suites over k = 0..kmax: n - 2 on exhaustive strings,
        min(L + 2, n - 2) on random ones, L the maximal repetition."""
        return [(x, len(x) - 2) for x in self.exhaustive()] + [
            (x, min(build_index(x).max_repetition() + 2, len(x) - 2)) for x in self.random()
        ]

    def drop_cases(self) -> list:
        """(x, k, h_k(x), h_{k+1}(x), h_k(x_2^n)) for the step- and prefix-drop suites."""
        if self._drop is None:
            self._drop = []
            for x, kmax in self.k_ranges():
                idx = build_index(x)
                for k in range(kmax + 1):
                    # window first: h_{k+1} refines length k + 2 and prunes length k
                    h_tail = self.window_h(x, k, 1, len(x))
                    h_next = idx.cond_entropy(k + 1)
                    self._drop.append((x, k, idx.cond_entropy(k), h_next, h_tail))
        return self._drop

    def order(self, name: str, x: Sequence):
        return universal_markov_order(x, self.ppm if name == "ppm" else self.lz78)


# -- suites ------------------------------------------------------------------

SUITES: dict = {}
# the suites that never read Workspace.exhaustive(), every string up to exhaustive_max_n
UNIVERSE_FREE = frozenset({"kraft", "ppm-identities"})


def _suite(name: str):
    """Register a case generator as suite(ws, ...) -> SuiteResult. detail() runs only
    for a failing case and before the generator resumes, so it may read loop variables."""

    def register(cases):
        @functools.wraps(cases)
        def run(ws: Workspace, *args, **kwargs) -> SuiteResult:
            res = SuiteResult(name, 0)
            for ok, detail in cases(ws, *args, **kwargs):
                res.cases += 1
                if not ok:
                    res.violations.append(detail())
            return res

        SUITES[name] = run
        return run

    return register


@_suite("h-forms")
def suite_h_forms(ws: Workspace):
    """Position-sum and vocabulary-sum forms of h_k agree with the index."""
    for x in ws.exhaustive():
        idx = build_index(x)
        for k in range(len(x)):
            lib = idx.cond_entropy(k)
            counts = naive_h_counts(x, k)
            pos = naive_h_position_form(x, k, counts)
            voc = naive_h_vocab_form(x, k, counts)
            ok = abs(lib - pos) <= FORM_TOL and abs(lib - voc) <= FORM_TOL
            yield ok, lambda: f"h_{k}({_label(x)}): index={lib!r} position={pos!r} vocab={voc!r}"
    for x in ws.random():
        idx = build_index(x)
        for k in range(min(3, len(x) - 1) + 1):
            pos = naive_h_position_form(x, k, naive_h_counts(x, k))
            ok = abs(idx.cond_entropy(k) - pos) <= FORM_TOL
            yield ok, lambda: f"h_{k}(random n={len(x)}) mismatch"


@_suite("ppm-closed-form")
def suite_ppm_closed_form(ws: Workspace):
    """Incremental and factorial-product PPM log measures agree to 1e-9."""
    strings = [(x, len(x) - 2) for x in ws.exhaustive()]
    strings += [(x, min(6, len(x) - 2)) for x in ws.random()]
    for x, kmax in strings:
        for k in range(kmax + 1):
            a = ppm_log_measure(x, k)
            b = ppm_log_measure_closed(x, k)
            yield abs(a - b) <= 1e-9, lambda: f"PPM_{k}({_label(x)}): {a!r} vs {b!r}"


@_suite("h-step-drop")
def suite_h_step_drop(ws: Workspace):
    """0 <= h_k(x_2^n) - h_{k+1}(x_1^n) <= log2 D."""
    for x, k, _, h_next, h_tail in ws.drop_cases():
        v = h_tail - h_next
        ok = -EPS <= v <= math.log2(x.alphabet.size) + EPS
        yield ok, lambda: f"step drop k={k} x={_label(x)}: {v!r}"


@_suite("h-prefix-drop")
def suite_h_prefix_drop(ws: Workspace):
    """0 <= h_k(x_1^n) - ((n-1-k)/(n-k)) h_k(x_2^n) <= log2 min(2, D)."""
    for x, k, h, _, h_tail in ws.drop_cases():
        n = len(x)
        v = h - (n - 1 - k) / (n - k) * h_tail
        ok = -EPS <= v <= math.log2(min(2, x.alphabet.size)) + EPS
        yield ok, lambda: f"prefix drop k={k} x={_label(x)}: {v!r}"


def _superadditivity_value(ws: Workspace, x: Sequence, nn: int, k: int) -> float:
    # The three parts partition the (context, symbol) pairs of x_1^m: pairs
    # ending at positions k+1..n, n+1..n+k (the window x_{n+1-k}^{n+k}), and
    # n+k+1..m, so the deficit is a conditional mutual information.
    m = len(x)
    v = build_index(x).cond_entropy(k)
    v -= (nn - k) / (m - k) * ws.window_h(x, k, 0, nn)
    if k > 0:
        v -= k / (m - k) * ws.window_h(x, k, nn - k, nn + k)
    v -= (m - nn - k) / (m - k) * ws.window_h(x, k, nn, m)
    return v


@_suite("h-superadditivity")
def suite_h_superadditivity(ws: Workspace):
    """The three-part split of (m-k) h_k(x_1^m) over- or undershoots by at
    most log2 min(3, D)."""

    def check(x: Sequence, nn: int, k: int):
        v = _superadditivity_value(ws, x, nn, k)
        ok = -EPS <= v <= math.log2(min(3, x.alphabet.size)) + EPS
        yield ok, lambda: f"superadditivity x={_label(x)} n={nn} k={k}: {v!r}"

    for x in ws.exhaustive():
        m = len(x)
        for nn in range(1, m):
            for k in range(min(nn, m - nn)):
                yield from check(x, nn, k)
    rng = np.random.default_rng(ws.budget.random_seed + 1)
    for x in ws.random():
        m = len(x)
        for _ in range(SAMPLES_PER_CASE):
            nn = int(rng.integers(1, m))
            yield from check(x, nn, int(rng.integers(0, min(nn, m - nn))))


@_suite("weighted-monotone")
def suite_weighted_monotone(ws: Workspace):
    """(n-k) h_k is non-increasing in k, and h_k = 0 beyond the maximal
    repetition length."""

    def check(x: Sequence, kmax: int, L: int):
        idx = build_index(x)
        n = len(x)
        prev = math.inf
        for k in range(kmax + 1):
            w = (n - k) * idx.cond_entropy(k)
            found = [f"weighted h up at k={k} x={_label(x)}"] if w > prev + EPS else []
            if k > L and w != 0.0:
                found.append(f"h_{k} nonzero beyond L={L} x={_label(x)}")
            yield not found, lambda: "; ".join(found)
            prev = w

    for x in ws.exhaustive():
        yield from check(x, len(x) - 1, build_index(x).max_repetition())
    for x in ws.random():
        L = build_index(x).max_repetition()
        yield from check(x, min(L + 2, len(x) - 1), L)


@_suite("h-series-bound")
def suite_h_series_bound(ws: Workspace):
    """sum_l h_l(x_1^{n+l}) <= log2 n for every prefix decomposition."""

    def check(x: Sequence, splits):
        # l runs upward once over all splits: gram ids of lengths above
        # FrequencyIndex._KEEP_LEN are dropped as the refinement moves on
        terms = {nn: [] for nn, _ in splits}
        for l in range(max(lmax for _, lmax in splits) + 1):
            for nn, lmax in splits:
                if l <= lmax:
                    terms[nn].append(ws.window_h(x, l, 0, nn + l))
        for nn, _ in splits:
            total = math.fsum(terms[nn])
            ok = total <= math.log2(nn) + EPS
            yield ok, lambda: f"series bound n={nn} x={_label(x)}: {total!r} > log2 {nn}"

    for x in ws.exhaustive():
        yield from check(x, [(nn, len(x) - nn) for nn in range(1, len(x) + 1)])
    for x in ws.random():
        m = len(x)
        L = build_index(x).max_repetition()
        # terms beyond the maximal repetition length vanish
        splits = {max(1, m - L - 1), max(1, m // 2), m}
        yield from check(x, [(nn, min(m - nn, L + 1)) for nn in splits])


@_suite("maxrep-lower-bound")
def suite_maxrep_lower_bound(ws: Workspace):
    """L(x_1^n) >= log_D(n - log_D n) - 1."""
    for x in ws.exhaustive() + ws.random():
        n = len(x)
        D = x.alphabet.size
        floor = math.log(n - math.log(n, D), D) - 1.0
        L = build_index(x).max_repetition()
        yield L >= floor - EPS, lambda: f"L={L} < {floor!r} for {_label(x)}"


@_suite("code-length-monotone")
def suite_code_monotone(ws: Workspace):
    """A pointwise-larger code length can only lower the universal order."""
    shifted = [OffsetCode(ws.ppm, c) for c in (1.0, 10.0)]
    for x in ws.exhaustive() + ws.random():
        m_plain = ws.order("ppm", x).estimate
        m_1 = universal_markov_order(x, shifted[0]).estimate
        m_10 = universal_markov_order(x, shifted[1]).estimate
        yield m_plain >= m_1 >= m_10, lambda: (
            f"orders not monotone in code length for {_label(x)}: {m_plain}, {m_1}, {m_10}"
        )


@_suite("order-le-maxrep")
def suite_order_le_maxrep(ws: Workspace):
    """Universal order is at most the maximal repetition length plus one."""
    for x in ws.exhaustive() + ws.random():
        L = build_index(x).max_repetition()
        for backend in ("ppm", "lz78"):
            M = ws.order(backend, x).estimate
            yield M <= L + 1, lambda: f"{backend}: M={M} > L+1={L + 1} for {_label(x)}"


@_suite("order-le-kt")
def suite_order_le_kt(ws: Workspace):
    """Universal order (PPM backend) never exceeds the KT order."""
    for x in ws.exhaustive() + ws.random():
        M = ws.order("ppm", x).estimate
        K = kt_order(x)
        yield M <= K, lambda: f"M={M} > K={K} for {_label(x)}"


@_suite("order-log-bound")
def suite_order_log_bound(ws: Workspace):
    """M(x)/log2 n < n/H(x) strictly, for n >= 2."""
    for x in ws.exhaustive() + ws.random():
        n = len(x)
        if n < 2:
            continue
        for backend in ("ppm", "lz78"):
            rep = ws.order(backend, x)
            ok = rep.estimate / math.log2(n) < n / rep.H_bits
            yield ok, lambda: f"{backend}: M/log n >= n/H for {_label(x)} (M={rep.estimate})"


@_suite("kraft")
def suite_kraft(ws: Workspace, codes=None):
    """Kraft sums of both backends stay at most one at every length.

    Lengths inside the exhaustive universe sum over its strings, which carry
    their code lengths from the other suites; longer ones enumerate afresh.
    """
    codes = codes if codes is not None else [ws.ppm, ws.lz78]
    b = ws.budget
    for code in codes:
        for n in range(1, b.kraft_max_n + 1):
            if n <= b.exhaustive_max_n:
                total = math.fsum(2.0 ** -code.evaluate(x) for x in ws.of_length(n).values())
            else:
                total = kraft_sum(code, n, b.alphabet_size)
            yield total <= 1.0 + EPS, lambda: f"{code.name}: Kraft sum {total!r} > 1 at n={n}"


@_suite("ppm-gap-sandwich")
def suite_ppm_gap_sandwich(ws: Workspace):
    """The normalized PPM redundancy gap lies in [-log2 (1/D)!, log2(e^2 n)]."""
    for x, kmax in ws.k_ranges():
        lo = ppm_gap_lower(x.alphabet.size)
        hi = ppm_gap_upper(len(x))
        for k in range(kmax + 1):
            gap = ppm_bound_gap(x, k)
            ok = lo - EPS <= gap <= hi + EPS
            yield ok, lambda: f"gap k={k} x={_label(x)}: {gap!r} outside [{lo!r}, {hi!r}]"


@_suite("mi-vocab-bound")
def suite_mi_vocab_bound(ws: Workspace):
    """Split MI under the PPM semi-distribution respects the vocabulary bound
    whenever the order precondition holds."""

    def part(x: Sequence, start: int, stop: int) -> Sequence:
        member = ws.piece(x, start, stop)
        return x.slice(start + 1, stop) if member is None else member

    H = ws.ppm.evaluate

    def check(x: Sequence, splits):
        cases = []
        for nn in splits:
            try:
                cases.append((nn, mi_bound_rhs(x, nn, ws.ppm), part(x, 0, nn), part(x, nn, len(x))))
            except SplitPreconditionError:
                continue
        ppm_pass([p for case in cases for p in case[2:]])  # the slices of x in one pass
        for nn, rhs, left, right in cases:
            I = H(left) + H(right) - H(x)
            ok = I <= rhs + EPS
            yield ok, lambda: f"MI bound split={nn} x={_label(x)}: I={I!r} > rhs={rhs!r}"

    for x in ws.exhaustive():
        yield from check(x, range(1, len(x)))
    rng = np.random.default_rng(ws.budget.random_seed + 2)
    for x in ws.random()[:MI_RANDOM_CASES]:
        m = len(x)
        yield from check(x, sorted({int(rng.integers(1, m)) for _ in range(SAMPLES_PER_CASE)}))


@_suite("ppm-identities")
def suite_ppm_identities(ws: Workspace):
    """Per-position normalization of PPM_k, and the uniform-measure identities
    PPM_k(x) = D^-n for k > n-2 and for any k above the maximal repetition."""
    rng = np.random.default_rng(ws.budget.random_seed + 3)
    alphas = {d: uniform_alphabet(d) for d in range(2, ws.budget.random_max_alphabet + 1)}
    cases = []
    for _ in range(60):
        D = int(rng.integers(2, ws.budget.random_max_alphabet + 1))
        n = int(rng.integers(2, 40))
        x = Sequence(rng.integers(0, D, size=n), alphas[D])
        cases.append((x, [(k, int(rng.integers(1, n + 1))) for k in (0, 1, 2, 5, 8)]))
    ppm_pass([x for x, _ in cases])  # L and the PPM code lengths of all 60, in one pass
    for x, draws in cases:
        n, D = len(x), x.alphabet.size
        for k, i in draws:
            total = 0.0
            for a in range(D):
                ids = x.ids.copy()
                ids[i - 1] = a
                total += ppm_cond(Sequence(ids, x.alphabet), i, k)
            ok = abs(total - 1.0) <= 1e-12
            yield ok, lambda: f"PPM_{k} not normalized at i={i}, n={n}: {total!r}"
        L = build_index(x).max_repetition()
        uniform = n * math.log2(D)
        for k in (L + 1, L + 5, n - 1, n + 3):
            ok = abs(ppm_log_measure(x, k) - uniform) <= 1e-9
            yield ok, lambda: f"PPM_{k} not uniform beyond L={L}, n={n}"


def run_suites(names=None, budget: VerifyBudget | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default, each named one once, in first-seen
    order) over one shared workspace."""
    budget = budget or VerifyBudget()
    names = list(dict.fromkeys(names)) if names else list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    ws = Workspace(budget)
    return [SUITES[name](ws) for name in names]
