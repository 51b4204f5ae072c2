"""Invariant suites: exhaustive small-alphabet checks plus randomized cases.

Each suite returns a SuiteResult with the number of cases checked and any
counterexamples found. The CLI `verify` command and the acceptance tests run
the same battery at different budgets.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .codes import (
    CodeLengthFunction,
    Lz78Code,
    OffsetCode,
    PpmCode,
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
from .stats import build_index

EPS = 1e-9
FORM_TOL = 1e-12


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
    samples_per_case: int = 3
    mi_random_cases: int = 1000


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


def naive_h_position_form(x: Sequence, k: int) -> float:
    ids = x.ids.tolist()
    n = len(ids)
    ctx = Counter(tuple(ids[i : i + k]) for i in range(n - k))
    ext = Counter(tuple(ids[i : i + k + 1]) for i in range(n - k))
    total = 0.0
    for i in range(k, n):
        total += math.log2(ctx[tuple(ids[i - k : i])] / ext[tuple(ids[i - k : i + 1])])
    return total / (n - k)


def naive_h_vocab_form(x: Sequence, k: int) -> float:
    ids = x.ids.tolist()
    n = len(ids)
    ctx = Counter(tuple(ids[i : i + k]) for i in range(n - k))
    ext = Counter(tuple(ids[i : i + k + 1]) for i in range(n - k))
    return math.fsum(
        c / (n - k) * math.log2(ctx[w[:-1]] / c) for w, c in ext.items()
    )


# -- shared case universe ----------------------------------------------------


class Workspace:
    """Enumeration, random cases and code-length caches for one battery run."""

    def __init__(self, budget: VerifyBudget):
        self.budget = budget
        self.ppm = PpmCode(exact=True)
        self.lz78 = Lz78Code()
        self._exhaustive: list[Sequence] | None = None
        self._random: list[Sequence] | None = None
        self._H: dict = {}
        self._reports: dict = {}

    def exhaustive(self) -> list[Sequence]:
        if self._exhaustive is None:
            D = self.budget.alphabet_size
            alpha = uniform_alphabet(D)
            out = []
            for n in range(1, self.budget.exhaustive_max_n + 1):
                for ids in product(range(D), repeat=n):
                    out.append(Sequence(np.array(ids, dtype=np.int64), alpha))
            self._exhaustive = out
        return self._exhaustive

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
                    ids = rng.integers(0, D, size=n)
                    out.append(Sequence(ids.astype(np.int64), alphabet_cache[D]))
                elif style == 1:
                    p = rng.dirichlet(np.ones(D))
                    p = 0.9 * p + 0.1 / D
                    ids = rng.choice(D, size=n, p=p)
                    out.append(Sequence(ids.astype(np.int64), alphabet_cache[D]))
                else:
                    src = make_markov(D, 1, seed=int(rng.integers(1 << 30)),
                                      concentration=0.6)
                    out.append(src.sample(n, seed=int(rng.integers(1 << 30))))
            self._random = out
        return self._random

    def code(self, name: str) -> CodeLengthFunction:
        return self.ppm if name == "ppm" else self.lz78

    def H(self, name: str, x: Sequence) -> float:
        key = (name, x)
        got = self._H.get(key)
        if got is None:
            got = self._H[key] = float(self.code(name).evaluate(x))
        return got

    def order(self, name: str, x: Sequence):
        key = (name, x)
        got = self._reports.get(key)
        if got is None:
            got = self._reports[key] = universal_markov_order(x, self.code(name))
        return got


# -- suites ------------------------------------------------------------------


def suite_h_forms(ws: Workspace) -> SuiteResult:
    """Position-sum and vocabulary-sum forms of h_k agree with the index."""
    res = SuiteResult("h-forms", 0)
    for x in ws.exhaustive():
        idx = build_index(x)
        for k in range(len(x)):
            res.cases += 1
            lib = idx.cond_entropy(k)
            pos = naive_h_position_form(x, k)
            voc = naive_h_vocab_form(x, k)
            if abs(lib - pos) > FORM_TOL or abs(lib - voc) > FORM_TOL:
                res.violations.append(
                    f"h_{k}({_label(x)}): index={lib!r} position={pos!r} vocab={voc!r}"
                )
    for x in ws.random():
        idx = build_index(x)
        for k in range(min(3, len(x) - 1) + 1):
            res.cases += 1
            pos = naive_h_position_form(x, k)
            if abs(idx.cond_entropy(k) - pos) > FORM_TOL:
                res.violations.append(f"h_{k}(random n={len(x)}) mismatch")
    return res


def suite_ppm_closed_form(ws: Workspace) -> SuiteResult:
    """Incremental and factorial-product PPM log measures agree to 1e-9."""
    res = SuiteResult("ppm-closed-form", 0)

    def check(x: Sequence, kmax: int):
        for k in range(kmax + 1):
            res.cases += 1
            a = ppm_log_measure(x, k)
            b = ppm_log_measure_closed(x, k)
            if abs(a - b) > 1e-9:
                res.violations.append(f"PPM_{k}({_label(x)}): {a!r} vs {b!r}")

    for x in ws.exhaustive():
        check(x, len(x) - 2)
    for x in ws.random():
        check(x, min(6, len(x) - 2))
    return res


def _step_drop_cases(ws: Workspace):
    """(x, k, index of x, h_k of the tail x_2^n) for the step- and prefix-drop suites."""
    strings = [(x, len(x) - 2) for x in ws.exhaustive() if len(x) >= 2]
    strings += [(x, min(build_index(x).max_repetition() + 2, len(x) - 2)) for x in ws.random()]
    for x, kmax in strings:
        idx = build_index(x)
        for k in range(kmax + 1):
            yield x, k, idx, idx.window_cond_entropy(k, 1, len(x))


def suite_h_step_drop(ws: Workspace) -> SuiteResult:
    """0 <= h_k(x_2^n) - h_{k+1}(x_1^n) <= log2 D."""
    res = SuiteResult("h-step-drop", 0)
    for x, k, idx, h_tail in _step_drop_cases(ws):
        res.cases += 1
        v = h_tail - idx.cond_entropy(k + 1)
        if not -EPS <= v <= math.log2(x.alphabet.size) + EPS:
            res.violations.append(f"step drop k={k} x={_label(x)}: {v!r}")
    return res


def suite_h_prefix_drop(ws: Workspace) -> SuiteResult:
    """0 <= h_k(x_1^n) - ((n-1-k)/(n-k)) h_k(x_2^n) <= log2 min(2, D)."""
    res = SuiteResult("h-prefix-drop", 0)
    for x, k, idx, h_tail in _step_drop_cases(ws):
        n = len(x)
        res.cases += 1
        v = idx.cond_entropy(k) - (n - 1 - k) / (n - k) * h_tail
        if not -EPS <= v <= math.log2(min(2, x.alphabet.size)) + EPS:
            res.violations.append(f"prefix drop k={k} x={_label(x)}: {v!r}")
    return res


def _superadditivity_value(x: Sequence, nn: int, k: int) -> float:
    # The three parts partition the (context, symbol) pairs of x_1^m: pairs
    # ending at positions k+1..n, n+1..n+k (the window x_{n+1-k}^{n+k}), and
    # n+k+1..m, so the deficit is a conditional mutual information.
    m = len(x)
    idx = build_index(x)
    v = idx.cond_entropy(k)
    v -= (nn - k) / (m - k) * idx.window_cond_entropy(k, 0, nn)
    if k > 0:
        v -= k / (m - k) * idx.window_cond_entropy(k, nn - k, nn + k)
    v -= (m - nn - k) / (m - k) * idx.window_cond_entropy(k, nn, m)
    return v


def suite_h_superadditivity(ws: Workspace) -> SuiteResult:
    """The three-part split of (m-k) h_k(x_1^m) over- or undershoots by at
    most log2 min(3, D)."""
    res = SuiteResult("h-superadditivity", 0)

    def check(x: Sequence, nn: int, k: int):
        res.cases += 1
        v = _superadditivity_value(x, nn, k)
        if not -EPS <= v <= math.log2(min(3, x.alphabet.size)) + EPS:
            res.violations.append(f"superadditivity x={_label(x)} n={nn} k={k}: {v!r}")

    for x in ws.exhaustive():
        m = len(x)
        for nn in range(1, m):
            for k in range(min(nn, m - nn)):
                check(x, nn, k)
    rng = np.random.default_rng(ws.budget.random_seed + 1)
    for x in ws.random():
        m = len(x)
        for _ in range(ws.budget.samples_per_case):
            nn = int(rng.integers(1, m))
            check(x, nn, int(rng.integers(0, min(nn, m - nn))))
    return res


def suite_weighted_monotone(ws: Workspace) -> SuiteResult:
    """(n-k) h_k is non-increasing in k, and h_k = 0 beyond the maximal
    repetition length."""
    res = SuiteResult("weighted-monotone", 0)

    def check(x: Sequence, kmax: int, L: int):
        idx = build_index(x)
        n = len(x)
        prev = None
        for k in range(kmax + 1):
            res.cases += 1
            w = (n - k) * idx.cond_entropy(k)
            if prev is not None and w > prev + EPS:
                res.violations.append(f"weighted h up at k={k} x={_label(x)}")
            if k > L and w != 0.0:
                res.violations.append(f"h_{k} nonzero beyond L={L} x={_label(x)}")
            prev = w

    for x in ws.exhaustive():
        check(x, len(x) - 1, build_index(x).max_repetition())
    for x in ws.random():
        L = build_index(x).max_repetition()
        check(x, min(L + 2, len(x) - 1), L)
    return res


def suite_h_series_bound(ws: Workspace) -> SuiteResult:
    """sum_l h_l(x_1^{n+l}) <= log2 n for every prefix decomposition."""
    res = SuiteResult("h-series-bound", 0)

    def check(x: Sequence, splits):
        # l runs upward once over all splits: gram ids of lengths above
        # FrequencyIndex._KEEP_LEN are dropped as the refinement moves on
        idx = build_index(x)
        terms = {nn: [] for nn, _ in splits}
        for l in range(max(lmax for _, lmax in splits) + 1):
            for nn, lmax in splits:
                if l <= lmax:
                    terms[nn].append(idx.window_cond_entropy(l, 0, nn + l))
        for nn, _ in splits:
            total = math.fsum(terms[nn])
            res.cases += 1
            if total > math.log2(nn) + EPS:
                res.violations.append(
                    f"series bound n={nn} x={_label(x)}: {total!r} > log2 {nn}"
                )

    for x in ws.exhaustive():
        check(x, [(nn, len(x) - nn) for nn in range(1, len(x) + 1)])
    for x in ws.random():
        m = len(x)
        L = build_index(x).max_repetition()
        # terms beyond the maximal repetition length vanish
        splits = {max(1, m - L - 1), max(1, m // 2), m}
        check(x, [(nn, min(m - nn, L + 1)) for nn in splits])
    return res


def suite_maxrep_lower_bound(ws: Workspace) -> SuiteResult:
    """L(x_1^n) >= log_D(n - log_D n) - 1."""
    res = SuiteResult("maxrep-lower-bound", 0)
    for x in ws.exhaustive() + ws.random():
        n = len(x)
        D = x.alphabet.size
        res.cases += 1
        floor = math.log(n - math.log(n, D), D) - 1.0
        L = build_index(x).max_repetition()
        if L < floor - EPS:
            res.violations.append(f"L={L} < {floor!r} for {_label(x)}")
    return res


def suite_code_monotone(ws: Workspace) -> SuiteResult:
    """A pointwise-larger code length can only lower the universal order."""
    res = SuiteResult("code-length-monotone", 0)
    shifted = [OffsetCode(ws.ppm, c) for c in (1.0, 10.0)]
    for x in ws.exhaustive() + ws.random():
        res.cases += 1
        m_plain = ws.order("ppm", x).estimate
        m_1 = universal_markov_order(x, shifted[0]).estimate
        m_10 = universal_markov_order(x, shifted[1]).estimate
        if not m_plain >= m_1 >= m_10:
            res.violations.append(
                f"orders not monotone in code length for {_label(x)}: "
                f"{m_plain}, {m_1}, {m_10}"
            )
    return res


def suite_order_le_maxrep(ws: Workspace) -> SuiteResult:
    """Universal order is at most the maximal repetition length plus one."""
    res = SuiteResult("order-le-maxrep", 0)
    for x in ws.exhaustive() + ws.random():
        L = build_index(x).max_repetition()
        for backend in ("ppm", "lz78"):
            res.cases += 1
            M = ws.order(backend, x).estimate
            if M > L + 1:
                res.violations.append(f"{backend}: M={M} > L+1={L + 1} for {_label(x)}")
    return res


def suite_order_le_kt(ws: Workspace) -> SuiteResult:
    """Universal order (PPM backend) never exceeds the KT order."""
    res = SuiteResult("order-le-kt", 0)
    for x in ws.exhaustive() + ws.random():
        res.cases += 1
        M = ws.order("ppm", x).estimate
        K = kt_order(x)
        if M > K:
            res.violations.append(f"M={M} > K={K} for {_label(x)}")
    return res


def suite_order_log_bound(ws: Workspace) -> SuiteResult:
    """M(x)/log2 n < n/H(x) strictly, for n >= 2."""
    res = SuiteResult("order-log-bound", 0)
    for x in ws.exhaustive() + ws.random():
        n = len(x)
        if n < 2:
            continue
        for backend in ("ppm", "lz78"):
            res.cases += 1
            rep = ws.order(backend, x)
            if not rep.estimate / math.log2(n) < n / rep.H_bits:
                res.violations.append(
                    f"{backend}: M/log n >= n/H for {_label(x)} (M={rep.estimate})"
                )
    return res


def suite_kraft(ws: Workspace, codes=None) -> SuiteResult:
    """Kraft sums of both backends stay at most one at every length."""
    res = SuiteResult("kraft", 0)
    codes = codes if codes is not None else [ws.ppm, ws.lz78]
    D = ws.budget.alphabet_size
    for code in codes:
        for n in range(1, ws.budget.kraft_max_n + 1):
            res.cases += 1
            total = kraft_sum(code, n, D)
            if total > 1.0 + EPS:
                res.violations.append(f"{code.name}: Kraft sum {total!r} > 1 at n={n}")
    return res


def suite_ppm_gap_sandwich(ws: Workspace) -> SuiteResult:
    """The normalized PPM redundancy gap lies in [-log2 (1/D)!, log2(e^2 n)]."""
    res = SuiteResult("ppm-gap-sandwich", 0)

    def check(x: Sequence, ks):
        n = len(x)
        lo = ppm_gap_lower(x.alphabet.size)
        hi = ppm_gap_upper(n)
        for k in ks:
            res.cases += 1
            gap = ppm_bound_gap(x, k)
            if not lo - EPS <= gap <= hi + EPS:
                res.violations.append(
                    f"gap k={k} x={_label(x)}: {gap!r} outside [{lo!r}, {hi!r}]"
                )

    for x in ws.exhaustive():
        check(x, range(len(x) - 1))
    for x in ws.random():
        L = build_index(x).max_repetition()
        check(x, range(min(L + 2, len(x) - 2) + 1))
    return res


def suite_mi_vocab_bound(ws: Workspace) -> SuiteResult:
    """Split MI under the PPM semi-distribution respects the vocabulary bound
    whenever the order precondition holds."""
    res = SuiteResult("mi-vocab-bound", 0)

    def check(x: Sequence, splits):
        for nn in splits:
            try:
                rhs = mi_bound_rhs(x, nn, ws.ppm)
            except SplitPreconditionError:
                continue
            res.cases += 1
            I = ws.H("ppm", x.slice(1, nn)) + ws.H("ppm", x.slice(nn + 1, len(x))) - ws.H("ppm", x)
            if I > rhs + EPS:
                res.violations.append(
                    f"MI bound split={nn} x={_label(x)}: I={I!r} > rhs={rhs!r}"
                )

    for x in ws.exhaustive():
        check(x, range(1, len(x)))
    rng = np.random.default_rng(ws.budget.random_seed + 2)
    for x in ws.random()[: ws.budget.mi_random_cases]:
        m = len(x)
        check(x, sorted({int(rng.integers(1, m)) for _ in range(ws.budget.samples_per_case)}))
    return res


def suite_ppm_identities(ws: Workspace) -> SuiteResult:
    """Per-position normalization of PPM_k, and the uniform-measure identities
    PPM_k(x) = D^-n for k > n-2 and for any k above the maximal repetition."""
    res = SuiteResult("ppm-identities", 0)
    rng = np.random.default_rng(ws.budget.random_seed + 3)
    alphas = {d: uniform_alphabet(d) for d in range(2, ws.budget.random_max_alphabet + 1)}
    for _ in range(60):
        D = int(rng.integers(2, ws.budget.random_max_alphabet + 1))
        n = int(rng.integers(2, 40))
        x = Sequence(rng.integers(0, D, size=n).astype(np.int64), alphas[D])
        for k in (0, 1, 2, 5, 8):
            i = int(rng.integers(1, n + 1))
            total = 0.0
            for a in range(D):
                ids = x.ids.copy()
                ids[i - 1] = a
                total += ppm_cond(Sequence(ids, x.alphabet), i, k)
            res.cases += 1
            if abs(total - 1.0) > 1e-12:
                res.violations.append(f"PPM_{k} not normalized at i={i}, n={n}: {total!r}")
        L = build_index(x).max_repetition()
        uniform = n * math.log2(D)
        for k in (L + 1, L + 5, n - 1, n + 3):
            res.cases += 1
            if abs(ppm_log_measure(x, k) - uniform) > 1e-9:
                res.violations.append(f"PPM_{k} not uniform beyond L={L}, n={n}")
    return res


SUITES = {
    "h-forms": suite_h_forms,
    "ppm-closed-form": suite_ppm_closed_form,
    "h-step-drop": suite_h_step_drop,
    "h-prefix-drop": suite_h_prefix_drop,
    "h-superadditivity": suite_h_superadditivity,
    "weighted-monotone": suite_weighted_monotone,
    "h-series-bound": suite_h_series_bound,
    "maxrep-lower-bound": suite_maxrep_lower_bound,
    "code-length-monotone": suite_code_monotone,
    "order-le-maxrep": suite_order_le_maxrep,
    "order-le-kt": suite_order_le_kt,
    "order-log-bound": suite_order_log_bound,
    "kraft": suite_kraft,
    "ppm-gap-sandwich": suite_ppm_gap_sandwich,
    "mi-vocab-bound": suite_mi_vocab_bound,
    "ppm-identities": suite_ppm_identities,
}


def run_suites(names=None, budget: VerifyBudget | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default) over one shared workspace."""
    budget = budget or VerifyBudget()
    names = list(names) if names else list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    ws = Workspace(budget)
    return [SUITES[name](ws) for name in names]
