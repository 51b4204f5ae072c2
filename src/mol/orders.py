"""Markov order estimators driven by universal code lengths.

The universal order is the least k at which the weighted empirical entropy
(n-k) h_k(x) drops to the code length H(x). The Krichevsky-Trofimov order
picks the PPM order of maximal measure; the Merhav-Gutman-Ziv estimator and
the Ryabko-Astola-Malyutov test compare h_k against an LZ78 rate budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import CodeLengthFunction, lz78_code_length
from .sequence import Sequence
from .stats import EntropyProfile, build_index

KT_TIE_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class OrderReport:
    """An estimated order together with the evidence that produced it; one
    report per sequence and code object, shared by every caller."""

    n: int
    backend: str
    H_bits: float
    estimate: int
    profile: EntropyProfile

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "backend": self.backend,
            "H_bits": self.H_bits,
            "order": self.estimate,
            "profile": self.profile.entries(),
        }


@dataclass
class RamTestResult:
    """Hypothesis test of Markov order <= M at significance alpha."""

    M: int
    alpha: float
    statistic: float
    reject: bool


def _least_order(over_budget) -> int:
    """The first k = 0, 1, ... not over budget. A positive budget stops it past the
    maximal repetition, where h_k = 0; at k = n, cond_entropy raises ValueError."""
    k = 0
    while over_budget(k):
        k += 1
    return k


def universal_markov_order(x: Sequence, code: CodeLengthFunction) -> OrderReport:
    """Least k with (n-k) h_k(x) <= H(x); scans upward using monotonicity.

    The scan is guaranteed to stop by the maximal repetition length plus one,
    where h_k vanishes while H stays positive. The empty sequence gets order 0
    by convention. The report is kept on the sequence's index per code object:
    the entry holds the code, so its id names no other code while it lives.
    """
    idx = build_index(x)
    got = idx.orders.get(id(code))
    if got is not None:
        return got[1]
    n = len(x)
    H = float(code.evaluate(x))
    k = _least_order(lambda k: (n - k) * idx.cond_entropy(k) > H) if n else 0
    # the reports of one string that stop at one order share its profile
    profile = next((r.profile for _, r in idx.orders.values() if r.estimate == k), None)
    if profile is None:
        profile = idx.profile(k) if n else EntropyProfile(n=0, h=[], weighted=[], vocab=[])
    report = OrderReport(n=n, backend=code.name, H_bits=H, estimate=k, profile=profile)
    idx.orders[id(code)] = (code, report)
    return report


def kt_order(x: Sequence) -> int:
    """Least k maximizing PPM_k(x); near-equal log measures count as ties.

    Orders above the maximal repetition length all assign the uniform measure
    D^-n, so the scan covers k = 0..L and one representative of that plateau.
    """
    n = len(x)
    if n == 0:
        return 0
    bits = build_index(x).ppm_code_lengths().tolist() + [n * math.log2(x.alphabet.size)]
    best = min(bits)
    return next(k for k, b in enumerate(bits) if b <= best + KT_TIE_TOL)


def mgz_order(x: Sequence, lam: float) -> int:
    """Least k with h_k(x) <= LZ78(x)/n + lambda (raw parse cost, no correction)."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam!r}")
    n = len(x)
    if n == 0:
        return 0
    threshold = lz78_code_length(x) / n + lam
    idx = build_index(x)
    return _least_order(lambda k: idx.cond_entropy(k) > threshold)


def ram_test(x: Sequence, M: int, alpha: float, code: CodeLengthFunction) -> RamTestResult:
    """Test the null "Markov order <= M" against the code-length budget.

    Accepts iff (n-M) h_M(x) <= H_code(x) + log2(1/alpha), where H_code is the
    backend's test length (the raw parse cost for LZ78, the full pointwise
    entropy for PPM).
    """
    n = len(x)
    if not 0 <= M < n:
        raise ValueError(f"need 0 <= M < n, got M={M}, n={n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    idx = build_index(x)
    statistic = (n - M) * idx.cond_entropy(M) - float(code.test_length(x))
    return RamTestResult(M=M, alpha=alpha, statistic=statistic,
                         reject=statistic > math.log2(1.0 / alpha))
