"""Pointwise mutual information for code-length backends, the vocabulary
bound at the universal order, and Hilberg-exponent estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .codes import LOG2E, LOG2_PI2_OVER_6, CodeLengthFunction, PpmCode
from .orders import universal_markov_order
from .sequence import Sequence


class SplitPreconditionError(ValueError):
    """The universal order of the whole string is too large for this split."""


@dataclass
class MiReport:
    """Pointwise mutual information of a split, with the vocabulary bound."""

    n: int
    m: int
    I_bits: float
    order: int
    vocab: int
    bound_rhs: float | None
    bound_ok: bool | None


@dataclass
class HilbergEstimate:
    """Power-law exponent of s(n), fitted on the large-n half of a grid."""

    exponent: float
    grid: list
    values: list
    ratios: list
    fit: dict = field(default_factory=dict)


def pointwise_mi(x: Sequence, split: int, code: CodeLengthFunction) -> float:
    """I(x_1^n ; x_{n+1}^m) = H(x_1^n) + H(x_{n+1}^m) - H(x_1^m), one backend."""
    m = len(x)
    if not 1 <= split < m:
        raise ValueError(f"split must satisfy 1 <= n < m, got n={split}, m={m}")
    left = x.slice(1, split)
    right = x.slice(split + 1, m)
    return float(code.evaluate(left) + code.evaluate(right) - code.evaluate(x))


def mi_bound_rhs(x: Sequence, split: int, code: PpmCode) -> float:
    """Vocabulary bound on the split MI for the PPM semi-distribution.

    2 [ D |V_M(x_1^m)| + m log2 D / H(x_1^m) + 2 log2(pi^2/6) + 4 ] log2(e^2 m),
    valid when the universal order M of the whole string is below both part
    lengths.
    """
    if code.name != "ppm":
        raise ValueError("the vocabulary bound is specific to the PPM backend")
    m = len(x)
    if not 1 <= split < m:
        raise ValueError(f"split must satisfy 1 <= n < m, got n={split}, m={m}")
    report = universal_markov_order(x, code)
    M = report.estimate
    if M >= split:
        raise SplitPreconditionError(f"universal order {M} >= left length {split}")
    if M >= m - split:
        raise SplitPreconditionError(f"universal order {M} >= right length {m - split}")
    D = x.alphabet.size
    vocab = report.profile.vocab[M]
    inner = D * vocab + m * math.log2(D) / report.H_bits + 2.0 * LOG2_PI2_OVER_6 + 4.0
    return 2.0 * inner * (2.0 * LOG2E + math.log2(m))


def mi_report(x: Sequence, split: int, code: PpmCode) -> MiReport:
    """MI of a split plus the vocabulary bound where its preconditions hold."""
    m = len(x)
    I = pointwise_mi(x, split, code)
    report = universal_markov_order(x, code)
    M = report.estimate
    try:
        rhs = mi_bound_rhs(x, split, code)
        ok = I <= rhs + 1e-9
    except SplitPreconditionError:
        rhs, ok = None, None
    return MiReport(n=split, m=m, I_bits=I, order=M, vocab=report.profile.vocab[M],
                    bound_rhs=rhs, bound_ok=ok)


def mi_profile(x: Sequence, blocks, code: PpmCode) -> list[MiReport]:
    """Split MI of the prefixes x_1^{2n} at n in blocks, for Hilberg fits."""
    out = []
    for n in blocks:
        if n < 1 or 2 * n > len(x):
            raise ValueError(f"block {n} too large for sequence of length {len(x)}")
        out.append(mi_report(x.slice(1, 2 * n), n, code))
    return out


def log2_plus(value: float) -> float:
    """log2(x + 1) for x >= 0 and 0 for x < 0."""
    return math.log2(value + 1.0) if value >= 0 else 0.0


def hilberg_estimate(values: Mapping[int, float]) -> HilbergEstimate:
    """Power-law exponent of s(n) from a grid of samples.

    Fits the least-squares slope of log2_plus(s(n)) against log2 n over the
    largest half of the grid; the limsup definition is not finitely
    computable, so per-point ratios are exposed for convergence diagnostics.
    """
    grid = sorted(int(n) for n in values)
    if len(grid) < 4:
        raise ValueError("need at least 4 grid points")
    if len(set(grid)) != len(grid) or grid[0] < 2:
        raise ValueError("grid points must be distinct integers >= 2")
    ys = [log2_plus(float(values[n])) for n in grid]
    xs = [math.log2(n) for n in grid]
    ratios = [y / x for x, y in zip(xs, ys)]
    half = (len(grid) + 1) // 2
    fx = np.array(xs[-half:])
    fy = np.array(ys[-half:])
    slope, intercept = np.polyfit(fx, fy, 1)
    residuals = fy - (slope * fx + intercept)
    total = float(((fy - fy.mean()) ** 2).sum())
    r2 = 1.0 - float((residuals**2).sum()) / total if total > 0 else 1.0
    exponent = min(1.0, max(0.0, float(slope)))
    return HilbergEstimate(
        exponent=exponent,
        grid=grid,
        values=[float(values[n]) for n in grid],
        ratios=ratios,
        fit={"slope": float(slope), "intercept": float(intercept),
             "r2": r2, "points_used": half},
    )
