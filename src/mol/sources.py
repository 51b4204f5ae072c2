"""Stationary generative sources with exact information-theoretic oracles,
and the Monte Carlo consistency-experiment runner."""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from ._version import __version__
from .codes import BudgetError, make_code
from .orders import kt_order, mgz_order, universal_markov_order
from .sequence import Sequence, uniform_alphabet

STATE_GUARD = 1 << 20
RNG_ALGORITHM = "numpy-pcg64"
MIN_PROB = 1e-3  # floor of every randomly generated transition probability
# a numpy step over the blocks costs about this many scalar steps
LANES = 32


class SourceError(ValueError):
    """Invalid transition table or a non-ergodic chain."""


def _search(edges: list[list[int]]) -> tuple[list[int], int]:
    """Search from node 0: each node's depth in the search tree (-1 where
    unreached) and the gcd of depth(u) + 1 - depth(v) over the edges u -> v met.

    On a strongly connected digraph that gcd is the period, the gcd of its
    cycle lengths.
    """
    n = len(edges)
    level = [-1] * n
    level[0] = 0
    queue = [0]
    g = 0
    while queue:
        u = queue.pop()
        for v in edges[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g = math.gcd(g, level[u] + 1 - level[v])
    return level, abs(g)


def _replay(ctx: int, rows: list, lead: list, draws: list, path: list = ()) -> list:
    """Contexts entered by scalar steps from ctx, one per draw, stopping
    before the first one equal to path's context at the same offset. Symbol
    a = bisect_right(rows[c], u) moves context c to lead[c] + a."""
    out = []
    put = out.append
    if not path:
        for u in draws:
            ctx = lead[ctx] + bisect_right(rows[ctx], u)
            put(ctx)
        return out
    for u, known in zip(draws, path):
        ctx = lead[ctx] + bisect_right(rows[ctx], u)
        if ctx == known:
            break
        put(ctx)
    return out


def _chain_symbols(cum: np.ndarray, D: int, ctx: int, stationary: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symbols of the context chain run from ctx over the draws u.

    Each step moves context c on draw u to (c·D + a) % S with
    a = bisect_right(cum[c], u). After a head of len(u) % B draws, the rest
    is cut into blocks of B ~ sqrt(n) draws that step in lockstep, one numpy
    step per offset: the first block from its true start, every other from
    the stationary mode. A second lockstep pass restarts each block from the
    end of the one before, until it meets its first path. A walk over the
    blocks in order then replays a block whose true start differs from its
    guess only until its context meets the stored one at the same offset,
    which fixes the rest of the block. Every draw meets the comparisons a
    per-symbol loop makes, so the symbols are identical to it.
    """
    n = u.size
    S = cum.shape[0]
    rows = cum.tolist()
    lead = np.arange(S) * D % S  # (c·D + a) % S == lead[c] + a
    leads = lead.tolist()
    # one lockstep step costs about lanes_min scalar steps: LANES where one
    # column decides the symbol, twice that for a row gather and argmax
    lanes_min = LANES if D == 2 else 2 * LANES
    B = math.isqrt(n)
    # with fewer than 2·lanes_min blocks the whole string is the head
    nb = n // B if B >= 2 * lanes_min else 0
    h = n - nb * B
    head = _replay(ctx, rows, leads, u[:h].tolist())
    ids = np.empty(n, dtype=np.int64)
    ids[:h] = head
    ids[:h] %= D
    if not nb:
        return ids
    if head:
        ctx = head[-1]
    if D == 2:
        low = np.ascontiguousarray(cum[:, 0])

        def step(c, x):
            return lead.take(c) + (low.take(c) <= x)
    else:

        def step(c, x):
            return lead.take(c) + (cum.take(c, axis=0) > x[:, None]).argmax(axis=1)

    guess = int(np.argmax(stationary))
    blocks = u[h:].reshape(nb, B)
    states = np.empty((nb, B), dtype=np.int32)
    c = np.full(nb, guess)
    c[0] = ctx
    for t in range(B):
        c = step(c, blocks[:, t])
        states[:, t] = c
    ends = states[:, -1].tolist()
    # Second pass: each lane restarts from the end of the block before it and
    # runs until it meets its first path. A lane still apart once fewer than
    # lanes_min remain, or after B/8 steps, keeps its first path and guess.
    starts = np.array([guess] + ends[:-1])
    lanes = np.flatnonzero(starts != guess)
    c = starts[lanes]
    moved = []
    t = 0
    while lanes.size >= lanes_min and t < B // 8:
        c = step(c, blocks[lanes, t])
        moved.append((lanes, c, t))
        apart = c != states[lanes, t]
        lanes, c = lanes[apart], c[apart]
        t += 1
    kept = np.zeros(nb, dtype=bool)
    kept[lanes] = True
    for moved_lanes, moved_c, t in moved:
        take = ~kept[moved_lanes]
        states[moved_lanes[take], t] = moved_c[take]
    starts[lanes] = guess
    guesses = starts.tolist()
    for b in range(1, nb):
        ctx = ends[b - 1]
        if ctx != guesses[b]:
            fix = _replay(ctx, rows, leads, blocks[b].tolist(), states[b].tolist())
            states[b, : len(fix)] = fix
            if len(fix) == B:
                ends[b] = fix[-1]
    np.remainder(states, D, out=ids[h:].reshape(nb, B))
    return ids


@dataclass(frozen=True, eq=False)
class SourceModel:
    """A stationary ergodic source: i.i.d. or a Markov chain of known order.

    transition has one row per context (all D**order words over the alphabet,
    most significant symbol first); stationary is the exact stationary law of
    the context chain.
    """

    kind: str
    order: int
    alphabet_size: int
    transition: np.ndarray
    stationary: np.ndarray
    label: str = ""

    @property
    def states(self) -> int:
        return self.transition.shape[0]

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "alphabet_size": self.alphabet_size,
            "label": self.label,
        }

    # -- sampling --------------------------------------------------------

    def sample(self, n: int, seed) -> Sequence:
        """Length-n sample: hidden initial context drawn from the stationary
        law, then n transitions. Deterministic given the seed."""
        rng = np.random.default_rng(seed)
        alpha = uniform_alphabet(self.alphabet_size)
        if n == 0:
            return Sequence(np.empty(0, dtype=np.int64), alpha)
        D = self.alphabet_size
        if self.order == 0:
            ids = rng.choice(D, size=n, p=self.transition[0]).astype(np.int64, copy=False)
        else:
            ctx = int(rng.choice(self.states, p=self.stationary))
            cum = np.cumsum(self.transition, axis=1)
            cum[:, -1] = 1.0
            ids = _chain_symbols(cum, D, ctx, self.stationary, rng.random(n))
        ids.setflags(write=False)  # no one else holds it, so the Sequence takes it as is
        return Sequence(ids, alpha)

    # -- exact oracles -----------------------------------------------------

    def block_marginal(self, j: int) -> np.ndarray:
        """Stationary distribution of a length-j block, j <= order."""
        if not 0 <= j <= self.order:
            raise ValueError(f"block length {j} outside 0..{self.order}")
        if j == self.order:
            return self.stationary
        D = self.alphabet_size
        shaped = self.stationary.reshape((D,) * self.order)
        return shaped.sum(axis=tuple(range(j, self.order))).ravel()

    def cond_entropy(self, k: int) -> float:
        """True conditional entropy h_k in bits; equals the entropy rate for
        k >= the source order."""
        if k < 0:
            raise ValueError("order must be >= 0")
        M = self.order
        if k >= M:
            T = self.transition
            safe = np.where(T > 0, T, 1.0)
            row_h = -(T * np.log2(safe)).sum(axis=1)
            return float(self.stationary @ row_h)
        return self._block_entropy(k + 1) - self._block_entropy(k)

    def _block_entropy(self, j: int) -> float:
        w = self.block_marginal(j)
        w = w[w > 0]
        return float(-(w * np.log2(w)).sum())

    def entropy_rate(self) -> float:
        """h^P = inf_k h_k^P, attained at the source order."""
        return self.cond_entropy(self.order)


def _validate_rows(T: np.ndarray) -> np.ndarray:
    if np.any(T < 0):
        raise SourceError("negative transition probability")
    sums = T.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise SourceError("transition rows must sum to 1")
    return T / sums[:, None]


def _check_ergodic(T: np.ndarray, D: int) -> None:
    S = T.shape[0]
    if S == 1:
        return
    rows, cols = np.nonzero(T)
    dest = (rows * D + cols) % S
    forward = [[] for _ in range(S)]
    backward = [[] for _ in range(S)]
    for u, v in zip(rows.tolist(), dest.tolist()):
        forward[u].append(v)
        backward[v].append(u)
    # strongly connected iff context 0 reaches every context and every context reaches it
    level, period = _search(forward)
    if min(level) < 0 or min(_search(backward)[0]) < 0:
        raise SourceError("context chain is reducible")
    if period != 1:
        raise SourceError("context chain is periodic")


def _stationary_of(T: np.ndarray, D: int) -> np.ndarray:
    S = T.shape[0]
    if S == 1:
        return np.array([1.0])
    dest = ((np.arange(S)[:, None] * D + np.arange(D)[None, :]) % S).ravel()

    def step(pi):
        return np.bincount(dest, weights=(pi[:, None] * T).ravel(), minlength=S)

    if S <= 2048:
        K = np.zeros((S, S))
        np.add.at(K, (np.repeat(np.arange(S), D), dest), T.ravel())
        A = K.T - np.eye(S)
        A[-1, :] = 1.0
        b = np.zeros(S)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
    else:
        pi = np.full(S, 1.0 / S)
        for _ in range(200000):
            nxt = step(pi)
            if np.abs(nxt - pi).sum() < 1e-14:
                pi = nxt
                break
            pi = nxt
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    if np.abs(step(pi) - pi).max() > 1e-10:
        raise SourceError("stationary distribution did not converge")
    return pi


def make_markov(
    D: int,
    order: int,
    transition=None,
    seed=None,
    concentration: float = 1.0,
    label: str = "",
) -> SourceModel:
    """Order-M Markov source over D symbols, from a table or a random seed.

    Random generation draws Gamma(concentration) weights per row (a row whose
    draws all underflow to 0 puts its weight on one uniformly drawn symbol)
    and mixes in a uniform floor so every entry is at least MIN_PROB, which
    keeps the chain ergodic and the entropy rate bounded away from zero.
    Non-finite tables and reducible or periodic chains are rejected.
    """
    if D < 2:
        raise SourceError("alphabet size must be >= 2")
    if order < 0:
        raise SourceError("order must be >= 0")
    S = D**order
    if S > STATE_GUARD:
        raise BudgetError(f"context space {D}^{order} exceeds the guard")
    if transition is not None:
        T = _validate_rows(np.asarray(transition, dtype=float).reshape(S, D))
    else:
        if seed is None:
            raise SourceError("random generation needs a seed")
        if not 0 < concentration < math.inf:
            raise SourceError(f"concentration must be finite and positive, got {concentration!r}")
        rng = np.random.default_rng(seed)
        raw = rng.gamma(concentration, size=(S, D))
        total = raw.sum(axis=1, keepdims=True)
        # a row whose every draw underflows to 0 takes the limit of normalised
        # Gamma draws as the concentration falls: one symbol, drawn uniformly
        empty = np.flatnonzero(total[:, 0] == 0.0)
        if empty.size:
            raw[empty, rng.integers(D, size=empty.size)] = 1.0
            total[empty] = 1.0
        raw /= total
        T = (1.0 - D * MIN_PROB) * raw + MIN_PROB
        T /= T.sum(axis=1, keepdims=True)
    if not np.isfinite(T).all():
        raise SourceError("transition probabilities must be finite")
    _check_ergodic(T, D)
    pi = _stationary_of(T, D)
    return SourceModel(kind="markov" if order > 0 else "iid", order=order,
                       alphabet_size=D, transition=T, stationary=pi, label=label)


def make_iid(probabilities, label: str = "") -> SourceModel:
    """i.i.d. source with the given symbol distribution."""
    p = np.asarray(probabilities, dtype=float)
    return make_markov(len(p), 0, transition=p.reshape(1, -1), label=label)


def fair_coin() -> SourceModel:
    return make_iid([0.5, 0.5], label="fair-coin")


def sticky_chain(p_stay: float = 0.9) -> SourceModel:
    """Symmetric binary order-1 chain with P(repeat last symbol) = p_stay."""
    return make_markov(
        2, 1,
        transition=[[p_stay, 1.0 - p_stay], [1.0 - p_stay, p_stay]],
        label=f"sticky-{p_stay:g}",
    )


# -- consistency experiment ------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo sweep: estimate orders on sampled sequences."""

    lengths: tuple
    trials: int
    seed: int
    backends: tuple = ("ppm",)
    estimators: tuple = ("universal",)
    mgz_lambda: float = 0.1
    ppm_exact: bool = True
    jobs: int = 1

    def to_dict(self) -> dict:
        """Every field but jobs, which changes no result; tuples as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "jobs"}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


class _TrialInvariantError(RuntimeError):
    """A trial broke an invariant. args = (n, seed entropy, detail) reproduce the
    trial, and rebuild the error when a pool worker pickles it to the parent."""

    def __str__(self) -> str:
        n, seed_entropy, detail = self.args
        return f"{detail} (trial n={n}, seed entropy {seed_entropy})"


def _run_trial(args) -> dict:
    src, n, seed_entropy, config = args
    x = src.sample(n, seed=np.random.SeedSequence(seed_entropy))
    out: dict = {"backends": {}}
    for name in config.backends:
        code = make_code(name, ppm_exact=config.ppm_exact)
        report = universal_markov_order(x, code)
        out["backends"][name] = {
            "order": report.estimate,
            "H_bits": report.H_bits,
            "h_at_order": report.profile.h[report.estimate],
        }
    if "kt" in config.estimators:
        out["kt"] = kt_order(x)
        ppm_result = out["backends"].get("ppm")
        if ppm_result is not None and ppm_result["order"] > out["kt"]:
            raise _TrialInvariantError(
                n, seed_entropy,
                f"universal order {ppm_result['order']} exceeded KT order {out['kt']}",
            )
    if "mgz" in config.estimators:
        out["mgz"] = mgz_order(x, config.mgz_lambda)
    return out


def consistency_experiment(src: SourceModel, config: ExperimentConfig) -> dict:
    """Sampled distribution of order estimates across a grid of lengths.

    Per-trial seeds derive deterministically from (master seed, length index,
    trial index); trials may run in parallel and aggregation preserves trial
    order, so reports are bit-reproducible at any job count.
    """
    if config.trials < 1:
        raise ValueError("need at least one trial")
    if any(n < 1 for n in config.lengths):
        raise ValueError(f"lengths must be >= 1, got {config.lengths!r}")
    kmax = src.order + 2
    report = {
        "meta": {
            "tool": "mol",
            "version": __version__,
            "rng": RNG_ALGORITHM,
            "seed": config.seed,
            "config": config.to_dict(),
            "source": src.describe(),
        },
        "true_order": src.order,
        "entropy_rate_bits": src.entropy_rate(),
        "cond_entropy_bits": [src.cond_entropy(k) for k in range(kmax + 1)],
        "runs": [],
    }
    tasks = [
        (src, n, (config.seed, n_index, trial), config)
        for n_index, n in enumerate(config.lengths)
        for trial in range(config.trials)
    ]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_run_trial, tasks, chunksize=1))
    else:
        results = [_run_trial(t) for t in tasks]

    for n_index, n in enumerate(config.lengths):
        chunk = results[n_index * config.trials : (n_index + 1) * config.trials]
        for backend in config.backends:
            orders = [r["backends"][backend]["order"] for r in chunk]
            h_at = [r["backends"][backend]["h_at_order"] for r in chunk]
            H_bits = [r["backends"][backend]["H_bits"] for r in chunk]
            run = {
                "n": n,
                "backend": backend,
                "orders": orders,
                "H_bits": H_bits,
                "h_at_order": h_at,
                "hit_rate": sum(1 for o in orders if o == src.order) / len(orders),
                "mean_order": sum(orders) / len(orders),
                "order_histogram": {
                    str(v): orders.count(v) for v in sorted(set(orders))
                },
            }
            if "kt" in config.estimators:
                kts = [r["kt"] for r in chunk]
                run["kt_orders"] = kts
                run["mean_kt"] = sum(kts) / len(kts)
            if "mgz" in config.estimators:
                run["mgz_orders"] = [r["mgz"] for r in chunk]
            report["runs"].append(run)
    return report


def experiment_summary_rows(report: dict) -> list:
    """CSV summary rows (n, backend, hit_rate, mean_M, mean_K, h_at_M, h_P)."""
    h_rate = report["entropy_rate_bits"]
    rows = []
    for run in report["runs"]:
        h_at = run["h_at_order"]
        rows.append(
            (
                run["n"],
                run["backend"],
                run["hit_rate"],
                run["mean_order"],
                run.get("mean_kt", ""),
                sum(h_at) / len(h_at),
                h_rate,
            )
        )
    return rows
