#!/usr/bin/env python3
"""Block mutual information profile of a sampled source, with a Hilberg fit.

Samples one long sequence, evaluates I(X_1^n; X_{n+1}^{2n}) over a dyadic
grid of n under the PPM mixture, prints the profile rows, and fits the
power-law exponent of both the MI values and the vocabulary sizes at the
universal order.

Usage:
    python scripts/hilberg_profile.py --log2-max 12 --sticky 0.9
"""

from __future__ import annotations

import argparse

from mol import PpmCode, hilberg_estimate, mi_profile, sticky_chain, make_markov, fair_coin


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--log2-min", type=int, default=4)
    parser.add_argument("--log2-max", type=int, default=11)
    parser.add_argument("--sticky", type=float, default=None)
    parser.add_argument("--order", type=int, default=0)
    parser.add_argument("--source-seed", type=int, default=11)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    # hilberg_estimate fits at least 4 distinct block lengths, each at least 2
    if args.log2_min < 1:
        parser.error(f"--log2-min must be at least 1, got {args.log2_min}")
    if args.log2_max - args.log2_min + 1 < 4:
        parser.error(f"the grid 2^{args.log2_min}..2^{args.log2_max} needs at least 4 points")

    if args.sticky is not None:
        src = sticky_chain(args.sticky)
    elif args.order == 0:
        src = fair_coin()
    else:
        src = make_markov(2, args.order, seed=args.source_seed, label=f"order{args.order}")

    blocks = [2**e for e in range(args.log2_min, args.log2_max + 1)]
    x = src.sample(2 * blocks[-1], seed=args.seed)
    code = PpmCode(exact=True)
    rows = mi_profile(x, blocks, code)

    print("n,m,I_bits,order_M,vocab_M,bound_rhs,bound_ok")
    for r in rows:
        rhs = "" if r.bound_rhs is None else format(r.bound_rhs, ".6g")
        ok = "" if r.bound_ok is None else str(r.bound_ok).lower()
        print(f"{r.n},{r.m},{r.I_bits:.6g},{r.order},{r.vocab},{rhs},{ok}")

    mi_fit = hilberg_estimate({r.n: r.I_bits for r in rows})
    vocab_fit = hilberg_estimate({r.n: float(r.vocab) for r in rows})
    print(f"# hilberg exponent of MI: {mi_fit.exponent:.3f} (r2={mi_fit.fit['r2']:.3f})")
    print(f"# hilberg exponent of vocab at universal order: {vocab_fit.exponent:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
