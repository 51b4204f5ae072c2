import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mol import (
    BudgetError,
    ExperimentConfig,
    SourceError,
    build_index,
    consistency_experiment,
    experiment_summary_rows,
    fair_coin,
    make_iid,
    make_markov,
    sticky_chain,
)
from mol.sources import LANES

from oracles import sample_oracle


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# -- construction ---------------------------------------------------------------


def test_fair_coin_model():
    src = fair_coin()
    assert src.order == 0
    assert src.stationary.tolist() == [1.0]
    assert src.transition.tolist() == [[0.5, 0.5]]


def test_sticky_chain_stationary_is_symmetric():
    src = sticky_chain(0.9)
    assert src.stationary == pytest.approx([0.5, 0.5], abs=1e-12)
    resid = np.abs(src.stationary @ _context_matrix(src) - src.stationary).max()
    assert resid <= 1e-10


def _context_matrix(src):
    S, D = src.transition.shape
    K = np.zeros((S, S))
    for s in range(S):
        for a in range(D):
            K[s, (s * D + a) % S] += src.transition[s, a]
    return K


def test_absorbing_chain_rejected():
    with pytest.raises(SourceError):
        make_markov(2, 1, transition=[[1.0, 0.0], [0.5, 0.5]])


def test_chain_that_never_returns_to_its_first_context_rejected():
    # context 0 reaches context 1, which then never leaves
    with pytest.raises(SourceError, match="reducible"):
        make_markov(2, 1, transition=[[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(SourceError, match="reducible"):
        make_markov(2, 2, transition=[[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])


def test_strongly_connected_chain_with_zeros_accepted():
    # the golden-mean shift: 1 is always followed by 0
    src = make_markov(2, 1, transition=[[0.5, 0.5], [1.0, 0.0]])
    assert src.stationary == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_periodic_chain_rejected():
    # deterministic alternation has period two
    with pytest.raises(SourceError):
        make_markov(2, 1, transition=[[0.0, 1.0], [1.0, 0.0]])


def test_invalid_rows_rejected():
    with pytest.raises(SourceError):
        make_markov(2, 1, transition=[[0.7, 0.2], [0.5, 0.5]])
    with pytest.raises(SourceError):
        make_markov(2, 1, transition=[[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(SourceError):
        make_markov(2, 1, transition=[[float("nan"), float("nan")], [0.5, 0.5]])
    with pytest.raises(SourceError):
        make_iid([float("nan"), float("nan")])
    for concentration in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(SourceError):
            make_markov(2, 1, seed=1, concentration=concentration)


def test_random_generation_is_floored_and_deterministic():
    a = make_markov(2, 2, seed=11, concentration=1.0)
    b = make_markov(2, 2, seed=11, concentration=1.0)
    assert np.array_equal(a.transition, b.transition)
    assert a.transition.min() >= 1e-3
    assert np.abs(a.transition.sum(axis=1) - 1.0).max() <= 1e-12
    with pytest.raises(SourceError):
        make_markov(2, 1)  # random generation needs a seed


def test_rows_whose_gamma_draws_all_underflow_take_one_symbol():
    # at seed 1 and 1e-3 every draw of a row underflows to 0; 1e-300 underflows them all
    for seed, concentration in [(s, 1e-3) for s in range(5)] + [(1, 1e-300)]:
        T = make_markov(2, 1, seed=seed, concentration=concentration).transition
        assert np.abs(T.sum(axis=1) - 1.0).max() <= 1e-12
        assert T.min() >= 1e-3
    one_hot = make_markov(3, 2, seed=1, concentration=1e-300).transition
    assert sorted(np.unique(one_hot.round(12))) == [0.001, 0.998]


def test_stationary_law_past_2048_contexts_by_power_iteration():
    # 2^12 contexts: the law comes from iterating the chain, not a dense solve
    src = make_markov(2, 12, seed=1)
    pi = src.stationary
    assert src.states == 4096 and pi.min() > 0
    assert abs(pi.sum() - 1.0) <= 1e-12
    # context c moves on symbol a to (2c + a) mod 4096, the flat index c·2 + a mod 4096
    flow = (pi[:, None] * src.transition).ravel()
    stepped = np.bincount(np.arange(flow.size) % src.states, weights=flow)
    assert np.abs(stepped - pi).max() <= 1e-12
    assert src.cond_entropy(12) == src.entropy_rate()
    assert len(src.sample(10**4, seed=3)) == 10**4


def test_state_guard():
    with pytest.raises(BudgetError):
        make_markov(2, 25, seed=1)


# -- sampling ---------------------------------------------------------------------


def test_sample_empty_and_deterministic():
    src = sticky_chain(0.9)
    assert len(src.sample(0, seed=1)) == 0
    assert src.sample(500, seed=42) == src.sample(500, seed=42)
    assert src.sample(500, seed=42) != src.sample(500, seed=43)


def test_sample_ids_are_pinned():
    # values drawn before sampling stored into a list instead of numpy items
    assert make_markov(2, 2, seed=11).sample(64, seed=3).ids.tolist() == [
        0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
        1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
    ]
    assert make_markov(3, 1, seed=5).sample(40, seed=2).ids.tolist() == [
        0, 2, 0, 1, 2, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 2, 0, 0, 0, 0,
        1, 2, 0, 0, 2, 0, 2, 0, 0, 0, 2, 0, 2, 0, 0, 1, 2, 1, 0, 2,
    ]


def _block_edge_lengths() -> list:
    """1, 2 and 5000, plus lengths at the edges of the block layout for both
    lockstep step forms (binary, and larger alphabets with twice the lanes):
    the last all-head length, heads of 0, 1 and B - 1 draws, the first
    length with B + 1 blocks and the last one before B grows."""
    lengths = {1, 2, 5000}
    for m in (2 * LANES, 4 * LANES):
        lengths |= {m * m - 1, m * m, m * m + 1, m * (m + 1) - 1, m * (m + 1), (m + 1) ** 2 - 1}
    return sorted(lengths)


BLOCK_EDGE_LENGTHS = _block_edge_lengths()


@given(
    D=st.sampled_from([2, 3, 4, 8]),
    order=st.integers(1, 3),
    concentration=st.sampled_from([1e-3, 0.05, 1.0, 100.0]),
    chain_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
    n=st.sampled_from(BLOCK_EDGE_LENGTHS),
)
def test_sample_matches_per_symbol_loop(D, order, concentration, chain_seed, seed, n):
    src = make_markov(D, order, seed=chain_seed, concentration=concentration)
    assert np.array_equal(src.sample(n, seed=seed).ids, sample_oracle(src, n, seed))


@pytest.mark.parametrize("n", BLOCK_EDGE_LENGTHS)
def test_sample_matches_per_symbol_loop_where_replays_never_meet(n):
    # two paths of this chain from different contexts stay apart for ~500 steps
    src = sticky_chain(0.001)
    for seed in range(3):
        assert np.array_equal(src.sample(n, seed=seed).ids, sample_oracle(src, n, seed))


def test_sample_matches_per_symbol_loop_at_a_million_symbols():
    for src in (sticky_chain(0.9), make_markov(2, 2, seed=11), make_markov(8, 1, seed=8)):
        assert np.array_equal(src.sample(10**6, seed=5).ids, sample_oracle(src, 10**6, 5))


def test_sample_peak_memory_under_32_bytes_per_symbol():
    # draws, int32 block contexts and the int64 ids; no list of the draws and
    # no table of n times the context count
    src = sticky_chain(0.9)
    n = 10**5
    src.sample(n, seed=1)
    tracemalloc.start()
    try:
        src.sample(n, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * n


def test_sample_fair_coin_frequency():
    x = fair_coin().sample(100000, seed=7)
    freq = float(np.mean(x.ids))
    assert abs(freq - 0.5) <= 0.01  # 3 sigma is ~0.005 here


# -- exact oracles -----------------------------------------------------------------


def test_cond_entropy_values():
    assert fair_coin().cond_entropy(0) == pytest.approx(1.0, abs=1e-12)
    assert fair_coin().cond_entropy(5) == pytest.approx(1.0, abs=1e-12)
    biased = make_iid([0.25, 0.75])
    assert biased.cond_entropy(0) == pytest.approx(binary_entropy(0.25), abs=1e-12)
    assert biased.cond_entropy(0) == pytest.approx(0.811278, abs=1e-6)
    sticky = sticky_chain(0.9)
    assert sticky.cond_entropy(1) == pytest.approx(binary_entropy(0.9), abs=1e-12)
    assert sticky.cond_entropy(1) == pytest.approx(0.468996, abs=1e-6)
    assert sticky.cond_entropy(3) == pytest.approx(binary_entropy(0.9), abs=1e-12)
    assert sticky.entropy_rate() == sticky.cond_entropy(1)


def test_cond_entropy_monotone_and_flat_beyond_order():
    src = make_markov(2, 2, seed=11, concentration=1.0)
    hs = [src.cond_entropy(k) for k in range(5)]
    for a, b in zip(hs, hs[1:]):
        assert b <= a + 1e-12
    assert hs[2] == pytest.approx(hs[3], abs=1e-12)
    assert hs[2] == pytest.approx(hs[4], abs=1e-12)
    assert src.entropy_rate() == pytest.approx(hs[2], abs=1e-12)


# -- consistency experiment ---------------------------------------------------------


def _tiny_config(**overrides):
    base = dict(
        lengths=(200, 400),
        trials=4,
        seed=77,
        backends=("ppm", "lz78"),
        estimators=("universal", "kt", "mgz"),
        ppm_exact=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_dict_holds_every_field_but_jobs_with_tuples_as_lists():
    assert _tiny_config(jobs=3).to_dict() == {
        "lengths": [200, 400],
        "trials": 4,
        "seed": 77,
        "backends": ["ppm", "lz78"],
        "estimators": ["universal", "kt", "mgz"],
        "mgz_lambda": 0.1,
        "ppm_exact": True,
    }


@pytest.mark.parametrize("lengths", [(0,), (200, 0), (-3,)])
def test_experiment_rejects_lengths_below_one(monkeypatch, lengths):
    monkeypatch.setattr("mol.sources._run_trial", lambda args: pytest.fail("trial ran"))
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        consistency_experiment(sticky_chain(0.9), _tiny_config(lengths=lengths))


def test_experiment_is_deterministic_and_parallel_safe():
    src = sticky_chain(0.9)
    one = consistency_experiment(src, _tiny_config())
    two = consistency_experiment(src, _tiny_config())
    assert one == two
    parallel = consistency_experiment(src, _tiny_config(jobs=2))
    assert parallel == one


def test_experiment_report_shape():
    src = sticky_chain(0.9)
    report = consistency_experiment(src, _tiny_config())
    assert report["true_order"] == 1
    assert report["entropy_rate_bits"] == pytest.approx(binary_entropy(0.9), abs=1e-12)
    assert len(report["runs"]) == 4  # 2 lengths x 2 backends
    for run in report["runs"]:
        assert 0.0 <= run["hit_rate"] <= 1.0
        assert len(run["orders"]) == 4
        assert all(m <= k for m, k in zip(run["orders"], run["kt_orders"])) or run["backend"] != "ppm"
    rows = experiment_summary_rows(report)
    assert len(rows) == 4
    assert all(len(r) == 7 for r in rows)


def test_experiment_kt_never_below_universal_order():
    report = consistency_experiment(fair_coin(), _tiny_config(lengths=(300,)))
    ppm_runs = [r for r in report["runs"] if r["backend"] == "ppm"]
    for run in ppm_runs:
        assert all(m <= k for m, k in zip(run["orders"], run["kt_orders"]))
        assert run["mean_kt"] >= run["mean_order"]


# -- ergodic echoes (reduced scale; the acceptance suite runs the full ones) --------


def test_birkhoff_echo_reduced():
    src = sticky_chain(0.9)
    n, seeds = 30000, 10
    good = 0
    for t in range(seeds):
        idx = build_index(src.sample(n, seed=np.random.SeedSequence((13, t))))
        if all(
            abs(idx.cond_entropy(k) - src.cond_entropy(k)) <= 0.05 for k in range(4)
        ):
            good += 1
    assert good >= 9


def test_maxrep_growth_echo_reduced():
    src = sticky_chain(0.9)
    n, seeds = 30000, 10
    floor = (1.0 / src.entropy_rate() - 0.5) * math.log2(n)
    good = 0
    for t in range(seeds):
        L = build_index(src.sample(n, seed=np.random.SeedSequence((14, t)))).max_repetition()
        if L >= floor:
            good += 1
    assert good >= 9
