from mol import build_index
from mol.verify import VerifyBudget, _superadditivity_value, run_suites

from oracles import all_strings

SMALL = VerifyBudget(exhaustive_max_n=7, random_cases=20, random_max_n=64)


def test_window_entropy_suites_at_small_budget():
    cases = {
        "h-step-drop": 1474,
        "h-prefix-drop": 1474,
        "h-superadditivity": 2448,
        "h-series-bound": 1596,
    }
    for result in run_suites(list(cases), SMALL):
        assert result.passed, result.violations[:3]
        assert result.cases == cases[result.name]


def test_superadditivity_value_matches_slice_indexes():
    # the four-part formula on freshly built slice indexes, x_j^k 1-based
    for m in range(2, 9):
        for x in all_strings(2, m):
            for nn in range(1, m):
                for k in range(min(nn, m - nn)):
                    want = build_index(x).cond_entropy(k)
                    want -= (nn - k) / (m - k) * build_index(x.slice(1, nn)).cond_entropy(k)
                    if k > 0:
                        mid = build_index(x.slice(nn + 1 - k, nn + k))
                        want -= k / (m - k) * mid.cond_entropy(k)
                    right = build_index(x.slice(nn + 1, m))
                    want -= (m - nn - k) / (m - k) * right.cond_entropy(k)
                    assert _superadditivity_value(x, nn, k) == want
