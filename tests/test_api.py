import mol

# The public names as of this test; mol.__all__ may lose names but gain none.
PUBLIC = {
    "__version__", "Alphabet", "AlphabetError", "BACKENDS", "BudgetError",
    "CodeLengthFunction", "EntropyProfile", "ExperimentConfig", "FrequencyIndex",
    "HilbergEstimate", "Lz78Code", "MiReport", "OffsetCode", "OrderReport", "PpmCode",
    "RamTestResult", "Sequence", "SourceError", "SourceModel", "SplitPreconditionError",
    "SuiteResult", "UniformCode", "VerifyBudget", "build_index", "consistency_experiment",
    "experiment_summary_rows", "fair_coin", "hilberg_estimate", "ingest",
    "kraft_sum", "kt_order", "lz78_code_length", "lz78_entropy", "make_code", "make_iid",
    "make_markov", "mgz_order", "mi_bound_rhs", "mi_profile", "mi_report", "pointwise_mi",
    "ppm_bound_gap", "ppm_cond", "ppm_gap_lower", "ppm_gap_upper", "ppm_log_measure",
    "ppm_log_measure_closed", "ppm_semidistribution_entropy", "ram_test", "run_suites",
    "sticky_chain", "uniform_alphabet", "universal_markov_order",
}


def test_public_names_never_widen():
    assert len(mol.__all__) == len(set(mol.__all__))
    assert set(mol.__all__) <= PUBLIC
    assert all(hasattr(mol, name) for name in mol.__all__)
