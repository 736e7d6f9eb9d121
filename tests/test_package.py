"""The package surface: the names ``import coreprobe`` exports."""

import coreprobe

# Frozen: adding a name to a module's __all__, or dropping one, changes
# the package's public surface, so it must change this set too.
PUBLIC_NAMES = {
    "binomial_exact", "ln_binomial", "log_sum_exp", "EXACT_N_LIMIT",
    "MissProbability", "churn_ratio", "replaced_count", "support_bounds",
    "hypergeometric_pmf", "conditional_miss", "miss_probability",
    "CoreSizeResult", "LifetimeResult", "MaxDeltaResult", "InfeasibleError",
    "DEFAULT_DELTA_HORIZON", "min_core_size", "delta_for_churn",
    "churn_rate_for", "max_delta",
    "TrialConfig", "TrialReport", "AnalyticComparison", "run_trials",
    "compare_with_analytic", "draw_subsets", "wilson_interval",
    "__version__",
}


def test_all_has_no_duplicates():
    assert len(coreprobe.__all__) == len(set(coreprobe.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in coreprobe.__all__ if not hasattr(coreprobe, name)]
    assert missing == []


def test_exports_are_the_public_names():
    assert set(coreprobe.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from coreprobe import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
