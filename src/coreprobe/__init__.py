"""Persistence of replicated data in churned peer-to-peer systems.

Analytic miss probabilities for core/probe intersection, solvers that
invert them (core sizing, probe deadlines, churn budgets), and a Monte
Carlo simulator that checks the closed forms independently.
"""

from .persistence import (
    EXACT_N_LIMIT,
    MissProbability,
    binomial_exact,
    churn_ratio,
    conditional_miss,
    hypergeometric_pmf,
    ln_binomial,
    log_sum_exp,
    miss_probability,
    replaced_count,
    support_bounds,
)
from .simulator import (
    AnalyticComparison,
    TrialConfig,
    TrialReport,
    compare_with_analytic,
    draw_subsets,
    run_trials,
    wilson_interval,
)
from .solvers import (
    DEFAULT_DELTA_HORIZON,
    CoreSizeResult,
    InfeasibleError,
    LifetimeResult,
    MaxDeltaResult,
    churn_rate_for,
    delta_for_churn,
    max_delta,
    min_core_size,
)

__version__ = "0.1.0"

__all__ = [
    "binomial_exact",
    "ln_binomial",
    "log_sum_exp",
    "EXACT_N_LIMIT",
    "MissProbability",
    "churn_ratio",
    "replaced_count",
    "support_bounds",
    "hypergeometric_pmf",
    "conditional_miss",
    "miss_probability",
    "CoreSizeResult",
    "LifetimeResult",
    "MaxDeltaResult",
    "InfeasibleError",
    "DEFAULT_DELTA_HORIZON",
    "min_core_size",
    "delta_for_churn",
    "churn_rate_for",
    "max_delta",
    "TrialConfig",
    "TrialReport",
    "AnalyticComparison",
    "run_trials",
    "compare_with_analytic",
    "draw_subsets",
    "wilson_interval",
    "__version__",
]
