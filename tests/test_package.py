"""The package surface: the names ``import coreprobe`` exports, and what it loads."""

import os
import subprocess
import sys
from pathlib import Path

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


# In a fresh interpreter (this one has numpy loaded by other suites):
# every analytic command runs without numpy or a thread pool, then one
# small simulate loads numpy, and the eager exports still resolve.
_LOAD_ONLY_WHAT_RUNS = """
import contextlib, io, sys
from coreprobe.cli import main

def run(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main.main(list(args), prog_name="coreprobe", standalone_mode=False)
    assert code in (None, 0), (args, code)

run("--help")
run("size", "--n", "10000", "--p", "99%", "--C", "10%", "--json")
run("lifetime", "--n", "1000", "--q", "79", "--c", "0.1%", "--p", "99%")
run("prob", "--n", "10000", "--q", "3164", "--alpha", "3000")
run("sweep", "q", "--n", "1000", "--C", "30%", "--start", "70", "--stop", "80")
run("table")
run("churn", "--C", "30%", "--delta", "100")
heavy = [m for m in ("numpy", "concurrent.futures") if m in sys.modules]
assert not heavy, heavy
run("simulate", "--n", "100", "--q", "10", "--alpha", "30", "--trials", "100")
assert "numpy" in sys.modules
import coreprobe, coreprobe.simulator
assert coreprobe.TrialConfig and coreprobe.simulator.run_trials
"""


def test_analytic_commands_load_no_numpy():
    src = Path(coreprobe.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _LOAD_ONLY_WHAT_RUNS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
