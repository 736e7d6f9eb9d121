"""The library names the benchmark in ``perfbench/`` reaches into.

The benchmark patches functions by module attribute and calls the
simulator directly, so renaming or deleting one of those names breaks it
without failing any other test.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from coreprobe.simulator import TrialConfig, draw_subsets, run_trials

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _patches():
    path = PERFBENCH / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _patches()])
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "form",
    [
        {"model": "urn", "alpha": 30},
        {"model": "churn_process", "c": Fraction("0.003"), "delta": 10},
    ],
)
def test_simulator_microbench_calls_run(form):
    # The calls the benchmark's simulator microbenchmark makes, on a tiny config.
    rows = draw_subsets(100, 8, 50, seed=3)
    assert rows.shape == (50, 8)
    config = TrialConfig(n=100, q=8, trials=200, seed=3, **form)
    assert run_trials(config, threads=2) == run_trials(config, threads=1)
