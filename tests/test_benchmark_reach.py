"""The library names and paths the benchmark in ``perfbench/`` reaches into.

The benchmark patches functions by module attribute and calls the
simulator directly, so renaming or deleting one of those names breaks it
without failing any other test.  Its requests are meant to take the CLI's
table parse, so an option change that sends them back to click's own
parse fails here too.
"""

import importlib
import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path
from unittest import mock

import click
import pytest

from coreprobe.cli import main
from coreprobe.simulator import TrialConfig, draw_subsets, run_trials

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patches():
    return _load("spans").PATCHES


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


def _parse(args):
    """The subcommand's parameters for one request, without running it."""
    with main.make_context("coreprobe", list(args)) as ctx:
        return main.get_command(ctx, args[0]).make_context(args[0], args[1:], parent=ctx).params


@pytest.mark.parametrize("workload", ["design", "mc-urn", "mc-churn"])
def test_requests_take_the_table_parse(workload):
    workloads = _load("workloads")
    requests = list(workloads.warm_up_requests(workload))
    for round_ in itertools.islice(workloads.rounds(workload, 1), 8):
        requests.extend(round_)
    clicks_parse = click.Command.parse_args
    declined = []
    with mock.patch.object(click.Command, "parse_args", lambda self, ctx, args: (
            declined.append(ctx.info_name) or clicks_parse(self, ctx, args))):
        params = [_parse(args) for args in requests]
    assert declined == []
    # click's own parse of the same requests gives the same values.
    with mock.patch("coreprobe.cli._Command.parse_args", clicks_parse):
        assert [_parse(args) for args in requests] == params
