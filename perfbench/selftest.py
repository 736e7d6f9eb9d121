#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

* smoke: one-second runs of every workload in both trace modes; the last
  line must carry exactly the metrics BENCHMARK.json declares, all
  checks must pass, and every metric, declared or workload-specific,
  is printed with its unit;
* negative: a wrong ``size`` answer (q - 1 for one query) must be
  counted as failed, and a record with ``NaN`` must be rejected;
* bare: without ``src/`` the benchmark exits non-zero and prints no result.

Takes about a minute on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def benchmark(root, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def smoke():
    spec = run.benchmark_spec()
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in wl.WORKLOADS:
            proc = benchmark(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert [m["name"] for m in declared] == list(result["metrics"]), result
            figures = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            if trace == 0:
                with open(run.OUT / f"{workload}-seed7-trace0.json", encoding="utf-8") as rec:
                    extra = json.load(rec)["extra"]
                figures += [(name, value, run.EXTRA_UNITS[name]) for name, value in extra.items()]
            for name, value, unit in figures:
                print(f"{workload:9s} trace={trace} {name:42s} {value:>12.6g} {unit}")


def negative():
    import coreprobe.cli as cli

    original = cli.min_core_size
    injected = []

    def wrong_once(*args, **kwargs):
        result = original(*args, **kwargs)
        if not injected:
            injected.append(result.q)
            return dataclasses.replace(result, q=result.q - 1)
        return result

    cli.min_core_size = wrong_once
    try:
        attempted, failures, _, extra = run.run_untraced(cli.main, "design", seed=7, seconds=0)
    finally:
        cli.min_core_size = original
    assert injected, "no size query ran"
    assert len(failures) == 1 and extra["error_rate"] > 0, failures
    print(f"negative: q - 1 injected once; failed 1 of {attempted}: {failures[0]}")
    try:
        wl.parse_record('{\n  "z_score": NaN\n}\n')
    except wl.CheckError as exc:
        print(f"negative: NaN record rejected ({exc})")
    else:
        raise AssertionError("NaN record accepted")


def bare():
    bare_root = run.OUT / "bare"
    shutil.rmtree(bare_root, ignore_errors=True)
    shutil.copytree(HERE, bare_root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare_root)
    try:
        proc = benchmark(bare_root, "design", 0)
    finally:
        shutil.rmtree(bare_root)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"bare: exit {proc.returncode}: {proc.stderr.strip()}")


if __name__ == "__main__":
    run.load_program()
    smoke()
    negative()
    bare()
    print("selftest passed")
