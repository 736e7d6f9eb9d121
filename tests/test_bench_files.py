"""The checked-in perf records ``BENCH_*.json`` keep the shape readers rely on.

A speedup counts only when its record shows parent and change runs side
by side on the same scenarios, with the parent commit, the method and
the claimed metric, so a record missing any of these fails here.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_a_record_is_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_record_has_provenance_and_both_sides(path):
    record = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject)
    for key in ("parent_commit", "method", "claim"):
        assert record.get(key), key
    workloads = record["workloads"]
    assert record["claim"]["workload"] in workloads
    for name, workload in workloads.items():
        assert workload["runs"], name
        for run in workload["runs"]:
            assert "parent" in run and "change" in run, (name, run.get("seed"))
