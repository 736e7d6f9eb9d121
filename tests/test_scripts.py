"""Tests of ``scripts/churn_curves.py``, run in-process."""

import importlib.util
from pathlib import Path

import pytest

from coreprobe import churn_ratio, delta_for_churn
from coreprobe.cli import parse_ratio

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "churn_curves.py"


def _load():
    spec = importlib.util.spec_from_file_location("churn_curves", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tmp_path, *args):
    out = tmp_path / "curve.csv"
    _load().main([*args, "--points", "3", "--out", str(out)])
    header, *rows = out.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def test_growth_rows_equal_churn_ratio(tmp_path):
    header, rows = _run(
        tmp_path, "--curve", "growth", "--c", "0.001,0.05", "--delta-max", "100"
    )
    assert header == "c,delta,C"
    assert [(float(c), int(d)) for c, d, _ in rows] == [
        (c, d) for c in (0.001, 0.05) for d in (1, 10, 100)
    ]
    for c, delta, ratio in rows:
        assert float(ratio) == churn_ratio(float(c), int(delta))


def test_deadline_rows_equal_delta_for_churn(tmp_path):
    header, rows = _run(
        tmp_path, "--curve", "deadline", "--budgets", "10%,80%", "--c-range", "1e-4,0.1"
    )
    assert header == "c,budget,delta,C_at_delta"
    assert len(rows) == 6
    assert [budget for _, budget, _, _ in rows] == ["10%"] * 3 + ["80%"] * 3
    for c, budget, delta, ratio in rows:
        want = delta_for_churn(float(c), parse_ratio(budget))
        assert int(delta) == want.delta
        assert float(ratio) == float(want.ratio)


def test_ratios_take_the_cli_forms(tmp_path):
    # '0.1%' and '0.001' are the same ratio to the CLI; so they are here.
    assert _run(tmp_path, "--c", "0.1%", "--delta-max", "100") == _run(
        tmp_path, "--c", "0.001", "--delta-max", "100"
    )
    header, rows = _run(
        tmp_path, "--curve", "deadline", "--budgets", "30%", "--c-range", "0.01%,1%"
    )
    assert [float(c) for c, _, _, _ in rows] == [1e-4, 1e-3, 1e-2]


@pytest.mark.parametrize(
    "args",
    [
        ["--points", "0"],
        ["--points", "-3"],
        ["--delta-max", "0"],
        ["--c", "1"],
        ["--c", "-0.1"],
        ["--c", "0.1x"],
        ["--curve", "deadline", "--budgets", "100%"],
        ["--curve", "deadline", "--budgets", "0"],
        ["--curve", "deadline", "--budgets", "ten"],
        ["--curve", "deadline", "--c-range", "0,0.1"],
        ["--curve", "deadline", "--c-range", "0.1"],
    ],
)
def test_bad_values_are_usage_errors(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        _load().main([*args, "--out", str(tmp_path / "curve.csv")])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()
