"""Tests for the command-line surface: parsing, formats, exit codes."""

import decimal
import gc
import io
import json
import math
import time
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import click
import numpy as np
import pytest
from click.core import ParameterSource
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coreprobe import (
    AnalyticComparison, MissProbability, TrialReport, churn_ratio, miss_probability,
    min_core_size, replaced_count,
)
from coreprobe.cli import (
    MAX_SWEEP_POINTS, _Command, _csv_cell, _emit_json, _fmt_prob, _rational, _Table, main,
    parse_ratio,
)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def canonical_json(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestParseRatio:
    def test_percent_and_fraction_forms_are_exact(self):
        assert parse_ratio("30%") == Fraction(3, 10)
        assert parse_ratio("99.9%") == Fraction(999, 1000)
        assert parse_ratio("0.3") == Fraction(3, 10)
        assert parse_ratio("1e-3") == Fraction(1, 1000)
        assert parse_ratio("1/3") == Fraction(1, 3)

    def test_static_token_only_where_allowed(self):
        assert parse_ratio("static", allow_static=True) == 0
        with pytest.raises(Exception):
            parse_ratio("static")

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            parse_ratio("12x%")


class TestProb:
    def test_exact_rational_in_text_output(self, runner):
        result = invoke(runner, "prob", "--n", "5", "--q", "1", "--C", "static")
        assert result.exit_code == 0
        assert "alpha = 0" in result.output
        assert "epsilon = 4/5 (~0.8)" in result.output
        assert "p = 1/5 (~0.2)" in result.output

    def test_long_rationals_fall_back_to_decimal(self, runner):
        result = invoke(runner, "prob", "--n", "100", "--q", "12", "--alpha", "30")
        assert result.exit_code == 0
        line = next(l for l in result.output.splitlines() if l.startswith("epsilon"))
        assert "/" not in line

    def test_json_is_canonical_and_exact_mode_carries_rational(self, runner):
        result = invoke(runner, "prob", "--n", "6", "--q", "2", "--alpha", "3", "--json")
        assert result.exit_code == 0
        assert canonical_json(result.output) == result.output
        record = json.loads(result.output)
        assert record["mode"] == "exact"
        assert record["epsilon_rational"] == "17/25"
        assert record["epsilon"] == 0.68
        assert record["p"] == 0.32  # float(1 - 17/25), not 1.0 - 0.68
        assert record["alpha"] == 3

    def test_rational_beyond_the_int_string_limit(self, runner):
        # Terms over Python's 4300-digit int-to-str limit are still written exactly.
        result = invoke(runner, "prob", "--n", "200000", "--q", "1145", "--C", "30%",
                        "--mode", "exact", "--json")
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        num, den = (int(decimal.Decimal(t)) for t in record["epsilon_rational"].split("/"))
        assert len(record["epsilon_rational"]) > 2 * 4300
        assert Fraction(num, den) == miss_probability(200_000, 60_000, 1145, "exact").epsilon
        assert float(Fraction(num, den)) == record["epsilon"]

    def test_json_logspace_carries_log_epsilon(self, runner):
        result = invoke(
            runner, "prob", "--n", "5000", "--q", "10", "--alpha", "500", "--json"
        )
        record = json.loads(result.output)
        assert record["mode"] == "logspace"
        assert "epsilon_rational" not in record
        assert record["log_epsilon"] < 0

    def test_json_logspace_zero_has_null_log_epsilon(self, runner):
        # 2q > n with nothing replaced: every probe set meets the core, so
        # eps = 0 and ln(eps) = -inf, which strict JSON carries as null.
        args = ["prob", "--n", "3000", "--alpha", "0", "--q", "1600", "--json"]

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for mode in ("logspace", "exact"):
            result = invoke(runner, *args, "--mode", mode)
            assert result.exit_code == 0, result.output
            record = json.loads(result.output, parse_constant=reject)
            assert record["epsilon"] == 0.0 and record["p"] == 1.0
            assert canonical_json(result.output) == result.output
        assert record["epsilon_rational"] == "0"
        logspace = json.loads(invoke(runner, *args, "--mode", "logspace").output)
        assert logspace["log_epsilon"] is None

    def test_text_below_the_double_range_is_rendered_from_the_log(self, runner):
        # eps underflows a double here; the text form reads it off ln(eps),
        # to the six digits the exact rational gives, and --json keeps 0.0.
        args = ["prob", "--n", "10000", "--q", "3164", "--alpha", "3000"]
        text = invoke(runner, *args).output
        assert "epsilon ~ 6.44777e-401 (ln epsilon = -921.473)" in text
        exact = miss_probability(10_000, 3000, 3164, "exact").epsilon
        deep = decimal.Context(prec=6, Emin=decimal.MIN_EMIN)
        assert str(deep.divide(exact.numerator, exact.denominator)) == "6.44777E-401"
        record = json.loads(invoke(runner, *args, "--json").output)
        assert record["epsilon"] == 0.0 and record["p"] == 1.0
        assert record["log_epsilon"] == pytest.approx(-921.4728880364212, abs=1e-9)

    def test_churn_form_matches_ceiling_conversion(self, runner):
        # --c/--delta goes through C = 1-(1-c)^delta, alpha = ceil(C*n).
        result = invoke(
            runner, "prob", "--n", "1000", "--q", "79",
            "--c", "0.1%", "--delta", "105", "--json",
        )
        record = json.loads(result.output)
        assert record["alpha"] == 100
        want = invoke(
            runner, "prob", "--n", "1000", "--q", "79", "--alpha", "100", "--json"
        )
        assert json.loads(want.output)["epsilon"] == record["epsilon"]

    def test_requires_exactly_one_churn_form(self, runner):
        result = invoke(
            runner, "prob", "--n", "10", "--q", "2", "--alpha", "1", "--C", "10%"
        )
        assert result.exit_code == 2
        result = invoke(runner, "prob", "--n", "10", "--q", "2")
        assert result.exit_code == 2

    def test_domain_errors_exit_2(self, runner):
        assert invoke(
            runner, "prob", "--n", "10", "--q", "11", "--alpha", "0"
        ).exit_code == 2
        assert invoke(
            runner, "prob", "--n", "10", "--q", "2", "--C", "12x%"
        ).exit_code == 2
        assert invoke(
            runner, "prob", "--n", "10", "--q", "2", "--c", "1%"
        ).exit_code == 2
        assert invoke(
            runner, "prob", "--n", "0", "--q", "0", "--alpha", "0"
        ).exit_code == 2


class TestInProcess:
    def test_redirected_streams_are_released(self):
        # An in-process call must not keep the streams it printed to
        # alive, or every call leaks its output.
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            main.main(["prob", "--n", "5", "--q", "1", "--C", "static"],
                      standalone_mode=False)
            with pytest.raises(SystemExit):
                main.main(["prob", "--n", "10", "--q", "11", "--alpha", "0"],
                          standalone_mode=False)
        assert "epsilon = 4/5" in out.getvalue()
        assert "error:" in err.getvalue()
        refs = weakref.ref(out), weakref.ref(err)
        del out, err
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    @pytest.mark.parametrize("args", [["--help"], ["simulate", "--help"]])
    def test_help_stream_is_released(self, args):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main.main(args, standalone_mode=False) == 0
        assert "Usage:" in out.getvalue()
        ref = weakref.ref(out)
        del out
        gc.collect()
        assert ref() is None


class TestSize:
    def test_prints_answer_with_witness_pair(self, runner):
        result = invoke(
            runner, "size", "--n", "1000", "--p", "99%", "--C", "30%"
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "q = 79"
        assert lines[1].startswith("epsilon(79) = ")
        assert lines[2].startswith("epsilon(78) = ")

    def test_witnesses_beyond_the_int_string_limit(self, runner):
        result = invoke(runner, "size", "--n", "200000", "--p", "99%", "--C", "30%",
                        "--mode", "exact")
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            "q = 1145", "epsilon(1145) = 0.00998111", "epsilon(1144) = 0.0100619",
        ]

    def test_target_below_the_float_range(self, runner):
        # Logspace floats underflow to 0.0 below 10^-323, so ln eps must
        # decide: comparing the floats answered q = 2888.
        result = invoke(runner, "size", "--n", "10000", "--alpha", "3000",
                        "--epsilon", "1e-400", "--json")
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["q"] == 3164
        target = Fraction(1, 10**400)
        assert miss_probability(10000, 3000, 3164, "exact").epsilon <= target
        assert miss_probability(10000, 3000, 3163, "exact").epsilon > target

    def test_epsilon_and_p_are_equivalent(self, runner):
        via_p = invoke(runner, "size", "--n", "200", "--p", "99%", "--C", "10%", "--json")
        via_eps = invoke(
            runner, "size", "--n", "200", "--epsilon", "1%", "--C", "10%", "--json"
        )
        assert via_p.output == via_eps.output

    def test_requires_exactly_one_target(self, runner):
        assert invoke(
            runner, "size", "--n", "100", "--C", "10%"
        ).exit_code == 2
        assert invoke(
            runner, "size", "--n", "100", "--p", "99%", "--epsilon", "1%", "--C", "10%"
        ).exit_code == 2

    def test_infeasible_exits_3(self, runner):
        result = invoke(
            runner, "size", "--n", "10", "--alpha", "10", "--epsilon", "1%"
        )
        assert result.exit_code == 3
        assert "infeasible" in result.output


class TestLifetime:
    def test_churn_budget_form(self, runner):
        result = invoke(runner, "lifetime", "--c", "0.1%", "--C", "10%")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "delta = 105"
        assert lines[1].startswith("C(105) = 0.0997228")
        assert lines[2].startswith("C(106) = ")

    def test_churn_budget_form_json(self, runner):
        result = invoke(runner, "lifetime", "--c", "0.1%", "--C", "30%", "--json")
        record = json.loads(result.output)
        assert record["delta"] == 356
        assert record["ratio"] <= 0.3 < record["ratio_next"]
        assert canonical_json(result.output) == result.output

    def test_miss_target_form(self, runner):
        result = invoke(
            runner, "lifetime", "--c", "0.1%", "--n", "1000", "--q", "79",
            "--epsilon", "1%", "--json",
        )
        record = json.loads(result.output)
        assert record["delta"] == 360
        assert record["capped"] is False
        assert record["epsilon"] <= 0.01 < record["epsilon_next"]

    def test_capped_form_mentions_horizon(self, runner):
        result = invoke(
            runner, "lifetime", "--c", "1%", "--n", "50", "--q", "50",
            "--epsilon", "50%", "--horizon", "100",
        )
        assert result.exit_code == 0
        assert "delta = 100" in result.output
        assert "capped" in result.output

    def test_forms_are_mutually_exclusive(self, runner):
        assert invoke(
            runner, "lifetime", "--c", "1%", "--C", "10%", "--n", "100"
        ).exit_code == 2
        assert invoke(runner, "lifetime", "--c", "1%").exit_code == 2
        result = invoke(
            runner, "lifetime", "--c", "0.1%", "--C", "30%", "--horizon", "100"
        )
        assert result.exit_code == 2  # --horizon caps the miss-target form only
        assert "--horizon" in result.output
        result = invoke(
            runner, "lifetime", "--c", "0.1%", "--C", "30%", "--mode", "exact"
        )
        assert result.exit_code == 2  # so does --mode
        assert "--mode" in result.output
        assert invoke(
            runner, "lifetime", "--c", "1%", "--n", "100", "--q", "5"
        ).exit_code == 2  # missing target

    def test_infeasible_exits_3(self, runner):
        result = invoke(
            runner, "lifetime", "--c", "50%", "--n", "10", "--q", "1",
            "--epsilon", "0.1%",
        )
        assert result.exit_code == 3


class TestChurn:
    def test_text_and_json(self, runner):
        result = invoke(runner, "churn", "--C", "10%", "--delta", "105")
        assert result.exit_code == 0
        assert result.output == "c = 0.00100293\n"
        as_json = invoke(runner, "churn", "--C", "10%", "--delta", "105", "--json")
        record = json.loads(as_json.output)
        assert record["C"] == 0.1
        assert record["delta"] == 105
        assert churn_ratio(record["c"], 105) == pytest.approx(0.1, rel=1e-12)

    def test_domain_errors_exit_2(self, runner):
        assert invoke(runner, "churn", "--C", "0", "--delta", "10").exit_code == 2
        assert invoke(runner, "churn", "--C", "10%", "--delta", "0").exit_code == 2


class TestTable:
    def test_csv_header_and_single_cell_matches_size(self, runner):
        result = invoke(
            runner, "table", "--n", "1000", "--p", "99%", "--C", "30%", "--csv"
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,p,C,q,epsilon"
        assert len(lines) == 2
        n, p, c, q, eps = lines[1].split(",")
        assert (n, p, c, q) == ("1000", "99%", "30%", "79")
        want = min_core_size(1000, 300, Fraction(1, 100))
        assert float(eps) == float(want.epsilon)
        assert eps == format(float(want.epsilon), ".17g")

    def test_grid_covers_cartesian_product_in_order(self, runner):
        result = invoke(
            runner, "table", "--n", "100,200", "--p", "99%",
            "--C", "static,10%", "--csv",
        )
        lines = result.output.splitlines()
        assert len(lines) == 5
        combos = [tuple(l.split(",")[:3]) for l in lines[1:]]
        assert combos == [
            ("100", "99%", "static"), ("100", "99%", "10%"),
            ("200", "99%", "static"), ("200", "99%", "10%"),
        ]

    def test_json_matches_csv_content(self, runner):
        args = ["table", "--n", "100", "--p", "99%", "--C", "static,10%"]
        csv_out = invoke(runner, *args, "--csv").output.splitlines()[1:]
        records = json.loads(invoke(runner, *args, "--json").output)
        assert [(str(r["n"]), r["p"], r["C"], str(r["q"])) for r in records] == [
            tuple(l.split(",")[:4]) for l in csv_out
        ]

    def test_csv_and_json_flags_conflict(self, runner):
        assert invoke(
            runner, "table", "--n", "100", "--csv", "--json"
        ).exit_code == 2

    def test_empty_list_exits_2(self, runner):
        result = invoke(runner, "table", "--n", ",")
        assert result.exit_code == 2
        assert "empty --n list" in result.output

    def test_text_mode_has_aligned_header(self, runner):
        result = invoke(runner, "table", "--n", "100", "--p", "99%", "--C", "static")
        assert result.exit_code == 0, result.output
        header, row = result.output.splitlines()
        assert header == f"{'n':>8} {'p':>8} {'C':>8} {'q':>8}  epsilon"
        want = min_core_size(100, 0, Fraction(1, 100))
        assert row == f"{100:>8} {'99%':>8} {'static':>8} {want.q:>8}  {float(want.epsilon):.6g}"


class TestSweep:
    def test_q_sweep_csv_shape_and_values(self, runner):
        result = invoke(
            runner, "sweep", "q", "--n", "40", "--alpha", "10",
            "--start", "1", "--stop", "5",
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "variable,C,alpha,q,epsilon,p"
        assert len(lines) == 6
        row = lines[3].split(",")
        assert row[0] == "3" and row[2] == "10" and row[3] == "3"
        want = float(miss_probability(40, 10, 3).epsilon)
        assert row[4] == format(want, ".17g")
        assert float(row[4]) + float(row[5]) == pytest.approx(1.0, abs=1e-15)

    def test_rational_steps_do_not_drift(self, runner):
        # Sweep points are exact rationals: 0.001 + 2 * 0.002 lands on
        # 0.005 exactly, so the inclusive stop is hit.
        result = invoke(
            runner, "sweep", "c", "--n", "100", "--q", "10", "--delta", "7",
            "--start", "0.001", "--stop", "0.005", "--step", "0.002",
        )
        values = [float(l.split(",")[0]) for l in result.output.splitlines()[1:]]
        assert values == [0.001, 0.003, 0.005]

    def test_delta_sweep_tracks_cumulative_ratio(self, runner):
        result = invoke(
            runner, "sweep", "delta", "--n", "1000", "--q", "79", "--c", "0.1%",
            "--values", "105", "--json",
        )
        (record,) = json.loads(result.output)
        assert record["variable"] == 105
        assert record["C"] == churn_ratio(Fraction(1, 1000), 105)
        assert record["alpha"] == 100

    def test_epsilon_sweep_solves_for_q(self, runner):
        result = invoke(
            runner, "sweep", "epsilon", "--n", "200", "--C", "30%",
            "--values", "10%,1%", "--json",
        )
        first, second = json.loads(result.output)
        assert first["q"] < second["q"]

    def test_static_token_in_capital_c_sweep(self, runner):
        result = invoke(
            runner, "sweep", "C", "--n", "100", "--q", "10",
            "--values", "static,10%",
        )
        first = result.output.splitlines()[1].split(",")
        assert first[0] == "0" and first[2] == "0"

    @pytest.mark.parametrize(
        "args",
        [
            ("sweep", "q", "--n", "40", "--alpha", "10", "--start", "5", "--stop", "1"),
            ("sweep", "q", "--n", "40", "--alpha", "10", "--start", "1", "--stop", "5",
             "--step", "0"),
            ("sweep", "q", "--n", "40", "--alpha", "10", "--values", "1,2", "--start", "1"),
            ("sweep", "q", "--n", "40", "--alpha", "10", "--start", "1"),
            ("sweep", "q", "--n", "40", "--alpha", "10", "--values", "2.5"),
            ("sweep", "q", "--n", "40", "--alpha", "10", "--values", "3", "--q", "5"),
            ("sweep", "delta", "--n", "40", "--q", "5", "--values", "3"),
            ("sweep", "c", "--n", "40", "--q", "5", "--values", "1%"),
            ("sweep", "C", "--n", "40", "--q", "5", "--values", "10%", "--c", "1%"),
            ("sweep", "epsilon", "--n", "40", "--C", "10%", "--values", "1%", "--q", "5"),
            ("sweep", "q", "--alpha", "10", "--values", "3"),
            ("sweep", "delta", "--n", "40", "--q", "5", "--c", "1%", "--delta", "3",
             "--values", "3"),
            ("sweep", "C", "--n", "40", "--values", "10%"),
        ],
    )
    def test_usage_errors_exit_2(self, runner, args):
        assert invoke(runner, *args).exit_code == 2

    def test_ratio_range_without_step_exits_2(self, runner):
        result = invoke(
            runner, "sweep", "C", "--n", "1000", "--q", "79",
            "--start", "10%", "--stop", "20%",
        )
        assert result.exit_code == 2
        assert "C sweep needs an explicit --step" in result.output

    def test_oversized_range_exits_2_before_building_points(self, runner):
        # 10^9 + 1 points: the count is checked before any point exists,
        # so the call fails fast and its peak allocation stays far below
        # the size of even a MAX_SWEEP_POINTS-long list.
        tracemalloc.start()
        try:
            started = time.perf_counter()
            result = invoke(
                runner, "sweep", "c", "--n", "100", "--q", "10", "--delta", "3",
                "--start", "0", "--stop", "1", "--step", "1e-9", "--json",
            )
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 2
        assert "1000000001 points" in result.output
        assert elapsed < 1.0
        assert peak < 8 * MAX_SWEEP_POINTS // 10

    def test_range_at_point_limit_is_accepted(self, monkeypatch, runner):
        monkeypatch.setattr("coreprobe.cli.MAX_SWEEP_POINTS", 3)
        base = ("sweep", "q", "--n", "40", "--alpha", "10", "--start", "1")
        assert invoke(runner, *base, "--stop", "3").exit_code == 0
        assert invoke(runner, *base, "--stop", "4").exit_code == 2

    # Each point fills the flag of its name and goes through the same
    # churn-form resolver as prob and size, so every row must equal the
    # single-scenario record: prob for evaluated sweeps, size for epsilon.
    @pytest.mark.parametrize(
        "variable,values,fixed",
        [
            ("q", "70,79", ["--n", "1000", "--C", "30%"]),
            ("q", "3,5", ["--n", "40", "--alpha", "10"]),
            ("q", "10,30", ["--n", "5000", "--c", "0.1%", "--delta", "50"]),
            ("delta", "0,105,356", ["--n", "1000", "--q", "79", "--c", "0.1%"]),
            ("c", "0.1%,1/300", ["--n", "3000", "--q", "100", "--delta", "10"]),
            ("C", "static,7%,1/3", ["--n", "100", "--q", "10"]),
            ("epsilon", "10%,1%", ["--n", "200", "--C", "30%"]),
            ("epsilon", "1%,0.1%", ["--n", "1000", "--alpha", "300"]),
            ("epsilon", "1%", ["--n", "10000", "--c", "0.1%", "--delta", "105"]),
        ],
    )
    def test_rows_equal_single_scenario_records(self, runner, variable, values, fixed):
        result = invoke(runner, "sweep", variable, "--values", values, *fixed, "--json")
        assert result.exit_code == 0
        tokens = values.split(",")
        rows = json.loads(result.output)
        assert len(rows) == len(tokens)
        for token, row in zip(tokens, rows):
            if variable == "epsilon":
                single = invoke(runner, "size", "--epsilon", token, *fixed, "--json")
                record = json.loads(single.output)
                assert (row["q"], row["epsilon"]) == (record["q"], record["epsilon"])
            else:
                single = invoke(runner, "prob", f"--{variable}", token, *fixed, "--json")
                record = json.loads(single.output)
                assert (row["epsilon"], row["alpha"], row["C"]) == (
                    record["epsilon"], record["alpha"], record["C"]
                )


class TestSimulate:
    def test_urn_inferred_from_alpha_and_matches_exact(self, runner):
        result = invoke(
            runner, "simulate", "--n", "6", "--q", "2", "--alpha", "3",
            "--trials", "50000", "--json",
        )
        record = json.loads(result.output)
        assert record["model"] == "urn"
        assert record["epsilon_analytic"] == 0.68
        assert record["ci_low"] <= 0.68 <= record["ci_high"]
        # Survivors of the 2 core slots: mean q (n - alpha) / n = 1 and
        # variance alpha (q/n) (1 - q/n) (n - alpha)/(n - 1) = 0.4.
        se = math.sqrt(0.4 / record["trials"])
        assert abs(record["survivor_mean"] - 1.0) <= 3 * se
        assert record["survivor_stddev"] == pytest.approx(math.sqrt(0.4), rel=0.02)
        assert abs(record["z_score"]) < 3
        assert record["flagged"] is False
        assert canonical_json(result.output) == result.output

    def test_churn_inferred_from_rate_and_delta(self, runner):
        result = invoke(
            runner, "simulate", "--n", "100", "--q", "10", "--c", "1%",
            "--delta", "5", "--trials", "10000", "--json",
        )
        record = json.loads(result.output)
        assert record["model"] == "churn_process"
        assert record["survivor_mean"] is not None

    def test_static_ratio_gives_alpha_zero(self, runner):
        result = invoke(
            runner, "simulate", "--n", "20", "--q", "4", "--C", "static",
            "--trials", "2000", "--json",
        )
        assert json.loads(result.output)["alpha"] == 0

    def test_churn_alpha_comes_from_cumulative_ratio(self, runner):
        # A churn record echoes the scenario's alpha = ceil(C*n), as prob
        # does, though its run is tested against the process itself.
        args = ["--n", "100", "--q", "10", "--c", "2%", "--delta", "9", "--json"]
        record = json.loads(invoke(runner, "simulate", *args, "--trials", "100").output)
        alpha = replaced_count(100, churn_ratio(Fraction(1, 50), 9))
        assert record["alpha"] == json.loads(invoke(runner, "prob", *args).output)["alpha"]
        assert record["alpha"] == alpha == 17

    def test_deterministic_across_invocations_and_threads(self, runner):
        args = ["simulate", "--n", "50", "--q", "10", "--c", "1%", "--delta", "5",
                "--trials", "40000", "--seed", "7", "--json"]
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        threaded = invoke(runner, *args, "--threads", "3")
        assert first.output == second.output == threaded.output
        reseeded = invoke(runner, *args[:-3], "8", "--json")
        assert reseeded.output != first.output

    def test_check_flag_exits_4_on_model_gap(self, runner):
        # ceil(c*n) = 1 replacement per unit is twice the rate behind the
        # cumulative alpha = 5 that prob reports: the process misses with
        # 0.789959, prob's urn value is 0.780198, about 7.4 standard
        # errors apart at 10^5 trials.  simulate tests the run against
        # the process, so --check passes; against prob's value it fails.
        churn = ["--n", "100", "--q", "5", "--c", "0.005", "--delta", "10"]
        args = ["simulate", *churn, "--trials", "100000"]
        record = json.loads(invoke(runner, *args, "--json").output)
        urn = json.loads(invoke(runner, "prob", *churn, "--json").output)
        assert record["alpha"] == urn["alpha"] == 5
        assert record["epsilon_analytic"] == pytest.approx(0.789959, abs=5e-7)
        assert urn["epsilon"] == pytest.approx(0.780198, abs=5e-7)
        se = (urn["epsilon"] * (1 - urn["epsilon"]) / record["trials"]) ** 0.5
        assert (record["epsilon_hat"] - urn["epsilon"]) / se > 3
        assert record["flagged"] is False
        checked = invoke(runner, *args, "--check")
        assert checked.exit_code == 0
        assert "z-check failed" not in checked.output

    def test_check_flag_passes_clean_runs(self, runner):
        args = ["simulate", "--n", "6", "--q", "2", "--alpha", "3",
                "--trials", "50000", "--check"]
        result = invoke(runner, *args)
        assert result.exit_code == 0
        assert "core survivors: mean = " in result.output

    def test_check_flag_exits_4_on_a_finite_z_beyond_3(self, runner, monkeypatch):
        def far(config, threads):
            report = TrialReport(
                trials=100, misses=50, epsilon_hat=0.5, ci_low=0.4, ci_high=0.6,
                survivor_mean=1.0, survivor_stddev=0.5,
            )
            return AnalyticComparison(report, epsilon_analytic=0.25, z_score=5.0,
                                      flagged=True)

        monkeypatch.setattr("coreprobe.cli.compare_with_analytic", far)
        result = invoke(
            runner, "simulate", "--n", "10", "--q", "2", "--alpha", "1",
            "--trials", "100", "--check",
        )
        assert result.exit_code == 4
        assert "z-check failed: |z| = 5 > 3" in result.stderr

    def test_undefined_z_is_null_in_strict_json(self, runner, monkeypatch):
        # After two single replacements the process can still miss, and
        # its exact value says so: z is defined.
        churn = ["simulate", "--n", "10", "--q", "6", "--c", "0.05",
                 "--delta", "2", "--trials", "200000", "--json"]
        record = json.loads(invoke(runner, *churn).output)
        assert record["epsilon_analytic"] > 0 and record["z_score"] is not None
        # An analytic value of 0 where the estimate is not has standard
        # error 0, so z is undefined: null in JSON, flagged, exit 4
        # under --check.
        monkeypatch.setattr(
            "coreprobe.simulator.miss_probability",
            lambda n, alpha, q: MissProbability(Fraction(0), "exact"),
        )
        args = ["simulate", "--n", "10", "--q", "6", "--alpha", "2",
                "--trials", "200000"]
        result = invoke(runner, *args, "--json")
        assert result.exit_code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        record = json.loads(result.output, parse_constant=reject)
        assert record["epsilon_analytic"] == 0.0 and record["misses"] > 0
        assert record["z_score"] is None
        assert record["flagged"] is True
        assert canonical_json(result.output) == result.output
        text = invoke(runner, *args)
        assert text.exit_code == 0
        assert "z = undefined" in text.output
        checked = invoke(runner, *args, "--check")
        assert checked.exit_code == 4
        assert "z-check failed" in checked.output

    def test_memory_error_exits_2(self, runner, monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 23.8 GiB")

        monkeypatch.setattr("coreprobe.cli.compare_with_analytic", exhaust)
        result = invoke(
            runner, "simulate", "--n", "10", "--q", "2", "--alpha", "1",
            "--trials", "10",
        )
        assert result.exit_code == 2
        assert "error: out of memory" in result.output

    def test_model_conflicts_exit_2(self, runner):
        assert invoke(
            runner, "simulate", "--n", "10", "--q", "2", "--alpha", "1",
            "--c", "1%", "--delta", "3",
        ).exit_code == 2
        assert invoke(
            runner, "simulate", "--n", "10", "--q", "2", "--alpha", "1",
            "--C", "10%",
        ).exit_code == 2
        assert invoke(runner, "simulate", "--n", "10", "--q", "2").exit_code == 2

    def test_population_beyond_the_hypergeometric_bound_exits_2(self, runner):
        result = invoke(
            runner, "simulate", "--n", str(10**9), "--q", "2", "--alpha", "1",
            "--trials", "10",
        )
        assert result.exit_code == 2
        assert "10^9" in result.output

    def test_fractional_churn_accepted_for_churn_model_only(self, runner):
        ok = invoke(
            runner, "simulate", "--n", "20", "--q", "4", "--c", "2%",
            "--delta", "5", "--trials", "1000", "--fractional-churn",
        )
        assert ok.exit_code == 0
        for form in (("--alpha", "2"), ("--C", "10%")):
            bad = invoke(
                runner, "simulate", "--n", "20", "--q", "4", *form,
                "--trials", "1000", "--fractional-churn",
            )
            assert bad.exit_code == 2
            assert "--fractional-churn" in bad.output


class TestExitCodes:
    # Library errors raised inside any command map to the documented
    # codes, with the message on stderr and nothing on stdout.
    @pytest.mark.parametrize(
        "args",
        [
            ("prob", "--n", "10", "--q", "11", "--alpha", "1"),
            ("size", "--n", "0", "--p", "99%", "--C", "10%"),
            ("lifetime", "--c", "2", "--C", "30%"),
            ("churn", "--C", "100%", "--delta", "10"),
            ("table", "--n", "0"),
            ("sweep", "q", "--n", "10", "--alpha", "1", "--values", "11"),
            ("simulate", "--n", "10", "--q", "2", "--alpha", "1", "--trials", "0"),
        ],
    )
    def test_domain_errors_exit_2(self, runner, args):
        result = invoke(runner, *args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ("size", "--n", "10", "--p", "99.9%", "--C", "100%"),
            ("lifetime", "--c", "0.1%", "--n", "1000", "--q", "10", "--p", "99.9%"),
            ("table", "--n", "10", "--C", "100%"),
            ("sweep", "epsilon", "--n", "10", "--C", "100%", "--values", "1%"),
        ],
    )
    def test_infeasible_targets_exit_3(self, runner, args):
        result = invoke(runner, *args)
        assert result.exit_code == 3
        assert result.stderr.startswith("infeasible: ")
        assert result.stdout == ""


class TestExactTextMode:
    # Exact-mode values are Fractions, which take no format spec before
    # Python 3.12: every text form must still print them and exit 0.
    @pytest.mark.parametrize(
        "args",
        [
            ("prob", "--n", "1000", "--q", "79", "--C", "30%"),
            ("size", "--n", "1000", "--p", "99%", "--C", "30%"),
            ("lifetime", "--c", "0.1%", "--C", "30%"),
            ("lifetime", "--c", "0.1%", "--n", "1000", "--q", "100", "--p", "99%"),
            ("churn", "--C", "30%", "--delta", "100"),
            ("table", "--n", "1000,2000", "--p", "99%", "--C", "static,30%"),
            ("sweep", "q", "--start", "70", "--stop", "72", "--n", "1000", "--C", "30%"),
            ("sweep", "C", "--values", "static,1/3", "--n", "1000", "--q", "79"),
            ("simulate", "--n", "1000", "--q", "79", "--alpha", "300", "--trials", "2000"),
        ],
    )
    def test_exits_0(self, runner, args):
        result = invoke(runner, *args)
        assert result.exit_code == 0, result.output
        assert result.output.strip()


class TestOutputRules:
    @pytest.mark.parametrize(
        "value", [Fraction(1, 3), Fraction(17, 25), Fraction(0), Fraction(1), Fraction(2, 7) ** 90]
    )
    def test_fraction_is_written_as_its_float(self, value, capsys):
        _emit_json({"x": value})
        assert capsys.readouterr().out == '{\n  "x": ' + json.dumps(float(value)) + "\n}\n"
        assert _csv_cell(value) == format(float(value), ".17g")

    def test_other_unknown_types_raise(self):
        with pytest.raises(TypeError):
            _emit_json({"x": np.int64(1)})
        with pytest.raises(TypeError):
            _csv_cell(np.int64(1))

    @pytest.mark.parametrize(
        "value", [Fraction(0), Fraction(1), Fraction(17, 25), Fraction(-3, 7), Fraction(2, 7) ** 90]
    )
    def test_rational_matches_str(self, value):
        assert _rational(value) == str(value)

    def test_rational_has_no_length_limit(self):
        assert _rational(Fraction(10**5000 + 1, 7)) == "1" + "0" * 4999 + "1/7"

    @pytest.mark.parametrize(
        "value, verbatim",
        [
            (Fraction(1, 10**37), True),  # 40 characters
            (Fraction(1, 10**38), False),
            (Fraction(10**40 - 1), True),
            (Fraction(10**40), False),
        ],
    )
    def test_fmt_prob_prints_rationals_up_to_40_characters(self, value, verbatim):
        text = _fmt_prob(value)
        assert text == (f"{value} (~{float(value):.6g})" if verbatim else f"{float(value):.6g}")


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["prob", "size", "lifetime", "churn", "table", "sweep", "simulate"]
    )
    def test_every_subcommand_has_help(self, runner, command):
        result = invoke(runner, command, "--help")
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "command", ["prob", "size", "lifetime", "table", "sweep", "simulate"]
    )
    def test_ceiling_convention_is_documented(self, runner, command):
        result = invoke(runner, command, "--help")
        assert "ceil(C*n)" in result.output

    def test_group_help_documents_exit_codes(self, runner):
        result = invoke(runner, "--help")
        assert "infeasible" in result.output
        assert "z-check" in result.output


# --- table parse ---------------------------------------------------------------

COMMANDS = {"coreprobe": main, **main.commands}
# Sample tokens per parameter type: (mostly valid, invalid).
TYPE_TOKENS = {
    "integer": (["0", "7", "1000", " 5"], ["-3", "ten", ""]),
    "ratio": (["30%", "0.3", "1e-3", "static"], ["x%", "1/0", "-"]),
    "text": (["3,4", "1", "", "-"], []),
}


def _tokens(param):
    if isinstance(param.type, click.Choice):
        return list(param.type.choices), ["bogus", "EXACT"]
    return TYPE_TOKENS[param.type.name]


def _fresh_context(command, **settings_):
    return click.Context(command, info_name=command.name, **settings_)


def _outcome(ctx, rest):
    names = [param.name for param in ctx.command.get_params(ctx)]
    return (rest, ctx.args, ctx.params,
            {name: ctx.get_parameter_source(name) for name in names})


class _Declined(Exception):
    pass


def _decline(self, ctx, args):
    raise _Declined


def _table_parse(command, args, **settings_):
    """The table's outcome on a fresh context, or None when it leaves the
    call to click.  A group is parsed as a command: click.Group only
    splits off the subcommand after this parse."""
    ctx = _fresh_context(command, **settings_)
    with mock.patch.object(click.Command, "parse_args", _decline):
        try:
            rest = _Command.parse_args(command, ctx, list(args))
        except _Declined:
            return None
    return _outcome(ctx, rest)


def _click_parse(command, args):
    """click's own parse of ``args`` on a fresh context, or None on an error."""
    ctx = _fresh_context(command)
    try:
        with redirect_stdout(io.StringIO()):
            rest = click.Command.parse_args(command, ctx, list(args))
    except (click.UsageError, click.exceptions.Exit):
        return None
    return _outcome(ctx, rest)


def _piece(draw, param, valid=True):
    """One parameter's tokens: an option with a value, a flag, or a positional."""
    if isinstance(param, click.Argument):
        return [draw(st.sampled_from(_tokens(param)[0]))]
    opt = draw(st.sampled_from(param.opts))
    if param.is_flag:
        return [opt]
    good, bad = _tokens(param)
    return [opt, draw(st.sampled_from(good if valid or not bad else good + bad))]


@st.composite
def _calls(draw, command):
    """Argument lists: options in any order, repeats, positionals, flags,
    valid and invalid values, and the forms the table declines."""
    params = command.params
    if draw(st.booleans()):
        # Well-formed: every required parameter and some optional ones, once each.
        chosen = [p for p in params if p.required or draw(st.booleans())]
        pieces = [_piece(draw, p) for p in chosen]
    else:
        stray = [["--"], ["--help"], ["--bogus", "1"], ["-n", "5"], ["-"], ["extra"],
                 *map(list, main.commands)]
        pieces = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(["param", "attached", "bare", "stray"]))
            param = draw(st.sampled_from(params)) if params else None
            if kind == "stray" or param is None:
                pieces.append(draw(st.sampled_from(stray)))
            elif kind == "param" or isinstance(param, click.Argument):
                pieces.append(_piece(draw, param, valid=False))
            elif kind == "attached":
                pieces.append(["=".join(_piece(draw, param, valid=False) + ["1"][:param.is_flag])])
            else:
                pieces.append([draw(st.sampled_from(param.opts))])
    pieces = draw(st.permutations(pieces))
    return [token for piece in pieces for token in piece]


class TestTableParse:
    """The table parses a well-formed call exactly as click would, and
    declines everything else, which click then parses itself."""

    @pytest.mark.parametrize("name", list(COMMANDS))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_declines_or_agrees_with_click(self, name, data):
        command = COMMANDS[name]
        args = data.draw(_calls(command))
        table = _table_parse(command, args)
        assert table is None or table == _click_parse(command, args)

    @pytest.mark.parametrize("args", [
        ["size", "--n", "1000", "--p", "99%", "--C", "30%", "--json"],
        ["size", "--json", "--C", "static", "--mode", "exact", "--epsilon", "1e-3", "--n", "7"],
        ["sweep", "--n", "100", "q", "--values", "3,4", "--alpha", "5", "--json"],
        ["sweep", "epsilon", "--values", "1%", "--n", "100", "--C", "static", "--start", "-"],
        ["table"],
        ["simulate", "--n", "1000", "--q", "79", "--alpha", "300", "--trials", "32768",
         "--seed", "12", "--threads", "1", "--fractional-churn", "--check", "--json"],
        ["lifetime", "--c", "0.1%", "--C", "30%"],
        ["churn", "--C", "30%", "--delta", "4"],
    ])
    def test_takes_well_formed_calls(self, args):
        command = main.commands[args[0]]
        table = _table_parse(command, args[1:])
        assert table is not None and table == _click_parse(command, args[1:])

    def test_group_stops_at_the_subcommand(self):
        args = ["size", "--n", "1000", "--help"]
        rest, ctx_args, params, sources = _table_parse(main, args)
        assert rest == ctx_args == args and params == {}
        assert sources == {"help": ParameterSource.DEFAULT}
        assert _table_parse(main, ["--n", "5"]) is None

    def test_defaults_are_cast_once_as_click_casts_them(self):
        _, _, params, sources = _table_parse(main.commands["simulate"], [
            "--n", "10", "--q", "2", "--alpha", "1"])
        assert params["trials"] == 100_000 and params["fractional_churn"] is False
        assert params["cap_c"] is None and params["delta"] is None
        assert sources["n"] == ParameterSource.COMMANDLINE
        assert sources["trials"] == sources["cap_c"] == ParameterSource.DEFAULT
        command = _Command("c", params=[click.Option(["--x"], type=int, default="5")])
        assert _table_parse(command, []) == _click_parse(command, [])
        assert _table_parse(command, [])[2] == {"x": 5}

    @pytest.mark.parametrize("args", [
        pytest.param(["--help"], id="help"),
        pytest.param(["--n=1000", "--p", "99%", "--C", "30%"], id="attached-value"),
        pytest.param(["--", "--n", "1000", "--p", "99%", "--C", "30%"], id="double-dash"),
        pytest.param(["--n", "1000", "--p", "99%", "--C", "30%", "--bogus"], id="unknown"),
        pytest.param(["-n", "1000", "--p", "99%", "--C", "30%"], id="short"),
        pytest.param(["--n", "1", "--n", "1000", "--p", "99%", "--C", "30%"], id="repeated"),
        pytest.param(["--p", "99%", "--C", "30%", "--n"], id="missing-value"),
        pytest.param(["--n", "-5", "--p", "99%", "--C", "30%"], id="option-like-value"),
        pytest.param(["--n", "ten", "--p", "99%", "--C", "30%"], id="bad-parameter"),
        pytest.param(["--p", "99%", "--C", "30%"], id="missing-required"),
        pytest.param(["--n", "1000", "--p", "99%", "--C", "30%", "x"], id="extra-argument"),
    ])
    def test_declined_calls(self, args):
        assert _table_parse(main.commands["size"], args) is None

    def test_declined_positional(self):
        sweep = main.commands["sweep"]
        assert _table_parse(sweep, ["--n", "100", "--values", "3"]) is None
        assert _table_parse(sweep, ["z", "--n", "100", "--values", "3"]) is None
        assert _table_parse(sweep, ["q", "q", "--n", "100", "--values", "3"]) is None

    @pytest.mark.parametrize("settings_", [
        {"resilient_parsing": True},
        {"default_map": {"n": "1000"}},
        {"auto_envvar_prefix": "COREPROBE"},
        {"token_normalize_func": str.lower},
        {"help_option_names": ["-h"]},
    ], ids=lambda s: next(iter(s)))
    def test_declined_contexts(self, settings_):
        size, args = main.commands["size"], ["--n", "1000", "--p", "99%", "--C", "30%"]
        assert _table_parse(size, args) is not None
        assert _table_parse(size, args, **settings_) is None

    def test_no_args_is_help_is_left_to_click(self):
        command = _Command("c", params=[click.Option(["--x"])], no_args_is_help=True)
        assert _table_parse(command, []) is None
        assert _table_parse(command, ["--x", "1"]) is not None

    @pytest.mark.parametrize("param", [
        click.Option(["--x"], nargs=2, type=int),
        click.Option(["--x"], multiple=True),
        click.Option(["--x/--no-x"]),
        click.Option(["--x"], callback=lambda ctx, param, value: value),
        click.Option(["--x"], envvar="X"),
        click.Option(["--x"], count=True),
        click.Option(["--x"], prompt=True),
        click.Option(["--x"], default=lambda: 1),
        click.Option(["--x"], expose_value=False),
        click.Option(["+x"]),
        click.Argument(["x"], nargs=-1),
    ], ids=["nargs", "multiple", "secondary-opts", "callback", "envvar", "count", "prompt",
            "callable-default", "hidden-value", "prefix", "variadic-argument"])
    def test_parameters_only_click_parses_leave_no_table(self, param):
        command = _Command("c", params=[param])
        assert _Table.build(command, _fresh_context(command)) is None

    def test_dispatch_skips_clicks_parse(self, monkeypatch):
        calls = []
        original = click.Command.parse_args
        monkeypatch.setattr(click.Command, "parse_args", lambda self, ctx, args: (
            calls.append(list(args)) or original(self, ctx, args)))
        out = io.StringIO()
        with redirect_stdout(out):
            main.main(["churn", "--C", "30%", "--delta", "10", "--json"], standalone_mode=False)
        assert calls == [] and json.loads(out.getvalue())["delta"] == 10
        with redirect_stdout(out):
            main.main(["churn", "--C=30%", "--delta", "10"], standalone_mode=False)
        assert calls == [["--C=30%", "--delta", "10"]]
