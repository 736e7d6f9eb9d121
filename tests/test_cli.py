"""Tests for the command-line surface: parsing, formats, exit codes."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from coreprobe import churn_ratio, miss_probability, min_core_size
from coreprobe.cli import main, parse_ratio


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

    def test_json_logspace_carries_log_epsilon(self, runner):
        result = invoke(
            runner, "prob", "--n", "5000", "--q", "10", "--alpha", "500", "--json"
        )
        record = json.loads(result.output)
        assert record["mode"] == "logspace"
        assert "epsilon_rational" not in record
        assert record["log_epsilon"] < 0

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

    def test_text_mode_has_aligned_header(self, runner):
        result = invoke(runner, "table", "--n", "100", "--p", "99%", "--C", "static")
        header = result.output.splitlines()[0].split()
        assert header == ["n", "p", "C", "q", "epsilon"]


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
        assert record["survivor_mean"] is None
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
        # ceil(c*n) = 1 replacement per unit vs a cumulative alpha of 5:
        # a real gap the z-test must flag.
        args = ["simulate", "--n", "100", "--q", "5", "--c", "0.005",
                "--delta", "10", "--trials", "20000"]
        assert invoke(runner, *args).exit_code == 0
        flagged = invoke(runner, *args, "--check")
        assert flagged.exit_code == 4
        assert "z-check failed" in flagged.output

    def test_check_flag_passes_clean_runs(self, runner):
        args = ["simulate", "--n", "6", "--q", "2", "--alpha", "3",
                "--trials", "50000", "--check"]
        assert invoke(runner, *args).exit_code == 0

    def test_undefined_z_is_null_in_strict_json(self, runner):
        # Two single replacements leave epsilon_analytic = 0 while the
        # process can still miss, so the analytic standard error is 0
        # and z is undefined: null in JSON, flagged, exit 4 under --check.
        args = ["simulate", "--n", "10", "--q", "6", "--c", "0.05",
                "--delta", "2", "--trials", "200000"]
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
            runner, "simulate", "--n", "10", "--q", "2", "--model",
            "churn_process", "--alpha", "1",
        ).exit_code == 2
        assert invoke(
            runner, "simulate", "--n", "10", "--q", "2", "--alpha", "1",
            "--C", "10%",
        ).exit_code == 2
        assert invoke(runner, "simulate", "--n", "10", "--q", "2").exit_code == 2

    def test_fractional_churn_accepted_for_churn_model_only(self, runner):
        ok = invoke(
            runner, "simulate", "--n", "20", "--q", "4", "--c", "2%",
            "--delta", "5", "--trials", "1000", "--fractional-churn",
        )
        assert ok.exit_code == 0
        bad = invoke(
            runner, "simulate", "--n", "20", "--q", "4", "--alpha", "2",
            "--trials", "1000", "--fractional-churn",
        )
        assert bad.exit_code == 2


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
