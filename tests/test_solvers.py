"""Tests for the inverse solvers: core size, probe period, churn rate."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreprobe import (
    CoreSizeResult,
    InfeasibleError,
    LifetimeResult,
    MaxDeltaResult,
    churn_rate_for,
    churn_ratio,
    delta_for_churn,
    max_delta,
    min_core_size,
    miss_probability,
    replaced_count,
)

from conftest import GRID_N


class TestTuningTarget:
    # The miss target epsilon_max must lie in the open interval (0, 1);
    # min_core_size and max_delta check it the same way.
    def test_accepts_interior_values(self):
        assert min_core_size(100, 10, Fraction(1, 100)).epsilon <= Fraction(1, 100)
        assert min_core_size(100, 10, 0.5).epsilon <= 0.5
        assert max_delta(1000, 79, 1e-3, Fraction(1, 100)).epsilon <= Fraction(1, 100)
        assert max_delta(1000, 79, 1e-3, 0.5).epsilon <= 0.5

    @pytest.mark.parametrize("bad", [0, 1, Fraction(0), Fraction(1), -0.1, 1.5])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ValueError):
            min_core_size(100, 10, bad)
        with pytest.raises(ValueError):
            max_delta(1000, 79, 1e-3, bad)


class TestMinCoreSize:
    # min_core_size must agree with a linear scan over q using the exact
    # rational miss probability, for every (n, alpha) and several targets.
    @pytest.mark.parametrize(
        "target", [Fraction(1, 4), Fraction(1, 10), Fraction(1, 100)]
    )
    def test_matches_linear_scan_oracle(self, exact_grid, target):
        for n in range(1, GRID_N + 1):
            for alpha in range(n):  # alpha = n is infeasible, tested below
                want = min(
                    q for q in range(n + 1) if exact_grid[(n, alpha, q)] <= target
                )
                got = min_core_size(n, alpha, target, mode="exact")
                assert got.q == want, (n, alpha)
                # Witness pair brackets the target.
                assert got.epsilon == exact_grid[(n, alpha, got.q)]
                assert got.epsilon <= target
                assert got.epsilon_prev == exact_grid[(n, alpha, got.q - 1)]
                assert got.epsilon_prev > target

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_infeasible_when_every_node_replaced(self, n):
        # alpha = n leaves no initial node to find: epsilon = 1 for all q.
        with pytest.raises(InfeasibleError):
            min_core_size(n, n, Fraction(1, 2))

    def test_thousand_node_anchor(self):
        got = min_core_size(1000, 300, Fraction(1, 100))
        assert got == CoreSizeResult(
            q=79, epsilon=got.epsilon, epsilon_prev=got.epsilon_prev
        )
        assert float(got.epsilon) == pytest.approx(0.009785410858742807, rel=1e-12)
        assert float(got.epsilon_prev) == pytest.approx(0.011031275447090028, rel=1e-12)
        assert got.epsilon <= Fraction(1, 100) < got.epsilon_prev

    def test_monotone_in_alpha(self):
        # More replacement can only require a larger core.
        sizes = [
            min_core_size(60, alpha, Fraction(1, 10), mode="exact").q
            for alpha in range(60)
        ]
        assert sizes == sorted(sizes)

    def test_monotone_in_target(self):
        # Tightening the target can only grow the answer.
        targets = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 10),
                   Fraction(1, 100), Fraction(1, 1000)]
        sizes = [min_core_size(60, 30, t, mode="exact").q for t in targets]
        assert sizes == sorted(sizes)

    def test_modes_agree(self):
        exact = min_core_size(800, 240, 1e-3, mode="exact")
        logspace = min_core_size(800, 240, 1e-3, mode="logspace")
        assert exact.q == logspace.q == 86

    def test_rejects_non_integer_inputs(self):
        with pytest.raises((TypeError, ValueError)):
            min_core_size(100.5, 10, Fraction(1, 10))
        with pytest.raises((TypeError, ValueError)):
            min_core_size(100, 10.5, Fraction(1, 10))

    @pytest.mark.parametrize("bad", [0, 1, -0.5, 2])
    def test_rejects_degenerate_targets(self, bad):
        with pytest.raises(ValueError):
            min_core_size(100, 10, bad)


class TestDeltaForChurn:
    def test_tenth_budget_at_permille_rate(self):
        got = delta_for_churn(1e-3, 0.1)
        assert got.delta == 105
        assert got.ratio == churn_ratio(1e-3, 105)
        assert got.ratio_next == churn_ratio(1e-3, 106)
        assert got.ratio <= 0.1 < got.ratio_next

    def test_thirty_percent_budget_at_permille_rate(self):
        got = delta_for_churn(1e-3, 0.3)
        assert got.delta == 356
        assert got.ratio <= 0.3 < got.ratio_next

    def test_single_step_exhausts_budget(self):
        got = delta_for_churn(0.2, 0.2)
        assert got.delta == 1
        assert got.ratio == 0.2
        assert got.ratio_next == pytest.approx(0.36, rel=1e-12)

    def test_budget_below_one_step(self):
        got = delta_for_churn(0.5, 0.3)
        assert got == LifetimeResult(delta=0, ratio=0.0, ratio_next=0.5)

    def test_budget_within_ulps_of_one_terminates(self):
        # The replaced ratio saturates at 1.0 here; the survivor-side
        # feasibility test must still terminate and stay correct.
        got = delta_for_churn(0.5, 1 - 2**-52)
        assert got.delta == 52
        assert got.ratio <= 1 - 2**-52

    def test_matches_log_quotient_away_from_boundaries(self):
        # On a grid whose budget boundaries sit >= 3e-6 (relative) away
        # from any churn-ratio value, the answer is the plain floor of
        # the log quotient; no slack adjustment may move it.
        for c in (0.001, 0.002, 0.005, 0.017, 0.1, 0.333):
            for budget in (1 / 997, 9 / 997, 100 / 997, 500 / 997,
                           900 / 997, 993 / 997):
                if budget < c:
                    continue
                want = math.floor(math.log1p(-budget) / math.log1p(-c))
                survivors = 1.0 - budget
                for d in (want, want + 1):
                    margin = abs(math.exp(d * math.log1p(-c)) - survivors)
                    assert margin / survivors > 1e-6  # grid sanity
                assert delta_for_churn(c, budget).delta == want

    @given(
        c=st.floats(min_value=1e-6, max_value=0.9),
        budget=st.floats(min_value=1e-6, max_value=1 - 2**-52),
    )
    @settings(max_examples=300)
    def test_witness_straddles_budget_in_survivor_space(self, c, budget):
        got = delta_for_churn(c, budget)
        assert got.ratio == churn_ratio(c, got.delta)
        assert got.ratio_next == churn_ratio(c, got.delta + 1)
        log_keep = math.log1p(-c)
        survivors_min = 1.0 - budget
        # delta keeps enough survivors (up to the documented slack) ...
        assert math.exp(got.delta * log_keep) >= survivors_min * (1 - 2e-9)
        # ... and delta + 1 does not.
        assert math.exp((got.delta + 1) * log_keep) < survivors_min * (1 - 5e-10)

    @pytest.mark.parametrize(
        "c,budget", [(0, 0.5), (1, 0.5), (-0.1, 0.5), (0.5, 0), (0.5, 1), (0.5, 1.5)]
    )
    def test_rejects_out_of_range(self, c, budget):
        with pytest.raises(ValueError):
            delta_for_churn(c, budget)


class TestChurnRateFor:
    def test_single_period_is_identity(self):
        assert churn_rate_for(0.2, 1) == 0.2
        assert churn_rate_for(Fraction(1, 3), 1) == float(Fraction(1, 3))

    def test_rate_for_tenth_ratio_over_105(self):
        c = churn_rate_for(Fraction(1, 10), 105)
        assert c == pytest.approx(0.001002930211425708, rel=1e-13)
        assert churn_ratio(c, 105) == pytest.approx(0.1, rel=1e-12)

    def test_rate_for_thirty_percent_over_356(self):
        c = churn_rate_for(Fraction(3, 10), 356)
        assert c == pytest.approx(0.0010013941798075268, rel=1e-13)
        assert churn_ratio(c, 356) == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("ratio", [1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6])
    @pytest.mark.parametrize("delta", [1, 2, 7, 105, 9999])
    def test_forward_round_trip(self, ratio, delta):
        c = churn_rate_for(ratio, delta)
        assert 0 < c < 1
        assert churn_ratio(c, delta) == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("bad", [0, 1, -0.2, 1.5])
    def test_rejects_out_of_range_ratio(self, bad):
        with pytest.raises(ValueError):
            churn_rate_for(bad, 10)

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_rejects_bad_delta(self, bad):
        with pytest.raises((TypeError, ValueError)):
            churn_rate_for(0.5, bad)


def _log_spaced_rates():
    return [1e-5 * (0.5 / 1e-5) ** (i / 19) for i in range(20)]


def _log_spaced_deltas():
    return sorted({int(round(10 ** (4 * i / 19))) for i in range(20)})


class TestRoundTrips:
    # Recovering c from (C, delta) divides by d ln(1-C); near C = 1 the
    # half-ulp rounding of C alone moves c by ~2^-53 / ((1-C) |ln(1-C)|),
    # so the 1e-12 relative contract is only claimed for C <= 1 - 1e-4.
    def test_rate_recovery_well_conditioned(self):
        checked = 0
        for c in _log_spaced_rates():
            for delta in _log_spaced_deltas():
                ratio = churn_ratio(c, delta)
                if not 0 < ratio <= 1 - 1e-4:
                    continue
                recovered = churn_rate_for(ratio, delta)
                assert recovered == pytest.approx(c, rel=1e-12), (c, delta)
                checked += 1
        assert checked >= 300  # the conditioning filter must not gut the sweep

    # Recovering delta from (c, C) compares survivor fractions against
    # (1 - C); the half-ulp rounding of C perturbs that budget by up to
    # 2^-53 / (1-C) relative, which exceeds the solver's 1e-9 acceptance
    # slack once C > 1 - 1e-7.  Exact recovery is claimed for C <= 1 - 1e-6.
    def test_delta_recovery_from_measured_ratio(self):
        checked = 0
        for c in _log_spaced_rates():
            for delta in _log_spaced_deltas():
                ratio = churn_ratio(c, delta)
                if not 0 < ratio <= 1 - 1e-6:
                    continue
                assert delta_for_churn(c, ratio).delta == delta, (c, delta)
                checked += 1
        assert checked >= 300

    # When the budget is the exact float the caller supplied (rather
    # than a rounded churn_ratio), delta recovery is exact everywhere.
    @pytest.mark.parametrize(
        "ratio", [1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999]
    )
    def test_delta_recovery_from_supplied_budget(self, ratio):
        for delta in _log_spaced_deltas():
            c = churn_rate_for(ratio, delta)
            assert delta_for_churn(c, ratio).delta == delta, (ratio, delta)


class TestMaxDelta:
    def test_thousand_node_core_of_79(self):
        got = max_delta(1000, 79, 1e-3, Fraction(1, 100))
        assert got.delta == 360
        assert not got.capped
        assert float(got.epsilon) == pytest.approx(0.009992798424418555, rel=1e-12)
        assert float(got.epsilon_next) == pytest.approx(0.010062875676134198, rel=1e-12)
        assert got.epsilon <= Fraction(1, 100) < got.epsilon_next
        # The boundary sits where the cumulative ratio crosses ~30%.
        ratio = churn_ratio(1e-3, got.delta)
        assert 0.28 < ratio < 0.32
        assert replaced_count(1000, ratio) == 303

    def test_witnesses_recompute(self):
        got = max_delta(1000, 79, 1e-3, Fraction(1, 100))
        for delta, expected in ((got.delta, got.epsilon),
                                (got.delta + 1, got.epsilon_next)):
            alpha = replaced_count(1000, churn_ratio(1e-3, delta))
            assert miss_probability(1000, alpha, 79).epsilon == expected

    def test_ten_thousand_node_anchor(self):
        got = max_delta(10000, 274, 1e-3, Fraction(1, 1000))
        assert got.delta == 108
        assert not got.capped

    def test_probing_everything_fails_only_at_total_turnover(self):
        # q = n misses only when every initial node is gone, so the
        # boundary is the first delta with ceil(C * n) = n.
        got = max_delta(50, 50, 0.01, Fraction(1, 2))
        assert got == MaxDeltaResult(
            delta=389, epsilon=got.epsilon, epsilon_next=got.epsilon_next,
            capped=False,
        )
        assert got.epsilon == 0
        assert got.epsilon_next == 1

    def test_capped_at_horizon(self):
        got = max_delta(50, 50, 0.01, Fraction(1, 2), horizon=100)
        assert got == MaxDeltaResult(
            delta=100, epsilon=got.epsilon, epsilon_next=None, capped=True
        )
        assert got.epsilon == 0

    def test_delta_zero_when_first_step_violates(self):
        eps0 = miss_probability(100, 0, 10).epsilon
        eps1 = miss_probability(100, 1, 10).epsilon
        target = (eps0 + eps1) / 2
        got = max_delta(100, 10, 1e-3, target)
        assert got.delta == 0
        assert got.epsilon == eps0
        assert got.epsilon_next == eps1
        assert not got.capped

    def test_infeasible_when_static_already_misses(self):
        with pytest.raises(InfeasibleError):
            max_delta(10, 1, 0.5, Fraction(1, 1000))

    def test_rejects_zero_churn(self):
        with pytest.raises(ValueError):
            max_delta(10, 1, 0.0, Fraction(1, 2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=10, q=0, c=0.1, epsilon_max=Fraction(1, 2)),
            dict(n=10, q=1, c=0.1, epsilon_max=Fraction(1, 2), horizon=0),
            dict(n=10, q=1, c=1.0, epsilon_max=Fraction(1, 2)),
            dict(n=10, q=1, c=0.1, epsilon_max=0),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            max_delta(**kwargs)
