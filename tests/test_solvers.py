"""Tests for the inverse solvers: core size, probe period, churn rate."""

import math
import random
import signal
from dataclasses import replace
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
from coreprobe.solvers import _RATIO_SLACK, _first_true, _ln_eps_estimate

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


class TestFirstTrue:
    # Every bracket and guess up to 40, and an unbounded hi: the search
    # returns the boundary, evaluates no point twice and never lo or hi.
    @staticmethod
    def _check(lo, hi, answer, guess):
        seen = []

        def pred(x):
            seen.append(x)
            return x >= answer

        assert _first_true(pred, guess, lo, hi) == answer, (lo, hi, answer, guess)
        assert len(seen) == len(set(seen)), (lo, hi, answer, guess)
        assert all(lo < x < hi for x in seen), (lo, hi, answer, guess)

    def test_every_small_bracket_and_guess(self):
        for hi in range(1, 41):
            for lo in range(hi):
                for answer in range(lo + 1, hi + 1):
                    for guess in range(lo + 1, hi + 1):
                        self._check(lo, hi, answer, guess)

    def test_unbounded_hi(self):
        for lo in range(40):
            for answer in range(lo + 1, 41):
                for guess in range(lo + 1, 41):
                    self._check(lo, math.inf, answer, guess)


class TestMinCoreSize:
    # min_core_size must agree with a linear scan over q using the exact
    # rational miss probability, for every (n, alpha) and several targets.
    # The tight targets start the search far from the answer, and at
    # alpha = n - 1 the seed n sqrt(ln(1/target)) clamps at n.
    @pytest.mark.parametrize(
        "target", [Fraction(1, 4), Fraction(1, 10), Fraction(1, 100),
                   Fraction(1, 10**6), Fraction(1, 10**12)]
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

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("target", [Fraction(1, 10**6), Fraction(1, 10**12)])
    def test_tight_targets_match_linear_scan_beyond_grid(self, n, target):
        for alpha in (0, n // 2, n - 1):
            want = next(q for q in range(n + 1)
                        if miss_probability(n, alpha, q, "exact").epsilon <= target)
            got = min_core_size(n, alpha, target, mode="exact")
            assert got.q == want, (n, alpha)
            assert got.epsilon <= target < got.epsilon_prev

    def test_logspace_anchor_has_exact_witnesses(self):
        # The logspace answers 1855 at (n = 10^5, C = 80%, p = 99.9%) and
        # 5874 at n = 10^6 are minimal in exact rationals:
        # eps(q-1) > 1/1000 >= eps(q).
        target = Fraction(1, 1000)
        for n, alpha, q in ((100_000, 80_000, 1855), (1_000_000, 800_000, 5874)):
            assert min_core_size(n, alpha, target, mode="logspace").q == q
            at = miss_probability(n, alpha, q, "exact").epsilon
            before = miss_probability(n, alpha, q - 1, "exact").epsilon
            assert before > target >= at, n
        # Exact against logspace in ln(eps), within criterion 4's 1e-10, at
        # n = 10^4, 10^5 and 10^6: at the anchors and at seeded points on
        # the solver's boundary.
        rng = random.Random(20261018)
        points = [(10_000, 8000, 584), (100_000, 80_000, 1855), (1_000_000, 800_000, 5874)]
        for n, count in ((10_000, 6), (100_000, 3)):
            for _ in range(count):
                alpha = rng.randrange(n)
                target = Fraction(1, 10 ** rng.randint(1, 6))
                points.append((n, alpha, min_core_size(n, alpha, target, "logspace").q))
        for n, alpha, q in points:
            exact = miss_probability(n, alpha, q, "exact").epsilon
            log_exact = math.log(exact.numerator) - math.log(exact.denominator)
            log_space = miss_probability(n, alpha, q, "logspace").log_epsilon
            assert abs(log_space - log_exact) <= 1e-10, (n, alpha, q)

    def test_modes_agree(self):
        exact = min_core_size(800, 240, 1e-3, mode="exact")
        logspace = min_core_size(800, 240, 1e-3, mode="logspace")
        assert exact.q == logspace.q == 86

    @pytest.mark.parametrize(
        "target, want", [(Fraction(1, 10**330), 1419), (Fraction(1, 10**400), 1518)]
    )
    def test_modes_agree_below_the_float_range(self, target, want):
        # Every logspace float near the answer underflows to 0.0, so only
        # ln eps can decide; comparing the floats answered 1409 at both.
        exact = min_core_size(3000, 900, target, mode="exact")
        logspace = min_core_size(3000, 900, target, mode="logspace")
        assert exact.q == logspace.q == want

    def test_rejects_non_integer_inputs(self):
        with pytest.raises((TypeError, ValueError)):
            min_core_size(100.5, 10, Fraction(1, 10))
        with pytest.raises((TypeError, ValueError)):
            min_core_size(100, 10.5, Fraction(1, 10))

    @pytest.mark.parametrize("bad", [0, 1, -0.5, 2])
    def test_rejects_degenerate_targets(self, bad):
        with pytest.raises(ValueError):
            min_core_size(100, 10, bad)


# (n, C, target, q): witness-verified minimal core sizes.
_CORE_SIZE_ANCHORS = [
    (1000, Fraction(3, 10), Fraction(1, 100), 79),
    (10_000, Fraction(1, 10), Fraction(1, 100), 224),
    (10_000, Fraction(1, 10), Fraction(1, 1000), 274),
    (10_000, Fraction(1, 2), Fraction(1, 1000), 369),
    (100_000, Fraction(4, 5), Fraction(1, 1000), 1855),
    (1_000_000, Fraction(4, 5), Fraction(1, 1000), 5874),
]


# The 30 cells of ``coreprobe table`` at its defaults: (n, C, target).
_TABLE_CELLS = [
    (n, ratio, target)
    for n in (1000, 10_000, 100_000)
    for target in (Fraction(1, 100), Fraction(1, 1000))
    for ratio in (0, Fraction(1, 10), Fraction(3, 10), Fraction(3, 5), Fraction(4, 5))
]


class TestSolverEvaluations:
    # Each solve evaluates a given (n, alpha, q) at most once.  The
    # second-order estimate aims the first evaluation at the answer or
    # next to it, so every core-size anchor and table cell takes 2
    # evaluations: the witness pair.
    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []

        def counted(n, alpha, q, mode="auto"):
            seen.append((n, alpha, q))
            return miss_probability(n, alpha, q, mode)

        monkeypatch.setattr("coreprobe.solvers.miss_probability", counted)
        return seen

    @pytest.mark.parametrize("n,ratio,target,want", _CORE_SIZE_ANCHORS)
    def test_min_core_size_anchor_budget(self, calls, n, ratio, target, want):
        assert min_core_size(n, replaced_count(n, ratio), target).q == want
        assert len(calls) == len(set(calls))
        assert len(calls) <= 2

    @pytest.mark.parametrize("n,ratio,target", _TABLE_CELLS)
    def test_min_core_size_table_cell_takes_its_witness_pair(self, calls, n, ratio, target):
        got = min_core_size(n, replaced_count(n, ratio), target)
        assert sorted(q for _, _, q in calls) == [got.q - 1, got.q]

    def test_min_core_size_never_repeats_an_evaluation(self, calls):
        for n in (1, 2, 7, 60, 500):
            for alpha in {0, 1, n // 2, n - 1} - {n}:
                for target in (Fraction(1, 2), Fraction(1, 100), Fraction(1, 10**9)):
                    calls.clear()
                    min_core_size(n, alpha, target)
                    assert len(calls) == len(set(calls)), (n, alpha, target)

    # The static and horizon outcomes are the ends of max_delta's one
    # search, so neither costs an evaluation of its own: a capped answer
    # is just the seed's.
    @pytest.mark.parametrize(
        "args,kwargs,budget",
        [
            ((1000, 79, 1e-3, Fraction(1, 100)), {}, 2),
            ((10_000, 274, 1e-3, Fraction(1, 1000)), {}, 3),
            ((50, 50, 0.01, Fraction(1, 2)), {}, 2),
            ((50, 50, 0.01, Fraction(1, 2)), {"horizon": 100}, 1),
        ],
    )
    def test_max_delta_anchor_budget(self, calls, args, kwargs, budget):
        max_delta(*args, **kwargs)
        assert len(calls) <= budget

    def test_max_delta_tiny_rate_budget(self, calls):
        # At c = 10^-6 the answer is past 1.6 million time units; one
        # search in delta, aimed by the estimate and started from the
        # refit, evaluates only the witness pair.
        got = max_delta(1_000_000, 6000, 1e-6, Fraction(1, 1000))
        assert got.delta == 1_652_031
        assert not got.capped
        assert got.epsilon <= Fraction(1, 1000) < got.epsilon_next
        assert len(calls) == len(set(calls))
        assert len(calls) <= 2

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((1000, 79, 1e-3, Fraction(1, 100)), {}),
            ((10_000, 274, 1e-3, Fraction(1, 1000)), {}),
            ((50, 50, 0.01, Fraction(1, 2)), {}),
            ((50, 50, 0.01, Fraction(1, 2)), {"horizon": 100}),
            ((100, 10, 1e-3, Fraction(3, 4)), {}),
        ],
    )
    def test_max_delta_never_repeats_an_evaluation(self, calls, args, kwargs):
        max_delta(*args, **kwargs)
        assert calls
        assert len(calls) == len(set(calls))


def _ln_eps(n, alpha, q):
    """ln eps: from the exact rational up to n = 2000, the logspace log above."""
    got = miss_probability(n, alpha, q)
    if got.log_epsilon is not None:
        return got.log_epsilon
    eps = got.epsilon
    return math.log(eps.numerator) - math.log(eps.denominator)


class TestLnEpsEstimate:
    # The O(1) estimate only aims the solvers' first evaluation; these
    # tests pin how close it lands and that answers never depend on it.
    def test_worst_error_at_the_anchors_and_table_cells(self):
        # At both witnesses of every anchor and default table cell.  The
        # worst, 0.0166, is at (1000, 80%, 99.9%), q = 182.
        cells = {(n, r, t) for n, r, t, _ in _CORE_SIZE_ANCHORS} | set(_TABLE_CELLS)
        worst = 0.0
        for n, ratio, target in cells:
            alpha = replaced_count(n, ratio)
            q = min_core_size(n, alpha, target).q
            for at in (q - 1, q):
                worst = max(worst, abs(_ln_eps_estimate(n, alpha, at) - _ln_eps(n, alpha, at)))
        assert worst <= 0.017

    def test_exact_when_nothing_is_replaced(self):
        # alpha = 0 leaves S = q with variance 0: the estimate is
        # ln C(n - q, q) - ln C(n, q) itself.
        for n, q in ((10, 3), (100, 20), (1000, 79), (1000, 400)):
            assert _ln_eps_estimate(n, 0, q) == pytest.approx(_ln_eps(n, 0, q), rel=1e-12)

    def test_minus_infinity_where_every_probe_hits_a_survivor(self, exact_grid):
        # eps = 0 exactly when alpha < 2q - n; then S >= q - alpha > n - q.
        zeros = 0
        for (n, alpha, q), eps in exact_grid.items():
            if eps == 0:
                zeros += 1
                assert _ln_eps_estimate(n, alpha, q) == -math.inf, (n, alpha, q)
        assert zeros > 10_000

    def test_size_grid_answers_are_minimal(self):
        # 12 log-spaced n from 10 to 10^6, 7 churn ratios and 7 targets:
        # every witness pair is recomputed and straddles the target, so
        # by monotonicity in q each answer is the minimal one.
        ns = sorted({round(10 ** (1 + 5 * i / 11)) for i in range(12)})
        ratios = [Fraction(x, 100) for x in (0, 10, 30, 60, 80, 95, 99)]
        targets = [Fraction(1, 2)] + [Fraction(1, 10**k) for k in range(2, 13, 2)]
        solved = 0
        for n in ns:
            for ratio in ratios:
                alpha = replaced_count(n, ratio)
                if alpha == n:
                    continue
                for target in targets:
                    got = min_core_size(n, alpha, target)
                    at = miss_probability(n, alpha, got.q).epsilon
                    before = miss_probability(n, alpha, got.q - 1).epsilon
                    assert (got.epsilon, got.epsilon_prev) == (at, before)
                    assert at <= target < before, (n, ratio, target)
                    solved += 1
        assert solved == 560


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

    @pytest.mark.parametrize("c", [1e-17, 1e-300])
    @pytest.mark.parametrize("budget", [0.1, 0.3, 0.99])
    def test_tiny_rate_terminates(self, c, budget):
        # delta exceeds 2^53 here, where delta + 1 no longer changes
        # the float delta * log1p(-c); a unit-step walk never ends.
        def expire(signum, frame):
            raise TimeoutError("delta_for_churn took over a second")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            got = delta_for_churn(c, budget)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert got.delta > 2**53
        assert got.ratio == churn_ratio(c, got.delta)
        assert got.ratio_next == churn_ratio(c, got.delta + 1)
        # The slack applies to the survivor fraction 1 - budget.
        assert got.ratio <= budget + 2 * _RATIO_SLACK * (1 - budget)
        assert budget < got.ratio_next

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


def _churn_alphas(n, c, horizon):
    """Replaced counts at delta = 0, 1, ... up to the horizon or total
    turnover, where eps = 1 misses every target."""
    alphas = [0]
    while alphas[-1] < n and len(alphas) <= horizon:
        alphas.append(replaced_count(n, churn_ratio(c, len(alphas))))
    return alphas


def _max_delta_scan(eps, target, horizon):
    """The answer a linear scan over eps[delta], delta = 0, 1, ..., gives;
    None where the static case already misses the target."""
    if eps[0] > target:
        return None
    over = next((d for d, e in enumerate(eps) if e > target), None)
    if over is None:
        return MaxDeltaResult(horizon, eps[horizon], None, True)
    return MaxDeltaResult(over - 1, eps[over - 1], eps[over], False)


class TestMaxDelta:
    # max_delta must agree with a linear scan over delta using the exact
    # rational miss probability, for every n <= 30 and every q.
    @pytest.mark.parametrize("horizon", [5, 10**7])
    @pytest.mark.parametrize("c", [Fraction(1, 20), Fraction(1, 5), Fraction(1, 3)])
    def test_matches_linear_scan_oracle(self, exact_grid, c, horizon):
        for n in range(1, 31):
            alphas = _churn_alphas(n, c, horizon)
            for q in range(1, n + 1):
                eps = [exact_grid[n, alpha, q] for alpha in alphas]
                for target in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
                    args = (n, q, c, target, "exact", horizon)
                    want = _max_delta_scan(eps, target, horizon)
                    if want is None:
                        with pytest.raises(InfeasibleError):
                            max_delta(*args)
                        continue
                    assert max_delta(*args) == want, args

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

    def test_modes_agree_below_the_float_range(self):
        # The logspace floats underflow to 0.0; comparing them answered 472.
        args = (3000, 1500, Fraction(1, 1000), Fraction(1, 10**400))
        exact = max_delta(*args, mode="exact")
        assert exact.delta == max_delta(*args, mode="logspace").delta == 335

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


def _size_scan(eps, target):
    """The answer a linear scan over eps[q], q = 0, 1, ..., gives."""
    return next(q for q, e in enumerate(eps) if e <= target)


class TestRefitEdges:
    # Both solvers evaluate an aimed seed first and refit the paper's
    # asymptote to its value.  Where that value is exactly 0 or 1 there
    # is nothing to refit and the search starts at the seed; near an
    # exact eps and below the double range only the comparison with the
    # target decides.  In every case the answer is the linear scan's.
    # The seed is the first (n, alpha, q) the solver evaluates, read by
    # a spy on ``miss_probability``.
    TARGETS_TIGHT = (Fraction(1, 10**3), Fraction(1, 10**6), Fraction(1, 10**12))
    HORIZON = 10**7

    @pytest.fixture()
    def solve(self, monkeypatch):
        """Runs a solver; returns its result and its first evaluated (alpha, q)."""
        calls = []

        def spy(n, alpha, q, mode="auto"):
            calls.append((alpha, q))
            return miss_probability(n, alpha, q, mode)

        def solve(solver, *args):
            calls.clear()
            return solver(*args), calls[0]

        monkeypatch.setattr("coreprobe.solvers.miss_probability", spy)
        return solve

    def test_size_seed_at_zero(self, exact_grid, solve):
        # eps(q0) = 0 where alpha < 2 q0 - n: every probe set meets a
        # surviving core member.
        hits = 0
        for n in range(1, GRID_N + 1):
            for alpha in range(n):
                eps = [exact_grid[n, alpha, q] for q in range(n + 1)]
                for target in self.TARGETS_TIGHT:
                    got, (_, seed) = solve(min_core_size, n, alpha, target, "exact")
                    assert got.q == _size_scan(eps, target), (n, alpha, target)
                    hits += eps[seed] == 0
        assert hits > 1000

    def test_size_seed_at_one(self, exact_grid, monkeypatch):
        # With alpha < n, eps(q) < 1 for every q >= 1, so only a sum that
        # rounds a value near 1 up to 1 reaches this branch.  Round every
        # value that misses the target up to exactly 1: the answer stays,
        # and every seed that misses gives ln eps = 0.  A seed misses at
        # loose targets such as 1/2, where it is small and its floor
        # falls below the answer.
        target = Fraction(1, 2)
        seeds = []

        def rounded(n, alpha, q, mode="auto"):
            got = miss_probability(n, alpha, q, mode)
            seeds.append(q)
            return got if got.epsilon <= target else replace(got, epsilon=Fraction(1))

        monkeypatch.setattr("coreprobe.solvers.miss_probability", rounded)
        hits = 0
        for n in range(1, GRID_N + 1):
            for alpha in range(n):
                eps = [exact_grid[n, alpha, q] for q in range(n + 1)]
                seeds.clear()
                got = min_core_size(n, alpha, target, mode="exact")
                assert got.q == _size_scan(eps, target), (n, alpha)
                assert got.epsilon_prev == 1
                hits += eps[seeds[0]] > target
        assert hits > 100

    def test_size_targets_within_an_ulp(self, exact_grid):
        # The target is an exact eps(q), the double nearest it, or the
        # doubles one ulp either side, at 1500 seeded cells with n <= 60.
        rng = random.Random(20261019)
        checked = 0
        while checked < 1500:
            n = rng.randint(2, GRID_N)
            alpha, q = rng.randrange(n), rng.randint(1, n)
            at = exact_grid[n, alpha, q]
            if not 0 < at < 1:
                continue
            eps = [exact_grid[n, alpha, k] for k in range(n + 1)]
            near = float(at)
            for target in (at, near, math.nextafter(near, 0), math.nextafter(near, 1)):
                if 0 < target < 1:
                    got = min_core_size(n, alpha, target, mode="exact")
                    assert got.q == _size_scan(eps, target), (n, alpha, q, target)
            checked += 1

    def test_size_below_the_double_range(self):
        # Every float eps near the answer underflows; ln eps decides.
        target = Fraction(1, 10**400)
        ln_target = -400 * math.log(10)
        want = next(q for q in range(10_001)
                    if miss_probability(10_000, 3000, q).log_epsilon <= ln_target)
        assert want == 3164
        assert min_core_size(10_000, 3000, target).q == want

    def test_max_delta_seed_at_zero(self, exact_grid, solve):
        # eps(alpha0) = 0 where alpha0 < 2q - n.
        hits = 0
        c = Fraction(1, 20)
        for n in range(1, 31):
            alphas = _churn_alphas(n, c, self.HORIZON)
            for q in range(1, n + 1):
                eps = [exact_grid[n, alpha, q] for alpha in alphas]
                for target in self.TARGETS_TIGHT:
                    want = _max_delta_scan(eps, target, self.HORIZON)
                    if want is None:
                        continue
                    got, (seed, _) = solve(max_delta, n, q, c, target, "exact")
                    assert got == want, (n, q, target)
                    hits += exact_grid[n, seed, q] == 0
        assert hits > 100

    def test_max_delta_seed_at_one(self, exact_grid, solve):
        # eps(alpha0) = 1 where a loose target puts the seed at total
        # turnover, alpha0 = n.
        hits = 0
        c = Fraction(1, 20)
        for n in range(1, 31):
            alphas = _churn_alphas(n, c, self.HORIZON)
            for q in range(1, n + 1):
                eps = [exact_grid[n, alpha, q] for alpha in alphas]
                for target in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
                    want = _max_delta_scan(eps, target, self.HORIZON)
                    if want is None:
                        continue
                    got, (seed, _) = solve(max_delta, n, q, c, target, "exact")
                    assert got == want, (n, q, target)
                    hits += seed == n
        assert hits > 10

    def test_max_delta_targets_within_an_ulp(self, exact_grid):
        # The target is an exact eps on the churn path, the double
        # nearest it, or the doubles one ulp either side, at 600 seeded
        # cells with n <= 30.
        rng = random.Random(20261020)
        checked = 0
        while checked < 600:
            n = rng.randint(2, 30)
            q = rng.randint(1, n)
            c = rng.choice((Fraction(1, 20), Fraction(1, 5), Fraction(1, 3)))
            alphas = _churn_alphas(n, c, self.HORIZON)
            eps = [exact_grid[n, alpha, q] for alpha in alphas]
            at = rng.choice(eps)
            if not 0 < at < 1:
                continue
            near = float(at)
            for target in (at, near, math.nextafter(near, 0), math.nextafter(near, 1)):
                want = _max_delta_scan(eps, target, self.HORIZON)
                if 0 < target < 1 and want is not None:
                    got = max_delta(n, q, c, target, "exact")
                    assert got == want, (n, q, c, target)
            checked += 1

    def test_max_delta_below_the_double_range(self):
        c, target = Fraction(1, 1000), Fraction(1, 10**400)
        ln_target = -400 * math.log(10)
        over = next(
            d for d in range(10**4)
            if miss_probability(10_000, replaced_count(10_000, churn_ratio(c, d)),
                                3164).log_epsilon > ln_target
        )
        assert over - 1 == 356
        assert max_delta(10_000, 3164, c, target).delta == over - 1


class TestInfeasibleMessages:
    # A target below the normal double range is written to 6 significant
    # digits, not as a fraction of hundreds of digits; a target in the
    # normal range keeps the exact text str() gives it.
    @pytest.mark.parametrize(
        "target, text",
        [
            (Fraction(1, 10**400), "1e-400"),
            (Fraction(1, 3 * 10**5000), "3.33333e-5001"),
            (Fraction(2, 10**308), "2e-308"),
            (Fraction(3, 10**308), "3/1" + "0" * 308),
            (Fraction(1, 1000), "1/1000"),
            (0.001, "0.001"),
        ],
    )
    def test_targets_below_the_double_range_are_written_compactly(self, target, text):
        with pytest.raises(InfeasibleError) as size:
            min_core_size(1000, 1000, target)
        assert str(size.value) == (
            f"no core size q <= n=1000 reaches epsilon <= {text} at alpha=1000"
        )
        with pytest.raises(InfeasibleError) as lifetime:
            max_delta(1000, 79, Fraction(3, 1000), target)
        assert str(lifetime.value) == (
            f"even a static system (delta=0) exceeds epsilon={text} at n=1000, q=79"
        )
