"""Churn and miss-probability analytics against enumeration oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from coreprobe import (
    EXACT_N_LIMIT,
    binomial_exact,
    churn_ratio,
    conditional_miss,
    delta_for_churn,
    hypergeometric_pmf,
    min_core_size,
    miss_probability,
    replaced_count,
    support_bounds,
)
from coreprobe.persistence import _process_miss_probability

_fractions = st.fractions(min_value=Fraction(0), max_value=Fraction(97, 100))


class TestChurnRatio:
    def test_single_unit_is_the_rate_itself(self):
        assert churn_ratio(0.2, 1) == 0.2
        assert churn_ratio(Fraction(1, 3), 1) == 1 / 3

    def test_zero_units_replace_nothing(self):
        assert churn_ratio(0.37, 0) == 0.0

    def test_frozen_low_rate_anchor(self):
        assert churn_ratio(1e-3, 105) == 0.09972277474378678

    @given(_fractions, st.integers(0, 1000))
    def test_matches_exact_rational_power(self, c, delta):
        expected = helpers.churn_ratio_exact(c, delta)
        assert abs(churn_ratio(c, delta) - float(expected)) <= 1e-12 * max(
            1.0, float(expected)
        )

    @given(_fractions, st.integers(0, 500), st.integers(0, 500))
    def test_survivor_fraction_multiplicative_over_spans(self, c, d1, d2):
        whole = churn_ratio(c, d1 + d2)
        parts = 1 - (1 - churn_ratio(c, d1)) * (1 - churn_ratio(c, d2))
        assert abs(whole - parts) <= 1e-12

    def test_monotone_in_rate_and_span(self):
        rates = [0.0, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9]
        for delta in (1, 7, 160):
            values = [churn_ratio(c, delta) for c in rates]
            assert values == sorted(values)
        for c in (1e-4, 0.02, 0.4):
            values = [churn_ratio(c, d) for d in range(0, 300, 13)]
            assert values == sorted(values)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            churn_ratio(-0.1, 3)
        with pytest.raises(ValueError):
            churn_ratio(1.0, 3)
        with pytest.raises(ValueError):
            churn_ratio(0.1, -1)
        with pytest.raises(ValueError):
            churn_ratio(0.1, 2.5)


class TestReplacedCount:
    def test_exact_percentages_never_misround(self):
        assert replaced_count(10_000, Fraction(1, 10)) == 1000
        assert replaced_count(10_000, Fraction(3, 10)) == 3000
        assert replaced_count(100_000, Fraction(4, 5)) == 80_000

    def test_ceiling_semantics(self):
        assert replaced_count(1000, Fraction(1, 10_000)) == 1
        assert replaced_count(9, Fraction(1, 3)) == 3
        assert replaced_count(10, Fraction(1, 3)) == 4
        assert replaced_count(10, 0.25) == 3

    def test_clamped_to_population(self):
        assert replaced_count(7, 0) == 0
        assert replaced_count(7, 1) == 7
        assert replaced_count(7, Fraction(1)) == 7
        # float(2**53 + 3) rounds up to 2**53 + 4; only the clamp keeps
        # alpha at n.
        assert replaced_count(2**53 + 3, 1.0) == 2**53 + 3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            replaced_count(10, -0.1)
        with pytest.raises(ValueError):
            replaced_count(10, 1.1)
        with pytest.raises(ValueError):
            replaced_count(0, 0.5)


class TestSupportBoundsAndPmf:
    def test_support_and_pmf_match_enumeration(self):
        # Exhaustive over every replacement subset for small populations.
        for n in range(1, 9):
            for q in range(n + 1):
                for alpha in range(n + 1):
                    expected = helpers.overlap_pmf(n, q, alpha)
                    a, b = support_bounds(n, q, alpha)
                    assert sorted(expected) == list(range(a, b + 1))
                    for k in range(a, b + 1):
                        assert hypergeometric_pmf(n, q, alpha, k) == expected[k]

    def test_small_direct_value(self):
        assert hypergeometric_pmf(5, 2, 2, 0) == Fraction(3, 10)

    def test_nothing_replaced_is_certain_zero_overlap(self):
        assert hypergeometric_pmf(50, 7, 0, 0) == 1

    def test_normalizes_exactly(self):
        for n in range(1, 31):
            for q in range(n + 1):
                for alpha in range(n + 1):
                    a, b = support_bounds(n, q, alpha)
                    total = sum(
                        hypergeometric_pmf(n, q, alpha, k) for k in range(a, b + 1)
                    )
                    assert total == 1

    def test_out_of_support_rejected(self):
        with pytest.raises(ValueError):
            hypergeometric_pmf(6, 3, 2, 3)
        with pytest.raises(ValueError):
            hypergeometric_pmf(6, 5, 4, 2)  # a = 3 here


class TestConditionalMiss:
    def test_spec_values(self):
        assert conditional_miss(5, 1, 0) == Fraction(4, 5)
        assert conditional_miss(7, 3, 1) == Fraction(10, 35)
        assert conditional_miss(40, 9, 9) == 1

    def test_matches_probe_enumeration(self):
        for n in range(1, 9):
            for q in range(n + 1):
                for k in range(q + 1):
                    expected = helpers.avoidance_probability(n, q - k, q)
                    assert conditional_miss(n, q, k) == expected

    def test_matches_product_form(self):
        rng = random.Random(11)
        for n in range(1, 201):
            qs = {0, 1, n // 2, n, rng.randint(0, n)}
            for q in qs:
                for k in {0, q // 2, q}:
                    exact = conditional_miss(n, q, k)
                    product = helpers.avoidance_product(n, q, k)
                    assert exact == product
                    assert abs(float(exact) - float(product)) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            conditional_miss(5, 6, 0)
        with pytest.raises(ValueError):
            conditional_miss(5, 3, 4)
        with pytest.raises(ValueError):
            conditional_miss(0, 0, 0)


class TestMissProbability:
    def test_matches_exhaustive_urn_enumeration(self):
        for n in range(1, 9):
            for q in range(n + 1):
                for alpha in range(n + 1):
                    expected = helpers.urn_miss_probability(n, q, alpha)
                    got = miss_probability(n, alpha, q, mode="exact").epsilon
                    assert got == expected, (n, q, alpha)

    def test_small_anchor_values(self):
        assert miss_probability(5, 0, 1).epsilon == Fraction(4, 5)
        assert miss_probability(6, 3, 2).epsilon == Fraction(17, 25)

    def test_static_reduction(self):
        for n in range(1, 121):
            for q in range(n + 1):
                expected = Fraction(binomial_exact(n - q, q), binomial_exact(n, q))
                assert miss_probability(n, 0, q, mode="exact").epsilon == expected

    def test_full_churn_always_misses(self):
        for n in range(1, 40):
            for q in range(1, n + 1):
                assert miss_probability(n, n, q, mode="exact").epsilon == 1

    def test_empty_probe_always_misses(self):
        for n in (1, 5, 33):
            for alpha in (0, 1, n):
                assert miss_probability(n, alpha, 0, mode="exact").epsilon == 1

    def test_probing_everyone_hits_any_survivor(self):
        for n in (1, 6, 27):
            for alpha in range(n):
                assert miss_probability(n, alpha, n, mode="exact").epsilon == 0

    def test_term_recurrence_matches_reference_where_terms_vanish(self):
        # Both modes start the term recurrence at k0 = max(a, 2q-n)
        # because C(n+k-q, q) = 0 below it.  Check them against the
        # independent term-by-term reference where leading terms vanish
        # (2q > n, so k0 > a), where every term vanishes (alpha = 0 with
        # 2q > n), at alpha and q in {0, n}, and at n in {1, 2}.
        cases = {(n, alpha, q) for n in (1, 2) for alpha in range(n + 1)
                 for q in range(n + 1)}
        for n in (9, 10, 31, 100, 257):
            for q in (0, 1, n // 2, n // 2 + 1, (3 * n) // 4, n - 1, n):
                for alpha in (0, 1, n // 3, n - q, 2 * q - n, q - 1, n - 1, n):
                    if 0 <= alpha <= n:
                        cases.add((n, alpha, q))
        leading_vanish = all_vanish = 0
        for n, alpha, q in sorted(cases):
            expected = helpers.miss_probability_reference(n, alpha, q)
            assert miss_probability(n, alpha, q, mode="exact").epsilon == expected, (
                n, alpha, q)
            got = miss_probability(n, alpha, q, mode="logspace")
            if expected == 0:
                assert got.epsilon == 0.0 and got.log_epsilon == -math.inf, (n, alpha, q)
            else:
                log_expected = math.log(expected.numerator) - math.log(expected.denominator)
                assert abs(got.log_epsilon - log_expected) <= 1e-10 * max(
                    1.0, abs(log_expected)
                ), (n, alpha, q)
            a, b = support_bounds(n, q, alpha)
            k0 = max(a, 2 * q - n)
            leading_vanish += a < k0 <= b
            if k0 > b:
                all_vanish += 1
                assert expected == 0, (n, alpha, q)
        assert leading_vanish >= 30
        assert all_vanish >= 30

    def test_static_sizing_anchor_at_ten_thousand(self):
        assert float(miss_probability(10_000, 0, 213).epsilon) <= 0.01
        assert float(miss_probability(10_000, 0, 212).epsilon) > 0.01

    def test_monotone_in_probe_size(self, exact_grid):
        for n in range(1, 61):
            for alpha in range(n + 1):
                for q in range(n):
                    assert exact_grid[n, alpha, q + 1] <= exact_grid[n, alpha, q]

    def test_monotone_in_replacements(self, exact_grid):
        for n in range(1, 61):
            for q in range(n + 1):
                for alpha in range(n):
                    assert exact_grid[n, alpha, q] <= exact_grid[n, alpha + 1, q]

    def test_monotone_sampled_at_large_n(self):
        n = 10_000
        eps = [
            miss_probability(n, 1000, q, mode="logspace").epsilon
            for q in range(150, 651, 50)
        ]
        for lo, hi in zip(eps[1:], eps):
            assert lo <= hi * (1 + 1e-12)
        eps = [
            miss_probability(n, alpha, 250, mode="logspace").epsilon
            for alpha in range(0, 9001, 750)
        ]
        for lo, hi in zip(eps, eps[1:]):
            assert lo <= hi * (1 + 1e-12)

    @given(st.integers(1, 300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_modes_agree(self, n, data):
        q = data.draw(st.integers(0, n))
        alpha = data.draw(st.integers(0, n))
        exact = miss_probability(n, alpha, q, mode="exact").epsilon
        log_result = miss_probability(n, alpha, q, mode="logspace")
        if exact == 0:
            assert log_result.epsilon == 0.0
            return
        expected_log = math.log(exact.numerator) - math.log(exact.denominator)
        assert abs(log_result.log_epsilon - expected_log) <= 1e-10 * max(
            1.0, abs(expected_log)
        )

    def test_auto_mode_dispatch(self):
        assert miss_probability(EXACT_N_LIMIT, 100, 50).mode == "exact"
        assert miss_probability(EXACT_N_LIMIT + 1, 100, 50).mode == "logspace"

    def test_forced_exact_beyond_auto_limit(self):
        exact = miss_probability(2500, 100, 50, mode="exact")
        logsp = miss_probability(2500, 100, 50, mode="logspace")
        assert exact.mode == "exact"
        rel = abs(float(exact.epsilon) - logsp.epsilon) / float(exact.epsilon)
        assert rel <= 1e-10

    def test_log_epsilon_below_double_range(self):
        # eps = e^-1469 underflows to 0.0; log_epsilon still carries it.
        # The reference is the exact rational's log, from the helpers' sum.
        n, alpha, q = 3000, 0, 1400
        exact = helpers.miss_probability_reference(n, alpha, q)
        expected = math.log(exact.numerator) - math.log(exact.denominator)
        got = miss_probability(n, alpha, q, mode="logspace")
        assert got.epsilon == 0.0 and expected < -1400
        assert abs(got.log_epsilon - expected) <= 1e-10 * abs(expected)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            miss_probability(5, 0, 6)
        with pytest.raises(ValueError):
            miss_probability(5, 6, 0)
        with pytest.raises(ValueError):
            miss_probability(0, 0, 0)
        with pytest.raises(ValueError):
            miss_probability(5, -1, 2)
        with pytest.raises(ValueError):
            miss_probability(5, 1, 2, mode="fast")  # type: ignore[arg-type]


def _step_ratio(n: int, alpha: int, q: int, k: int) -> tuple[int, int]:
    """(num, den) with T(k+1) / T(k) = num / den, in exact integers."""
    return ((n + k + 1 - q) * (alpha - k) * (q - k),
            (n + k + 1 - 2 * q) * (k + 1) * (n - alpha - q + k + 1))


def _tail_stop(n: int, alpha: int, q: int) -> tuple[int | None, int]:
    """(k, rescales): the step k at which the logspace loop stops early
    (None if it sums every term) and the rescales it made before."""
    a, b = support_bounds(n, q, alpha)
    term = total = 1.0
    rescales = 0
    for k in range(max(a, 2 * q - n), b):
        num, den = _step_ratio(n, alpha, q, k)
        ratio = num / den
        term *= ratio
        total += term
        if term > 2.0**600:
            term /= 2.0**600
            total /= 2.0**600
            rescales += 1
        elif ratio < 1.0 and term < total * 2.0**-54:
            return k, rescales
    return None, rescales


def _large_cells(seed: int, count: int) -> list[tuple[int, int, int]]:
    """Seeded (n, alpha, q) with n log-uniform up to 10^9 - 1 and q up to 12000."""
    rng = random.Random(seed)
    cells = []
    for _ in range(count):
        n = round(math.exp(rng.uniform(math.log(41), math.log(10**9 - 1))))
        q = round(math.exp(rng.uniform(0, math.log(min(n, 12_000)))))
        ratio = rng.choice((rng.random(), 0.01, 0.1, 0.3, 0.6, 0.8, 0.95))
        cells.append((n, math.ceil(ratio * n), q))
    return cells


class TestLogspaceTailStop:
    """The logspace loop stops once its falling tail cannot change ``total``.

    The stop is exact only if the term ratio never rises on [k0, b) and
    the stopped sum rounds to the full one; the tests check both.
    """

    # The solver anchors at n = 10^4, 10^5 and 10^6, a stop that skips 85%
    # of the terms, and cells where a stop at total * 2^-52 (under two
    # ulps, not half of one) already changes epsilon.
    CELLS = [(10**4, 8000, 584), (10**5, 80_000, 1855), (10**6, 800_000, 5874),
             (10**6, 10**5, 3000), (225_287_495, 161_673_088, 8265),
             (305_258, 91_578, 6770), (30_368, 3037, 868), (9658, 5795, 982)]

    def test_equals_full_sum_bit_for_bit(self):
        small = [(n, alpha, q) for n in range(1, 41) for alpha in range(n + 1)
                 for q in range(n + 1)]
        large = _large_cells(2020, 500) + self.CELLS
        for n, alpha, q in small + large:
            got = miss_probability(n, alpha, q, mode="logspace")
            assert (got.epsilon, got.log_epsilon) == helpers.logspace_full_sum_reference(
                n, alpha, q), (n, alpha, q)
        # The cells reach both sides of the stop: stops that skip most of
        # the support at low churn, and stops after rescales at large q.
        early = rescaled = 0
        for n, alpha, q in large:
            k, rescales = _tail_stop(n, alpha, q)
            a, b = support_bounds(n, q, alpha)
            early += k is not None and alpha <= 0.3 * n and b - k > (b - a) / 2
            rescaled += k is not None and rescales > 0 and q >= 1855
        assert early >= 50 and rescaled >= 10, (early, rescaled)

    def test_step_ratio_never_rises_exhaustive(self):
        for n in range(1, 61):
            for alpha in range(n + 1):
                for q in range(n + 1):
                    a, b = support_bounds(n, q, alpha)
                    ratios = [_step_ratio(n, alpha, q, k)
                              for k in range(max(a, 2 * q - n), b)]
                    assert all(num > 0 and den > 0 for num, den in ratios), (n, alpha, q)
                    for (num, den), (num2, den2) in zip(ratios, ratios[1:]):
                        assert num * den2 >= num2 * den, (n, alpha, q)

    def test_step_ratio_never_rises_where_the_loop_stops(self):
        checked = 0
        for n, alpha, q in _large_cells(2021, 1000):
            k, _ = _tail_stop(n, alpha, q)
            if k is None or k + 1 >= min(alpha, q):
                continue
            num, den = _step_ratio(n, alpha, q, k)
            num2, den2 = _step_ratio(n, alpha, q, k + 1)
            assert num < den and num * den2 >= num2 * den, (n, alpha, q, k)
            checked += 1
            if checked == 200:
                break
        assert checked == 200


def _ln(value: Fraction) -> float:
    return math.log(value.numerator) - math.log(value.denominator)


class TestModelGap:
    """The churn process against the paper's urn at alpha = ceil(C n).

    The process replaces r nodes in each of delta batches; the urn
    replaces alpha at once.  Both answer the same sizing question.
    """

    @pytest.mark.parametrize(
        "q, ln_process, ln_urn", [(600, -382.664, -410.975), (700, -646.706, None)]
    )
    def test_deep_tail_urn_is_orders_of_magnitude_off(self, q, ln_process, ln_urn):
        # 50 batches of 10 replace C = 39.5% of n = 1000.  The process
        # spreads S wider than one batch of alpha = 395 does: at q = 600
        # its miss probability is about e^28 larger, and at q = 700 the
        # urn never misses (alpha < 2q - n), while the process can.
        alpha = replaced_count(1000, churn_ratio(Fraction(1, 100), 50))
        assert alpha == 395
        exact = helpers.churn_miss_probability_reference(1000, q, [10] * 50)
        assert _ln(exact) == pytest.approx(ln_process, abs=5e-4)
        got = _process_miss_probability(1000, q, ((10, 50),))
        assert math.log(got) == pytest.approx(_ln(exact), abs=1e-10)
        if ln_urn is None:
            assert miss_probability(1000, alpha, q, mode="exact").epsilon == 0
        else:
            urn = miss_probability(1000, alpha, q, mode="logspace").log_epsilon
            assert urn == pytest.approx(ln_urn, abs=5e-4)

    @pytest.mark.parametrize(
        "n, epsilon, delta, q, missed",
        [
            (1000, Fraction(1, 100), 1608, 149, 0.0101657),
            (10**4, Fraction(1, 1000), 16093, 584, 0.00100357),
        ],
    )
    def test_urn_size_misses_its_target_under_the_process(
        self, n, epsilon, delta, q, missed
    ):
        # Single-node batches up to C = 80%: `size --c 1/n --delta delta`
        # answers q, but the process misses more often than the target
        # there and first meets it one core member later.
        assert delta_for_churn(Fraction(1, n), Fraction(4, 5)).delta == delta
        alpha = replaced_count(n, churn_ratio(Fraction(1, n), delta))
        assert min_core_size(n, alpha, epsilon).q == q
        groups = ((1, delta),)
        at_q = _process_miss_probability(n, q, groups)
        assert at_q == pytest.approx(missed, rel=1e-5) and at_q > epsilon
        assert _process_miss_probability(n, q + 1, groups) <= epsilon
        if n <= EXACT_N_LIMIT:
            assert helpers.churn_miss_probability_reference(n, q, [1] * delta) > epsilon
            assert helpers.churn_miss_probability_reference(n, q + 1, [1] * delta) <= epsilon

    @pytest.mark.parametrize(
        "n, epsilon, r, ratio, delta, q",
        [
            (1000, Fraction(1, 100), 1, Fraction(3, 10), 356, 79),
            (1000, Fraction(1, 100), 50, Fraction(4, 5), 31, 148),
            (10**4, Fraction(1, 1000), 100, Fraction(4, 5), 160, 584),
        ],
    )
    def test_urn_size_is_the_process_size_at_these_cells(
        self, n, epsilon, r, ratio, delta, q
    ):
        # A witness pair under both models: q - 1 misses the target, q
        # meets it.
        assert delta_for_churn(Fraction(r, n), ratio).delta == delta
        alpha = replaced_count(n, churn_ratio(Fraction(r, n), delta))
        assert min_core_size(n, alpha, epsilon).q == q
        groups = ((r, delta),)
        assert _process_miss_probability(n, q - 1, groups) > epsilon
        assert _process_miss_probability(n, q, groups) <= epsilon


class TestProcessMonotone:
    def test_process_is_monotone_in_q_and_in_batches(self):
        # A solver over the process, like min_core_size and max_delta over
        # the urn, needs its exact miss probability to fall with q and to
        # rise with each batch.  Checked on every q at n <= 12 against
        # the inclusion-exclusion reference, which the law must match.
        for n in range(1, 13):
            for r in (1, 2, 3):
                if r > n:
                    continue
                grid = [
                    [helpers.churn_miss_probability_reference(n, q, [r] * k)
                     for q in range(n + 1)]
                    for k in range(7)
                ]
                for k, row in enumerate(grid):
                    assert all(b <= a for a, b in zip(row, row[1:])), (n, r, k)
                    if k:
                        assert all(b >= a for a, b in zip(grid[k - 1], row)), (n, r, k)
                    groups = ((r, k),) if k else ()
                    for q in range(1, n + 1):
                        got = _process_miss_probability(n, q, groups)
                        assert got == pytest.approx(float(row[q]), rel=1e-12, abs=0), (
                            n, r, k, q)
