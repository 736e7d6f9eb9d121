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
    hypergeometric_pmf,
    miss_probability,
    replaced_count,
    support_bounds,
)

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

    def test_logspace_zero_denominator_raises(self, monkeypatch):
        # On the validated domain ln C(n, q) and ln C(n, alpha) are finite;
        # were the denominator -inf (exact zero), -inf - -inf would give a
        # silent NaN, so the division must raise instead.
        monkeypatch.setattr("coreprobe.persistence.ln_binomial", lambda m, r: -math.inf)
        with pytest.raises(ZeroDivisionError):
            miss_probability(3000, 10, 5, mode="logspace")

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
