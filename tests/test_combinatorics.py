"""Exact and log-domain binomial primitives against independent oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from coreprobe import binomial_exact, ln_binomial, log_sum_exp

# Expected values are frozen from first-principles oracles in helpers.py.


def _log_close(actual: float, expected: float, rel: float) -> bool:
    return abs(actual - expected) <= rel * max(1.0, abs(expected))


class TestBinomialExact:
    def test_matches_additive_pascal_triangle(self):
        # The additive construction doubles as the Pascal-identity check.
        rows = helpers.pascal_rows(200)
        for m in range(201):
            for r in range(m + 1):
                assert binomial_exact(m, r) == rows[m][r]

    def test_product_form_anchor(self):
        assert binomial_exact(100, 50) == helpers.binom_product(100, 50)
        assert binomial_exact(100, 50) == 100891344545564193334812497256

    def test_small_values(self):
        assert binomial_exact(5, 2) == 10
        assert binomial_exact(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial_exact(5, 7) == 0
        assert binomial_exact(5, -1) == 0
        assert binomial_exact(0, 1) == 0

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            binomial_exact(-1, 0)

    @given(st.integers(0, 2000), st.integers(-5, 2005))
    def test_symmetry(self, m, r):
        assert binomial_exact(m, r) == binomial_exact(m, m - r)


class TestLnBinomial:
    # Sampled r offsets cover the edges and the bulge of each row.
    @staticmethod
    def _sample_rs(m):
        rs = {0, 1, 2, m // 4, m // 2, (3 * m) // 4, m - 2, m - 1, m}
        return [r for r in rs if 0 <= r <= m]

    def test_matches_exact_log_all_m_2000(self):
        for m in range(0, 2001, 1):
            for r in self._sample_rs(m):
                expected = math.log(binomial_exact(m, r)) if binomial_exact(m, r) else None
                if expected is None:
                    continue
                assert _log_close(ln_binomial(m, r), expected, 1e-12), (m, r)

    def test_matches_exact_log_sampled_large_m(self):
        rng = random.Random(20240817)
        for m in [5000, 20_000, 100_000]:
            rs = self._sample_rs(m) + [rng.randint(3, m - 3) for _ in range(20)]
            for r in rs:
                expected = math.log(binomial_exact(m, r))
                assert _log_close(ln_binomial(m, r), expected, 1e-12), (m, r)

    def test_matches_exact_log_at_kernel_sizes(self):
        # The logspace kernel's largest binomials: lower index up to q at
        # n up to 10^8.
        for m, r in [(10**6, 5874), (10**7, 18_600), (10**8, 7000), (10**8, 201)]:
            expected = math.log(binomial_exact(m, r))
            assert _log_close(ln_binomial(m, r), expected, 1e-12), (m, r)

    def test_central_binomial_at_large_m_in_constant_time(self):
        # C(2h, h) for h = 5*10^5 and 5*10^7: the exact integer would take
        # seconds; the oracle is the central binomial's own asymptotic
        # series, ln 4^h - ln(pi h) / 2 - 1/(8h) + 1/(192 h^3) + O(h^-5).
        for h in (5 * 10**5, 5 * 10**7):
            expected = h * math.log(4) - 0.5 * math.log(math.pi * h) - 1 / (8 * h)
            expected += 1 / (192 * h**3)
            assert _log_close(ln_binomial(2 * h, h), expected, 1e-12), h

    def test_small_anchor(self):
        assert abs(ln_binomial(5, 2) - math.log(10)) <= 1e-14 * math.log(10)

    def test_zero_convention(self):
        assert ln_binomial(4, -1) == -math.inf
        assert ln_binomial(4, 5) == -math.inf

    def test_r_zero_is_exact_one(self):
        assert ln_binomial(12345, 0) == 0.0
        assert ln_binomial(0, 0) == 0.0

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            ln_binomial(-3, 1)


class TestLogSumExp:
    def test_two_ones_give_ln_two(self):
        result = log_sum_exp([0.0, 0.0])
        assert abs(result - math.log(2)) <= 1e-14

    def test_empty_is_zero(self):
        assert log_sum_exp([]) == -math.inf
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_zero_terms_are_identity(self):
        x = math.log(0.25)
        assert log_sum_exp([-math.inf, x, -math.inf]) == x

    def test_thousand_terms_against_rational_sum(self):
        # Spread over [-50, 0] in the log; the oracle sums exact rationals.
        rng = random.Random(7)
        values = [math.exp(rng.uniform(-50.0, 0.0)) for _ in range(1000)]
        exact = sum(Fraction(v) for v in values)
        expected = math.log(exact.numerator) - math.log(exact.denominator)
        result = log_sum_exp([math.log(v) for v in values])
        assert abs(result - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_far_below_double_underflow_range(self):
        # Values near e^-800 are not representable; factoring out the max
        # gives an independent route to the answer.
        terms = [-800.0 - 0.1 * i for i in range(100)]
        expected = -800.0 + math.log(math.fsum(math.exp(-0.1 * i) for i in range(100)))
        result = log_sum_exp(terms)
        assert abs(result - expected) <= 1e-12 * abs(expected)

    @given(st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_permutation_invariant_bitwise(self, logs, rng):
        shuffled = list(logs)
        rng.shuffle(shuffled)
        assert log_sum_exp(logs) == log_sum_exp(shuffled)

    def test_positive_infinity_rejected(self):
        with pytest.raises(OverflowError):
            log_sum_exp([math.inf, 0.0])
