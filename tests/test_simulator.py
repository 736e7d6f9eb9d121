"""Tests for the Monte Carlo cross-check of the analytic miss probability."""

import concurrent.futures
import math
import os
import statistics
import subprocess
import sys
import textwrap
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coreprobe
from coreprobe import (
    TrialConfig,
    compare_with_analytic,
    draw_subsets,
    miss_probability,
    replaced_count,
    churn_ratio,
    run_trials,
    wilson_interval,
)
from coreprobe import persistence, simulator
from coreprobe.persistence import _survivor_law
from coreprobe.simulator import _block_rng, _replacement_units
from helpers import (
    binom_product,
    churn_miss_probability_reference,
    churn_trials_reference,
    floyd_hits_reference,
    probe_misses_reference,
    replacement_schedule_reference,
    selection_hits_reference,
    survivor_law_reference,
)


def _urn(n, q, alpha, trials, seed=0):
    return TrialConfig(n=n, q=q, trials=trials, model="urn", alpha=alpha, seed=seed)


def _churn(n, q, c, delta, trials, seed=0, fractional=False):
    return TrialConfig(
        n=n, q=q, trials=trials, model="churn_process", c=c, delta=delta,
        seed=seed, fractional_churn=fractional,
    )


def _groups(batches):
    """The survivor law's key for a per-unit schedule: (r, count), r > 0, ascending."""
    return tuple(sorted((r, k) for r, k in Counter(batches).items() if r))


def _spy(monkeypatch, owner, name):
    """Patch ``owner.name`` to record the arguments of each call; return the record."""
    calls, fn = [], getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


class TestTrialConfig:
    def test_urn_requires_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            TrialConfig(n=10, q=2, trials=5, model="urn")

    def test_urn_rejects_churn_fields(self):
        with pytest.raises(ValueError):
            TrialConfig(n=10, q=2, trials=5, model="urn", alpha=1, c=0.1)
        with pytest.raises(ValueError):
            TrialConfig(n=10, q=2, trials=5, model="urn", alpha=1, delta=3)
        with pytest.raises(ValueError):
            TrialConfig(
                n=10, q=2, trials=5, model="urn", alpha=1, fractional_churn=True
            )

    def test_churn_requires_rate_and_period(self):
        with pytest.raises(ValueError):
            TrialConfig(n=10, q=2, trials=5, model="churn_process", c=0.1)
        with pytest.raises(ValueError):
            TrialConfig(n=10, q=2, trials=5, model="churn_process", delta=3)
        with pytest.raises(ValueError):
            TrialConfig(
                n=10, q=2, trials=5, model="churn_process", c=0.1, delta=3, alpha=1
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, q=0, trials=1, model="urn", alpha=0),
            dict(n=2**31, q=1, trials=1, model="urn", alpha=0),
            dict(n=10**9, q=1, trials=1, model="urn", alpha=0),
            dict(n=10, q=11, trials=1, model="urn", alpha=0),
            dict(n=10, q=-1, trials=1, model="urn", alpha=0),
            dict(n=10, q=2, trials=0, model="urn", alpha=0),
            dict(n=10, q=2, trials=1, model="urn", alpha=11),
            dict(n=10, q=2, trials=1, model="urn", alpha=0, seed=-1),
            dict(n=10, q=2, trials=1, model="urn", alpha=0, seed=2**64),
            dict(n=10, q=2, trials=1, model="churn_process", c=1.0, delta=1),
            dict(n=10, q=2, trials=1, model="churn_process", c=-0.1, delta=1),
            dict(n=10, q=2, trials=1, model="churn_process", c=0.1, delta=-1),
            dict(n=10, q=2, trials=1, model="nonsense", alpha=0),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig(**kwargs)

    def test_accepts_static_churn(self):
        # c = 0 and delta = 0 are both legal degenerate churn processes.
        TrialConfig(n=10, q=2, trials=1, model="churn_process", c=0.0, delta=5)
        TrialConfig(n=10, q=2, trials=1, model="churn_process", c=0.5, delta=0)


class TestWilsonInterval:
    def test_hand_computed_value(self):
        # successes=3, trials=10, z=2: center (0.3 + 0.2) / 1.4,
        # half-width 2 sqrt(0.021 + 0.01) / 1.4.
        low, high = wilson_interval(3, 10, z=2.0)
        center = Fraction(3, 10) + Fraction(4, 20)
        denom = 1 + Fraction(4, 10)
        half = 2 * math.sqrt(0.3 * 0.7 / 10 + 4 / 400) / float(denom)
        assert low == pytest.approx(float(center / denom) - half, rel=1e-12)
        assert high == pytest.approx(float(center / denom) + half, rel=1e-12)

    @given(
        trials=st.integers(min_value=1, max_value=10**9),
        frac=st.fractions(min_value=0, max_value=1),
    )
    @settings(max_examples=200)
    def test_brackets_the_estimate(self, trials, frac):
        successes = round(frac * trials)
        low, high = wilson_interval(successes, trials)
        phat = successes / trials
        assert 0.0 <= low <= phat + 1e-12
        assert phat - 1e-12 <= high <= 1.0
        assert low < high

    def test_boundary_counts_pin_to_zero_and_one(self):
        low, _ = wilson_interval(0, 1000)
        assert low == 0.0
        _, high = wilson_interval(1000, 1000)
        assert high == 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestDrawSubsets:
    def test_rows_are_distinct_subsets_of_range(self):
        rows = draw_subsets(9, 4, 1000, seed=7)
        assert rows.shape == (1000, 4)
        assert rows.min() >= 0 and rows.max() < 9
        # Strictly ascending rows: distinct members, listed in order.
        assert (np.diff(rows, axis=1) > 0).all()

    def test_full_draw_is_a_permutation(self):
        rows = draw_subsets(7, 7, 200, seed=1)
        assert (np.sort(rows, axis=1) == np.arange(7)).all()

    def test_empty_draw(self):
        assert draw_subsets(5, 0, 10).shape == (10, 0)

    def test_uniform_over_all_20_subsets(self):
        # 3-subsets of range(6): each of C(6,3)=20 must appear about
        # 10000 times in 200k draws; the max deviation sits within 4
        # standard deviations (sigma ~ 97.5).
        rows = draw_subsets(6, 3, 200_000, seed=0)
        masks = (1 << rows).sum(axis=1)
        counts = np.bincount(masks, minlength=64)
        hit = counts[counts > 0]
        assert len(hit) == 20
        assert np.abs(hit - 10_000).max() < 390

    def test_deterministic_in_seed(self):
        a = draw_subsets(40, 5, 3000, seed=11)
        b = draw_subsets(40, 5, 3000, seed=11)
        c = draw_subsets(40, 5, 3000, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_oversized_subset(self):
        with pytest.raises(ValueError):
            draw_subsets(5, 6, 10)
        with pytest.raises(ValueError):
            draw_subsets(5, 2, 0)

    @pytest.mark.parametrize("n", [0, 2**31])
    def test_rejects_population_outside_the_int32_range(self, n):
        with pytest.raises(ValueError, match=r"n must lie in \[1, 2\^31\)"):
            draw_subsets(n, 0, 1)


def _within_4_sigma(count, trials, p):
    mean = trials * p
    return abs(count - mean) < 4 * math.sqrt(trials * p * (1 - p))


@pytest.mark.parametrize("method", [selection_hits_reference, floyd_hits_reference])
class TestCoreHits:
    # The two slot samplers behind the reference churn sampler in
    # helpers.py, checked against exact subset laws.  Both are called
    # directly, whichever the reference sampler would pick for (k, m).
    @pytest.mark.parametrize("k", [0, 1, 4, 10])
    def test_full_mask_has_k_members_per_row(self, method, k):
        hits = method(_block_rng(5, 0), 2000, 10, k, 10, 1)
        assert hits.shape == (2000, 10)
        assert (hits.sum(axis=1) == k).all()

    def test_uniform_over_all_20_subsets(self, method):
        # Each of C(6,3)=20 masks about 10000 times in 200k rows; the
        # max deviation sits within 4 standard deviations (sigma ~ 97.5).
        hits = method(_block_rng(0, 0), 200_000, 6, 3, 6, 1)
        masks = hits @ (1 << np.arange(6))
        counts = np.bincount(masks, minlength=64)
        hit = counts[counts > 0]
        assert len(hit) == 20
        assert np.abs(hit - 10_000).max() < 390

    def test_joint_membership_of_a_restricted_prefix(self, method):
        # Only slots {0, 1} of a 3-subset of range(10) are reported; the
        # four membership patterns have exact probabilities
        # C(8, 3 - members) / C(10, 3).
        trials = 100_000
        hits = method(_block_rng(1, 0), trials, 10, 3, 2, 1)
        assert hits.shape == (trials, 2)
        pattern = hits[:, 0] + 2 * hits[:, 1]
        counts = np.bincount(pattern, minlength=4)
        for code, count in enumerate(counts):
            members = bin(code).count("1")
            p = Fraction(math.comb(8, 3 - members), math.comb(10, 3))
            assert _within_4_sigma(count, trials, float(p)), (code, count, p)

    def test_union_of_units_matches_survival(self, method):
        # A slot escapes each of 4 independent 3-subsets of range(20)
        # with probability 1 - 3/20; slots 0 and 1 both escape one with
        # probability C(18, 3) / C(20, 3).
        trials, n, k, units = 50_000, 20, 3, 4
        hits = method(_block_rng(2, 0), trials, n, k, 5, units)
        survive = Fraction(n - k, n) ** units
        for slot in range(5):
            assert _within_4_sigma(int((~hits[:, slot]).sum()), trials, float(survive))
        both = Fraction(math.comb(n - 2, k), math.comb(n, k)) ** units
        count = int((~hits[:, 0] & ~hits[:, 1]).sum())
        assert _within_4_sigma(count, trials, float(both))


def _z(observed, mean, variance, trials):
    return (observed - mean) / math.sqrt(variance / trials)


def _survivor_moments(n, q, batches):
    """Exact mean and variance of S, from its first two factorial moments."""
    mean, pairs = Fraction(q), Fraction(q * (q - 1))
    for r in batches:
        mean *= Fraction(n - r, n)
        pairs *= Fraction((n - r) * (n - r - 1), n * (n - 1))
    return mean, pairs + mean - mean**2


class TestReferenceSampler:
    # helpers.churn_trials_reference marks core slots batch by batch,
    # sharing no code with the survivor law the simulator draws from.
    # Its estimates are z-tested against the exact process values, and
    # its draws are pinned: misses and survivor sum at seed 11.
    @pytest.mark.parametrize(
        "n, q, batches, trials, pinned",
        [
            (1000, 79, [3] * 100, 32768, (217, 1916816)),
            (10, 9, [3] * 5, 200_000, (32334, 302214)),
            (200, 20, [2, 3] * 20, 50_000, (13780, 604072)),
        ],
    )
    def test_misses_and_survivor_mean_match_the_exact_process(
        self, n, q, batches, trials, pinned
    ):
        misses, survivors = churn_trials_reference(
            n, q, batches, trials, _block_rng(11, 0)
        )
        assert (misses, int(survivors.sum())) == pinned
        eps = float(churn_miss_probability_reference(n, q, batches))
        assert abs(_z(misses / trials, eps, eps * (1 - eps), trials)) < 4
        mean, variance = _survivor_moments(n, q, batches)
        z = _z(survivors.mean(), float(mean), float(variance), trials)
        assert abs(z) < 4

    def test_exact_value_at_the_benchmark_cell(self):
        eps = churn_miss_probability_reference(1000, 79, [3] * 100)
        assert float(eps) == pytest.approx(0.00737043, abs=5e-9)

    @pytest.mark.parametrize(
        "n, q, batches", [(100, 5, [1] * 10), (60, 7, [3] * 6), (20, 6, [2, 2, 3])]
    )
    def test_inclusion_exclusion_matches_the_survivor_chain(self, n, q, batches):
        law = survivor_law_reference(n, q, batches)
        avoid = [Fraction(math.comb(n - s, q), math.comb(n, q)) for s in range(q + 1)]
        chain = sum(p * a for p, a in zip(law, avoid))
        assert chain == churn_miss_probability_reference(n, q, batches)


class TestDeterminism:
    def test_blocks_hold_16384_trials_at_any_n(self, monkeypatch):
        # 2 * 16384 + 1 trials at n = 10^6 run blocks of 16384, 16384
        # and 1, and block b replays from substream b: the count of its
        # trials at each survivor count, one multinomial draw over the
        # law after the batch, and then its probes, drawn here in that
        # order.
        n, q, trials = 10**6, 2000, 2 * 16384 + 1
        cfg = _churn(n, q, 0.3, 1, trials, seed=3)
        calls = []
        block_outcome = simulator._block_outcome

        def recording(config, lo, law, block, size):
            calls.append((block, size, block_outcome(config, lo, law, block, size)))
            return calls[-1][2]

        monkeypatch.setattr(simulator, "_block_outcome", recording)
        report = run_trials(cfg)
        assert [(b, size) for b, size, _ in calls] == [(0, 16384), (1, 16384), (2, 1)]
        lo, law = _survivor_law(n, q, [(300_000, 1)])
        for block, size, outcome in calls:
            rng = _block_rng(3, block)
            held = rng.multinomial(size, law / law.sum())
            at = np.flatnonzero(held)
            misses = simulator._probe_misses(rng, n, q, lo + at, held[at])
            drawn = np.repeat(lo + at, held[at])
            assert outcome == (misses, int(drawn.sum()), int((drawn**2).sum()))
        assert report.misses == sum(outcome[0] for _, _, outcome in calls)
        assert report.survivor_mean == sum(outcome[1] for _, _, outcome in calls) / trials

    def test_thread_count_does_not_change_the_report(self):
        # 40k trials at n=50 span multiple blocks; integer aggregation
        # over per-block substreams makes the result thread-invariant.
        cfg = _churn(50, 10, 0.01, 5, 40_000, seed=9)
        assert run_trials(cfg, threads=1) == run_trials(cfg, threads=3)
        ucfg = _urn(50, 10, 7, 40_000, seed=9)
        assert run_trials(ucfg, threads=1) == run_trials(ucfg, threads=4)

    def test_seed_changes_the_outcome(self):
        base = run_trials(_urn(30, 5, 10, 20_000, seed=0))
        same = run_trials(_urn(30, 5, 10, 20_000, seed=0))
        other = run_trials(_urn(30, 5, 10, 20_000, seed=1))
        assert base == same
        assert base.misses != other.misses

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            run_trials(_urn(30, 5, 10, 100), threads=0)

    @pytest.mark.parametrize(
        "cpus, blocks, pools", [(4, 6, [4]), (4, 3, [3]), (1, 6, []), (None, 6, [])]
    )
    def test_pool_is_capped_at_blocks_and_cpus(self, monkeypatch, cpus, blocks, pools):
        # A recording stand-in for the pool, so no thread starts however
        # many are asked for.  One worker runs the blocks in this thread.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = _urn(10**6, 10, 1000, blocks * 16384)
        report = run_trials(cfg, threads=10**6)
        assert sizes == pools
        assert report == run_trials(cfg, threads=1)


class TestUrnModel:
    # Frozen miss counts double as regression guards for the RNG scheme:
    # a change in block layout or sampling order would shift them.
    def test_matches_exact_probability_6_2_3(self):
        report = run_trials(_urn(6, 2, 3, 10**6))
        assert report.misses == 679_719
        assert report.epsilon_hat == report.misses / 10**6
        exact = miss_probability(6, 3, 2).epsilon
        assert exact == Fraction(17, 25)
        assert report.ci_low <= float(exact) <= report.ci_high

    def test_matches_exact_probability_static(self):
        report = run_trials(_urn(5, 1, 0, 200_000))
        assert report.misses == 159_843
        assert report.ci_low <= 0.8 <= report.ci_high

    def test_matches_exact_probability_10_4_5(self):
        report = run_trials(_urn(10, 4, 5, 200_000))
        exact = float(miss_probability(10, 5, 4).epsilon)
        assert report.misses == 73_401
        assert report.ci_low <= exact <= report.ci_high

    def test_certain_miss_and_certain_hit(self):
        all_replaced = run_trials(_urn(12, 3, 12, 5000))
        assert all_replaced.misses == 5000
        probe_everything = run_trials(_urn(12, 12, 3, 5000))
        assert probe_everything.misses == 0

    def test_survivor_mean_matches_the_exact_urn_mean(self):
        # alpha of n nodes replaced leave Hypergeometric survivors among
        # the q core slots: mean q (n - alpha) / n = 55.3 and variance
        # alpha (q/n) (1 - q/n) (n - alpha)/(n - 1), sd about 3.91.
        n, q, alpha, trials = 1000, 79, 300, 100_000
        report = run_trials(_urn(n, q, alpha, trials))
        mean = q * (n - alpha) / n
        sd = math.sqrt(alpha * q / n * (1 - q / n) * (n - alpha) / (n - 1))
        assert mean == pytest.approx(55.3) and sd == pytest.approx(3.91, abs=5e-3)
        assert abs(report.survivor_mean - mean) <= 3 * sd / math.sqrt(trials)
        assert report.survivor_stddev == pytest.approx(sd, rel=0.02)


class TestChurnProcess:
    def test_survivor_decay_matches_expectation(self):
        # With q = n every trial tracks all initial nodes.  One uniform
        # replacement per unit keeps a node alive with probability
        # (1 - 1/n) per unit, so the mean survivor count after delta
        # units is n(1 - 1/n)^delta; the observed mean must sit within
        # 3 standard errors.
        trials = 2000
        report = run_trials(_churn(1000, 1000, 1e-3, 105, trials))
        expected = 1000 * (1 - 1 / 1000) ** 105
        se = report.survivor_stddev / math.sqrt(trials)
        assert abs(report.survivor_mean - expected) <= 3 * se

    def test_zero_rate_is_static(self):
        report = run_trials(_churn(20, 5, 0.0, 7, 5000))
        assert report.survivor_mean == 5.0
        assert report.survivor_stddev == 0.0
        exact = float(miss_probability(20, 0, 5).epsilon)
        assert report.ci_low <= exact <= report.ci_high

    def test_zero_delta_is_static(self):
        report = run_trials(_churn(20, 5, 0.3, 0, 5000))
        assert report.survivor_mean == 5.0
        assert report.misses == run_trials(_churn(20, 5, 0.0, 9, 5000)).misses

    # Frozen miss counts and survivor sums guard the survivor law and
    # the draws made from it: a change in any draw would shift them.
    # Each estimate's 99% Wilson interval holds the exact process value.
    def test_frozen_counts_where_the_core_is_out_of_swap_reach(self):
        # n - ceil(c*n) >= q: the benchmark cell, 100 batches of 3.
        report = run_trials(_churn(1000, 79, 0.003, 100, 32768))
        assert report.misses == 230
        assert report.survivor_mean == 1_917_074 / 32768
        exact = float(churn_miss_probability_reference(1000, 79, [3] * 100))
        assert report.ci_low <= exact <= report.ci_high

    def test_frozen_counts_where_swaps_land_in_the_core(self):
        # n - ceil(c*n) = 7 < q = 9: every batch can take core slots only.
        report = run_trials(_churn(10, 9, 0.3, 5, 200_000))
        assert report.misses == 32_499
        assert report.survivor_mean == 301_533 / 200_000
        exact = float(churn_miss_probability_reference(10, 9, [3] * 5))
        assert report.ci_low <= exact <= report.ci_high

    def test_frozen_counts_fractional(self):
        # c*n = 2.5: batches of 2 and 3 alternate.
        report = run_trials(_churn(200, 20, 0.0125, 40, 50_000, fractional=True))
        assert report.misses == 13_750
        assert report.survivor_mean == 604_804 / 50_000
        exact = float(churn_miss_probability_reference(200, 20, [2, 3] * 20))
        assert report.ci_low <= exact <= report.ci_high

    def test_single_batch_in_a_fractional_schedule(self):
        # c*n = 2.5 over 3 units: batches of 2, 3, 2.  The pair of 2s and
        # the lone batch of 3 both enter the survivor law; the survivor
        # mean must sit within 4 standard errors of q * prod_t (1 - r_t/n).
        cfg = _churn(20, 10, 0.125, 3, 100_000, fractional=True)
        assert _replacement_units(cfg) == ((2, 2), (3, 1))
        report = run_trials(cfg)
        expected = 10 * (1 - 2 / 20) ** 2 * (1 - 3 / 20)
        se = report.survivor_stddev / math.sqrt(cfg.trials)
        assert abs(report.survivor_mean - expected) <= 4 * se

    def test_long_delta_squares_its_transition(self):
        # One batch of 1 per unit for 10^6 units: the law comes from a
        # power of the 80 x 80 transition, not 10^6 steps, so a full
        # block finishes well under a second.
        start = time.perf_counter()
        report = run_trials(_churn(1000, 79, 1e-6, 10**6, 16384))
        assert time.perf_counter() - start < 1.0
        assert report.misses == 16384 and report.survivor_mean == 0.0

    def test_long_delta_survivor_mean(self):
        # After 3000 single-node batches a core slot survives with
        # probability (1 - 1/1000)^3000, so the mean is about 3.92.
        trials = 32768
        report = run_trials(_churn(1000, 79, 1e-6, 3000, trials))
        expected = 79 * (1 - 1 / 1000) ** 3000
        se = report.survivor_stddev / math.sqrt(trials)
        assert abs(report.survivor_mean - expected) <= 4 * se

    @pytest.mark.parametrize(
        "q, c, r",
        [(9 * 10**8, 0.1, 10**8), (10**9 - 1, 1e-9, 1)],
    )
    def test_survivor_statistics_are_exact_at_the_largest_population(
        self, q, c, r
    ):
        # delta = 1 at n = 10^9 - 1: 64 survivor counts near 10^9, whose
        # squares sum past 2^63.  The report must give the exact mean and
        # sample standard deviation of the block's survivor counts, one
        # multinomial draw over the law after the batch, replayed here.
        n = 10**9 - 1
        cfg = _churn(n, q, c, 1, 64)
        assert _replacement_units(cfg) == ((r, 1),)
        lo, law = _survivor_law(n, q, [(r, 1)])
        held = _block_rng(cfg.seed, 0).multinomial(64, law / law.sum())
        drawn = [lo + i for i, count in enumerate(held.tolist()) for _ in range(count)]
        assert sum(s * s for s in drawn) >= 2**63
        report = run_trials(cfg)
        assert report.survivor_mean == sum(drawn) / 64
        assert report.survivor_stddev == pytest.approx(
            statistics.stdev(drawn), rel=1e-12, abs=0.0
        )

    def test_replacement_units_constant_ceiling(self):
        cfg = _churn(5, 1, 0.1, 4, 1)
        assert _replacement_units(cfg) == ((1, 4),)

    def test_replacement_units_fractional_carry(self):
        cfg = _churn(5, 1, 0.1, 4, 1, fractional=True)
        assert _replacement_units(cfg) == ((1, 2),)

    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize(
        "n,c,delta",
        [
            (5, 0.1, 4),
            (200, 0.0125, 40),
            (100, 0.005, 10),
            (1000, 0.003, 100),
            (7, 1 / 3, 30),
            (997, Fraction(1, 7), 25),
            (997, Fraction(1, 7), 10**5),
            (50, 0.0, 12),
            (50, 0.2, 0),
        ],
    )
    def test_replacement_units_group_the_per_unit_schedule(
        self, n, c, delta, fractional
    ):
        cfg = _churn(n, 1, c, delta, 1, fractional=fractional)
        schedule = replacement_schedule_reference(n, c, delta, fractional)
        assert _replacement_units(cfg) == _groups(schedule)

    def test_fractional_units_take_constant_time_in_delta(self):
        # Unit t replaces floor(t*rate) - floor((t-1)*rate), rate = c*n
        # taken exactly, so delta = 10^12 units are counted, not walked.
        n, c, delta = 997, Fraction(1, 7), 10**12
        cfg = _churn(n, 1, c, delta, 1, fractional=True)
        start = time.perf_counter()
        units = _replacement_units(cfg)
        assert time.perf_counter() - start < 0.01
        rate = Fraction(c) * n
        assert [r for r, _ in units] == [142, 143]
        assert sum(count for _, count in units) == delta
        assert sum(r * count for r, count in units) == math.floor(delta * rate)

    def test_fractional_units_count_the_rate_exactly(self):
        # c*n = 0.1: ten units replace floor(10 * 0.1...) = 1 node, as the
        # float 0.1 lies just above 1/10.  The float carry in
        # replacement_schedule_reference sums ten 0.1s to
        # 0.9999999999999999 and replaces none.
        cfg = _churn(10, 3, 0.01, 10, 1, fractional=True)
        assert _replacement_units(cfg) == ((1, 1),)
        assert replacement_schedule_reference(10, 0.01, 10, True) == [0] * 10

    @pytest.mark.parametrize(
        "n, c, delta, units",
        [
            (10_000, Fraction(15, 100_000), 200, ((1, 100), (2, 100))),
            (1000, Fraction(123, 100_000), 10**5, ((1, 77_000), (2, 23_000))),
        ],
    )
    def test_fractional_units_replace_an_integer_total_exactly(
        self, n, c, delta, units
    ):
        # The CLI's --c 0.015% and --c 0.123%: c*n*delta is an integer
        # (300 and 123,000), and every node of it is replaced; c*n taken
        # through a float replaced 299 and 122,999.
        cfg = _churn(n, 3, c, delta, 1, fractional=True)
        assert _replacement_units(cfg) == units
        assert sum(r * count for r, count in units) == c * n * delta

    def test_constant_units_memory_does_not_grow_with_delta(self):
        cfg = _churn(1000, 79, 1e-6, 10**8, 1)
        tracemalloc.start()
        try:
            units = _replacement_units(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert units == ((1, 10**8),)
        assert peak < 2**20

    def test_fractional_replaces_half_as_many_here(self):
        # c*n = 0.5: the ceiling schedule replaces one node per unit,
        # the fractional one every other unit, so fewer misses.
        ceil_report = run_trials(_churn(100, 5, 0.005, 10, 20_000))
        frac_report = run_trials(
            _churn(100, 5, 0.005, 10, 20_000, fractional=True)
        )
        assert frac_report.misses < ceil_report.misses


# The law-build constants that force each way of applying a group.  A
# budget of 4 values leaves one row per chunk once r > 0, so rows are
# rebuilt at every batch even at n = 1; a budget of 64 puts several rows
# in a chunk, so chunk edges fall inside the batch's window.
_LAW_PATHS = {
    "stepping": {"_MATMUL_SPEEDUP": 1e-9},
    "squaring": {"_MATMUL_SPEEDUP": math.inf},
    "chunked": {"_MATMUL_SPEEDUP": 1e-9, "_CALL_ELEMENTS": 4},
    "chunked-64": {"_MATMUL_SPEEDUP": 1e-9, "_CALL_ELEMENTS": 64},
}


class TestSurvivorLaw:
    @pytest.mark.parametrize("path", sorted(_LAW_PATHS))
    @pytest.mark.parametrize("n", range(1, 16))
    def test_matches_the_exact_chain_at_small_n(self, n, path, monkeypatch):
        # Every (q, r, count) with count <= 4, through each way of
        # applying a group: batch by batch, by a matrix power, and batch
        # by batch with rows rebuilt from several chunks.  The calls
        # prove the path ran: only squaring takes a matrix power, one per
        # law; stepping builds its rows once per law, chunking more often
        # (with a budget of 64, once the rows outgrow it at n = 5).
        for name, value in _LAW_PATHS[path].items():
            monkeypatch.setattr(persistence, name, value)
        powers = _spy(monkeypatch, np.linalg, "matrix_power")
        rows = _spy(monkeypatch, persistence, "_batch_rows")
        laws = 0
        for q in range(n + 1):
            for r in range(n + 1):
                for count in range(1, 5):
                    exact = survivor_law_reference(n, q, [r] * count)
                    want = np.array([float(p) for p in exact])
                    lo, law = _survivor_law(n, q, [(r, count)])
                    laws += 1
                    assert law[0] > 0 and law[-1] > 0
                    got = np.zeros(q + 1)
                    got[lo : lo + len(law)] = law
                    assert (abs(got - want) <= 1e-12 * want).all(), (q, r, count)
        assert len(powers) == (laws if path == "squaring" else 0)
        if path == "stepping":
            assert len(rows) == laws
        if path == "chunked" or (path == "chunked-64" and n >= 5):
            assert len(rows) > laws
        if path == "chunked-64":
            assert max(len(states) for _, _, states, _ in rows) > 1

    @pytest.mark.parametrize(
        "n, q, c, delta, fractional",
        [
            (1000, 79, 0.003, 100, False),  # the mc-churn benchmark cell
            (1000, 1000, 0.01, 50, False),  # criterion 8
            (200, 20, 0.0025, 40, True),  # batches of 0 and 1, 20 each
            # C(n - s, r) / C(n, r) underflows: rows must not start there.
            (2000, 400, 0.8, 2, False),
            (10**5, 2000, 0.4, 2, False),
        ],
    )
    def test_mass_and_moments_are_exact(self, n, q, c, delta, fractional):
        units = _replacement_units(_churn(n, q, c, delta, 1, fractional=fractional))
        lo, law = _survivor_law(n, q, units)
        assert np.isfinite(law).all() and (law >= 0).all()
        s = lo + np.arange(len(law))
        batches = [r for r, count in units for _ in range(count)]
        mean, variance = _survivor_moments(n, q, batches)
        pairs = variance + mean**2 - mean
        assert law.sum() == pytest.approx(1.0, rel=1e-12)
        assert (law * s).sum() == pytest.approx(float(mean), rel=1e-12)
        assert (law * s * (s - 1)).sum() == pytest.approx(float(pairs), rel=1e-12)

    @pytest.mark.parametrize(
        "n, q, groups, widest",
        [
            (1000, 79, [(3, 100)], 80),  # the mc-churn benchmark cell
            (20, 10, [(2, 2), (3, 1)], 11),  # a fractional schedule's single
            # One batch removes about 150,000 of 500,000 survivors.
            (10**6, 5 * 10**5, [(3 * 10**5, 1)], 5 * 10**4),
        ],
    )
    def test_law_is_kept_on_its_nonzero_window(self, n, q, groups, widest):
        # law[i] = P(S = lo + i) from the first to the last nonzero
        # count: a batch never holds the counts it skips.
        lo, law = _survivor_law(n, q, groups)
        assert law[0] > 0 and law[-1] > 0
        assert 0 <= lo and lo + len(law) <= q + 1 and len(law) <= widest
        survive = math.prod(1 - Fraction(r, n) for r, count in groups
                            for _ in range(count))
        mean = (law * (lo + np.arange(len(law)))).sum()
        assert mean == pytest.approx(float(q * survive), rel=1e-9)

    def test_memory_does_not_grow_with_the_reachable_range(self):
        # Two batches of 30,000 from q = 20,000 can reach every count, and
        # rows that wide do not fit one call's budget: each batch must
        # build and apply them a chunk at a time, never all at once.
        tracemalloc.start()
        try:
            _survivor_law(10**5, 20_000, [(30_000, 2)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 320 * 2**20

    @pytest.mark.parametrize(
        "n, s, r", [(3000, 1500, 1500), (20_000, 2000, 2000), (8000, 4000, 4000)]
    )
    def test_rows_drop_only_terms_below_the_float_range(self, n, s, r):
        # With m = min(S, r), Hoeffding (1963, Thm. 4) gives
        # P(k)/P(mode) <= (m+1) exp(-2(|k - mode| - 1)^2 / m) for k off
        # the mode, so every term at least 2 + isqrt(m (746 + bitlen m))
        # from the mode is below 2^-1075 of the mode's: a row may drop it.
        # Checked here on the exact integer terms, and the law after one
        # batch matches them wherever they are normal floats.
        m = min(s, r)
        mode = (r + 1) * (s + 1) // (n + 2)
        low = max(0, r - n + s)
        terms = [math.comb(s, low) * math.comb(n - s, r - low)]
        for k in range(low, m):  # C(s, k) C(n - s, r - k), exactly
            terms.append(terms[-1] * (s - k) * (r - k) // ((k + 1) * (n - s - r + k + 1)))
        peak = terms[mode - low]
        assert peak == max(terms)
        band = 2 + math.isqrt(m * (746 + m.bit_length()))
        for k, term in enumerate(terms, start=low):
            d = abs(k - mode)
            if d:
                bound = math.log(m + 1) - 2 * (d - 1) ** 2 / m
                assert math.log(term) - math.log(peak) <= bound + 1e-9
            if d >= band:
                assert term * 2**1075 < peak
        lo, law = _survivor_law(n, s, [(r, 1)])
        total = sum(terms)
        for k, term in enumerate(terms, start=low):
            exact = term / total
            got = law[s - k - lo] if 0 <= s - k - lo < len(law) else 0.0
            if exact >= 2**-1022:
                assert got == pytest.approx(exact, rel=1e-10)
            else:
                assert got <= 2**-1020

    @pytest.mark.parametrize("q, at", [(6, 0), (6, 3), (6, 6)])
    def test_a_certain_count_is_always_drawn(self, q, at):
        # A law with all its mass on one count, zeros on either side:
        # every draw must land there, so the survivor sums have no spread.
        law = np.zeros(q + 1)
        law[at] = 1.0
        cfg = _churn(1000, q, 0.003, 2, 16384)
        _, total, squares = simulator._block_outcome(cfg, 0, law, 0, 16384)
        assert (total, squares) == (at * 16384, at * at * 16384)

    @pytest.mark.parametrize(
        "n, q, c, delta",
        [(1000, 79, 0.003, 100), (2000, 400, 0.8, 2), (50, 10, 0.1, 4)],
    )
    def test_every_drawn_count_lies_in_the_support(self, n, q, c, delta):
        # The block's draws, replayed: each S has positive probability,
        # and the block reports exactly their sums.
        cfg = _churn(n, q, c, delta, 16384)
        lo, law = _survivor_law(n, q, _replacement_units(cfg))
        law = law / law.sum()
        held = _block_rng(cfg.seed, 0).multinomial(16384, law)
        assert held.sum() == 16384 and (law[held > 0] > 0).all()
        drawn = np.repeat(lo + np.arange(len(law)), held)
        _, total, squares = simulator._block_outcome(cfg, lo, law, 0, 16384)
        assert (total, squares) == (int(drawn.sum()), int((drawn**2).sum()))


class TestProbe:
    # (n, q, S): S = 0; the smallest urn; S > q; the benchmark's scale;
    # q > n/2; q = n; S + q = n; S + q = n + 1; and n = 10^9 - 1.
    _CELLS = [
        (1000, 79, 0),
        (2, 1, 1),
        (100, 5, 30),
        (1000, 79, 55),
        (40, 25, 3),
        (1000, 600, 2),
        (40, 40, 0),
        (40, 40, 1),
        (12, 8, 4),
        (12, 8, 5),
        (10**9 - 1, 3, 4 * 10**8),
    ]

    @pytest.mark.parametrize("n, q, s", _CELLS)
    def test_misses_match_the_exact_avoidance_chance(self, n, q, s):
        # A point law at S leaves the probe as the only draw in a block,
        # so 64 blocks of misses are binomial at C(n - S, q)/C(n, q).
        # The bound |z| <= 4.5 was fixed before the battery first ran;
        # a certain miss or hit must come out every time.
        blocks, size = 64, 16384
        trials = blocks * size
        cfg = _urn(n, q, 0, trials)
        misses = sum(
            simulator._block_outcome(cfg, s, np.ones(1), b, size)[0]
            for b in range(blocks)
        )
        exact = Fraction(binom_product(n - s, q), binom_product(n, q))
        if exact in (0, 1):
            assert misses == exact * trials
        else:
            se = math.sqrt(exact * (1 - exact) / trials)
            assert abs(misses / trials - exact) <= 4.5 * se

    def test_no_draw_is_hypergeometric(self, monkeypatch):
        # The probe is simulated draw by draw and the survivor counts come
        # from the law, so a generator without a hypergeometric sampler
        # gives the same reports.
        class Unhypergeometric:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                if name == "hypergeometric":
                    raise AssertionError("a hypergeometric draw was made")
                return getattr(self._rng, name)

        configs = [_urn(1000, 79, 300, 20_000), _churn(40, 25, 0.1, 5, 20_000)]
        expected = [run_trials(cfg) for cfg in configs]
        monkeypatch.setattr(
            simulator, "_block_rng",
            lambda seed, block: Unhypergeometric(_block_rng(seed, block)),
        )
        assert [run_trials(cfg) for cfg in configs] == expected


class TestProbeMisses:
    # The probe loop against the earlier round-by-round loop kept in
    # helpers: the same misses, and the generator left in the same state,
    # so every later draw of a block is unchanged too.
    @staticmethod
    def _assert_same(seed, n, q, values, counts, law=None):
        # With a law, ``values`` is its lowest S and the block first
        # draws its counts from it, as ``_block_outcome`` does.
        rng, ref = _block_rng(seed, 0), _block_rng(seed, 0)
        if law is not None:
            held = rng.multinomial(16384, law)
            ref.multinomial(16384, law)
            at = np.flatnonzero(held)
            values, counts = values + at, held[at]
        values = np.asarray(values, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        misses = simulator._probe_misses(rng, n, q, values, counts)
        assert misses == probe_misses_reference(ref, n, q, values, counts)
        assert rng.bit_generator.state == ref.bit_generator.state
        return misses

    @pytest.mark.parametrize(
        "config",
        [_urn(1000, 79, 300, 1), _churn(1000, 79, 0.003, 100, 1)],
        ids=["mc-urn", "mc-churn"],
    )
    def test_equals_the_round_by_round_loop(self, config):
        n, q = config.n, config.q
        lo, law = persistence._law(n, q, _replacement_units(config))
        law = law / law.sum()
        for seed in range(200):
            self._assert_same(seed, n, q, lo, None, law)

    @pytest.mark.parametrize("n, q, s", TestProbe._CELLS)
    def test_point_laws_equal_the_round_by_round_loop(self, n, q, s):
        for seed in range(8):
            self._assert_same(seed, n, q, [s], [16384])

    def test_edge_laws_equal_the_round_by_round_loop(self):
        n, q = 40, 25
        # S = 0 (a certain miss), S > n - q (a certain hit) and live S.
        mixed = ([0, 1, 3, 8, 15, 16, 30], [2000, 1000, 5000, 4000, 3000, 1000, 384])
        for seed in range(20):
            self._assert_same(seed, n, q, *mixed)
            # A block of one trial.
            self._assert_same(seed, n, q, [seed % 16 + 1], [1])
        # No live S: every trial is decided before the first draw.
        assert self._assert_same(0, n, q, [0, 16, 40], [100, 200, 300]) == 100
        # n = 10^9 - 1, the largest population, with windows of up to
        # 4*10^8 draws.
        n, q = 10**9 - 1, 4 * 10**8
        wide = ([1, 2, 10, 10**3, 10**6, 10**8, 5 * 10**8], [4000] * 6 + [384])
        for seed in range(8):
            self._assert_same(seed, n, q, *wide)


class TestCompareWithAnalytic:
    def test_urn_agrees_with_closed_form(self):
        cmp = compare_with_analytic(_urn(6, 2, 3, 10**6))
        assert cmp.epsilon_analytic == 0.68
        assert abs(cmp.z_score) < 3
        assert not cmp.flagged

    @pytest.mark.parametrize(
        "n, q, alpha",
        [(100, 10, 30), (500, 40, 150), (1000, 79, 300), (1000, 105, 600)],
    )
    def test_urn_battery_agrees_with_closed_form(self, n, q, alpha):
        # z reads -0.54, -0.90, -0.92 and -0.99 at seed 0.
        cmp = compare_with_analytic(_urn(n, q, alpha, 10**5))
        assert cmp.epsilon_analytic == float(miss_probability(n, alpha, q).epsilon)
        assert not cmp.flagged

    def test_single_churn_unit_agrees_with_closed_form(self):
        # delta = 1 is one batch of ceil(c*n): the urn experiment, so the
        # process's exact value is the closed form at alpha = 300.
        cmp = compare_with_analytic(_churn(1000, 79, 0.3, 1, 10**5))
        urn = float(miss_probability(1000, 300, 79).epsilon)
        assert cmp.epsilon_analytic == pytest.approx(urn, rel=1e-12, abs=0)
        assert not cmp.flagged

    # (n, q, c, delta, batches, fractional): the CI cell, where ceil(c*n)
    # = 1 doubles the rate; the mc-churn benchmark cell; two cells where
    # batches swap core slots only; criterion 8's cell, where the probe
    # covers every node; and a fractional schedule of 0s and 1s.
    _PROCESS_CELLS = [
        (100, 5, 0.005, 10, [1] * 10, False),
        (1000, 79, 0.003, 100, [3] * 100, False),
        (40, 25, 0.1, 5, [4] * 5, False),
        (1000, 600, 0.01, 50, [10] * 50, False),
        (1000, 1000, 0.01, 50, [10] * 50, False),
        (200, 20, 0.0025, 40, [0, 1] * 20, True),
    ]

    @pytest.mark.parametrize("n, q, c, delta, batches, fractional", _PROCESS_CELLS)
    def test_churn_reference_is_the_exact_process_value(
        self, n, q, c, delta, batches, fractional
    ):
        cfg = _churn(n, q, c, delta, 1, fractional=fractional)
        assert _replacement_units(cfg) == _groups(batches)
        exact = churn_miss_probability_reference(n, q, batches)
        got = compare_with_analytic(cfg).epsilon_analytic
        assert got == pytest.approx(float(exact), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "n, q, c, delta, fractional",
        [
            (100, 5, 0.005, 10, False),
            (1000, 79, 0.003, 100, False),
            (1000, 1000, 0.01, 50, False),
            (200, 20, 0.0025, 40, True),
        ],
    )
    def test_churn_battery_agrees_with_the_process(self, n, q, c, delta, fractional):
        # z reads -0.64, -0.26, 0.00 (nothing misses) and 0.07 at seed 0.
        cmp = compare_with_analytic(_churn(n, q, c, delta, 10**5, 0, fractional))
        assert cmp.z_score is not None and abs(cmp.z_score) <= 3
        assert not cmp.flagged

    def test_churn_reference_stays_a_probability(self):
        # 10^7 fractional units replace every core slot: the law is all
        # at S = 0, but its float mass is 1 + 5e-14, and a reference
        # above 1 made the standard error's square root fail.
        cfg = _churn(1000, 79, Fraction(1, 400), 10**7, 256, fractional=True)
        assert math.fsum(persistence._law(1000, 79, _replacement_units(cfg))[1]) > 1
        cmp = compare_with_analytic(cfg)
        assert cmp.epsilon_analytic == 1.0 and cmp.z_score == 0.0

    def test_one_comparison_builds_the_law_once(self, monkeypatch):
        # run_trials draws from the law and the process reference sums
        # over it: one build serves both.
        persistence._law.cache_clear()
        builds = _spy(monkeypatch, persistence, "_survivor_law")
        compare_with_analytic(_churn(1000, 79, 0.003, 100, 1000))
        assert builds == [(1000, 79, ((3, 100),))]

    def test_seed_and_trials_reuse_the_law(self, monkeypatch):
        # The law is cached on (n, q, batch schedule), so runs at a new
        # seed or trial count draw from the law already built.
        persistence._law.cache_clear()
        builds = _spy(monkeypatch, persistence, "_survivor_law")
        base = _churn(200, 20, 0.0025, 40, 1000)
        for cfg in (base, replace(base, seed=7), replace(base, trials=20_000)):
            compare_with_analytic(cfg)
        assert builds == [(200, 20, ((1, 40),))]

    @pytest.mark.parametrize(
        "change",
        [dict(delta=41), dict(c=0.01), dict(fractional_churn=True), "urn"],
        ids=["delta", "c", "fractional", "model"],
    )
    def test_a_new_schedule_rebuilds_the_law(self, change, monkeypatch):
        base = _churn(200, 20, 0.0025, 40, 1000)
        cfg = _urn(200, 20, 40, 1000) if change == "urn" else replace(base, **change)
        compare_with_analytic(base)
        builds = _spy(monkeypatch, persistence, "_survivor_law")
        compare_with_analytic(cfg)
        assert _replacement_units(cfg) != ((1, 40),)
        assert builds == [(200, 20, _replacement_units(cfg))]

    @pytest.mark.parametrize(
        "cfg", [_urn(1000, 79, 300, 1000), _churn(1000, 79, 0.003, 100, 1000)],
        ids=["urn", "churn"],
    )
    def test_seed_and_trials_reuse_the_reference(self, cfg, monkeypatch):
        # The exact reference is cached like the law, so runs at a new
        # seed or trial count reuse it, and the cached value is the one
        # the closed form or the process sum gives.
        got = compare_with_analytic(cfg).epsilon_analytic
        urn = _spy(monkeypatch, simulator, "miss_probability")
        process = _spy(monkeypatch, simulator, "_process_miss_probability")
        for again in (replace(cfg, seed=7), replace(cfg, trials=2000)):
            assert compare_with_analytic(again).epsilon_analytic == got
        assert urn == [] and process == []
        monkeypatch.undo()
        if cfg.model == "urn":
            assert got == float(miss_probability(1000, 300, 79).epsilon)
        else:
            assert got == persistence._process_miss_probability(1000, 79, ((3, 100),))

    def test_one_schedule_shares_the_law_across_models(self, monkeypatch):
        # The urn's batch of alpha = 300 and one churn unit of c*n = 300
        # are the same schedule, so the second run reuses the first law.
        compare_with_analytic(_urn(1000, 79, 300, 1000))
        builds = _spy(monkeypatch, persistence, "_survivor_law")
        compare_with_analytic(_churn(1000, 79, 0.3, 1, 1000))
        assert builds == []

    def test_the_cached_law_is_read_only(self):
        _, law = persistence._law(1000, 79, ((3, 100),))
        with pytest.raises(ValueError, match="read-only"):
            law[0] = 0.0

    def test_zero_variance_edges_score_zero(self):
        # Analytic epsilon 0 (probe everything) or 1 (replace everything)
        # makes the standard error zero; an exact match scores z = 0.
        hit = compare_with_analytic(_urn(8, 8, 3, 1000))
        assert hit.epsilon_analytic == 0.0
        assert hit.z_score == 0.0 and not hit.flagged
        miss = compare_with_analytic(_urn(8, 3, 8, 1000))
        assert miss.epsilon_analytic == 1.0
        assert miss.z_score == 0.0 and not miss.flagged

    def test_flags_ceiling_versus_cumulative_gap(self):
        # At c*n = 0.5 the per-unit ceiling replaces ~2x the nodes the
        # cumulative-ratio alpha = ceil(C*n) = 5 accounts for, a real
        # modelling gap: the process misses with 0.789959, the urn at
        # alpha = 5 with 0.780198, about 7.4 standard errors apart at
        # 10^5 trials.  The run is tested against the process, so it is
        # not flagged; against the urn value it would be.
        cmp = compare_with_analytic(_churn(100, 5, 0.005, 10, 100_000))
        alpha = replaced_count(100, churn_ratio(0.005, 10))
        urn = float(miss_probability(100, alpha, 5).epsilon)
        assert alpha == 5 and urn == pytest.approx(0.780198, abs=5e-7)
        assert cmp.epsilon_analytic == pytest.approx(0.789959, abs=5e-7)
        se = math.sqrt(urn * (1 - urn) / cmp.report.trials)
        assert (cmp.epsilon_analytic - urn) / se > 7
        assert cmp.report.ci_low <= cmp.epsilon_analytic <= cmp.report.ci_high
        assert (cmp.report.epsilon_hat - urn) / se > 3
        assert not cmp.flagged


def _run_capped(body):
    """Run ``body`` in a child whose address space is capped at 2 GiB."""
    src = Path(coreprobe.__file__).resolve().parent.parent
    code = textwrap.dedent(
        """
        import resource
        cap = 2 * 1024**3
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from coreprobe import TrialConfig, run_trials
        """
    ) + textwrap.dedent(body)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )


class TestBoundedMemory:
    def test_huge_n_runs_in_a_2_gib_address_space(self):
        # Memory per block grows with q, not n: at n = 10^8 a (block, n)
        # array would need gigabytes.  The cap applies to the child only.
        child = _run_capped(
            """
            base = dict(n=10**8, q=50, trials=128)
            run_trials(TrialConfig(model="urn", alpha=10**7, **base))
            run_trials(TrialConfig(model="churn_process", c=1e-6, delta=5, **base))
            """
        )
        assert child.returncode == 0, child.stderr

    def test_largest_population_runs_in_a_2_gib_address_space(self):
        # n = 10^9 - 1 is the largest n a TrialConfig takes.  Both runs
        # draw their survivor counts from the exact law after every
        # batch: the urn's one batch, and the churn run's repeated group
        # of five.
        child = _run_capped(
            """
            base = dict(n=10**9 - 1, q=50, trials=64)
            for form in (
                dict(model="urn", alpha=10**8),
                dict(model="churn_process", c=1e-6, delta=5),
            ):
                assert run_trials(TrialConfig(**form, **base)).trials == 64
            """
        )
        assert child.returncode == 0, child.stderr

    @pytest.mark.parametrize(
        "form",
        ['dict(model="urn", alpha=3 * 10**8)', 'dict(model="churn_process", c=1e-6, delta=5)'],
        ids=["urn", "churn"],
    )
    def test_huge_core_runs_in_a_2_gib_address_space(self, form):
        # q near 10^9: the law is held only on its window of nonzero mass
        # and each row only within its float-underflow band, so neither
        # a (q+1) vector nor a row of alpha = 3*10^8 terms is built.
        child = _run_capped(
            f"""
            base = dict(n=10**9 - 1, q=998_000_000, trials=64)
            assert run_trials(TrialConfig(**{form}, **base)).trials == 64
            """
        )
        assert child.returncode == 0, child.stderr

    def test_wide_reach_runs_in_a_2_gib_address_space(self):
        # Two batches of a quarter of n at q near n = 10^9 can reach half
        # a billion counts: the law must hold no value per count it can
        # reach, only its window and one chunk of rows.
        child = _run_capped(
            """
            config = TrialConfig(
                model="churn_process", n=10**9 - 1, q=10**9 - 11, c=0.25,
                delta=2, trials=64,
            )
            assert run_trials(config).trials == 64
            """
        )
        assert child.returncode == 0, child.stderr

    def test_huge_n_subsets_run_in_a_2_gib_address_space(self):
        # draw_subsets holds an n-wide mask per row, so at n = 10^8 it
        # draws one row per block; 64 rows at once would need 6 GiB.
        child = _run_capped(
            """
            from coreprobe import draw_subsets
            rows = draw_subsets(10**8, 5, 64)
            assert rows.shape == (64, 5)
            assert (rows >= 0).all() and (rows < 10**8).all()
            assert (rows[:, 1:] > rows[:, :-1]).all()
            """
        )
        assert child.returncode == 0, child.stderr

    def test_long_churn_runs_in_a_2_gib_address_space(self):
        # Nor does it grow with delta: one full block of 16384 trials
        # with 3*10^4 single-node batches would need over 2 GiB if all
        # batches were drawn in one call.
        child = _run_capped(
            """
            config = TrialConfig(
                model="churn_process", n=1000, q=79, c=0.001, delta=3 * 10**4,
                trials=16384,
            )
            assert run_trials(config).trials == 16384
            """
        )
        assert child.returncode == 0, child.stderr
