"""Tests for the Monte Carlo cross-check of the analytic miss probability."""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coreprobe
from coreprobe import (
    THREADS_ENV_VAR,
    TrialConfig,
    compare_with_analytic,
    draw_subsets,
    miss_probability,
    replaced_count,
    churn_ratio,
    run_churn_trials,
    run_trials,
    run_urn_trials,
    wilson_interval,
)
from coreprobe.simulator import (
    _block_rng,
    _block_size,
    _floyd_hits,
    _replacement_schedule,
    _selection_hits,
)


def _urn(n, q, alpha, trials, seed=0):
    return TrialConfig(n=n, q=q, trials=trials, model="urn", alpha=alpha, seed=seed)


def _churn(n, q, c, delta, trials, seed=0, fractional=False):
    return TrialConfig(
        n=n, q=q, trials=trials, model="churn_process", c=c, delta=delta,
        seed=seed, fractional_churn=fractional,
    )


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

    def test_runner_rejects_mismatched_model(self):
        with pytest.raises(ValueError):
            run_urn_trials(_churn(10, 2, 0.1, 3, 5))
        with pytest.raises(ValueError):
            run_churn_trials(_urn(10, 2, 1, 5))


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


def _within_4_sigma(count, trials, p):
    mean = trials * p
    return abs(count - mean) < 4 * math.sqrt(trials * p * (1 - p))


@pytest.mark.parametrize("method", [_selection_hits, _floyd_hits])
class TestCoreHits:
    # Both exact samplers are called directly, whichever _core_hits
    # would pick for these (k, m).
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


class TestDeterminism:
    def test_block_size_depends_only_on_n(self):
        assert _block_size(1) == 16384
        assert _block_size(10**6) == 64
        assert _block_size(2**10) == 16384
        assert _block_size(2**20) == 64

    def test_thread_count_does_not_change_the_report(self):
        # 40k trials at n=50 span multiple blocks; integer aggregation
        # over per-block substreams makes the result thread-invariant.
        cfg = _churn(50, 10, 0.01, 5, 40_000, seed=9)
        assert run_trials(cfg, threads=1) == run_trials(cfg, threads=3)
        ucfg = _urn(50, 10, 7, 40_000, seed=9)
        assert run_trials(ucfg, threads=1) == run_trials(ucfg, threads=4)

    def test_seed_changes_the_outcome(self):
        base = run_urn_trials(_urn(30, 5, 10, 20_000, seed=0))
        same = run_urn_trials(_urn(30, 5, 10, 20_000, seed=0))
        other = run_urn_trials(_urn(30, 5, 10, 20_000, seed=1))
        assert base == same
        assert base.misses != other.misses

    def test_thread_env_var_is_honoured(self, monkeypatch):
        cfg = _urn(30, 5, 10, 20_000, seed=0)
        want = run_trials(cfg, threads=2)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        assert run_trials(cfg) == want
        monkeypatch.setenv(THREADS_ENV_VAR, "0")
        with pytest.raises(ValueError):
            run_trials(cfg)


class TestUrnModel:
    # Frozen miss counts double as regression guards for the RNG scheme:
    # a change in block layout or sampling order would shift them.
    def test_matches_exact_probability_6_2_3(self):
        report = run_urn_trials(_urn(6, 2, 3, 10**6))
        assert report.misses == 680_460
        assert report.epsilon_hat == report.misses / 10**6
        exact = miss_probability(6, 3, 2).epsilon
        assert exact == Fraction(17, 25)
        assert report.ci_low <= float(exact) <= report.ci_high

    def test_matches_exact_probability_static(self):
        report = run_urn_trials(_urn(5, 1, 0, 200_000))
        assert report.misses == 160_080
        assert report.ci_low <= 0.8 <= report.ci_high

    def test_matches_exact_probability_10_4_5(self):
        report = run_urn_trials(_urn(10, 4, 5, 200_000))
        exact = float(miss_probability(10, 5, 4).epsilon)
        assert report.misses == 73_056
        assert report.ci_low <= exact <= report.ci_high

    def test_certain_miss_and_certain_hit(self):
        all_replaced = run_urn_trials(_urn(12, 3, 12, 5000))
        assert all_replaced.misses == 5000
        probe_everything = run_urn_trials(_urn(12, 12, 3, 5000))
        assert probe_everything.misses == 0

    def test_no_survivor_statistics(self):
        report = run_urn_trials(_urn(6, 2, 3, 1000))
        assert report.survivor_mean is None
        assert report.survivor_stddev is None


class TestChurnProcess:
    def test_survivor_decay_matches_expectation(self):
        # With q = n every trial tracks all initial nodes.  One uniform
        # replacement per unit keeps a node alive with probability
        # (1 - 1/n) per unit, so the mean survivor count after delta
        # units is n(1 - 1/n)^delta; the observed mean must sit within
        # 3 standard errors.
        trials = 2000
        report = run_churn_trials(_churn(1000, 1000, 1e-3, 105, trials))
        expected = 1000 * (1 - 1 / 1000) ** 105
        se = report.survivor_stddev / math.sqrt(trials)
        assert abs(report.survivor_mean - expected) <= 3 * se

    def test_zero_rate_is_static(self):
        report = run_churn_trials(_churn(20, 5, 0.0, 7, 5000))
        assert report.survivor_mean == 5.0
        assert report.survivor_stddev == 0.0
        exact = float(miss_probability(20, 0, 5).epsilon)
        assert report.ci_low <= exact <= report.ci_high

    def test_zero_delta_is_static(self):
        report = run_churn_trials(_churn(20, 5, 0.3, 0, 5000))
        assert report.survivor_mean == 5.0
        assert report.misses == run_churn_trials(_churn(20, 5, 0.0, 9, 5000)).misses

    def test_replacement_schedule_constant_ceiling(self):
        cfg = _churn(5, 1, 0.1, 4, 1)
        assert _replacement_schedule(cfg) == [1, 1, 1, 1]

    def test_replacement_schedule_fractional_carry(self):
        cfg = _churn(5, 1, 0.1, 4, 1, fractional=True)
        assert _replacement_schedule(cfg) == [0, 1, 0, 1]

    def test_fractional_replaces_half_as_many_here(self):
        # c*n = 0.5: the ceiling schedule replaces one node per unit,
        # the fractional one every other unit, so fewer misses.
        ceil_report = run_churn_trials(_churn(100, 5, 0.005, 10, 20_000))
        frac_report = run_churn_trials(
            _churn(100, 5, 0.005, 10, 20_000, fractional=True)
        )
        assert frac_report.misses < ceil_report.misses


class TestCompareWithAnalytic:
    def test_urn_agrees_with_closed_form(self):
        cmp = compare_with_analytic(_urn(6, 2, 3, 10**6))
        assert cmp.alpha == 3
        assert cmp.epsilon_analytic == 0.68
        assert abs(cmp.z_score) < 3
        assert not cmp.flagged

    def test_churn_alpha_comes_from_cumulative_ratio(self):
        cfg = _churn(100, 10, 0.02, 9, 100)
        cmp = compare_with_analytic(cfg)
        assert cmp.alpha == replaced_count(100, churn_ratio(0.02, 9))

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
        # cumulative-ratio alpha accounts for, a real modelling gap the
        # z-test is meant to surface.
        cmp = compare_with_analytic(_churn(100, 5, 0.005, 10, 20_000))
        assert cmp.report.epsilon_hat > cmp.epsilon_analytic
        assert cmp.z_score > 3
        assert cmp.flagged


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
