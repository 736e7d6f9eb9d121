"""Independent Monte Carlo check of the analytic miss probability.

Two models:

* ``urn`` -- the one-shot experiment behind the closed form: of n nodes,
  the first q are the core; alpha distinct nodes are replaced; q distinct
  nodes are probed; a miss is recorded when no probe lands on a
  surviving core member.
* ``churn_process`` -- the per-time-unit mechanism: every unit,
  ceil(c*n) of the current nodes (original or joined) are replaced by
  fresh ones; after delta units the probe is drawn.  This mode also
  tracks how many core members survived each trial.

Only the q core slots decide a trial, and only through S, the number
of them no batch has replaced.  Batches that repeat (the churn
schedule's groups) are drawn per slot: ``_core_hits`` draws uniform
k-subsets of range(n) exactly (selection sampling or Floyd's algorithm)
but keeps only their intersection with the core, and S is the count of
unmarked slots.  Every other batch, and the probe, is drawn per count:
a batch of r replaces ``hypergeometric(S, n - S, r)`` survivors, and
the probe finds ``hypergeometric(S, n - S, q)``; it misses when that is
0.  This is exact because the replaced set is invariant under
permutations of the core slots, so given S the survivors are a uniform
S-subset, and batches are independent, so their order does not matter.
numpy's hypergeometric sampler bounds the population, hence n < 10^9.
Memory per block is O(block) for the urn model and O(block * q) for
the churn process, plus a fixed budget of int32 draws per call,
independent of n and of delta.  Floyd's algorithm keeps a drawn column
for its membership test only while j < q, where a swapped-in j can be a
core slot; later columns are dropped once marked.  The draws themselves
are simulated; no closed form is consulted.

Determinism contract: trials are partitioned into fixed-size blocks and
block b draws from ``SeedSequence(entropy=seed, spawn_key=(b,))``; block
size depends only on n.  Aggregation is integer summation over blocks.
Identical (seed, config) therefore produce identical reports no matter
how many worker threads run the blocks.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Union

import numpy as np

from .persistence import (
    _check_int,
    churn_ratio,
    miss_probability,
    replaced_count,
)

__all__ = [
    "TrialConfig",
    "TrialReport",
    "AnalyticComparison",
    "compare_with_analytic",
    "run_trials",
    "draw_subsets",
    "wilson_interval",
]

Model = Literal["urn", "churn_process"]

# Two-sided 99% standard normal quantile, for the Wilson interval.
_Z99 = 2.5758293035489004

# Block size is a pure function of n, so reports do not depend on the
# machine: 16384 trials up to n = 1024, then 2^24 / n down to 64.
_BLOCK_ELEMENTS = 1 << 24
_MIN_BLOCK = 64
_MAX_BLOCK = 16384

# Per-call budget of int32 values for the replacement samplers, so a
# churn block's memory does not grow with delta.
_CALL_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one simulation run.

    ``alpha`` is required by the urn model; ``c`` and ``delta`` by the
    churn process.  ``fractional_churn`` switches the churn process from
    a constant ceil(c*n) replacements per unit to an accumulator that
    replaces c*n on average (for sensitivity checks at sub-integer
    rates).
    """

    n: int
    q: int
    trials: int
    model: Model
    alpha: int | None = None
    c: Union[float, Fraction, None] = None
    delta: int | None = None
    seed: int = 0
    fractional_churn: bool = False

    def __post_init__(self) -> None:
        n = _check_int("n", self.n)
        q = _check_int("q", self.q)
        trials = _check_int("trials", self.trials)
        if not 1 <= n < 10**9:
            raise ValueError(
                f"n must lie in [1, 10^9), numpy's bound on hypergeometric "
                f"populations, got {n}"
            )
        if not 0 <= q <= n:
            raise ValueError(f"q must lie in [0, n={n}], got {q}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        seed = _check_int("seed", self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned value, got {seed}")
        if self.model == "urn":
            if self.alpha is None:
                raise ValueError("urn model requires alpha")
            alpha = _check_int("alpha", self.alpha)
            if not 0 <= alpha <= n:
                raise ValueError(f"alpha must lie in [0, n={n}], got {alpha}")
            if self.c is not None or self.delta is not None:
                raise ValueError("urn model takes alpha, not (c, delta)")
            if self.fractional_churn:
                raise ValueError("fractional_churn applies to churn_process only")
        elif self.model == "churn_process":
            if self.c is None or self.delta is None:
                raise ValueError("churn_process model requires c and delta")
            if not 0 <= self.c < 1:
                raise ValueError(f"c must lie in [0, 1), got {self.c}")
            delta = _check_int("delta", self.delta)
            if delta < 0:
                raise ValueError(f"delta must be >= 0, got {delta}")
            if self.alpha is not None:
                raise ValueError("churn_process model takes (c, delta), not alpha")
        else:
            raise ValueError(f"unknown model {self.model!r}")


@dataclass(frozen=True)
class TrialReport:
    """Aggregate of a simulation run.

    ``ci_low``/``ci_high`` bound the miss probability by the 99% Wilson
    score interval.  Survivor statistics (count of core members never
    replaced, per trial) are present for the churn process only;
    ``survivor_stddev`` is the sample standard deviation.
    """

    trials: int
    misses: int
    epsilon_hat: float
    ci_low: float
    ci_high: float
    survivor_mean: float | None = None
    survivor_stddev: float | None = None


@dataclass(frozen=True)
class AnalyticComparison:
    """Empirical estimate side by side with the closed-form value.

    ``z_score`` is None when it is undefined: the analytic value is 0
    or 1, so its standard error is 0, yet the estimate differs.  Such a
    run is flagged.
    """

    report: TrialReport
    alpha: int
    epsilon_analytic: float
    z_score: float | None
    flagged: bool  # |z| > 3, or z undefined


def wilson_interval(
    successes: int, trials: int, z: float = _Z99
) -> tuple[float, float]:
    """Wilson score interval; well behaved even at zero observed counts."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    phat = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (phat + zz / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + zz / (4 * trials * trials))
    half /= denom
    # At the boundary counts the exact bound is 0 or 1; evaluating the
    # formula in floats can land an ulp inside, so pin those two cases.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _block_size(n: int) -> int:
    return max(_MIN_BLOCK, min(_MAX_BLOCK, _BLOCK_ELEMENTS // n))


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    )


def _selection_hits(
    rng: np.random.Generator, size: int, n: int, k: int, m: int, units: int
) -> np.ndarray:
    """Knuth's selection sampling (Algorithm S) over slots 0..m-1.

    Slot i joins a unit's k-subset with probability need/(n - i), where
    ``need`` is the number of members that unit still lacks; drawing
    ``integers(0, n - i) < need`` makes that exact.  m vectorised steps,
    each filling one contiguous row of an (m, size) mask; the (size, m)
    transpose is returned.
    """
    hits = np.empty((m, size), dtype=bool)
    need = np.full((size, units), k, dtype=np.int32)
    for i in range(m):
        taken = rng.integers(0, n - i, size=(size, units), dtype=np.int32) < need
        need -= taken
        taken.any(axis=1, out=hits[i])
    return hits.T


def _floyd_hits(
    rng: np.random.Generator, size: int, n: int, k: int, m: int, units: int
) -> np.ndarray:
    """Floyd's subset sampling: k vectorised steps.

    For j in n-k..n-1 each unit draws t in [0, j] and takes j instead
    when t is already a member.  That membership test only matters
    while j < m: from j >= m on, a swapped-in j is never a core slot,
    and a repeated core value marks a slot that is already marked.  So
    the test runs, and the int32 column is kept for later tests, only
    while j < m; since j ascends, those are exactly the columns later
    tests compare against.  Core values are marked in a flat buffer
    that is returned as the (size, m) mask.
    """
    hits = np.zeros(size * m, dtype=bool)
    columns: list[np.ndarray] = []
    for j in range(n - k, n):
        t = rng.integers(0, j + 1, size=(size, units), dtype=np.int32)
        if j < m:
            for earlier in columns:
                t[t == earlier] = j
            columns.append(t)
        t = t.ravel()
        core = np.flatnonzero(t < m)
        hits[core // units * m + t[core]] = True
    return hits.reshape(size, m)


def _core_hits(
    rng: np.random.Generator, size: int, n: int, k: int, m: int, units: int = 1
) -> np.ndarray:
    """Which of the slots 0..m-1 fall in any of ``units`` uniform k-subsets.

    Returns a bool array of shape (size, m); each row draws its own
    ``units`` independent k-subsets of range(n).  Selection sampling
    costs m steps, Floyd's algorithm k steps with up to k(k-1)/2
    membership comparisons, so the cheaper of the two is taken.  Both
    are exact.
    Units are drawn in chunks, so a call holds at most about
    ``_CALL_ELEMENTS`` int32 values however many units it is given.
    """
    if k * (k - 1) // 2 >= m:
        sample, per_unit = _selection_hits, size
    else:
        sample, per_unit = _floyd_hits, size * max(k, 1)
    chunk = max(1, _CALL_ELEMENTS // per_unit)
    hits = sample(rng, size, n, k, m, min(units, chunk))
    for start in range(chunk, units, chunk):
        hits |= sample(rng, size, n, k, m, min(chunk, units - start))
    return hits


def _floyd_subsets(rng: np.random.Generator, size: int, n: int, k: int) -> np.ndarray:
    """Floyd's algorithm over all of range(n): k vectorised steps.

    A (size, n) member mask answers Floyd's membership test directly,
    so no column comparisons are needed.  Rows come out ascending.
    """
    seen = np.zeros((size, n), dtype=bool)
    rows = np.arange(size)
    out = np.empty((size, k), dtype=np.int32)
    for col, j in enumerate(range(n - k, n)):
        t = rng.integers(0, j + 1, size=size, dtype=np.int32)
        t[seen[rows, t]] = j
        seen[rows, t] = True
        out[:, col] = t
    out.sort(axis=1)
    return out


def draw_subsets(n: int, k: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` independent uniform k-subsets of range(n), shape (count, k).

    Each row lists its subset in ascending order.  Uses the same
    block/substream scheme as the trial runners, so it is deterministic
    in (n, k, count, seed).  Each block holds a (block, n) bool mask.
    """
    n = _check_int("n", n)
    k = _check_int("k", k)
    count = _check_int("count", count)
    if not 1 <= n < 2**31:
        raise ValueError(f"n must lie in [1, 2^31), got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, n={n}], got {k}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = np.empty((count, k), dtype=np.int32)
    block = _block_size(n)
    for b, start in enumerate(range(0, count, block)):
        size = min(block, count - start)
        out[start : start + size] = _floyd_subsets(_block_rng(seed, b), size, n, k)
    return out


def _replacement_units(config: TrialConfig) -> list[tuple[int, int]]:
    """(nodes replaced in one batch, number of such batches), ascending.

    The urn model is a single batch of alpha.  The churn process has one
    batch per time unit, grouped by size since batches are independent:
    by default the constant ceil(c*n); in fractional mode the carry of
    the non-integer remainder makes units replace c*n on average.
    """
    if config.model == "urn":
        return [(config.alpha, 1)]
    n, c, delta = config.n, config.c, config.delta
    if not config.fractional_churn:
        return [(math.ceil(c * n), delta)] if delta else []
    counts: Counter[int] = Counter()
    carry = 0.0
    rate = float(c) * n
    for _ in range(delta):
        x = carry + rate
        r = math.floor(x)
        carry = x - r
        counts[r] += 1
    return sorted(counts.items())


def _block_outcome(
    config: TrialConfig, units: list[tuple[int, int]], block: int, size: int
) -> tuple[int, int, int]:
    """Misses, survivor sum and survivor sum of squares over one block.

    A trial carries S, its count of core slots no batch has replaced.
    Repeated batch groups are marked slot by slot first; each single
    batch then replaces a hypergeometric number of the S survivors, and
    the trial misses when its probe hits none of them.  Groups stay per
    slot because chaining one count draw per batch is slower: 91 against
    55 ms (2 vCPUs) for the 100 batches of 3 in a 16384-trial block at
    n = 1000, q = 79.
    """
    rng = _block_rng(config.seed, block)
    n, q = config.n, config.q
    survivors = np.full(size, q, dtype=np.int64)
    groups = [(r, count) for r, count in units if count > 1]
    if groups:
        replaced = np.zeros((size, q), dtype=bool)
        for r, count in groups:
            replaced |= _core_hits(rng, size, n, r, q, units=count)
        survivors -= np.count_nonzero(replaced, axis=1)
    for r, count in units:
        if count == 1:
            survivors -= rng.hypergeometric(survivors, n - survivors, r)
    found = rng.hypergeometric(survivors, n - survivors, q)
    misses = int(np.count_nonzero(found == 0))
    if size * q * q >= 2**63:
        # int64 squares would wrap; Python ints keep the sum exact.
        survivors = survivors.astype(object)
    return misses, int(survivors.sum()), int((survivors**2).sum())


def run_trials(config: TrialConfig, threads: int = 1) -> TrialReport:
    """Run ``config.trials`` trials of ``config.model``.

    Blocks run on ``threads`` worker threads and their integer outcomes
    are summed.  Survivor statistics are filled for the churn process
    only.
    """
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    units = _replacement_units(config)
    block = _block_size(config.n)
    t = config.trials
    blocks = [(b, min(block, t - start)) for b, start in enumerate(range(0, t, block))]

    def outcome(b_size):
        return _block_outcome(config, units, *b_size)

    if threads == 1:
        results = map(outcome, blocks)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(outcome, blocks))
    misses, surv_sum, surv_sumsq = (sum(column) for column in zip(*results))
    low, high = wilson_interval(misses, t)
    survivors = {}
    if config.model == "churn_process":
        # Exact integer numerator: no cancellation however large q is.
        var = (t * surv_sumsq - surv_sum**2) / (t * (t - 1)) if t > 1 else 0.0
        survivors = dict(survivor_mean=surv_sum / t, survivor_stddev=math.sqrt(var))
    return TrialReport(
        trials=t,
        misses=misses,
        epsilon_hat=misses / t,
        ci_low=low,
        ci_high=high,
        **survivors,
    )


def compare_with_analytic(
    config: TrialConfig, threads: int = 1
) -> AnalyticComparison:
    """Run the configured simulation and z-test it against the closed form.

    The standard error uses the analytic value (the null hypothesis).
    For the churn process the analytic side goes through the derived
    replacement count, so the z-score quantifies the gap introduced by
    treating the survivor decay as deterministic; it is reported, not
    asserted.
    """
    report = run_trials(config, threads)
    if config.model == "urn":
        alpha = config.alpha
    else:
        alpha = replaced_count(config.n, churn_ratio(config.c, config.delta))
    eps = float(miss_probability(config.n, alpha, config.q).epsilon)
    se = math.sqrt(eps * (1.0 - eps) / config.trials)
    diff = report.epsilon_hat - eps
    if se == 0.0:
        z = 0.0 if diff == 0.0 else None
    else:
        z = diff / se
    return AnalyticComparison(
        report=report,
        alpha=alpha,
        epsilon_analytic=eps,
        z_score=z,
        flagged=z is None or abs(z) > 3.0,
    )
