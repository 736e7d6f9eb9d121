"""Independent Monte Carlo check of the analytic miss probability.

Two models:

* ``urn`` -- the one-shot experiment behind the closed form: of n nodes,
  the first q are the core; alpha distinct nodes are replaced; q distinct
  nodes are probed; a miss is recorded when no probe lands on a
  surviving core member.
* ``churn_process`` -- the per-time-unit mechanism: every unit,
  ceil(c*n) of the current nodes (original or joined) are replaced by
  fresh ones; after delta units the probe is drawn.

Only the q core slots decide a trial, and only through S, the number
of them no batch has replaced.  A batch of r replaces
``hypergeometric(S, n - S, r)`` survivors, and the trial misses when
its probe of q hits none of the S left.  This is exact because the
replaced set is invariant under permutations of the core slots, so
given S the survivors are a uniform S-subset, and batches are
independent, so their order does not matter.  So in both models S
comes from its exact law after every batch, which ``persistence``
builds once per batch schedule and keeps for runs at any seed: one
multinomial draw over the law gives how many trials of a block hold
each S.  The probe is then simulated draw by draw (``_probe_misses``),
each draw with its own hit chance, its first round over the whole block
in place and later rounds over the few trials still undecided, so no
closed form is computed here:
neither the chance m(s) = C(n - s, q)/C(n, q) that a probe avoids s
survivors nor any product of per-draw chances.  The law and both exact
references are imported from ``persistence``, and the churn reference
shares only the law with the draws.  Memory per block is O(16384)
values at any n, q and delta, plus the law's window of nonzero mass.

Determinism contract: block b holds trials [16384*b, 16384*(b+1)), the
last block the rest, and draws from
``SeedSequence(entropy=seed, spawn_key=(b,))``.  Aggregation is integer
summation over blocks.  Identical (seed, config) therefore produce
identical reports no matter how many worker threads run the blocks.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Literal, Union

if TYPE_CHECKING:  # numpy loads only when a function here runs
    import numpy as np

from .persistence import (
    _Groups,
    _check_int,
    _check_urn,
    _law,
    _process_miss_probability,
    churn_ratio,
    miss_probability,
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

# Trials per block, at any n.  ``draw_subsets`` holds an n-wide mask per
# row, so it alone caps its rows at _MASK_ELEMENTS // n.
_BLOCK = 16384
_MASK_ELEMENTS = 1 << 24


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one simulation run.

    ``alpha`` is required by the urn model; ``c`` and ``delta`` by the
    churn process.  ``fractional_churn`` switches the churn process from
    a constant ceil(c*n) replacements per unit to a schedule that
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
        if not 1 <= n < 10**9:
            raise ValueError(
                f"n must lie in [1, 10^9), the populations the simulator is "
                f"tested over, got {n}"
            )
        _check_urn(n, self.q, self.alpha or 0)
        trials = _check_int("trials", self.trials)
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        seed = _check_int("seed", self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned value, got {seed}")
        if self.model == "urn":
            if self.alpha is None:
                raise ValueError("urn model requires alpha")
            if self.c is not None or self.delta is not None:
                raise ValueError("urn model takes alpha, not (c, delta)")
            if self.fractional_churn:
                raise ValueError("fractional_churn applies to churn_process only")
        elif self.model == "churn_process":
            if self.c is None or self.delta is None:
                raise ValueError("churn_process model requires c and delta")
            churn_ratio(self.c, self.delta)
            if self.alpha is not None:
                raise ValueError("churn_process model takes (c, delta), not alpha")
        else:
            raise ValueError(f"unknown model {self.model!r}")


@dataclass(frozen=True)
class TrialReport:
    """Aggregate of a simulation run.

    ``ci_low``/``ci_high`` bound the miss probability by the 99% Wilson
    score interval.  The survivor statistics count the core members never
    replaced, per trial; ``survivor_stddev`` is the sample standard
    deviation.
    """

    trials: int
    misses: int
    epsilon_hat: float
    ci_low: float
    ci_high: float
    survivor_mean: float
    survivor_stddev: float


@dataclass(frozen=True)
class AnalyticComparison:
    """Empirical estimate side by side with the model's exact value.

    ``epsilon_analytic`` is the closed form at alpha for the urn model
    and the process's own exact miss probability for the churn process.
    ``z_score`` is None when it is undefined: the analytic value is 0
    or 1, so its standard error is 0, yet the estimate differs.  Such a
    run is flagged.
    """

    report: TrialReport
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


def _block_rng(seed: int, block: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    )


def _floyd_subsets(rng: np.random.Generator, size: int, n: int, k: int) -> np.ndarray:
    """Floyd's algorithm over all of range(n): k vectorised steps.

    A (size, n) member mask answers Floyd's membership test directly,
    so no column comparisons are needed.  Rows come out ascending.
    """
    import numpy as np

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

    Each row lists its subset in ascending order.  Block b draws from
    the trial runners' substream b, so the output is deterministic in
    (n, k, count, seed).  Each block holds a (rows, n) bool mask, with
    rows = max(1, min(16384, 2^24 // n)): at most 16 MiB, or one row
    when n is larger.
    """
    import numpy as np

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
    block = max(1, min(_BLOCK, _MASK_ELEMENTS // n))
    for b, start in enumerate(range(0, count, block)):
        size = min(block, count - start)
        out[start : start + size] = _floyd_subsets(_block_rng(seed, b), size, n, k)
    return out


def _replacement_units(config: TrialConfig) -> tuple[tuple[int, int], ...]:
    """(nodes replaced in one batch, number of such batches), ascending,
    for every batch that replaces a node: the key of the survivor law.

    The urn model is a single batch of alpha.  The churn process has one
    batch per time unit, grouped by size since batches are independent.
    Unit t replaces floor(t*rate) - floor((t-1)*rate) nodes, where rate
    is the constant ceil(c*n) by default; in fractional mode it is c*n
    taken exactly (a float c as its binary value): c*n on average,
    floor(delta*rate) in all.  Each unit replaces floor(rate) or one
    more, so the two groups are counted in O(1) for any delta.
    """
    units = ((config.alpha, 1),)
    if config.model == "churn_process":
        n, c, delta = config.n, config.c, config.delta
        rate = Fraction(c) * n if config.fractional_churn else math.ceil(c * n)
        low = math.floor(rate)
        ups = math.floor(delta * rate) - delta * low
        units = ((low, delta - ups), (low + 1, ups))
    return tuple((r, count) for r, count in units if r and count)


def _block_outcome(
    config: TrialConfig, lo: int, law: np.ndarray, block: int, size: int
) -> tuple[int, int, int]:
    """Misses, survivor sum and survivor sum of squares over one block.

    A trial carries S, its count of core slots no batch has replaced.
    One multinomial draw over ``law``, the probabilities of S after every
    batch from count ``lo`` on, gives how many trials hold each S; the
    sums over them are Python ints, exact at any q.
    """
    import numpy as np

    rng = _block_rng(config.seed, block)
    held = rng.multinomial(size, law)
    at = np.flatnonzero(held)
    counts, values = held[at], lo + at
    pairs = list(zip(counts.tolist(), values.tolist()))
    total = sum(c * s for c, s in pairs)
    squares = sum(c * s * s for c, s in pairs)
    return _probe_misses(rng, config.n, config.q, values, counts), total, squares


def _probe_misses(
    rng: np.random.Generator, n: int, q: int, values: np.ndarray, counts: np.ndarray
) -> int:
    """Misses among ``counts[i]`` trials with ``values[i]`` survivors each:
    trials whose probe of q distinct nodes out of n hits no survivor.

    With k = min(S, q) and K = max(S, q), a miss is the event that k
    draws without replacement all avoid K marked nodes; given no earlier
    hit, draw j hits with chance K/(n - j), which grows with j.  So the
    first hit is found by thinning (Lewis and Shedler, 1979): candidates
    come at geometric gaps of success chance top = K/(n - k + 1), and
    the candidate at draw j is a hit with chance (K/(n - j))/top.  A
    trial misses when a gap carries it past draw k - 1.  S + q > n
    forces a hit and k = 0 a miss; otherwise k <= n/2, so a candidate
    is a hit with chance at least about 1/2 and few rounds finish.

    The first round runs over the whole block in place, in S order:
    one uniform per candidate inside its window, and only the trials
    it rejects go on, each with its index ``who`` into the per-S
    tables.  Memory stays O(16384) values per block.
    """
    import numpy as np

    k = np.minimum(values, q)
    misses = int(counts[k == 0].sum())
    live = (k > 0) & (values <= n - q)
    k, per = k[live], counts[live]
    limit = n - k + 1
    # With rate = -ln(1 - top), a gap of floor(E/rate) + 1 draws, E
    # standard exponential, is geometric with success chance top.
    rate = -np.log1p(-np.maximum(values[live], q) / limit)
    # Round one, from draw -1.  Every value is an integer below 2^53, so
    # the float draw and its comparisons are exact.
    draw = rng.standard_exponential(int(per.sum()))
    draw /= np.repeat(rate, per)
    np.floor(draw, out=draw)
    inside = draw < np.repeat(k, per)
    candidates = int(np.count_nonzero(inside))
    misses += len(draw) - candidates
    chance = np.zeros(len(draw))
    chance[inside] = rng.random(candidates)
    # A trial outside keeps chance 0 and never goes on: n - k + 1 >= 1.
    chance *= n - draw
    go_on = np.flatnonzero(chance >= np.repeat(limit, per))
    who = np.searchsorted(np.cumsum(per), go_on, side="right")
    draw = draw[go_on].astype(np.int64)
    while len(who):
        draw += (rng.standard_exponential(len(who)) / rate[who]).astype(np.int64) + 1
        inside = draw < k[who]
        misses += len(who) - int(np.count_nonzero(inside))
        draw, who = draw[inside], who[inside]
        rejected = rng.random(len(who)) * (n - draw) >= limit[who]
        draw, who = draw[rejected], who[rejected]
    return misses


def run_trials(config: TrialConfig, threads: int = 1) -> TrialReport:
    """Run ``config.trials`` trials of ``config.model``.

    The law of the survivor count after every batch, in both models, is
    fetched once before any block.  Blocks run on up to ``threads`` worker
    threads, never more than there are blocks or CPUs, and their integer
    outcomes are summed.
    """
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    lo, law = _law(config.n, config.q, _replacement_units(config))
    law = law / law.sum()
    t = config.trials
    starts = range(0, t, _BLOCK)
    blocks = [(b, min(_BLOCK, t - start)) for b, start in enumerate(starts)]

    def outcome(b_size):
        return _block_outcome(config, lo, law, *b_size)

    workers = min(threads, len(blocks), os.cpu_count() or 1)
    if workers == 1:
        results = map(outcome, blocks)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(outcome, blocks))
    misses, surv_sum, surv_sumsq = (sum(column) for column in zip(*results))
    low, high = wilson_interval(misses, t)
    # Exact integer numerator: no cancellation however large q is.
    var = (t * surv_sumsq - surv_sum**2) / (t * (t - 1)) if t > 1 else 0.0
    return TrialReport(
        trials=t,
        misses=misses,
        epsilon_hat=misses / t,
        ci_low=low,
        ci_high=high,
        survivor_mean=surv_sum / t,
        survivor_stddev=math.sqrt(var),
    )


@functools.lru_cache(maxsize=1)
def _reference(n: int, q: int, alpha: int | None, groups: _Groups) -> float:
    """The exact miss probability a run is tested against, cached like
    ``_law`` for the last scenario: the closed form at ``alpha`` for the
    urn model, else (``alpha`` None) the process's own value over the
    survivor law of ``groups``."""
    if alpha is not None:
        return float(miss_probability(n, alpha, q).epsilon)
    return _process_miss_probability(n, q, groups)


def compare_with_analytic(config: TrialConfig, threads: int = 1) -> AnalyticComparison:
    """Run the configured simulation and z-test it against its exact value.

    The urn model is tested against the closed form ``miss_probability``
    at its alpha.  The churn process is tested against the exact miss
    probability of the process itself, summed over the one survivor law
    the trials draw from, so a correct run of either model is flagged only
    by chance.  The standard error uses the analytic value (the null
    hypothesis).  The exact value is cached for the last scenario, so
    runs at a new seed or trial count reuse it.
    """
    report = run_trials(config, threads)
    eps = _reference(config.n, config.q, config.alpha, _replacement_units(config))
    se = math.sqrt(eps * (1.0 - eps) / config.trials)
    diff = report.epsilon_hat - eps
    z = diff / se if se else (0.0 if diff == 0.0 else None)
    return AnalyticComparison(
        report, epsilon_analytic=eps, z_score=z, flagged=z is None or abs(z) > 3.0
    )
