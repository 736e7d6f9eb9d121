"""Inverse relations: core size for a target miss probability, probe
period for a churn budget, and churn rate for a tolerated ratio.

Every integer-valued solver returns a witness pair: the metric achieved
at the answer and at the adjacent rejected point, so callers (and the
golden tests) can re-check minimality/maximality without re-running the
search.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Union

from .persistence import (
    MissProbability,
    Mode,
    RatioLike,
    _check_int,
    _check_urn,
    _resolve_mode,
    churn_ratio,
    miss_probability,
    replaced_count,
)

__all__ = [
    "InfeasibleError",
    "CoreSizeResult",
    "LifetimeResult",
    "MaxDeltaResult",
    "min_core_size",
    "delta_for_churn",
    "churn_rate_for",
    "max_delta",
    "DEFAULT_DELTA_HORIZON",
]

Probability = Union[Fraction, float]

# Search horizon for max_delta: beyond this many time units the solver
# reports a capped answer instead of continuing.
DEFAULT_DELTA_HORIZON = 10_000_000

# Boundary comparisons against a churn budget allow this much relative
# slack, so a ratio that equals the budget up to float rounding is
# accepted.  Without it, re-deriving c from (C, delta) and asking for
# delta back could flip the floor by one ulp.
_RATIO_SLACK = 1e-9


class InfeasibleError(Exception):
    """No parameter value can meet the requested target."""


@dataclass(frozen=True)
class CoreSizeResult:
    """Minimal core size plus the witness pair around it."""

    q: int
    epsilon: Probability            # miss probability at q (meets target)
    epsilon_prev: Probability       # at q-1 >= 0 (violates target)


@dataclass(frozen=True)
class LifetimeResult:
    """Largest probe period within a churn budget, with boundary ratios."""

    delta: int
    ratio: float       # churn ratio at delta (within budget)
    ratio_next: float  # at delta+1 (over budget)


@dataclass(frozen=True)
class MaxDeltaResult:
    """Largest probe period meeting a miss target, with witnesses."""

    delta: int
    epsilon: Probability             # at delta (meets target)
    epsilon_next: Probability | None  # at delta+1 (violates); None when capped
    capped: bool                      # answer hit the search horizon


def _ln(x: Probability) -> float:
    """Natural log of a target; a Fraction such as 10^-400 would round
    to 0.0 as a float, so its log comes from numerator and denominator."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def _show(target: Probability) -> str:
    """A target as messages write it.  A Fraction below the normal double
    range is given to 6 significant digits, not as a ratio of integers
    hundreds of digits long; any other target as str() writes it."""
    if isinstance(target, Fraction) and target < sys.float_info.min:
        return f"{Decimal(target.numerator) / Decimal(target.denominator):.6g}"
    return str(target)


def _meets(result: MissProbability, target: Probability) -> bool:
    """Whether the miss probability in ``result`` is at most ``target``.

    Below 2^-1022 a logspace float has lost digits to underflow, down to
    0.0, so there its exact log decides; elsewhere the float does.
    """
    if result.log_epsilon is not None and result.epsilon < sys.float_info.min:
        return result.log_epsilon <= _ln(target)
    return result.epsilon <= target


def _ln_eps_estimate(n: int, alpha: int, q: int) -> float:
    """O(1) second-order estimate of ln eps(n, alpha, q), to aim a search.

    The survivor count S is hypergeometric with mean mu = q (n - alpha) / n
    and variance v = q (alpha/n) ((n - alpha)/n) (n - q) / (n - 1), and a
    probe of q misses s survivors with chance exp(g(s)), where
    g(s) = ln C(n - s, q) - ln C(n, q), taken at real s through lgamma.
    The estimate is g(mu) + v (g'^2 + g'') / 2, from central differences
    at mu +- 1/2; -inf where n - s - q + 1 <= 0 at s = mu + 1/2.
    """
    mu = q * (n - alpha) / n
    if n - mu - q + 0.5 <= 0:
        return -math.inf
    v = q * (alpha / n) * ((n - alpha) / n) * (n - q) / (n - 1) if n > 1 else 0.0

    def g(s: float) -> float:
        return math.lgamma(n - s + 1) - math.lgamma(n - s - q + 1)

    low, mid, high = g(mu - 0.5), g(mu), g(mu + 0.5)
    g1, g2 = high - low, 4 * (high - 2 * mid + low)
    return mid - math.lgamma(n + 1) + math.lgamma(n - q + 1) + v * (g1 * g1 + g2) / 2


def _first_true(pred: Callable[[int], bool], guess: int, lo: int, hi: float) -> int:
    """Smallest x in (lo, hi] where the monotone ``pred`` turns true.

    ``pred(lo)`` is known false and ``pred(hi)`` known true (``hi`` may
    be ``math.inf``); neither is evaluated.  Gallops from ``guess`` in
    (lo, hi] in doubling steps until the boundary is bracketed, then
    bisects.  No point is evaluated twice.
    """
    step = 1
    if guess < hi and not pred(guess):
        lo = guess
        while lo + step < hi and not pred(lo + step):
            lo, step = lo + step, 2 * step
        hi = min(lo + step, hi)
    else:
        hi = guess
        while hi - step > lo and pred(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(hi - step, lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_core_size(
    n: int,
    alpha: int,
    epsilon_max: Probability,
    mode: Mode = "auto",
) -> CoreSizeResult:
    """Smallest q whose miss probability does not exceed epsilon_max.

    The miss probability is non-increasing in q, from eps(0) = 1 down to
    eps(n) = 0 (alpha < n), so ``_first_true`` searches (0, n] without
    evaluating either end.  It starts at a seed: the paper's asymptote
    eps ~ exp(-q^2 (1-C) / n) gives
    q0 = n sqrt(ln(1/epsilon_max) / (n - alpha)), and kappa in
    ln eps ~ -kappa q^2 is refit twice to the O(1) estimate est of
    ln eps there (``_ln_eps_estimate``), which moves it to
    floor(q0 sqrt(ln epsilon_max / est)) in [1, n]: at or just below
    the answer.  The seed only places the search; the answer and its
    witnesses come from the monotone test.  Each eps(q) is evaluated at
    most once, 2 times in all (the witness pair) at every default
    ``table`` cell.
    Raises InfeasibleError when alpha = n: every initial node was
    replaced, so no probe can find a core member.
    """
    if not 0 < epsilon_max < 1:
        raise ValueError(f"epsilon_max must lie in (0, 1), got {epsilon_max}")
    n, _, alpha = _check_urn(n, 0, alpha)
    _resolve_mode(n, mode)
    if alpha == n:
        raise InfeasibleError(
            f"no core size q <= n={n} reaches epsilon <= {_show(epsilon_max)} "
            f"at alpha={alpha}"
        )
    eps = functools.cache(lambda q: miss_probability(n, alpha, q, mode))
    ln_target = _ln(epsilon_max)
    seed = min(max(round(n * math.sqrt(-ln_target / (n - alpha))), 1), n)
    # Aim the seed: refit kappa twice to the estimate of ln eps there.
    for _ in range(2):
        est = _ln_eps_estimate(n, alpha, seed)
        if -math.inf < est < 0:
            seed = min(max(math.floor(seed * math.sqrt(ln_target / est)), 1), n)
    q = _first_true(lambda q: _meets(eps(q), epsilon_max), seed, 0, n)
    return CoreSizeResult(q=q, epsilon=eps(q).epsilon, epsilon_prev=eps(q - 1).epsilon)


def delta_for_churn(c: RatioLike, ratio_max: RatioLike) -> LifetimeResult:
    """Largest whole number of time units keeping the churn ratio within budget.

    ``_first_true`` finds the first delta over budget, starting from
    floor(log(1-ratio_max) / log(1-c)), so a float error in the log
    quotient cannot flip the answer and the cost is logarithmic even
    where delta exceeds 2^53 (tiny c) and unit steps no longer change
    the float product.  The test runs on the survivor fraction,
    (1-c)^delta < (1-budget)*(1 - _RATIO_SLACK): unlike the replaced
    ratio, the survivor side never saturates at 1.0, so the search ends
    even for budgets within a few ulps of 1.
    """
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    if not 0 < ratio_max < 1:
        raise ValueError(f"ratio_max must lie in (0, 1), got {ratio_max}")
    c = float(c)
    budget = float(ratio_max)
    log_keep = math.log1p(-c)
    survivors_min = (1.0 - budget) * (1.0 - _RATIO_SLACK)
    guess = max(math.floor(math.log1p(-budget) / log_keep), 1)
    over = _first_true(
        lambda d: math.exp(d * log_keep) < survivors_min, guess, 0, math.inf
    )
    return LifetimeResult(
        delta=over - 1,
        ratio=churn_ratio(c, over - 1),
        ratio_next=churn_ratio(c, over),
    )


def churn_rate_for(ratio: RatioLike, delta: int) -> float:
    """Per-unit replacement rate that yields the given ratio after delta units.

    Inverts the churn relation: c = 1 - (1-ratio)^(1/delta).  The round
    trip ratio -> c -> ratio, i.e. churn_ratio(churn_rate_for(ratio, delta),
    delta), returns ratio to within 1e-12 relative.  The other direction,
    recovering c from ratio = churn_ratio(c, delta), is accurate to
    1e-12 relative only while ratio <= 1 - 1e-4.  Above that the half-ulp
    rounding of ratio is amplified by the condition number
    kappa = ratio (1-c) / (c delta (1-ratio)), so c comes back to within a
    few u * kappa (u = 2^-53).  A ratio that rounds to 1.0 has lost c
    entirely and lies outside the domain (0, 1): it raises ValueError.
    """
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    delta = _check_int("delta", delta)
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if delta == 1:
        # exact identity; the expm1(log1p(..)) round trip can drift 1 ulp
        return float(ratio)
    return -math.expm1(math.log1p(-float(ratio)) / delta)


def max_delta(
    n: int,
    q: int,
    c: RatioLike,
    epsilon_max: Probability,
    mode: Mode = "auto",
    horizon: int = DEFAULT_DELTA_HORIZON,
) -> MaxDeltaResult:
    """Largest probe period whose derived miss probability meets the target.

    The churn ratio grows with delta, hence so does the replaced count
    alpha and the miss probability, so one ``_first_true`` over
    (-1, horizon + 1] finds the first delta that misses the target.
    Neither end is evaluated, and the answer carries both edge cases:
    0 means even the static case (nothing replaced) misses, which
    raises InfeasibleError; horizon + 1 means every delta up to
    ``horizon`` meets it, which returns a capped result.  The search
    starts where the mean survivor count q (n - alpha) / n puts a
    with-replacement probe at epsilon_max, refit twice to the O(1)
    estimate of ln eps (``_ln_eps_estimate``) under
    ln eps ~ -kappa (n - alpha); that alpha in [1, n] maps to delta
    through log1p(-alpha / n) / log1p(-c).  Each eps(alpha) is evaluated
    at most once, however many deltas share that alpha: about 2.5 times
    per solve on the benchmark's lifetime queries.
    """
    if not 0 < epsilon_max < 1:
        raise ValueError(f"epsilon_max must lie in (0, 1), got {epsilon_max}")
    n = _check_int("n", n)
    q = _check_int("q", q)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    horizon = _check_int("horizon", horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    eps = functools.cache(lambda alpha: miss_probability(n, alpha, q, mode))

    def replaced(delta: int) -> int:
        return replaced_count(n, churn_ratio(c, delta))

    # Seed alpha where the mean survivor count s = q (n - alpha) / n
    # gives (1 - s/n)^q = epsilon_max, refit kappa in ln eps ~
    # -kappa (n - alpha) twice to the estimate, and guess the first
    # delta whose churn ratio passes alpha / n.
    ln_target = _ln(epsilon_max)
    seed = min(max(round(n + n * n * math.expm1(ln_target / q) / q), 1), n)
    for _ in range(2):
        est = _ln_eps_estimate(n, seed, q)
        if -math.inf < est < 0:
            seed = min(max(round(n - (n - seed) * ln_target / est), 1), n)
    alpha = min(seed, n - 1)
    guess = math.floor(math.log1p(-alpha / n) / math.log1p(-float(c))) + 1
    over = _first_true(
        lambda d: not _meets(eps(replaced(d)), epsilon_max),
        min(guess, horizon + 1), -1, horizon + 1,
    )
    if over == 0:
        raise InfeasibleError(
            f"even a static system (delta=0) exceeds epsilon={_show(epsilon_max)} "
            f"at n={n}, q={q}"
        )
    capped = over > horizon
    return MaxDeltaResult(
        delta=over - 1,
        epsilon=eps(replaced(over - 1)).epsilon,
        epsilon_next=None if capped else eps(replaced(over)).epsilon,
        capped=capped,
    )
