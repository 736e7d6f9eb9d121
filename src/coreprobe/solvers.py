"""Inverse relations: core size for a target miss probability, probe
period for a churn budget, and churn rate for a tolerated ratio.

Every integer-valued solver returns a witness pair: the metric achieved
at the answer and at the adjacent rejected point, so callers (and the
golden tests) can re-check minimality/maximality without re-running the
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .persistence import (
    Mode,
    RatioLike,
    _check_int,
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
    epsilon_prev: Probability | None  # at q-1 (violates target); None if q == 0


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


def min_core_size(
    n: int,
    alpha: int,
    epsilon_max: Probability,
    mode: Mode = "auto",
) -> CoreSizeResult:
    """Smallest q whose miss probability does not exceed epsilon_max.

    Exploits that the miss probability is non-increasing in q:
    exponential growth finds a feasible q, then binary search pins the
    boundary.  Raises InfeasibleError when even probing all n nodes
    cannot meet the target (which happens only when alpha = n: every
    initial node was replaced, so probing cannot find a core member).
    """
    if not 0 < epsilon_max < 1:
        raise ValueError(f"epsilon_max must lie in (0, 1), got {epsilon_max}")
    n = _check_int("n", n)
    alpha = _check_int("alpha", alpha)

    def eps(q: int) -> Probability:
        return miss_probability(n, alpha, q, mode).epsilon

    if eps(n) > epsilon_max:
        raise InfeasibleError(
            f"no core size q <= n={n} reaches epsilon <= {epsilon_max} "
            f"at alpha={alpha}"
        )
    hi = 1
    while hi < n and eps(hi) > epsilon_max:
        hi = min(2 * hi, n)
    lo = hi // 2  # eps(lo) > epsilon_max whenever lo > 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eps(mid) <= epsilon_max:
            hi = mid
        else:
            lo = mid
    # hi >= 1 is minimal: q = 0 gives eps = 1, which no target < 1 meets.
    q = hi
    return CoreSizeResult(
        q=q,
        epsilon=eps(q),
        epsilon_prev=eps(q - 1) if q > 0 else None,
    )


def delta_for_churn(c: RatioLike, ratio_max: RatioLike) -> LifetimeResult:
    """Largest whole number of time units keeping the churn ratio within budget.

    Starts from floor(log(1-ratio_max) / log(1-c)) and re-evaluates the
    boundary in both directions, so a float error in the log quotient
    cannot flip the answer.  The feasibility test runs on the survivor
    fraction, (1-c)^delta >= (1-budget)*(1 - _RATIO_SLACK): unlike the
    replaced ratio, the survivor side never saturates at 1.0, so the
    walk terminates even for budgets within a few ulps of 1.
    """
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    if not 0 < ratio_max < 1:
        raise ValueError(f"ratio_max must lie in (0, 1), got {ratio_max}")
    c = float(c)
    budget = float(ratio_max)
    log_keep = math.log1p(-c)
    survivors_min = (1.0 - budget) * (1.0 - _RATIO_SLACK)

    def feasible(d: int) -> bool:
        return math.exp(d * log_keep) >= survivors_min

    delta = max(math.floor(math.log1p(-budget) / log_keep), 0)
    while feasible(delta + 1):
        delta += 1
    while delta > 0 and not feasible(delta):
        delta -= 1
    return LifetimeResult(
        delta=delta,
        ratio=churn_ratio(c, delta),
        ratio_next=churn_ratio(c, delta + 1),
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

    The churn ratio grows with delta, hence so does the replacement
    count and the miss probability, giving a monotone predicate to
    search.  Raises InfeasibleError when the static case (delta = 0,
    nothing replaced) already violates the target; returns a capped
    result when every delta up to ``horizon`` is still feasible.
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

    def eps(delta: int) -> Probability:
        alpha = replaced_count(n, churn_ratio(c, delta))
        return miss_probability(n, alpha, q, mode).epsilon

    if eps(0) > epsilon_max:
        raise InfeasibleError(
            f"even a static system (delta=0) exceeds epsilon={epsilon_max} "
            f"at n={n}, q={q}"
        )
    if eps(horizon) <= epsilon_max:
        return MaxDeltaResult(
            delta=horizon, epsilon=eps(horizon), epsilon_next=None, capped=True
        )
    lo, hi = 0, 1  # eps(lo) <= epsilon_max; grow hi until it violates
    while eps(hi) <= epsilon_max:
        lo, hi = hi, min(2 * hi, horizon)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eps(mid) <= epsilon_max:
            lo = mid
        else:
            hi = mid
    return MaxDeltaResult(
        delta=lo, epsilon=eps(lo), epsilon_next=eps(lo + 1), capped=False
    )
