"""Analytic core: churn ratio, replacement count, and the miss probability.

The model: a population of n nodes in which a fraction c is replaced
every time unit.  After delta units, a ratio C = 1 - (1-c)^delta of the
initial nodes has been replaced, i.e. alpha = ceil(C*n) nodes.  A core
of q nodes held copies of a data item at the start of the window; a
querier later probes q nodes chosen uniformly without replacement.
``miss_probability`` is the chance that no probe lands on a surviving
core member:

    eps = sum_{k=a}^{b} C(n+k-q, q) C(q, k) C(n-q, alpha-k)
          -------------------------------------------------
                        C(n, q) C(n, alpha)

with a = max(0, alpha-n+q) and b = min(alpha, q).  The summand factors
as (number of core members among the replaced = k, hypergeometric) times
(probability all q probes avoid the q-k survivors).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Union

from .combinatorics import binomial_exact, ln_binomial, log_sum_exp

__all__ = [
    "EXACT_N_LIMIT",
    "MissProbability",
    "churn_ratio",
    "replaced_count",
    "support_bounds",
    "hypergeometric_pmf",
    "conditional_miss",
    "miss_probability",
]

Mode = Literal["exact", "logspace", "auto"]
RatioLike = Union[int, float, Fraction]

# "auto" numeric mode resolves to exact big-rational arithmetic up to
# this population size and to log-space floats above it.
EXACT_N_LIMIT = 2000


def _check_int(name: str, value: object) -> int:
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class MissProbability:
    """The probability eps that probing misses every surviving core node.

    In exact mode ``epsilon`` is a reduced Fraction; in logspace mode it
    is a float and ``log_epsilon`` carries ln(eps) (-inf for zero),
    which stays meaningful even when eps underflows a double.
    """

    epsilon: Union[Fraction, float]
    mode: Literal["exact", "logspace"]
    log_epsilon: float | None = None


def churn_ratio(c: RatioLike, delta: int) -> float:
    """Fraction of initial nodes replaced after delta whole time units.

    Equals 1 - (1-c)^delta, evaluated as -expm1(delta*log1p(-c)) so
    tiny per-unit rates do not lose precision.
    """
    if not 0 <= c < 1:
        raise ValueError(f"c must lie in [0, 1), got {c}")
    delta = _check_int("delta", delta)
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0:
        return 0.0
    if delta == 1:
        # exact identity; the expm1(log1p(..)) round trip can drift 1 ulp
        return float(c)
    return -math.expm1(delta * math.log1p(-float(c)))


def replaced_count(n: int, ratio: RatioLike) -> int:
    """alpha = ceil(ratio * n), clamped to [0, n].

    Pass ``ratio`` as a Fraction (e.g. parsed from a percentage) to get
    an exact ceiling; float ratios are ceiled in float arithmetic, which
    is the documented convention for ratios that are themselves float
    results.
    """
    n = _check_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= ratio <= 1:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    alpha = math.ceil(ratio * n)
    return min(max(alpha, 0), n)


def _check_urn(n: int, q: int, alpha: int) -> tuple[int, int, int]:
    n = _check_int("n", n)
    q = _check_int("q", q)
    alpha = _check_int("alpha", alpha)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= q <= n:
        raise ValueError(f"q must lie in [0, n={n}], got {q}")
    if not 0 <= alpha <= n:
        raise ValueError(f"alpha must lie in [0, n={n}], got {alpha}")
    return n, q, alpha


def support_bounds(n: int, q: int, alpha: int) -> tuple[int, int]:
    """Support [a, b] of the replaced-core-member count."""
    return max(0, alpha - n + q), min(alpha, q)


def hypergeometric_pmf(n: int, q: int, alpha: int, k: int) -> Fraction:
    """Probability that exactly k of the q core nodes are replaced.

    Drawing alpha of n nodes uniformly without replacement, the number
    landing in a fixed q-subset is hypergeometric:
    C(q, k) * C(n-q, alpha-k) / C(n, alpha).
    """
    n, q, alpha = _check_urn(n, q, alpha)
    k = _check_int("k", k)
    a, b = support_bounds(n, q, alpha)
    if not a <= k <= b:
        raise ValueError(f"k must lie in the support [{a}, {b}], got {k}")
    return Fraction(
        binomial_exact(q, k) * binomial_exact(n - q, alpha - k),
        binomial_exact(n, alpha),
    )


def conditional_miss(n: int, q: int, k: int) -> Fraction:
    """Probability all q probes avoid the q-k surviving core nodes.

    Equals C(n-q+k, q) / C(n, q), and also the successive-draw product
    prod_{i=1..q} (1 - (q-k)/(n-i+1)).
    """
    n = _check_int("n", n)
    q = _check_int("q", q)
    k = _check_int("k", k)
    if not 0 <= q <= n:
        raise ValueError(f"q must lie in [0, n={n}], got {q}")
    if not 0 <= k <= q:
        raise ValueError(f"k must lie in [0, q={q}], got {k}")
    return Fraction(binomial_exact(n - q + k, q), binomial_exact(n, q))


def _resolve_mode(n: int, mode: Mode) -> Literal["exact", "logspace"]:
    if mode == "auto":
        return "exact" if n <= EXACT_N_LIMIT else "logspace"
    if mode in ("exact", "logspace"):
        return mode
    raise ValueError(f"unknown mode {mode!r}")


def miss_probability(
    n: int, alpha: int, q: int, mode: Mode = "auto"
) -> MissProbability:
    """Probability that none of q uniform probes hits a surviving core node.

    ``alpha`` of the n nodes were replaced since the core of q nodes was
    installed.  The value is the full sum over the possible number k of
    replaced core members; no special case short-circuits it.
    """
    n, q, alpha = _check_urn(n, q, alpha)
    resolved = _resolve_mode(n, mode)
    a, b = support_bounds(n, q, alpha)
    if resolved == "exact":
        # Terms below k0 vanish (C(n+k-q, q) = 0 while n+k-q < q).  From
        # k0 on, each term is the previous one times a ratio of small
        # integers, so one big multiply and one exact division per step
        # replace three big binomials per term; no float is involved.
        k0 = max(a, 2 * q - n)
        total = 0
        if k0 <= b:
            term = (
                binomial_exact(n + k0 - q, q)
                * binomial_exact(q, k0)
                * binomial_exact(n - q, alpha - k0)
            )
            total = term
            for k in range(k0, b):
                term = term * ((n + k + 1 - q) * (q - k) * (alpha - k)) // (
                    (n + k + 1 - 2 * q) * (k + 1) * (n - q - alpha + k + 1)
                )
                total += term
        eps = Fraction(total, binomial_exact(n, q) * binomial_exact(n, alpha))
        return MissProbability(epsilon=eps, mode="exact")
    log_terms = [
        ln_binomial(n + k - q, q) + ln_binomial(q, k) + ln_binomial(n - q, alpha - k)
        for k in range(a, b + 1)
    ]
    log_denominator = ln_binomial(n, q) + ln_binomial(n, alpha)
    if log_denominator == -math.inf:
        raise ZeroDivisionError("miss probability over a zero denominator")
    # Accumulated float error can push ln(eps) a hair above 0; clamp.
    log_eps = min(log_sum_exp(log_terms) - log_denominator, 0.0)
    return MissProbability(
        epsilon=math.exp(log_eps), mode="logspace", log_epsilon=log_eps
    )
