"""Analytic core: churn ratio, replacement count, and the miss probability.

The model: a population of n nodes in which a fraction c is replaced
every time unit.  After delta units, a ratio C = 1 - (1-c)^delta of the
initial nodes has been replaced, i.e. alpha = ceil(C*n) nodes.  A core
of q nodes held copies of a data item at the start of the window; a
querier later probes q nodes chosen uniformly without replacement.
``miss_probability`` is the chance that no probe lands on a surviving
core member:

    eps = sum_{k=k0}^{b} C(n+k-q, q) C(alpha, k) C(n-alpha, q-k) / C(n, q)^2

with a = max(0, alpha-n+q), b = min(alpha, q), k0 = max(a, 2q-n) (terms
below k0 vanish).  The summand factors as (k of the q core members were
replaced, hypergeometric) times (all q probes avoid the q-k survivors,
C(n+k-q, q) / C(n, q)).  Every lower binomial index is at most q.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Union

__all__ = [
    "binomial_exact",
    "ln_binomial",
    "log_sum_exp",
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

# A logspace term above 2^600 is rescaled by 2^-600; one step multiplies
# it by less than n^3, well inside the 2^423 of headroom left.
_RESCALE = 2.0**600
_LN_RESCALE = math.log(_RESCALE)
# ln_binomial reads the exact integer while min(r, m-r) is at most this;
# above it, the two-term Stirling tail is off by under 3e-15, less than
# half an ulp of any such ln C(m, r) (at least ln C(402, 201) > 275).
_SERIES_MIN_K = 200


def binomial_exact(m: int, r: int) -> int:
    """C(m, r) as an exact integer; 0 whenever r < 0 or r > m.

    The out-of-range-gives-zero convention keeps sums over binomial
    products total at degenerate boundaries.
    """
    if m < 0:
        raise ValueError(f"binomial_exact requires m >= 0, got m={m}")
    if r < 0 or r > m:
        return 0
    return math.comb(m, r)


def _stirling_tail(x: int) -> float:
    """ln x! - (x ln x - x + ln(2 pi x) / 2), to within 3e-15 for x > 200."""
    return (1 / 12 - 1 / (360 * x * x)) / x


def ln_binomial(m: int, r: int) -> float:
    """ln C(m, r); -inf (exact zero) when r < 0 or r > m.

    With k = min(r, m-r) and j = m - k, it is the log of the exact
    integer for k <= 200 and otherwise Stirling's form

        k ln(m/k) + j ln(m/j) + ln(m / (2 pi k j)) / 2
        + tail(m) - tail(k) - tail(j),

    whose large parts are positive: nothing cancels, so the relative
    error is a few ulps and the cost is O(1) for any m.
    """
    if m < 0:
        raise ValueError(f"ln_binomial requires m >= 0, got m={m}")
    if r < 0 or r > m:
        return -math.inf
    k = min(r, m - r)
    if k <= _SERIES_MIN_K:
        return math.log(math.comb(m, k))
    j = m - k
    return (
        k * math.log(m / k)
        - j * math.log1p(-k / m)
        + 0.5 * math.log(m / (2 * math.pi * k * j))
        + _stirling_tail(m)
        - _stirling_tail(k)
        - _stirling_tail(j)
    )


def log_sum_exp(logs: Iterable[float]) -> float:
    """Logarithm of the sum of the magnitudes whose logs are given.

    Max-shifted so no intermediate overflows, with the partial sums
    accumulated by math.fsum so the result is independent of term
    order.  An empty sequence (or all -inf terms) yields -inf.
    """
    finite = [x for x in logs if x != -math.inf]
    if not finite:
        return -math.inf
    top = max(finite)
    if top == math.inf:
        raise OverflowError("log_sum_exp over an infinite magnitude")
    return top + math.log(math.fsum(math.exp(x - top) for x in finite))


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
    replaced core members; no special case short-circuits it.  Exact
    mode steps the terms in integers from the exact anchor; logspace
    steps them in floats from 1.0 and adds ln(anchor / C(n, q)^2),
    summed from ``ln_binomial`` values.
    """
    n, q, alpha = _check_urn(n, q, alpha)
    resolved = _resolve_mode(n, mode)
    a, b = support_bounds(n, q, alpha)
    k0 = max(a, 2 * q - n)
    # The binomials of the first term T(k0) of the sum in the module
    # docstring; their product is 0 exactly when k0 > b, i.e. when every
    # term vanishes.  Then T(k+1) = T(k) * num / den, exact in integers.
    anchor = ((n + k0 - q, q), (alpha, k0), (n - alpha, q - k0))
    steps = (
        (
            (n + k + 1 - q) * (alpha - k) * (q - k),
            (n + k + 1 - 2 * q) * (k + 1) * (n - alpha - q + k + 1),
        )
        for k in range(k0, b)
    )
    if resolved == "exact":
        term = total = math.prod(binomial_exact(m, r) for m, r in anchor)
        for num, den in steps:
            term = term * num // den
            total += term
        return MissProbability(
            epsilon=Fraction(total, binomial_exact(n, q) ** 2), mode="exact"
        )
    term = total = 1.0
    rescales = 0
    for num, den in steps:
        term *= num / den
        total += term
        if term > _RESCALE:
            term /= _RESCALE
            total /= _RESCALE
            rescales += 1
    logs = [ln_binomial(m, r) for m, r in anchor]
    logs += [-2 * ln_binomial(n, q), rescales * _LN_RESCALE, math.log(total)]
    # Float error can push ln(eps) a hair above 0; clamp.
    log_eps = min(math.fsum(logs), 0.0)
    return MissProbability(
        epsilon=math.exp(log_eps), mode="logspace", log_epsilon=log_eps
    )
