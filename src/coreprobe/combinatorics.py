"""Numerically safe binomial coefficients and summation primitives.

Everything here comes in two flavors: exact big-integer / big-rational
arithmetic (`binomial_exact`, `fractions.Fraction`) and logarithmic
floating point (`ln_binomial`, `log_sum_exp`).  The exact flavor is the
reference; the log flavor is what scales to populations of 10^5 and
beyond.  A log value is a plain float holding the natural logarithm of
a nonnegative magnitude, with ``-inf`` encoding exact zero: products
and quotients of magnitudes are sums and differences of logs.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["binomial_exact", "ln_binomial", "log_sum_exp"]

# Below this threshold on min(r, m-r) the exact big-integer binomial is
# cheap, and taking its log is more accurate than three lgamma calls
# (whose absolute error grows with lgamma's magnitude and would spoil
# the 1e-12 relative guarantee for small log-values).
_EXACT_LOG_CUTOFF = 200

_NEG_INF = float("-inf")


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


def ln_binomial(m: int, r: int) -> float:
    """ln C(m, r); -inf (exact zero) when r < 0 or r > m.

    Uses the log-gamma function for mid-range r and falls back to the
    log of the exact integer when min(r, m-r) is small, keeping the
    relative error of the result below 1e-12 across the whole domain
    (m up to ~10^6).
    """
    if m < 0:
        raise ValueError(f"ln_binomial requires m >= 0, got m={m}")
    if r < 0 or r > m:
        return _NEG_INF
    k = min(r, m - r)
    if k == 0:
        return 0.0
    if k <= _EXACT_LOG_CUTOFF:
        return math.log(math.comb(m, r))
    return math.lgamma(m + 1) - math.lgamma(r + 1) - math.lgamma(m - r + 1)


def log_sum_exp(logs: Iterable[float]) -> float:
    """Logarithm of the sum of the magnitudes whose logs are given.

    Max-shifted so no intermediate overflows, with the partial sums
    accumulated by math.fsum so the result is independent of term
    order.  An empty sequence (or all -inf terms) yields -inf.
    """
    finite = [x for x in logs if x != _NEG_INF]
    if not finite:
        return _NEG_INF
    m = max(finite)
    if m == math.inf:
        raise OverflowError("log_sum_exp over an infinite magnitude")
    return m + math.log(math.fsum(math.exp(x - m) for x in finite))
