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

Logspace stops once a falling term is below total * 2^-54, bit-exactly:
(1) the ratio factors (n+k+1-q)/(n+k+1-2q), (alpha-k)/(k+1) and
(q-k)/(n-alpha-q+k+1) are positive and non-increasing on [k0, b); (2)
rounding is monotone, so once the float ratio is below 1 the terms never
rise; (3) total >= 1, so this and every later term is under half an ulp
of total (and under the rescale bound) and leaves it unchanged.

The churn process instead replaces ceil(c*n) nodes, or c*n on average,
in each of delta batches.  ``_process_miss_probability`` sums the probe
term C(n-s, q) / C(n, q) over the law of the s core members no batch
replaced, built by ``_survivor_law``; the simulator draws from the same
law, cached per batch schedule: one module holds both exact values.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, truediv
from typing import TYPE_CHECKING, Iterable, Literal, Union

if TYPE_CHECKING:  # numpy loads only inside the survivor-law functions
    import numpy as np

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
_Groups = tuple[tuple[int, int], ...]  # (r, count): count batches of r each

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

# Per-call budget of float64 values for building the survivor law.
_CALL_ELEMENTS = 1 << 22

# Cost model for applying a batch group, in values scattered: one numpy
# call costs about 3000 of them, and a matrix product does about 200
# multiply-adds in the time of one (2 vCPUs, numpy 2.4).
_CALL_COST = 3000
_MATMUL_SPEEDUP = 200


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
    n, q, _ = _check_urn(n, q, 0)
    k = _check_int("k", k)
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
    installed.  The value is the sum over the possible number k of
    replaced core members.  Exact mode steps every term in integers from
    the exact anchor; logspace steps them in floats from 1.0, stops once
    a falling term is below total * 2^-54 (exact: the ratio never rises,
    rounding is monotone and total >= 1; see the module docstring), and
    adds ln(anchor / C(n, q)^2), summed from ``ln_binomial`` values.
    """
    n, q, alpha = _check_urn(n, q, alpha)
    resolved = _resolve_mode(n, mode)
    a, b = support_bounds(n, q, alpha)
    k0 = max(a, 2 * q - n)
    # The binomials of the first term T(k0) of the sum in the module
    # docstring; their product is 0 exactly when k0 > b, i.e. when every
    # term vanishes.  Then T(k+1) = T(k) * num / den, exact in integers.
    anchor = ((n + k0 - q, q), (alpha, k0), (n - alpha, q - k0))
    num = map(mul, map(mul, range(n + k0 + 1 - q, n + b + 1 - q),
                       range(alpha - k0, alpha - b, -1)),
              range(q - k0, q - b, -1))
    den = map(mul, map(mul, range(n + k0 + 1 - 2 * q, n + b + 1 - 2 * q),
                       range(k0 + 1, b + 1)),
              range(n - alpha - q + k0 + 1, n - alpha - q + b + 1))
    if resolved == "exact":
        term = total = math.prod(binomial_exact(m, r) for m, r in anchor)
        for x, y in zip(num, den):
            term = term * x // y
            total += term
        return MissProbability(
            epsilon=Fraction(total, binomial_exact(n, q) ** 2), mode="exact"
        )
    term = total = 1.0
    rescales = 0
    for ratio in map(truediv, num, den):
        term *= ratio
        total += term
        if term > _RESCALE:
            term /= _RESCALE
            total /= _RESCALE
            rescales += 1
        elif ratio < 1.0 and term < total * 2.0**-54:
            break  # the terms fall from here on, each under half an ulp of total
    logs = [ln_binomial(m, r) for m, r in anchor]
    logs += [-2 * ln_binomial(n, q), rescales * _LN_RESCALE, math.log(total)]
    # Float error can push ln(eps) a hair above 0; clamp.
    log_eps = min(math.fsum(logs), 0.0)
    return MissProbability(
        epsilon=math.exp(log_eps), mode="logspace", log_epsilon=log_eps
    )


def _batch_rows(
    n: int, r: int, states: np.ndarray, band: int
) -> tuple[np.ndarray, np.ndarray]:
    """One batch of r as rows of the survivor chain, one row per S in ``states``.

    Returns (targets, probs) of shape (len(states), width): row S gives
    the chance C(S, k) C(n - S, r - k) / C(n, r) that the batch leaves
    S - k survivors, for k at most ``band`` from the mode
    k = (r+1)(S+1) // (n+2).  Each row is 1 at its mode, stepped outward
    by the integer ratio of neighbouring terms, then normalised; so no
    term overflows.  The ratio is 0 at each edge of the support, so
    terms past an edge are 0 and their targets are clipped into [0, S].
    Targets fall along a row and rise with S, as S - mode never falls.
    """
    import numpy as np

    s = states[:, None]
    mode = (r + 1) * (states + 1) // (n + 2)
    # Above the mode each step multiplies by P(k+1)/P(k), below it by P(k-1)/P(k).
    k = mode[:, None] + np.arange(min(band, (np.minimum(states, r) - mode).max()))
    up = np.cumprod((s - k) * (r - k) / ((k + 1) * (n - s - r + k + 1)), axis=1)
    k = mode[:, None] - np.arange(min(band, (mode - np.maximum(0, r - n + states)).max()))
    down = np.cumprod(k * (n - s - r + k) / ((s - k + 1) * (r - k + 1)), axis=1)
    probs = np.hstack((down[:, ::-1], np.ones((len(states), 1)), up))
    probs /= probs.sum(axis=1, keepdims=True)
    removed = mode[:, None] + np.arange(-down.shape[1], up.shape[1] + 1)
    return s - removed.clip(0, s), probs


def _trimmed(lo: int, law: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, law) cut down to the window from its first to its last nonzero entry."""
    import numpy as np

    nonzero = np.flatnonzero(law)
    return int(lo + nonzero[0]), law[nonzero[0] : nonzero[-1] + 1]


def _survivor_law(n: int, q: int, groups: _Groups) -> tuple[int, np.ndarray]:
    """The law of S after every (r, count) group: (lo, law), law[i] = P(S = lo + i).

    S starts at q, and each batch of r replaces Hyp(S, n - S, r) of the
    S survivors.  The law is kept on the window of its nonzero mass, so
    a batch that removes many survivors never holds the counts it skips.
    With m = min(S, r), P(k)/P(mode) <= (m+1) exp(-2(|k - mode| - 1)^2/m)
    (Hoeffding 1963, Thm. 4), so terms beyond 1 + isqrt(m (746 + bitlen
    m)) of the mode are below 2^-1075 of it; rows stop there, at
    m = min(q, r).  A group is applied batch by batch or as a power of its
    (q+1)^2 transition matrix, as the cost model says; the power only if
    it fits ``_CALL_ELEMENTS``.  Rows of the states the group can reach
    before its last batch are kept if they fit too, else built in chunks
    that do, each scattered as built: a call holds one chunk's rows, the
    law and a window 2 band + 1 wider, from band below lo - mode(lo), as
    row S spans S - mode(S) +- band and S - mode(S) never falls.
    """
    import numpy as np

    lo, law = q, np.ones(1)
    for r, count in groups:
        m = min(q, r)
        band = min(m, 1 + math.isqrt(m * (746 + m.bit_length())))
        first, top = max(0, lo - (count - 1) * r), lo + len(law)
        chunk = max(1, _CALL_ELEMENTS // (2 * band + 1))
        stepping = count * ((top - first) * (min(m, 2 * band) + 1) + _CALL_COST)
        squaring = count.bit_length() * ((q + 1) ** 3 / _MATMUL_SPEEDUP + _CALL_COST)
        if (q + 1) ** 2 <= _CALL_ELEMENTS and squaring < stepping:
            matrix = np.zeros((q + 1, q + 1))
            for part in np.split(np.arange(first, top), range(chunk, top - first, chunk)):
                targets, probs = _batch_rows(n, r, part, band)
                np.add.at(matrix, (part[:, None], targets), probs)
            full = np.pad(law, (lo, q + 1 - lo - len(law)))
            lo, law = _trimmed(0, full @ np.linalg.matrix_power(matrix, count))
            continue
        kept = top - first <= chunk and _batch_rows(n, r, np.arange(first, top), band)
        for _ in range(count):
            base = max(0, lo - (r + 1) * (lo + 1) // (n + 2) - band)
            window = np.zeros(len(law) + 2 * band + 1)
            for i in range(0, len(law), chunk):
                w, at = law[i : i + chunk], lo - first + i
                t, p = (x[at : at + len(w)] for x in kept) if kept else _batch_rows(
                    n, r, np.arange(lo + i, lo + i + len(w)), band)
                window[t[0, -1] - base : t[-1, 0] - base + 1] += np.bincount(
                    (t - t[0, -1]).ravel(), (w[:, None] * p).ravel())
            lo, law = _trimmed(base, window)
    return lo, law


@functools.lru_cache(maxsize=1)
def _law(n: int, q: int, groups: _Groups) -> tuple[int, np.ndarray]:
    """``_survivor_law``, cached for the last batch schedule, so that runs at
    any seed or trial count build it once; the cached law is read-only."""
    lo, law = _survivor_law(n, q, groups)
    law.flags.writeable = False
    return lo, law


def _process_miss_probability(n: int, q: int, groups: _Groups) -> float:
    """Exact miss probability of the churn process, from its survivor law.

    eps = sum_i law[i] m(lo + i), where m(s) = C(n - s, q) / C(n, q) is
    the chance that a probe of q avoids s survivors.  ln m starts from
    ``ln_binomial`` at s = lo and steps by ln(1 - q/(n - s)); m = 0 past
    s = n - q, where every probe hits a survivor.  The sum is divided by
    the law's float mass, as the draws are, so eps never exceeds 1.
    """
    import numpy as np

    lo, law = _law(n, q, groups)
    live = law[: max(0, n - q - lo + 1)]
    steps = np.log1p(-q / (n - np.arange(lo, lo + len(live) - 1)))
    ln_m = ln_binomial(n - lo, q) - ln_binomial(n, q) + np.cumsum(np.r_[0.0, steps])
    return math.fsum(live * np.exp(ln_m)) / math.fsum(law)
