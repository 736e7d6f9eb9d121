"""Independent reference implementations used across the test modules.

Everything here is deliberately naive: exhaustive enumeration over
subsets and first-principles product formulas, sharing no code with the
package so disagreements point at real defects.
``selection_hits_reference`` and ``floyd_hits_reference`` mark which core
slots uniform subsets hit, by Knuth's selection sampling and Floyd's
subset algorithm; ``churn_trials_reference`` runs the churn process on
them slot by slot, an independent check of the survivor law the
simulator draws from.  ``replacement_schedule_reference`` is the
simulator's earlier per-unit schedule, kept to pin the grouped batch
sizes.  ``logspace_full_sum_reference`` is the earlier logspace loop of
``miss_probability``, which summed every term; it takes ``ln_binomial``
from the package, so a disagreement points at the loop.
``probe_misses_reference`` is the simulator's earlier round-by-round
probe loop, which compacted every round, kept to pin the in-place first
round draw for draw.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections import Counter
from itertools import combinations

import numpy as np

from coreprobe.persistence import ln_binomial


def pascal_rows(limit: int) -> list[list[int]]:
    """Rows 0..limit of Pascal's triangle, built purely additively."""
    rows = [[1]]
    for _ in range(limit):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


def binom_product(m: int, r: int) -> int:
    """C(m, r) via the multiplicative formula, reduced incrementally."""
    if r < 0 or r > m:
        return 0
    value = Fraction(1)
    for i in range(1, min(r, m - r) + 1):
        value *= Fraction(m - i + 1, i)
    assert value.denominator == 1
    return value.numerator


def miss_probability_reference(n: int, alpha: int, q: int) -> Fraction:
    """The closed-form miss probability summed term by term from binom_product.

    eps = sum_k C(n+k-q, q) C(q, k) C(n-q, alpha-k) / (C(n, q) C(n, alpha)),
    over every k; out-of-support terms vanish because binom_product
    returns 0 for them.
    """
    numerator = sum(
        binom_product(n + k - q, q)
        * binom_product(q, k)
        * binom_product(n - q, alpha - k)
        for k in range(min(alpha, q) + 1)
    )
    return Fraction(numerator, binom_product(n, q) * binom_product(n, alpha))


def logspace_full_sum_reference(n: int, alpha: int, q: int) -> tuple[float, float]:
    """(epsilon, log_epsilon) of logspace ``miss_probability``, summing every term.

    The earlier loop, kept verbatim: Python-int (num, den) pairs for
    T(k+1) / T(k), every k in [k0, b) stepped in floats from 1.0, with
    the rescale by 2^-600 and no early stop.
    """
    a, b = max(0, alpha - n + q), min(alpha, q)
    k0 = max(a, 2 * q - n)
    anchor = ((n + k0 - q, q), (alpha, k0), (n - alpha, q - k0))
    steps = (
        (
            (n + k + 1 - q) * (alpha - k) * (q - k),
            (n + k + 1 - 2 * q) * (k + 1) * (n - alpha - q + k + 1),
        )
        for k in range(k0, b)
    )
    term = total = 1.0
    rescales = 0
    for num, den in steps:
        term *= num / den
        total += term
        if term > 2.0**600:
            term /= 2.0**600
            total /= 2.0**600
            rescales += 1
    logs = [ln_binomial(m, r) for m, r in anchor]
    logs += [-2 * ln_binomial(n, q), rescales * math.log(2.0**600), math.log(total)]
    log_eps = min(math.fsum(logs), 0.0)
    return math.exp(log_eps), log_eps


def _mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def urn_miss_probability(n: int, q: int, alpha: int) -> Fraction:
    """Miss probability by exhausting every replacement and probe subset.

    Core members are nodes 0..q-1.  A probe subset misses when it shares
    no node with the core members that escaped replacement.
    """
    green = (1 << q) - 1
    probe_masks = [_mask(c) for c in combinations(range(n), q)]
    misses = 0
    total = 0
    for repl in combinations(range(n), alpha):
        survivors = green & ~_mask(repl)
        for pm in probe_masks:
            total += 1
            if pm & survivors == 0:
                misses += 1
    return Fraction(misses, total)


def overlap_pmf(n: int, q: int, alpha: int) -> dict[int, Fraction]:
    """Distribution of |replacement set ∩ core| over all replacement sets."""
    green = (1 << q) - 1
    counts: dict[int, int] = {}
    total = 0
    for repl in combinations(range(n), alpha):
        k = bin(_mask(repl) & green).count("1")
        counts[k] = counts.get(k, 0) + 1
        total += 1
    return {k: Fraction(v, total) for k, v in sorted(counts.items())}


def avoidance_probability(n: int, survivors: int, q: int) -> Fraction:
    """Probability that q probe nodes avoid a fixed survivor set, enumerated."""
    target = _mask(range(survivors))
    good = 0
    total = 0
    for probe in combinations(range(n), q):
        total += 1
        if _mask(probe) & target == 0:
            good += 1
    return Fraction(good, total)


def avoidance_product(n: int, q: int, k: int) -> Fraction:
    """The per-term product form: prod_{i=1..q} (1 - (q-k)/(n-i+1))."""
    value = Fraction(1)
    for i in range(1, q + 1):
        value *= 1 - Fraction(q - k, n - i + 1)
    return value


def churn_ratio_exact(c: Fraction, delta: int) -> Fraction:
    """1 - (1-c)^delta in exact rational arithmetic."""
    return 1 - (1 - c) ** delta


def selection_hits_reference(
    rng: np.random.Generator, size: int, n: int, k: int, m: int, units: int
) -> np.ndarray:
    """Selection sampling over slots 0..m-1, filled column by column.

    Row i marks which of slots 0..m-1 fall in any of ``units`` independent
    uniform k-subsets of range(n): slot j joins a subset with probability
    need/(n - j), where ``need`` is the number of members it still lacks.
    """
    hits = np.zeros((size, m), dtype=bool)
    need = np.full((size, units), k, dtype=np.int32)
    for i in range(m):
        taken = rng.integers(0, n - i, size=(size, units), dtype=np.int32) < need
        need -= taken
        hits[:, i] = taken.any(axis=1)
    return hits


def floyd_hits_reference(
    rng: np.random.Generator, size: int, n: int, k: int, m: int, units: int
) -> np.ndarray:
    """Floyd's subset sampling over slots 0..m-1.

    Same result law as ``selection_hits_reference``: for j in n-k..n-1
    each subset draws t in [0, j] and takes j instead when t is already
    a member, so every column is compared against every earlier one.
    """
    hits = np.zeros((size, m), dtype=bool)
    columns: list[np.ndarray] = []
    for j in range(n - k, n):
        t = rng.integers(0, j + 1, size=(size, units), dtype=np.int32)
        for earlier in columns:
            t[t == earlier] = j
        columns.append(t)
        rows, cols = np.nonzero(t < m)
        hits[rows, t[rows, cols]] = True
    return hits


def replacement_schedule_reference(
    n: int, c, delta: int, fractional: bool
) -> list[int]:
    """Nodes replaced at each time unit, one list entry per unit.

    The simulator's earlier ``_replacement_schedule``, kept verbatim:
    the constant ceil(c*n), or in fractional mode a float carry of the
    non-integer remainder.
    """
    if not fractional:
        return [math.ceil(c * n)] * delta
    schedule = []
    carry = 0.0
    rate = float(c) * n
    for _ in range(delta):
        x = carry + rate
        r = math.floor(x)
        carry = x - r
        schedule.append(r)
    return schedule


def churn_trials_reference(
    n: int, q: int, batches: list[int], size: int, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Misses and survivor counts of ``size`` churn trials, drawn slot by slot.

    Each batch replaces a uniform r-subset of range(n); only its
    intersection with the core slots 0..q-1 is kept.  The probe is a
    uniform q-subset, and a trial misses when it marks no unreplaced
    core slot.
    """
    replaced = np.zeros((size, q), dtype=bool)
    for r, count in sorted(Counter(batches).items()):
        # Either sampler is exact.  Selection takes q steps, Floyd's r
        # steps with up to r(r-1)/2 membership comparisons.
        if r * (r - 1) // 2 >= q:
            sample = selection_hits_reference
        else:
            sample = floyd_hits_reference
        replaced |= sample(rng, size, n, r, q, count)
    probe = selection_hits_reference(rng, size, n, q, q, 1)
    misses = int(np.count_nonzero(~(probe & ~replaced).any(axis=1)))
    return misses, q - replaced.sum(axis=1)


def survivor_law_reference(n: int, q: int, batches: list[int]) -> list[Fraction]:
    """P(S = s) for s in 0..q after the batches, in exact rationals.

    S starts at q; a batch of r leaves s - k survivors with probability
    C(s, k) C(n - s, r - k) / C(n, r).  Weights are kept as integers
    over the common denominator prod_t C(n, r_t).
    """
    weights = [0] * q + [1]
    denominator = 1
    for r in batches:
        step = [0] * (q + 1)
        for s, weight in enumerate(weights):
            if weight:
                for k in range(min(s, r) + 1):
                    step[s - k] += weight * math.comb(s, k) * math.comb(n - s, r - k)
        weights = step
        denominator *= math.comb(n, r)
    return [Fraction(weight, denominator) for weight in weights]


def churn_miss_probability_reference(n: int, q: int, batches: list[int]) -> Fraction:
    """Miss probability of the churn process by inclusion-exclusion.

    sum_i (-1)^i C(q, i)^2 / C(n, i) * prod_t C(n - i, r_t) / C(n, r_t):
    term i counts the i-sets of core slots that all survive every batch
    and all fall in the probe.
    """
    total = Fraction(0)
    for i in range(q + 1):
        term = Fraction(math.comb(q, i) ** 2, math.comb(n, i))
        for r, count in Counter(batches).items():
            term *= Fraction(math.comb(n - i, r), math.comb(n, r)) ** count
        total += -term if i % 2 else term
    return total


def probe_misses_reference(
    rng: np.random.Generator, n: int, q: int, values: np.ndarray, counts: np.ndarray
) -> int:
    """Misses of ``simulator._probe_misses``, round by round.

    The earlier loop, kept verbatim: every round compacts the block's
    per-trial draw, k and rate to the trials still undecided.
    """
    k = np.minimum(values, q)
    misses = int(counts[k == 0].sum())
    live = (k > 0) & (values <= n - q)
    k, per = k[live], counts[live]
    rate = np.repeat(-np.log1p(-np.maximum(values[live], q) / (n - k + 1)), per)
    k = np.repeat(k, per)
    draw = np.full(len(k), -1, dtype=np.int64)
    while len(k):
        draw += (rng.standard_exponential(len(k)) / rate).astype(np.int64) + 1
        inside = draw < k
        misses += len(k) - int(np.count_nonzero(inside))
        draw, k, rate = draw[inside], k[inside], rate[inside]
        rejected = rng.random(len(k)) * (n - draw) >= n - k + 1
        draw, k, rate = draw[rejected], k[rejected], rate[rejected]
    return misses
