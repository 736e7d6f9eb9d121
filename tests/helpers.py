"""Independent reference implementations used across the test modules.

Everything here is deliberately naive: exhaustive enumeration over
subsets and first-principles product formulas, sharing no code with the
package so disagreements point at real defects.  The two ``*_hits_reference``
samplers are the simulator's earlier, plainer samplers, kept to pin the
current ones to the same draws and masks; ``replacement_schedule_reference``
is its earlier per-unit schedule, kept to pin the grouped batch sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


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

    The simulator's earlier ``_selection_hits``, kept verbatim: the
    current sampler must make the same draws and return the same mask.
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
    """Floyd's sampler with the membership test at every step.

    The simulator's earlier ``_floyd_hits``, kept verbatim: every column
    is compared against every earlier one, k(k-1)/2 comparisons.
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
