#!/usr/bin/env python3
"""Trace churn curves: cumulative churn growth and probe deadlines.

Two curve families, selected by --curve:

  growth    For each per-unit rate c, the cumulative replaced ratio
            C = 1 - (1-c)^delta as delta sweeps a log-spaced grid.
            Columns: c,delta,C

  deadline  For each churn budget, the longest probe deadline delta
            such that the cumulative ratio stays within the budget,
            as the per-unit rate c sweeps a log-spaced grid.
            Columns: c,budget,delta,C_at_delta

CSV goes to stdout (or --out) for plotting.
"""

from __future__ import annotations

import argparse
import sys

from coreprobe import churn_ratio, delta_for_churn
from coreprobe.cli import parse_ratio


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    if points == 1:
        return [lo]
    return [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]


def growth_rows(rates, delta_max, points):
    deltas = sorted({int(round(d)) for d in _log_grid(1, delta_max, points)})
    rows = []
    for c in rates:
        for delta in deltas:
            rows.append((f"{c:.17g},{delta},{churn_ratio(c, delta):.17g}"))
    return ["c,delta,C"] + rows


def deadline_rows(budgets, c_lo, c_hi, points):
    rows = []
    for token in budgets:
        budget = parse_ratio(token)
        for c in _log_grid(c_lo, c_hi, points):
            result = delta_for_churn(c, budget)
            rows.append(
                f"{c:.17g},{token},{result.delta},{float(result.ratio):.17g}"
            )
    return ["c,budget,delta,C_at_delta"] + rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--curve", choices=("growth", "deadline"), default="growth",
        help="which curve family to emit (default: %(default)s)",
    )
    parser.add_argument(
        "--c", default="0.001,0.005,0.01,0.05",
        help="growth: comma-separated per-unit rates (default: %(default)s)",
    )
    parser.add_argument(
        "--delta-max", type=int, default=100_000,
        help="growth: largest probe deadline (default: %(default)s)",
    )
    parser.add_argument(
        "--budgets", default="10%,30%,60%,80%",
        help="deadline: comma-separated cumulative budgets (default: %(default)s)",
    )
    parser.add_argument(
        "--c-range", default="1e-4,0.1",
        help="deadline: lo,hi per-unit rate range (default: %(default)s)",
    )
    parser.add_argument(
        "--points", type=int, default=40,
        help="grid points per curve (default: %(default)s)",
    )
    parser.add_argument("--out", default=None, help="write CSV here instead of stdout")
    args = parser.parse_args(argv)

    if args.curve == "growth":
        rates = [float(tok) for tok in args.c.split(",") if tok.strip()]
        lines = growth_rows(rates, args.delta_max, args.points)
    else:
        budgets = [tok.strip() for tok in args.budgets.split(",") if tok.strip()]
        lo, hi = (float(tok) for tok in args.c_range.split(","))
        lines = deadline_rows(budgets, lo, hi, args.points)

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
