#!/usr/bin/env python3
"""Cross-check the closed-form miss probability against Monte Carlo.

Runs a battery of urn-model and churn-process simulations and z-tests
each against the analytic value.  Urn rows sample the exact model the
closed form describes, so a |z| > 3 there is an error and fails the
run.  Churn rows go through the derived replacement count; their z
quantifies the ceiling-schedule approximation and is reported only.
"""

from __future__ import annotations

import argparse
import sys

from coreprobe import TrialConfig, compare_with_analytic

URN_CASES = [
    (100, 10, 30),
    (500, 40, 150),
    (1000, 79, 300),
    (1000, 105, 600),
]

CHURN_CASES = [
    (1000, 105, 0.01, 10),
    (1000, 79, 0.003, 100),
    (100, 5, 0.005, 10),  # ceiling schedule roughly doubles the churn
]


def _row(comparison, label: str) -> str:
    report = comparison.report
    flag = " FLAGGED" if comparison.flagged else ""
    z = comparison.z_score
    z_text = "undefined" if z is None else f"{z:+.2f}"
    return (
        f"{label:<34} alpha={comparison.alpha:<5d}"
        f" analytic={comparison.epsilon_analytic:.6g}"
        f" empirical={comparison.epsilon_empirical:.6g}"
        f" ci=[{report.ci_low:.6g}, {report.ci_high:.6g}]"
        f" z={z_text}{flag}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trials", type=int, default=100_000,
        help="trials per configuration (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker threads (default: library heuristic)",
    )
    args = parser.parse_args(argv)

    failures = 0
    print(f"urn model ({args.trials} trials each):")
    for n, q, alpha in URN_CASES:
        config = TrialConfig(
            n=n, q=q, trials=args.trials, model="urn", alpha=alpha, seed=args.seed
        )
        comparison = compare_with_analytic(config, threads=args.threads)
        print("  " + _row(comparison, f"n={n} q={q} alpha={alpha}"))
        failures += comparison.flagged

    print(f"churn process ({args.trials} trials each, z reported only):")
    for n, q, c, delta in CHURN_CASES:
        config = TrialConfig(
            n=n, q=q, trials=args.trials, model="churn_process",
            c=c, delta=delta, seed=args.seed,
        )
        comparison = compare_with_analytic(config, threads=args.threads)
        print("  " + _row(comparison, f"n={n} q={q} c={c} delta={delta}"))

    if failures:
        print(f"{failures} urn case(s) flagged", file=sys.stderr)
        return 1
    print("all urn cases within 3 standard errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
