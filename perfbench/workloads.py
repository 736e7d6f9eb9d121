"""Seeded request streams for the three workloads, and the answer checks.

Every request is the argument list of one ``coreprobe`` CLI call.  The
benchmark runs it in-process through ``coreprobe.cli.main`` and checks
the ``--json`` record it prints; a request counts as failed when the
call exits non-zero or any check below rejects its record.

Workloads (closed loop, one client):

* ``design`` -- analytic design queries: mostly ``size``, plus
  ``lifetime`` (miss-target form), ``prob`` and short ``sweep q`` calls.
  Requests come in stratified rounds (see ``design_rounds``).  About
  half of them sit on the exact path (n <= 2000 under ``--mode auto``)
  and half on the logspace path, with n up to 10^6.
* ``mc-urn`` -- repeated ``simulate`` calls on the urn model at
  (n, q, alpha) = (1000, 79, 300), the criterion-7 scenario.
* ``mc-churn`` -- repeated ``simulate`` calls on the churn process at
  (n, q, c, delta) = (1000, 79, 0.003, 100).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from fractions import Fraction

WORKLOADS = ("design", "mc-urn", "mc-churn")

# --mode auto switches from exact rationals to logspace floats above this
# n; the design mix straddles it and its latencies are split at it.
EXACT_N_LIMIT = 2000

MC_BLOCK = 16384  # the simulator's block size at n = 1000
MC_TRIALS = 2 * MC_BLOCK  # two blocks per call
# The CLI's default.  Two worker threads on two cores doubled the
# call-to-call spread, since a slow stretch on either core delays the
# call; run.simulator_microbench measures the 2-thread path instead.
MC_THREADS = 1
MC_N, MC_Q = 1000, 79
URN_ALPHA = 300
URN_EPSILON = 0.009785410858742807  # exact miss probability at (1000, 300, 79)
CHURN_C, CHURN_DELTA = "0.003", 100
# Wide z-bound for the Monte Carlo checks: a correct simulator exceeds
# it with probability below 1e-8 per call.
Z_BOUND = 6.0

# Witness-verified minimal core sizes: (n, C, p) -> q.  The criterion-3
# cells are (10^4, 10%, 99%), (10^4, 10%, 99.9%) and (10^4, 50%, 99.9%).
# At (1000, 80%, 99%) the reference table's 143 is infeasible; 149 is
# the minimal size.
ANCHORS = {
    (1000, "30%", "99%"): 79,
    (10_000, "10%", "99%"): 224,
    (10_000, "10%", "99.9%"): 274,
    (10_000, "50%", "99.9%"): 369,
    (100_000, "80%", "99.9%"): 1855,
    (1000, "80%", "99%"): 149,
}

P_TOKENS = ("99%", "99.9%", "99.99%")
LOG_BANDS = ((2001, 10_000), (10_000, 100_000), (100_000, 1_000_000))
STRATA = 3
SUB_BANDS = 8

# Design slots: (kind, n range, churn ratio).  The n range is "exact"
# (n in [1000, 2000]) or an index into LOG_BANDS (n log-spaced).
DESIGN_SLOTS = (
    ("size", "exact", "static"),
    ("size", "exact", "10%"),
    ("size", "exact", "30%"),
    ("size", "exact", "60%"),
    ("size", "exact", "80%"),
    ("size", 0, "10%"),
    ("size", 0, "60%"),
    ("size", 1, "30%"),
    ("size", 1, "80%"),
    ("size", 2, "10%"),
    ("lifetime", "exact", None),
    ("lifetime", 0, None),
    ("prob", "exact", "30%"),
    ("prob", 1, "60%"),
    ("sweep", "exact", "60%"),
    ("sweep", 0, "30%"),
)


class CheckError(Exception):
    """A CLI record failed a correctness check."""


def _n_at(n_range, u: float) -> int:
    """n at quantile u of a slot's n range."""
    if n_range == "exact":
        return 1000 + round(u * (EXACT_N_LIMIT - 1000))
    lo, hi = LOG_BANDS[n_range]
    return round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _design_request(kind: str, n_range, cap_c, band: int, u: float, p: str) -> list[str]:
    n = _n_at(n_range, u)
    if kind == "size":
        return ["size", "--n", str(n), "--p", p, "--C", cap_c, "--json"]
    # A probe of q nodes misses a static core of q with probability about
    # exp(-q^2/n); 1.5x the q that meets the target keeps delta = 0 feasible.
    q_static = math.sqrt(n * math.log(1 / (1 - float(Fraction(p[:-1]) / 100))))
    if kind == "lifetime":
        c = ("0.1%", "0.05%")[band % 2]
        q = math.ceil(1.5 * q_static)
        return ["lifetime", "--c", c, "--n", str(n), "--q", str(q), "--p", p, "--json"]
    q = math.ceil((1 + (band + 0.5) / STRATA) * q_static)
    if kind == "prob":
        return ["prob", "--n", str(n), "--q", str(q), "--C", cap_c, "--json"]
    return ["sweep", "q", "--start", str(q), "--stop", str(q + 4),
            "--n", str(n), "--C", cap_c, "--json"]


def design_rounds(seed: int):
    """Endless stream of design rounds; each round is a list of requests.

    A round holds every anchor once and every slot STRATA times.  Copy b
    of a slot draws n from the b-th of STRATA equal quantile bands of
    the slot's n range, and takes its churn rate and probe size from b
    and its target p from b and the slot's index, so that every p meets
    every band.  Every round thus has the same shape of mix; the seed
    picks n inside each band and the order of the requests.  Within each
    block of SUB_BANDS rounds a copy takes n once from each of its band's
    SUB_BANDS equal parts, so the work of a run, about one block, hardly
    depends on the seed.
    """
    rng = random.Random(seed)
    copies = [(slot, band) for slot in range(len(DESIGN_SLOTS)) for band in range(STRATA)]
    while True:
        parts = {copy: rng.sample(range(SUB_BANDS), SUB_BANDS) for copy in copies}
        for block_round in range(SUB_BANDS):
            round_ = [["size", "--n", str(n), "--p", p, "--C", cap_c, "--json"]
                      for n, cap_c, p in ANCHORS]
            for slot, band in copies:
                kind, n_range, cap_c = DESIGN_SLOTS[slot]
                part = parts[slot, band][block_round]
                u = (band + (part + rng.random()) / SUB_BANDS) / STRATA
                p = P_TOKENS[(band + slot) % len(P_TOKENS)]
                round_.append(_design_request(kind, n_range, cap_c, band, u, p))
            rng.shuffle(round_)
            yield round_


def mc_rounds(workload: str, seed: int):
    """Endless stream of one-request rounds of ``simulate`` calls."""
    if workload == "mc-urn":
        form = ["--alpha", str(URN_ALPHA)]
    else:
        form = ["--c", CHURN_C, "--delta", str(CHURN_DELTA)]
    rng = random.Random(seed)
    while True:
        yield [["simulate", "--n", str(MC_N), "--q", str(MC_Q), *form,
                "--trials", str(MC_TRIALS), "--seed", str(rng.getrandbits(32)),
                "--threads", str(MC_THREADS), "--json"]]


def rounds(workload: str, seed: int):
    if workload == "design":
        return design_rounds(seed)
    return mc_rounds(workload, seed)


def warm_up_requests(workload: str) -> list[list[str]]:
    """Small requests that load every code path a workload uses."""
    if workload == "design":
        return [
            ["size", "--n", "1000", "--p", "99%", "--C", "30%", "--json"],
            ["size", "--n", "10000", "--p", "99%", "--C", "10%", "--json"],
            ["lifetime", "--c", "0.1%", "--n", "1000", "--q", "100", "--p", "99%", "--json"],
            ["prob", "--n", "3000", "--q", "100", "--C", "30%", "--json"],
            ["sweep", "q", "--start", "70", "--stop", "72", "--n", "1000", "--C", "30%", "--json"],
        ]
    request = next(mc_rounds(workload, 0))[0]
    request[request.index("--trials") + 1] = "256"
    return [request]


def invoke(main, args: list[str]) -> tuple[int, str, str]:
    """Run one CLI call in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="coreprobe", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a usage error or a crash is a failed request
            code = getattr(exc, "exit_code", 1)
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


# --- checks -----------------------------------------------------------------

def _reject_constant(token: str):
    raise CheckError(f"non-standard JSON constant {token}")


def parse_record(text: str):
    """Parse a --json record strictly: standard JSON, canonical bytes."""
    try:
        record = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"unparsable record: {exc}") from exc
    if json.dumps(record, sort_keys=True, indent=2) + "\n" != text:
        raise CheckError("record is not in canonical form")
    return record


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _ratio(token: str) -> Fraction:
    if token == "static":
        return Fraction(0)
    return Fraction(token[:-1]) / 100 if token.endswith("%") else Fraction(token)


def _flag(args: list[str], name: str) -> str:
    return args[args.index(name) + 1]


class Checker:
    """Checks one workload's records; ``eps`` recomputes a witness value.

    ``eps(n, alpha, q)`` must return the miss probability as a float.
    Recomputing both witnesses of every answer ties the reported q to
    its witness pair, so a wrong q with plausible epsilons is caught.
    """

    def __init__(self, eps, churn_ratio):
        self._eps = eps
        self._churn_ratio = churn_ratio
        # Miss-count z of every simulate record against the urn closed form.
        # Reported, not gated: the churn process has no exact reference yet.
        self.miss_z = []

    def check(self, args: list[str], text: str) -> None:
        record = parse_record(text)
        getattr(self, "_" + args[0])(args, record)

    def _alpha(self, args, record) -> int:
        n = int(_flag(args, "--n"))
        alpha = min(n, math.ceil(_ratio(_flag(args, "--C")) * n))
        _expect(record["alpha"] == alpha, f"alpha {record['alpha']} != {alpha}")
        return alpha

    def _size(self, args, r) -> None:
        n, p, cap_c = int(_flag(args, "--n")), _flag(args, "--p"), _flag(args, "--C")
        alpha = self._alpha(args, r)
        q = r["q"]
        _expect(r["n"] == n and r["epsilon_max"] == float(1 - _ratio(p)), "echoed inputs differ")
        _expect(r["epsilon"] <= r["epsilon_max"], "epsilon(q) above target")
        _expect(q >= 1 and r["epsilon_prev"] is not None and r["epsilon_max"] < r["epsilon_prev"],
                "epsilon(q-1) does not exceed target")
        _expect(r["epsilon"] == self._eps(n, alpha, q), "epsilon is not epsilon(q)")
        _expect(r["epsilon_prev"] == self._eps(n, alpha, q - 1), "epsilon_prev is not epsilon(q-1)")
        want = ANCHORS.get((n, cap_c, p))
        _expect(want is None or q == want, f"anchor q = {q}, expected {want}")

    def _lifetime(self, args, r) -> None:
        n, q = int(_flag(args, "--n")), int(_flag(args, "--q"))
        c = _ratio(_flag(args, "--c"))
        delta = r["delta"]
        _expect(not r["capped"] and r["epsilon_next"] is not None, "answer capped")
        _expect(r["epsilon"] <= r["epsilon_max"] < r["epsilon_next"], "witnesses do not bracket")
        for d, key in ((delta, "epsilon"), (delta + 1, "epsilon_next")):
            alpha = min(n, math.ceil(self._churn_ratio(c, d) * n))
            _expect(r[key] == self._eps(n, alpha, q), f"{key} is not epsilon at delta {d}")

    def _prob(self, args, r) -> None:
        self._alpha(args, r)
        eps = r["epsilon"]
        _expect(0.0 <= eps <= 1.0, "epsilon outside [0, 1]")
        if r["mode"] == "exact":
            exact = Fraction(r["epsilon_rational"])
            _expect(float(exact) == eps and float(1 - exact) == r["p"], "exact record inconsistent")
        else:
            _expect(r["mode"] == "logspace" and math.exp(r["log_epsilon"]) == eps
                    and 1 - eps == r["p"], "logspace record inconsistent")

    def _sweep(self, args, rows) -> None:
        n, start = int(_flag(args, "--n")), int(_flag(args, "--start"))
        stop = int(_flag(args, "--stop"))
        _expect([row["q"] for row in rows] == list(range(start, stop + 1)), "wrong sweep points")
        for row in rows:
            self._alpha(args, row)
            _expect(row["variable"] == row["q"]
                    and abs(row["p"] - (1 - row["epsilon"])) <= 2**-52, "row inconsistent")
        epsilons = [row["epsilon"] for row in rows]
        _expect(all(a >= b for a, b in zip(epsilons, epsilons[1:])), "epsilon rises with q")
        alpha = rows[0]["alpha"]
        _expect(epsilons[0] == self._eps(n, alpha, start), "first row is not epsilon(q)")

    def _simulate(self, args, r) -> None:
        trials = int(_flag(args, "--trials"))
        model = "urn" if "--alpha" in args else "churn_process"
        _expect(r["model"] == model and r["n"] == MC_N and r["q"] == MC_Q
                and r["trials"] == trials and r["seed"] == int(_flag(args, "--seed")),
                "echoed inputs differ")
        _expect(r["misses"] / trials == r["epsilon_hat"]
                and r["ci_low"] <= r["epsilon_hat"] <= r["ci_high"], "estimate inconsistent")
        self.miss_z.append(r["z_score"])
        if model == "urn":
            eps = r["epsilon_analytic"]
            _expect(eps == URN_EPSILON, "analytic reference differs from the exact value")
            z = (r["epsilon_hat"] - eps) / math.sqrt(eps * (1 - eps) / trials)
            _expect(abs(z) <= Z_BOUND, f"urn estimate z = {z:.3g}")
            return
        replaced = math.ceil(Fraction(CHURN_C) * MC_N)
        expected = MC_Q * (1 - replaced / MC_N) ** CHURN_DELTA
        z = (r["survivor_mean"] - expected) / (r["survivor_stddev"] / math.sqrt(trials))
        _expect(abs(z) <= Z_BOUND, f"survivor mean z = {z:.3g}")

