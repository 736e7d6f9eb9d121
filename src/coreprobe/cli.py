"""Command-line surface for the core persistence toolkit.

Subcommands cover the analytic formula (prob), the three solvers (size,
lifetime, churn), grid and curve artifacts (table, sweep), and the Monte
Carlo checker (simulate).

Conventions, shared by every subcommand:

* Ratio-valued flags (--C, --c, --p, --epsilon) accept a percentage
  ("30%", "99.9%") or a plain fraction ("0.3", "1e-3").  They are parsed
  as exact rationals, never floats, so "10%" of 10^4 nodes is exactly
  1000.  --C additionally accepts the token "static", meaning no churn
  (alpha = 0).
* The replaced-node count is alpha = ceil(C*n); the same ceiling applies
  per time unit in the churn-process simulation.
* Exit codes: 0 success, 2 usage or domain error (including inputs too
  large for memory), 3 infeasible solver target, 4 simulation z-check
  failure under --check.
* --json emits a canonical record (sorted keys, two-space indent, no
  NaN or Infinity; an undefined z-score is null) that re-serializes to
  identical bytes after a parse round trip.  CSV output uses LF line
  endings, no quoting, and 17 significant digits for floats.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction

import click

from .persistence import (
    churn_ratio,
    miss_probability,
    replaced_count,
)
from .simulator import (
    THREADS_ENV_VAR,
    TrialConfig,
    compare_with_analytic,
)
from .solvers import (
    InfeasibleError,
    delta_for_churn,
    churn_rate_for,
    max_delta,
    min_core_size,
)

_MODE = click.Choice(["auto", "exact", "logspace"])


def parse_ratio(text: str, *, allow_static: bool = False) -> Fraction:
    """Parse a ratio token to an exact rational.

    Accepts "30%", "0.3", "1e-3", and (when allowed) "static" -> 0.
    """
    token = text.strip()
    if allow_static and token == "static":
        return Fraction(0)
    try:
        if token.endswith("%"):
            return Fraction(token[:-1].strip()) / 100
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(f"cannot parse ratio {text!r}") from exc


class _Ratio(click.ParamType):
    """A ratio flag or token, parsed by ``parse_ratio`` to a Fraction."""

    name = "ratio"

    def __init__(self, allow_static: bool) -> None:
        self.allow_static = allow_static

    def convert(self, value, param, ctx) -> Fraction:
        return parse_ratio(value, allow_static=self.allow_static)


RATIO = _Ratio(allow_static=False)
RATIO_OR_STATIC = _Ratio(allow_static=True)


def _domain_guard(fn):
    """Map library errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InfeasibleError as exc:
            click.echo(f"infeasible: {exc}", err=True)
            sys.exit(3)
        except (ValueError, OverflowError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except MemoryError as exc:
            click.echo(f"error: out of memory: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _emit_json(record) -> None:
    click.echo(json.dumps(record, sort_keys=True, indent=2, allow_nan=False))


def _f17(value: float) -> str:
    return format(float(value), ".17g")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean CSV columns")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _f17(value)
    return str(value)


def _emit_csv(header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    click.echo("\n".join(lines))


def _fmt_prob(value) -> str:
    """Human-readable probability: short rationals verbatim, else decimal."""
    if isinstance(value, Fraction):
        text = str(value)
        if len(text) <= 40:
            return f"{text} (~{float(value):.6g})"
        value = float(value)
    return f"{value:.6g}"


def _resolve_churn(n, alpha, cap_c, c_rate, delta):
    """Reduce the three churn forms to (alpha, ratio, rate).

    Exactly one of --alpha, --C, or --c with --delta must be given.
    ``rate`` is the per-unit --c of the third form and None for the
    other two, which describe a single replacement batch.
    """
    forms = (alpha is not None) + (cap_c is not None) + (
        c_rate is not None or delta is not None
    )
    if forms != 1:
        raise click.UsageError(
            "specify exactly one churn form: --alpha, --C, or --c with --delta"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if alpha is not None:
        return alpha, Fraction(alpha, n), None
    if cap_c is not None:
        return replaced_count(n, cap_c), cap_c, None
    if c_rate is None or delta is None:
        raise click.UsageError("--c and --delta must be given together")
    ratio = churn_ratio(c_rate, delta)
    return replaced_count(n, ratio), ratio, c_rate


def _resolve_target(epsilon, p) -> Fraction:
    if (epsilon is None) == (p is None):
        raise click.UsageError("specify exactly one of --epsilon or --p")
    return 1 - p if epsilon is None else epsilon


def _split_tokens(text: str, name: str) -> list[str]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise click.UsageError(f"empty {name} list")
    return tokens


@click.group()
def main() -> None:
    """Core persistence under churn: miss probabilities, sizing, simulation.

    Ratio flags accept percentages ("30%") or fractions ("0.3"), parsed
    exactly; --C also accepts "static" for the no-churn case.  The
    replaced-node count is always alpha = ceil(C*n).  Exit codes:
    0 ok, 2 usage/domain error, 3 infeasible target, 4 z-check failure.
    """


@main.command()
@click.option("--n", type=int, required=True, help="System size (node count).")
@click.option("--q", type=int, required=True, help="Core size; probes use the same count.")
@click.option("--alpha", type=int, default=None, help="Replaced-node count.")
@click.option("--C", "cap_c", type=RATIO_OR_STATIC, default=None,
              help="Churn ratio over the span ('static' for none).")
@click.option("--c", "c_rate", type=RATIO, default=None, help="Per-time-unit churn rate.")
@click.option("--delta", type=int, default=None, help="Time units between core formation and probe.")
@click.option("--mode", type=_MODE, default="auto", show_default=True, help="Numeric path.")
@click.option("--json", "as_json", is_flag=True, help="Emit a canonical JSON record.")
@_domain_guard
def prob(n, q, alpha, cap_c, c_rate, delta, mode, as_json):
    """Miss probability for one parameter set.

    Churn is given as exactly one of --alpha, --C, or --c with --delta.
    Ratios accept '30%' or '0.3' (kept exact); --C also accepts 'static'
    (alpha = 0).  alpha = ceil(C*n).
    """
    alpha, ratio, _ = _resolve_churn(n, alpha, cap_c, c_rate, delta)
    result = miss_probability(n, alpha, q, mode=mode)
    epsilon = result.epsilon
    if as_json:
        record = {
            "n": n,
            "q": q,
            "alpha": alpha,
            "C": float(ratio),
            "mode": result.mode,
            "epsilon": float(epsilon),
            "p": float(1 - epsilon),
        }
        if result.mode == "exact":
            record["epsilon_rational"] = str(epsilon)
        else:
            record["log_epsilon"] = result.log_epsilon
        _emit_json(record)
        return
    click.echo(f"n = {n}  q = {q}  alpha = {alpha}  (C = {float(ratio):.6g})")
    click.echo(f"mode = {result.mode}")
    click.echo(f"epsilon = {_fmt_prob(epsilon)}")
    click.echo(f"p = {_fmt_prob(1 - epsilon)}")


@main.command()
@click.option("--n", type=int, required=True, help="System size (node count).")
@click.option("--epsilon", type=RATIO, default=None, help="Largest acceptable miss probability.")
@click.option("--p", type=RATIO, default=None,
              help="Smallest acceptable hit probability (= 1 - epsilon).")
@click.option("--alpha", type=int, default=None, help="Replaced-node count.")
@click.option("--C", "cap_c", type=RATIO_OR_STATIC, default=None,
              help="Churn ratio over the span ('static' for none).")
@click.option("--c", "c_rate", type=RATIO, default=None, help="Per-time-unit churn rate.")
@click.option("--delta", type=int, default=None, help="Time units between core formation and probe.")
@click.option("--mode", type=_MODE, default="auto", show_default=True, help="Numeric path.")
@click.option("--json", "as_json", is_flag=True, help="Emit a canonical JSON record.")
@_domain_guard
def size(n, epsilon, p, alpha, cap_c, c_rate, delta, mode, as_json):
    """Minimal core size meeting a miss-probability target.

    The target is --epsilon or equivalently --p; churn is one of
    --alpha, --C, or --c with --delta.  Prints the answer q with the
    witness pair epsilon(q) and epsilon(q-1).  Ratios accept '30%' or
    '0.3' (kept exact); --C also accepts 'static'.  alpha = ceil(C*n).
    """
    target = _resolve_target(epsilon, p)
    alpha, ratio, _ = _resolve_churn(n, alpha, cap_c, c_rate, delta)
    result = min_core_size(n, alpha, target, mode=mode)
    if as_json:
        record = {
            "n": n,
            "alpha": alpha,
            "C": float(ratio),
            "epsilon_max": float(target),
            "q": result.q,
            "epsilon": float(result.epsilon),
            "epsilon_prev": None
            if result.epsilon_prev is None
            else float(result.epsilon_prev),
        }
        _emit_json(record)
        return
    click.echo(f"q = {result.q}")
    click.echo(f"epsilon({result.q}) = {_fmt_prob(result.epsilon)}")
    if result.epsilon_prev is not None:
        click.echo(f"epsilon({result.q - 1}) = {_fmt_prob(result.epsilon_prev)}")


@main.command()
@click.option("--c", "c", type=RATIO, required=True, help="Per-time-unit churn rate.")
@click.option("--C", "budget", type=RATIO, default=None, help="Churn ratio budget for the span.")
@click.option("--n", type=int, default=None, help="System size (miss-target form).")
@click.option("--q", type=int, default=None, help="Core size (miss-target form).")
@click.option("--epsilon", type=RATIO, default=None, help="Largest acceptable miss probability.")
@click.option("--p", type=RATIO, default=None, help="Smallest acceptable hit probability.")
@click.option("--horizon", type=int, default=None, help="Search cap for the miss-target form.")
@click.option("--mode", type=_MODE, default="auto", show_default=True, help="Numeric path.")
@click.option("--json", "as_json", is_flag=True, help="Emit a canonical JSON record.")
@_domain_guard
def lifetime(c, budget, n, q, epsilon, p, horizon, mode, as_json):
    """Largest probe delay delta a churn budget allows.

    Two forms: with --C, the largest delta keeping the churn ratio
    within the budget; with --n, --q and a target (--epsilon or --p),
    the largest delta keeping the miss probability within the target.
    Ratios accept '30%' or '0.3' (kept exact).  alpha = ceil(C*n).
    """
    if budget is not None:
        if n is not None or q is not None or epsilon is not None or p is not None:
            raise click.UsageError("--C excludes the --n/--q/--epsilon form")
        result = delta_for_churn(c, budget)
        if as_json:
            _emit_json(
                {
                    "c": float(c),
                    "C_max": float(budget),
                    "delta": result.delta,
                    "ratio": result.ratio,
                    "ratio_next": result.ratio_next,
                }
            )
            return
        click.echo(f"delta = {result.delta}")
        click.echo(f"C({result.delta}) = {result.ratio:.6g}")
        click.echo(f"C({result.delta + 1}) = {result.ratio_next:.6g}")
        return
    if n is None or q is None:
        raise click.UsageError("give --C, or --n and --q with a target")
    target = _resolve_target(epsilon, p)
    kwargs = {} if horizon is None else {"horizon": horizon}
    result = max_delta(n, q, c, target, mode=mode, **kwargs)
    if as_json:
        _emit_json(
            {
                "n": n,
                "q": q,
                "c": float(c),
                "epsilon_max": float(target),
                "delta": result.delta,
                "epsilon": float(result.epsilon),
                "epsilon_next": None
                if result.epsilon_next is None
                else float(result.epsilon_next),
                "capped": result.capped,
            }
        )
        return
    click.echo(f"delta = {result.delta}")
    click.echo(f"epsilon({result.delta}) = {_fmt_prob(result.epsilon)}")
    if result.epsilon_next is not None:
        click.echo(f"epsilon({result.delta + 1}) = {_fmt_prob(result.epsilon_next)}")
    if result.capped:
        click.echo("capped: target still met at the search horizon")


@main.command()
@click.option("--C", "ratio", type=RATIO, required=True,
              help="Churn ratio reached after --delta units.")
@click.option("--delta", type=int, required=True, help="Time units in the span.")
@click.option("--json", "as_json", is_flag=True, help="Emit a canonical JSON record.")
@_domain_guard
def churn(ratio, delta, as_json):
    """Per-time-unit churn rate producing a ratio in a given span.

    Inverts C = 1 - (1-c)^delta for c.  Ratios accept '30%' or '0.3'
    (kept exact).
    """
    c = churn_rate_for(ratio, delta)
    if as_json:
        _emit_json({"C": float(ratio), "delta": delta, "c": c})
        return
    click.echo(f"c = {c:.6g}")


@main.command()
@click.option(
    "--n",
    "n_list",
    default="1000,10000,100000",
    show_default=True,
    help="Comma-separated system sizes.",
)
@click.option(
    "--p",
    "p_list",
    default="99%,99.9%",
    show_default=True,
    help="Comma-separated hit-probability targets.",
)
@click.option(
    "--C",
    "c_list",
    default="static,10%,30%,60%,80%",
    show_default=True,
    help="Comma-separated churn ratios ('static' allowed).",
)
@click.option("--mode", type=_MODE, default="auto", show_default=True, help="Numeric path.")
@click.option("--csv", "as_csv", is_flag=True, help="Emit CSV (header n,p,C,q,epsilon).")
@click.option("--json", "as_json", is_flag=True, help="Emit a canonical JSON record.")
@_domain_guard
def table(n_list, p_list, c_list, mode, as_csv, as_json):
    """Minimal core sizes over a (n, p, C) grid; defaults give 30 cells.

    Each cell solves for the smallest q with miss probability at most
    1-p when alpha = ceil(C*n) nodes were replaced.  Ratios accept
    '30%' or '0.3' (kept exact); 'static' means alpha = 0.
    """
    if as_csv and as_json:
        raise click.UsageError("--csv and --json are mutually exclusive")
    n_values = [int(t) for t in _split_tokens(n_list, "--n")]
    p_tokens = _split_tokens(p_list, "--p")
    c_tokens = _split_tokens(c_list, "--C")
    rows = []
    for n in n_values:
        for p_tok in p_tokens:
            target = 1 - RATIO(p_tok)
            for c_tok in c_tokens:
                alpha = replaced_count(n, RATIO_OR_STATIC(c_tok))
                result = min_core_size(n, alpha, target, mode=mode)
                rows.append([n, p_tok, c_tok, result.q, float(result.epsilon)])
    if as_json:
        _emit_json(
            [
                {"n": r[0], "p": r[1], "C": r[2], "q": r[3], "epsilon": r[4]}
                for r in rows
            ]
        )
        return
    if as_csv:
        _emit_csv(["n", "p", "C", "q", "epsilon"], rows)
        return
    click.echo(f"{'n':>8} {'p':>8} {'C':>8} {'q':>8}  epsilon")
    for n, p_tok, c_tok, q, eps in rows:
        click.echo(f"{n:>8} {p_tok:>8} {c_tok:>8} {q:>8}  {eps:.6g}")


def _sweep_points(variable, start, stop, step, values):
    integer = variable in ("q", "delta")
    convert = click.INT if integer else RATIO_OR_STATIC if variable == "C" else RATIO
    if values is not None:
        if start is not None or stop is not None or step is not None:
            raise click.UsageError("--values excludes --start/--stop/--step")
        return [convert(t) for t in _split_tokens(values, "--values")]
    if start is None or stop is None:
        raise click.UsageError("give --start and --stop, or --values")
    lo, hi = convert(start), convert(stop)
    if step is None:
        if not integer:
            raise click.UsageError(f"{variable} sweep needs an explicit --step")
        inc = 1
    else:
        inc = convert(step)
    if inc <= 0:
        raise click.UsageError("--step must be positive")
    points = []
    value = lo
    while value <= hi:
        points.append(value)
        value = value + inc
    if not points:
        raise click.UsageError("empty sweep range")
    return points


@main.command()
@click.argument("variable", type=click.Choice(["q", "delta", "c", "C", "epsilon"]))
@click.option("--start", default=None, help="First swept value (inclusive).")
@click.option("--stop", default=None, help="Last swept value (inclusive).")
@click.option("--step", default=None, help="Increment; defaults to 1 for integer sweeps.")
@click.option("--values", default=None, help="Explicit comma-separated sweep values.")
@click.option("--n", type=int, required=True, help="System size (node count).")
@click.option("--q", "q_fixed", type=int, default=None, help="Core size, when not swept/solved.")
@click.option("--alpha", type=int, default=None, help="Replaced-node count.")
@click.option("--C", "cap_c", type=RATIO_OR_STATIC, default=None, help="Churn ratio ('static' for none).")
@click.option("--c", "c_rate", type=RATIO, default=None, help="Per-time-unit churn rate.")
@click.option("--delta", type=int, default=None, help="Time units between core formation and probe.")
@click.option("--mode", type=_MODE, default="auto", show_default=True, help="Numeric path.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON rows instead of CSV.")
@_domain_guard
def sweep(variable, start, stop, step, values, n, q_fixed, alpha, cap_c, c_rate, delta, mode, as_json):
    """Evaluate the model along one variable; emit one row per point.

    VARIABLE is one of q, delta, c, C, epsilon.  Rows carry the columns
    variable, C, alpha, q, epsilon, p (the swept value first).  Fixed
    parameters come from the remaining flags: each point takes the place
    of the flag of its name, so --q and a churn form (--alpha, --C, or
    --c with --delta) must be complete once it is filled in.  An epsilon
    sweep solves for q at each target, so it takes no --q.  Ratios
    accept '30%' or '0.3' (kept exact); --C also accepts 'static'.
    alpha = ceil(C*n).
    """
    points = _sweep_points(variable, start, stop, step, values)
    flags = {"q": q_fixed, "alpha": alpha, "C": cap_c, "c": c_rate, "delta": delta,
             "epsilon": None}
    solving = variable == "epsilon"
    excluded = "q" if solving else variable
    if flags[excluded] is not None:
        raise click.UsageError(f"{variable} sweep excludes --{excluded}")
    if q_fixed is None and variable not in ("q", "epsilon"):
        raise click.UsageError(f"{variable} sweep requires --q")
    rows = []
    for value in points:
        flags[variable] = value
        a, ratio, _ = _resolve_churn(n, flags["alpha"], flags["C"], flags["c"], flags["delta"])
        if solving:
            result = min_core_size(n, a, value, mode=mode)
            q, eps = result.q, result.epsilon
        else:
            q = flags["q"]
            eps = miss_probability(n, a, q, mode=mode).epsilon
        swept = value if isinstance(value, int) else float(value)
        rows.append([swept, float(ratio), a, q, float(eps), float(1 - eps)])
    header = ["variable", "C", "alpha", "q", "epsilon", "p"]
    if as_json:
        _emit_json([dict(zip(header, row)) for row in rows])
        return
    _emit_csv(header, rows)


@main.command()
@click.option("--model", type=click.Choice(["urn", "churn_process"]), default=None,
              help="Trial model; inferred from the churn form when omitted.")
@click.option("--n", type=int, required=True, help="System size (node count).")
@click.option("--q", type=int, required=True, help="Core size; probes use the same count.")
@click.option("--alpha", type=int, default=None, help="Replaced-node count (urn model).")
@click.option("--C", "cap_c", type=RATIO_OR_STATIC, default=None,
              help="Churn ratio; converted to alpha (urn model).")
@click.option("--c", "c_rate", type=RATIO, default=None,
              help="Per-unit churn rate (churn_process model).")
@click.option("--delta", type=int, default=None, help="Time units to simulate (churn_process model).")
@click.option("--trials", type=int, default=100_000, show_default=True, help="Trial count.")
@click.option("--seed", type=int, default=0, show_default=True, help="Root RNG seed.")
@click.option("--threads", type=int, default=None,
              help=f"Worker threads; defaults to ${THREADS_ENV_VAR} or 1.")
@click.option("--fractional-churn", is_flag=True,
              help="Replace c*n nodes per unit on average instead of ceil(c*n).")
@click.option("--check", is_flag=True, help="Exit 4 when |z| > 3 against the analytic value.")
@click.option("--json", "as_json", is_flag=True, help="Emit a canonical JSON record.")
@_domain_guard
def simulate(model, n, q, alpha, cap_c, c_rate, delta, trials, seed, threads,
             fractional_churn, check, as_json):
    """Monte Carlo estimate of the miss probability, with analytic z-score.

    The urn model takes --alpha or --C (one replacement batch); the
    churn_process model takes --c and --delta (per-unit replacement of
    ceil(c*n) nodes).  Reports are deterministic in (--seed, config)
    regardless of --threads.  Ratios accept '30%' or '0.3' (kept
    exact); --C also accepts 'static'.  alpha = ceil(C*n).
    """
    alpha, _, rate = _resolve_churn(n, alpha, cap_c, c_rate, delta)
    inferred = "urn" if rate is None else "churn_process"
    if model is not None and model != inferred:
        raise click.UsageError(f"--model {model} conflicts with the given churn form")
    form = {"alpha": alpha} if rate is None else {"c": rate, "delta": delta}
    config = TrialConfig(
        n=n,
        q=q,
        trials=trials,
        model=inferred,
        seed=seed,
        fractional_churn=fractional_churn,
        **form,
    )
    cmp = compare_with_analytic(config, threads=threads)
    report = cmp.report
    if as_json:
        record = {
            "model": inferred,
            "n": n,
            "q": q,
            "alpha": cmp.alpha,
            "trials": report.trials,
            "seed": seed,
            "misses": report.misses,
            "epsilon_hat": report.epsilon_hat,
            "ci_low": report.ci_low,
            "ci_high": report.ci_high,
            "survivor_mean": report.survivor_mean,
            "survivor_stddev": report.survivor_stddev,
            "epsilon_analytic": cmp.epsilon_analytic,
            "z_score": cmp.z_score,
            "flagged": cmp.flagged,
        }
        _emit_json(record)
    else:
        click.echo(f"model = {inferred}  trials = {report.trials}  seed = {seed}")
        click.echo(f"misses = {report.misses}")
        click.echo(f"epsilon_hat = {report.epsilon_hat:.6g}")
        click.echo(f"ci99 = [{report.ci_low:.6g}, {report.ci_high:.6g}]")
        if report.survivor_mean is not None:
            click.echo(
                f"core survivors: mean = {report.survivor_mean:.6g}"
                f"  stddev = {report.survivor_stddev:.6g}"
            )
        click.echo(f"alpha (analytic) = {cmp.alpha}")
        click.echo(f"epsilon_analytic = {cmp.epsilon_analytic:.6g}")
        click.echo("z = undefined" if cmp.z_score is None else f"z = {cmp.z_score:.4g}")
    if check and cmp.flagged:
        if cmp.z_score is None:
            reason = "z undefined (analytic standard error 0, estimate differs)"
        else:
            reason = f"|z| = {abs(cmp.z_score):.4g} > 3"
        click.echo(f"z-check failed: {reason}", err=True)
        sys.exit(4)


if __name__ == "__main__":
    main()
