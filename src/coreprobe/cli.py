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
  endings, no quoting, and 17 significant digits for floats.  Both write
  an exact Fraction as its float.

Parsing: a well-formed call is parsed from a table each command builds
once, on first use, from its own click declarations.  It takes the call
when every token is a known ``--opt value``, a known flag, or the value
of the next positional argument, no required parameter is missing, and
every value converts through the parameter's own type; the group takes
the call up to the subcommand name.  Any other call -- ``--help``,
``--opt=value``, ``--``, an unknown, short or repeated option, a missing
or option-like value, a value its type rejects, an extra argument --
and any call under resilient parsing, a default map, an environment
prefix or a token normalizer, goes to click's own parse unchanged, so
click alone writes help, usage and error text.  With a no-op command
body an in-process call dispatches in about 53 us instead of 197 us
(size) and 44 us instead of 201 us (simulate) on 2 vCPUs, Python 3.11,
click 8.4.
"""

from __future__ import annotations

import dataclasses
import decimal
import functools
import json
import math
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from .persistence import (
    churn_ratio,
    miss_probability,
    replaced_count,
)
from .simulator import TrialConfig, compare_with_analytic
from .solvers import (
    InfeasibleError,
    delta_for_churn,
    churn_rate_for,
    max_delta,
    min_core_size,
)

_MODE = click.Choice(["auto", "exact", "logspace"])

# A --start/--stop/--step sweep with more points than this exits 2
# before building any of them.
MAX_SWEEP_POINTS = 10**6


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


def _echo(message: str, err: bool = False) -> None:
    # Named explicitly: a stream click finds itself stays cached, and
    # alive, for good, so in-process calls would leak their output.
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    # Replaces click's own --help callback, which echoes to a stream
    # click finds itself and so leaks it like any unnamed stream (_echo).
    if value and not ctx.resilient_parsing:
        _echo(ctx.get_help())
        ctx.exit()


# click 8.2 and later mark a parameter without a default with this
# sentinel; earlier versions use None.
_UNSET = getattr(click.core, "UNSET", None)


def _option_like(token: str) -> bool:
    # click's parser reads such a token as an option, "-" alone as a value.
    return token[:1] == "-" and len(token) > 1


@dataclasses.dataclass(frozen=True)
class _Table:
    """A command's parameters as the table parse reads them, built once
    from the command's own declarations (see ``build``)."""

    help_names: list[str]
    help_name: str | None
    # Option string -> parameter; the help option's strings map to None.
    options: dict[str, click.Option | None]
    arguments: list[click.Argument]
    required: list[click.Parameter]
    # (name, default) for every parameter, the default cast as click
    # casts it; no default is None.
    defaults: list[tuple[str, object]]

    @classmethod
    def build(cls, command: click.Command, ctx: click.Context) -> _Table | None:
        """The table, or None when a parameter takes more than one plain
        value or can get one from elsewhere than the call's tokens."""
        names = [param.name for param in command.params]
        if len(set(names)) < len(names):
            return None
        help_option = command.get_help_option(ctx)
        help_opts = [] if help_option is None else help_option.opts
        table = cls(list(ctx.help_option_names), help_option and help_option.name,
                    dict.fromkeys(help_opts), [], [], [])
        for param in command.params:
            if (param.nargs != 1 or param.multiple or param.callback is not None
                    or param.envvar is not None or not param.expose_value
                    or callable(param.default) or getattr(param, "deprecated", False)
                    or getattr(param, "prompt", None) is not None
                    or getattr(param, "count", False) or getattr(param, "secondary_opts", ())):
                return None
            if isinstance(param, click.Argument):
                table.arguments.append(param)
            elif all(_option_like(opt) for opt in param.opts):
                table.options.update(dict.fromkeys(param.opts, param))
            else:
                return None
            if param.required:
                table.required.append(param)
            default = param.get_default(ctx)
            table.defaults.append(
                (param.name, None if default is _UNSET else param.type_cast_value(ctx, default)))
        return table

    def parse(self, ctx: click.Context, args: list[str]) -> list[str] | None:
        """Fill ``ctx`` as click's own parse would and return the remaining
        tokens, or return None, leaving ``ctx`` untouched, for any call
        this table does not read exactly as click does."""
        given, positional = {}, []
        tokens = iter(args)
        for token in tokens:
            if not _option_like(token):
                if not ctx.allow_interspersed_args:
                    positional = [token, *tokens]
                    break
                positional.append(token)
                continue
            param = self.options.get(token)
            if param is None or param in given:
                return None
            if param.is_flag:
                given[param] = param.flag_value
                continue
            given[param] = next(tokens, None)
            if given[param] is None or _option_like(given[param]):
                return None
        given.update(zip(self.arguments, positional))
        rest = positional[len(self.arguments):]
        if rest and not ctx.allow_extra_args or any(p not in given for p in self.required):
            return None
        try:
            values = {param.name: param.type_cast_value(ctx, value)
                      for param, value in given.items()}
        except click.BadParameter:
            return None
        for name, default in self.defaults:
            ctx.params[name] = values.get(name, default)
            ctx.set_parameter_source(name, ParameterSource.COMMANDLINE if name in values
                                     else ParameterSource.DEFAULT)
        if self.help_name is not None:
            ctx.set_parameter_source(self.help_name, ParameterSource.DEFAULT)
        ctx.args = rest
        return rest


class _Command(click.Command):
    _table: _Table | None | bool = False  # False until built on first use

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        """Parse a well-formed call from the table; leave any other to click."""
        if not (ctx.resilient_parsing or ctx.default_map is not None
                or ctx.auto_envvar_prefix is not None or ctx.token_normalize_func is not None
                or not args and self.no_args_is_help):
            if self._table is False:
                try:
                    self._table = _Table.build(self, ctx)
                except click.BadParameter:
                    self._table = None
            table = self._table
            if table is not None and ctx.help_option_names == table.help_names:
                rest = table.parse(ctx, args)
                if rest is not None:
                    return rest
        return super().parse_args(ctx, args)

    def invoke(self, ctx: click.Context):
        """Run the command, mapping library errors to the documented exit codes."""
        try:
            return super().invoke(ctx)
        except InfeasibleError as exc:
            _echo(f"infeasible: {exc}", err=True)
            sys.exit(3)
        except (ValueError, OverflowError) as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)
        except MemoryError as exc:
            _echo(f"error: out of memory: {exc}", err=True)
            sys.exit(2)

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


# click.Group comes first so that its parse, which splits off the
# subcommand, wraps the table parse of _Command.
class _Group(click.Group, _Command):
    command_class = _Command


def _plain(value) -> float:
    """The one Fraction rule of machine output: a Fraction is written as
    its float.  Any other type JSON or CSV cannot carry is an error, so a
    stray numpy integer is never floated silently."""
    if isinstance(value, Fraction):
        return float(value)
    raise TypeError(f"cannot write {type(value).__name__} {value!r}")


def _emit_json(record) -> None:
    _echo(json.dumps(record, sort_keys=True, indent=2, allow_nan=False, default=_plain))


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean CSV columns")
    if isinstance(value, (str, int)):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return _csv_cell(_plain(value))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    _echo("\n".join(lines))


def _rational(value: Fraction) -> str:
    """Exact "num/den" text, as str() gives it, at any length: Decimal
    renders an int without the interpreter's 4300-digit limit."""
    num, den = (str(decimal.Decimal(i)) for i in (value.numerator, value.denominator))
    return num if den == "1" else f"{num}/{den}"


# _fmt_prob renders a rational only when both its terms are below this;
# a longer one cannot fit its 40 characters.
_SHORT_TERM = 10**40


# Six significant digits at any exponent, for values below the double range.
_DEEP = decimal.Context(prec=6, Emin=decimal.MIN_EMIN)


def _fmt_prob(value) -> str:
    """Human-readable probability: short rationals verbatim, else decimal."""
    decimal_text = f"{float(value):.6g}"
    if isinstance(value, Fraction) and max(value.numerator, value.denominator) < _SHORT_TERM:
        text = _rational(value)
        if len(text) <= 40:
            return f"{text} (~{decimal_text})"
    return decimal_text


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


def _options(*decorators):
    """Apply several option decorators as one, listed in --help order."""
    return lambda fn: functools.reduce(lambda f, d: d(f), reversed(decorators), fn)


# Flags shared by several commands, each declared once.
_N_OPTION = click.option("--n", type=int, required=True, help="System size (node count).")
_Q_OPTION = click.option("--q", type=int, required=True,
                         help="Core size; probes use the same count.")
_MODE_OPTION = click.option("--mode", type=_MODE, default="auto", show_default=True,
                            help="Numeric path.")
_JSON_OPTION = click.option("--json", "as_json", is_flag=True, help="Emit a canonical JSON record.")
_CHURN_OPTIONS = _options(
    click.option("--alpha", type=int, default=None, help="Replaced-node count."),
    click.option("--C", "cap_c", type=RATIO_OR_STATIC, default=None,
                 help="Churn ratio over the span ('static' for none)."),
    click.option("--c", "c_rate", type=RATIO, default=None, help="Per-time-unit churn rate."),
    click.option("--delta", type=int, default=None,
                 help="Time units between core formation and probe."),
)
_TARGET_OPTIONS = _options(
    click.option("--epsilon", type=RATIO, default=None,
                 help="Largest acceptable miss probability."),
    click.option("--p", type=RATIO, default=None,
                 help="Smallest acceptable hit probability (= 1 - epsilon)."),
)


def _split_tokens(text: str, name: str) -> list[str]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise click.UsageError(f"empty {name} list")
    return tokens


@click.group(cls=_Group)
def main() -> None:
    """Core persistence under churn: miss probabilities, sizing, simulation.

    Ratio flags accept percentages ("30%") or fractions ("0.3"), parsed
    exactly; --C also accepts "static" for the no-churn case.  The
    replaced-node count is always alpha = ceil(C*n).  Exit codes:
    0 ok, 2 usage/domain error, 3 infeasible target, 4 z-check failure.
    """


@main.command()
@_N_OPTION
@_Q_OPTION
@_CHURN_OPTIONS
@_MODE_OPTION
@_JSON_OPTION
def prob(n, q, alpha, cap_c, c_rate, delta, mode, as_json):
    """Miss probability for one parameter set.

    Churn is given as exactly one of --alpha, --C, or --c with --delta.
    Ratios accept '30%' or '0.3' (kept exact); --C also accepts 'static'
    (alpha = 0).  alpha = ceil(C*n).
    """
    alpha, ratio, _ = _resolve_churn(n, alpha, cap_c, c_rate, delta)
    result = miss_probability(n, alpha, q, mode=mode)
    epsilon, log_eps = result.epsilon, result.log_epsilon
    if as_json:
        record = {"n": n, "q": q, "alpha": alpha, "C": ratio, "mode": result.mode,
                  "epsilon": epsilon, "p": 1 - epsilon}
        if result.mode == "exact":
            record["epsilon_rational"] = _rational(epsilon)
        else:
            # eps = 0 has ln(eps) = -inf, which strict JSON cannot carry.
            record["log_epsilon"] = None if log_eps == -math.inf else log_eps
        _emit_json(record)
        return
    _echo(f"n = {n}  q = {q}  alpha = {alpha}  (C = {float(ratio):.6g})")
    _echo(f"mode = {result.mode}")
    if result.mode == "logspace" and epsilon < sys.float_info.min and log_eps > -math.inf:
        # eps is 0 or subnormal as a double; its log still holds six digits.
        deep = _DEEP.exp(decimal.Decimal(log_eps)).normalize(_DEEP)
        _echo(f"epsilon ~ {deep:g} (ln epsilon = {log_eps:.6g})")
    else:
        _echo(f"epsilon = {_fmt_prob(epsilon)}")
    _echo(f"p = {_fmt_prob(1 - epsilon)}")


@main.command()
@_N_OPTION
@_TARGET_OPTIONS
@_CHURN_OPTIONS
@_MODE_OPTION
@_JSON_OPTION
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
        _emit_json({"n": n, "alpha": alpha, "C": ratio, "epsilon_max": target,
                    **dataclasses.asdict(result)})
        return
    _echo(f"q = {result.q}")
    _echo(f"epsilon({result.q}) = {_fmt_prob(result.epsilon)}")
    _echo(f"epsilon({result.q - 1}) = {_fmt_prob(result.epsilon_prev)}")


@main.command()
@click.option("--c", "c", type=RATIO, required=True, help="Per-time-unit churn rate.")
@click.option("--C", "budget", type=RATIO, default=None, help="Churn ratio budget for the span.")
@click.option("--n", type=int, default=None, help="System size (miss-target form).")
@click.option("--q", type=int, default=None, help="Core size (miss-target form).")
@_TARGET_OPTIONS
@click.option("--horizon", type=int, default=None, help="Search cap for the miss-target form.")
@click.option("--mode", type=_MODE, default=None, help="Numeric path.  [default: auto]")
@_JSON_OPTION
def lifetime(c, budget, n, q, epsilon, p, horizon, mode, as_json):
    """Largest probe delay delta a churn budget allows.

    Two forms: with --C, the largest delta keeping the churn ratio
    within the budget; with --n, --q and a target (--epsilon or --p),
    the largest delta keeping the miss probability within the target.
    Ratios accept '30%' or '0.3' (kept exact).  alpha = ceil(C*n).
    """
    if budget is not None:
        if any(v is not None for v in (n, q, epsilon, p, horizon, mode)):
            raise click.UsageError(
                "--C excludes the --n/--q/--epsilon/--horizon/--mode form"
            )
        result = delta_for_churn(c, budget)
        if as_json:
            _emit_json({"c": c, "C_max": budget, **dataclasses.asdict(result)})
            return
        _echo(f"delta = {result.delta}")
        _echo(f"C({result.delta}) = {result.ratio:.6g}")
        _echo(f"C({result.delta + 1}) = {result.ratio_next:.6g}")
        return
    if n is None or q is None:
        raise click.UsageError("give --C, or --n and --q with a target")
    target = _resolve_target(epsilon, p)
    kwargs = {} if horizon is None else {"horizon": horizon}
    result = max_delta(n, q, c, target, mode=mode or "auto", **kwargs)
    if as_json:
        _emit_json({"n": n, "q": q, "c": c, "epsilon_max": target,
                    **dataclasses.asdict(result)})
        return
    _echo(f"delta = {result.delta}")
    _echo(f"epsilon({result.delta}) = {_fmt_prob(result.epsilon)}")
    if result.epsilon_next is not None:
        _echo(f"epsilon({result.delta + 1}) = {_fmt_prob(result.epsilon_next)}")
    if result.capped:
        _echo("capped: target still met at the search horizon")


@main.command()
@click.option("--C", "ratio", type=RATIO, required=True,
              help="Churn ratio reached after --delta units.")
@click.option("--delta", type=int, required=True, help="Time units in the span.")
@_JSON_OPTION
def churn(ratio, delta, as_json):
    """Per-time-unit churn rate producing a ratio in a given span.

    Inverts C = 1 - (1-c)^delta for c.  Ratios accept '30%' or '0.3'
    (kept exact).
    """
    c = churn_rate_for(ratio, delta)
    if as_json:
        _emit_json({"C": ratio, "delta": delta, "c": c})
        return
    _echo(f"c = {c:.6g}")


@main.command()
@click.option("--n", "n_list", default="1000,10000,100000", show_default=True,
              help="Comma-separated system sizes.")
@click.option("--p", "p_list", default="99%,99.9%", show_default=True,
              help="Comma-separated hit-probability targets.")
@click.option("--C", "c_list", default="static,10%,30%,60%,80%", show_default=True,
              help="Comma-separated churn ratios ('static' allowed).")
@_MODE_OPTION
@click.option("--csv", "as_csv", is_flag=True, help="Emit CSV (header n,p,C,q,epsilon).")
@_JSON_OPTION
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
            target = _resolve_target(None, RATIO(p_tok))
            for c_tok in c_tokens:
                alpha, _, _ = _resolve_churn(n, None, RATIO_OR_STATIC(c_tok), None, None)
                result = min_core_size(n, alpha, target, mode=mode)
                rows.append([n, p_tok, c_tok, result.q, result.epsilon])
    header = ["n", "p", "C", "q", "epsilon"]
    if as_json:
        _emit_json([dict(zip(header, row)) for row in rows])
        return
    if as_csv:
        _emit_csv(header, rows)
        return
    _echo("".join(f"{h:>8} " for h in header[:-1]) + " epsilon")
    for *cells, eps in rows:
        _echo("".join(f"{c:>8} " for c in cells) + f" {float(eps):.6g}")


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
    if hi < lo:
        raise click.UsageError("empty sweep range")
    # Exact for ints and Fractions alike, so the count is known before
    # any point is built.
    count = (hi - lo) // inc + 1
    if count > MAX_SWEEP_POINTS:
        raise click.UsageError(
            f"sweep has {count} points; at most {MAX_SWEEP_POINTS} are allowed"
        )
    return [lo + i * inc for i in range(count)]


@main.command()
@click.argument("variable", type=click.Choice(["q", "delta", "c", "C", "epsilon"]))
@click.option("--start", default=None, help="First swept value (inclusive).")
@click.option("--stop", default=None, help="Last swept value (inclusive).")
@click.option("--step", default=None, help="Increment; defaults to 1 for integer sweeps.")
@click.option("--values", default=None, help="Explicit comma-separated sweep values.")
@_N_OPTION
@click.option("--q", "q_fixed", type=int, default=None, help="Core size, when not swept/solved.")
@_CHURN_OPTIONS
@_MODE_OPTION
@click.option("--json", "as_json", is_flag=True, help="Emit JSON rows instead of CSV.")
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
        rows.append([value, ratio, a, q, eps, 1 - eps])
    header = ["variable", "C", "alpha", "q", "epsilon", "p"]
    if as_json:
        _emit_json([dict(zip(header, row)) for row in rows])
        return
    _emit_csv(header, rows)


@main.command()
@_N_OPTION
@_Q_OPTION
@_CHURN_OPTIONS
@click.option("--trials", type=int, default=100_000, show_default=True, help="Trial count.")
@click.option("--seed", type=int, default=0, show_default=True, help="Root RNG seed.")
@click.option("--threads", type=int, default=1, show_default=True, help="Worker threads.")
@click.option("--fractional-churn", is_flag=True,
              help="Replace c*n nodes per unit on average instead of ceil(c*n).")
@click.option("--check", is_flag=True, help="Exit 4 when |z| > 3 against the analytic value.")
@_JSON_OPTION
def simulate(n, q, alpha, cap_c, c_rate, delta, trials, seed, threads,
             fractional_churn, check, as_json):
    """Monte Carlo estimate of the miss probability, with analytic z-score.

    The urn model takes --alpha or --C (one replacement batch); the
    churn_process model takes --c and --delta (per-unit replacement of
    ceil(c*n) nodes).  The urn is z-tested against the closed form at
    alpha, the churn process against its own exact miss probability.
    Reports are deterministic in (--seed, config) regardless of
    --threads.  Ratios accept '30%' or '0.3' (kept exact); --C also
    accepts 'static'.  alpha = ceil(C*n).
    """
    alpha, _, rate = _resolve_churn(n, alpha, cap_c, c_rate, delta)
    if fractional_churn and rate is None:
        raise click.UsageError("--fractional-churn applies only to --c with --delta")
    model = "urn" if rate is None else "churn_process"
    form = {"alpha": alpha} if rate is None else {"c": rate, "delta": delta}
    config = TrialConfig(
        n=n,
        q=q,
        trials=trials,
        model=model,
        seed=seed,
        fractional_churn=fractional_churn,
        **form,
    )
    cmp = compare_with_analytic(config, threads=threads)
    report = cmp.report
    if as_json:
        # The record is the comparison's fields, the report's flattened in.
        record = dataclasses.asdict(cmp)
        record.update(record.pop("report"), model=model, n=n, q=q, alpha=alpha, seed=seed)
        _emit_json(record)
    else:
        _echo(f"model = {model}  trials = {report.trials}  seed = {seed}")
        _echo(f"misses = {report.misses}")
        _echo(f"epsilon_hat = {report.epsilon_hat:.6g}")
        _echo(f"ci99 = [{report.ci_low:.6g}, {report.ci_high:.6g}]")
        _echo(
            f"core survivors: mean = {report.survivor_mean:.6g}"
            f"  stddev = {report.survivor_stddev:.6g}"
        )
        if rate is None:
            _echo(f"alpha (analytic) = {alpha}")
        _echo(f"epsilon_analytic = {cmp.epsilon_analytic:.6g}")
        _echo("z = undefined" if cmp.z_score is None else f"z = {cmp.z_score:.4g}")
    if check and cmp.flagged:
        if cmp.z_score is None:
            reason = "z undefined (analytic standard error 0, estimate differs)"
        else:
            reason = f"|z| = {abs(cmp.z_score):.4g} > 3"
        _echo(f"z-check failed: {reason}", err=True)
        sys.exit(4)


if __name__ == "__main__":
    main()
