#!/usr/bin/env python3
"""coreprobe benchmark: analytic design queries and Monte Carlo validation.

Run from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Workloads are ``design``, ``mc-urn`` and ``mc-churn`` (see workloads.py).
Every request is one ``coreprobe`` CLI call run in-process, so the
numbers cover the path a shell call takes, minus interpreter start-up.
Each answer is checked; a failed check counts as a failed request.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it runs a fixed list of requests alternately without
and with span tracing (spans.py) until ``--seconds`` have passed, checks
that tracing leaves the ``--json`` bytes unchanged, and writes the spans
to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.  The
same result, with provenance and the workload-specific figures, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 7
SCALING_THREADS = 2  # simulator.thread_scaling compares this with 1 thread
SCALING_REPEATS = 3  # one pair of timings swings by a third on two shared cores
SOLVERS = ("solvers.min_core_size", "solvers.max_delta")
# Units of the figures a run prints besides the declared metrics.
EXTRA_UNITS = {
    "query_p95_ms": "ms", "exact_query_p50_ms": "ms", "logspace_query_p50_ms": "ms",
    "trials_per_s": "1/s", "error_rate": "ratio", "miss_z_max": "z",
}


def load_program():
    """Import coreprobe.cli from this checkout's src/; exit if it is missing."""
    if not (SRC / "coreprobe" / "__init__.py").is_file():
        sys.exit(f"perfbench: no coreprobe package under {SRC}")
    sys.path.insert(0, str(SRC))
    import coreprobe.cli

    if Path(coreprobe.__file__).resolve().parent != SRC / "coreprobe":
        sys.exit(f"perfbench: imported coreprobe from {coreprobe.__file__}, not {SRC}")
    return coreprobe.cli.main


def warm_up(main, workload):
    for args in wl.warm_up_requests(workload):
        code, _, err = wl.invoke(main, args)
        if code != 0:
            sys.exit(f"perfbench: warm-up request {args} failed with exit {code}: {err}")


def measure_setup(workload):
    """Seconds from starting a fresh interpreter to imports and warm-up done."""
    started = perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--setup-probe", workload],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - started
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {child.returncode})")
    return elapsed


def make_checker():
    from coreprobe.persistence import churn_ratio, miss_probability

    return wl.Checker(lambda n, alpha, q: float(miss_probability(n, alpha, q).epsilon),
                      churn_ratio)


def check(checker, args, code, out, err, failures):
    """Record a failure unless the call succeeded and its record passes every check."""
    try:
        if code != 0:
            raise wl.CheckError(f"exit code {code}: {err.strip()}")
        checker.check(args, out)
    except (wl.CheckError, KeyError, TypeError, ValueError, IndexError,
            ZeroDivisionError) as exc:
        failures.append(f"{' '.join(args)}: {exc!r}")


def is_exact(args):
    return int(args[args.index("--n") + 1]) <= wl.EXACT_N_LIMIT


def run_untraced(main, workload, seed, seconds, setup_probes=0):
    """Closed loop over whole rounds until ``seconds`` have passed.

    Set-up probes do not count towards ``seconds``; they run between
    requests, outside the timed calls, spread evenly over the run so
    that their median does not hinge on one stretch of machine load.
    """
    checker = make_checker()
    latencies, exact, logspace, failures, setup = [], [], [], [], []
    started = perf_counter()
    for round_ in wl.rounds(workload, seed):
        for args in round_:
            if len(setup) < setup_probes and (
                    perf_counter() - started >= len(setup) * seconds / setup_probes):
                probe_started = perf_counter()
                setup.append(measure_setup(workload))
                started += perf_counter() - probe_started
            t0 = perf_counter()
            output = wl.invoke(main, args)
            elapsed = perf_counter() - t0
            latencies.append(elapsed)
            (exact if is_exact(args) else logspace).append(elapsed)
            check(checker, args, *output, failures)
        if perf_counter() - started >= seconds:
            break
    while len(setup) < setup_probes:
        setup.append(measure_setup(workload))
    metrics = {
        "query_p50_ms": 1000 * statistics.median(latencies),
        "setup_s": statistics.median(setup) if setup else None,
        "queries_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"error_rate": len(failures) / len(latencies)}
    if workload == "design":
        # A round of 54 requests takes about 4 s on two cores, so a
        # 35-second run has about 450 samples and well over ten beyond p95.
        extra["query_p95_ms"] = 1000 * statistics.quantiles(latencies, n=20)[-1]
        extra["exact_query_p50_ms"] = 1000 * statistics.median(exact)
        extra["logspace_query_p50_ms"] = 1000 * statistics.median(logspace)
    else:
        extra["trials_per_s"] = wl.MC_TRIALS * metrics["queries_per_s"]
        extra["miss_z_max"] = max((abs(z) for z in checker.miss_z), default=0.0)
    return len(latencies), failures, metrics, extra


def _median_ms(spans):
    return 1000 * statistics.median(s["end"] - s["start"] for s in spans) if spans else 0.0


def layer_metrics(tracer, passes):
    spans = tracer.spans
    cli = [s for s in spans if s["parent"] is None]
    solver_ids = {s["id"] for s in spans if s["name"] in SOLVERS}
    sim_ids = {s["id"] for s in spans if s["name"] == "simulator.compare_with_analytic"}
    evals = [s for s in spans if s["name"] == "persistence.miss_probability"]
    run_trials = [s for s in spans if s["name"] == "simulator.run_trials"]
    run_trials_s = sum(s["end"] - s["start"] for s in run_trials)
    metrics = {
        "cli.self_ms_p50": 1000 * statistics.median(s["self_s"] for s in cli),
        "solvers.solves": len(solver_ids) / passes,
        "solvers.evals_per_solve":
            sum(e["parent"] in solver_ids for e in evals) / len(solver_ids) if solver_ids else 0.0,
    }
    for mode in ("exact", "logspace"):
        mine = [e for e in evals if e["mode"] == mode]
        metrics[f"persistence.{mode}.evals"] = len(mine) / passes
        if mode == "logspace":
            metrics["persistence.logspace.terms"] = sum(e["terms"] for e in mine) / passes
        metrics[f"persistence.{mode}.eval_ms_p50"] = _median_ms(mine)
        metrics[f"persistence.{mode}.self_ms"] = 1000 * sum(e["self_s"] for e in mine) / passes
    metrics["persistence.reference_ms"] = _median_ms([e for e in evals if e["parent"] in sim_ids])
    for name in tracer.kernel_calls:
        metrics[f"{name}.calls"] = tracer.kernel_calls[name] / passes
        if name == "combinatorics.ln_binomial":
            metrics[f"{name}.small_k_calls"] = tracer.small_k_calls / passes
        metrics[f"{name}.self_ms"] = 1000 * tracer.kernel_s[name] / passes
    metrics["simulator.run_trials_ms"] = _median_ms(run_trials)
    metrics["simulator.trials_per_s"] = (
        wl.MC_TRIALS * len(run_trials) / run_trials_s if run_trials else 0.0)
    return metrics


def simulator_microbench(workload, seed):
    """Sampler throughput at the workload's own draws, and 1- vs 2-thread scaling."""
    if workload == "design":
        return {"simulator.draw_subsets.subsets_per_s": 0.0, "simulator.thread_scaling": 0.0}
    from coreprobe.simulator import TrialConfig, draw_subsets, run_trials

    if workload == "mc-urn":
        sizes, form = (wl.URN_ALPHA, wl.MC_Q), {"model": "urn", "alpha": wl.URN_ALPHA}
    else:
        c = Fraction(wl.CHURN_C)
        sizes = (math.ceil(c * wl.MC_N), wl.MC_Q)
        form = {"model": "churn_process", "c": c, "delta": wl.CHURN_DELTA}
    t0 = perf_counter()
    for k in sizes:
        draw_subsets(wl.MC_N, k, wl.MC_BLOCK, seed=seed)
    subsets_per_s = len(sizes) * wl.MC_BLOCK / (perf_counter() - t0)
    config = TrialConfig(n=wl.MC_N, q=wl.MC_Q, trials=wl.MC_TRIALS, seed=seed, **form)
    scaling = []
    for _ in range(SCALING_REPEATS):
        elapsed = {}
        for threads in (1, SCALING_THREADS):
            t0 = perf_counter()
            run_trials(config, threads=threads)
            elapsed[threads] = perf_counter() - t0
        # trials/s at 2 threads over twice the 1-thread trials/s
        scaling.append(elapsed[1] / (SCALING_THREADS * elapsed[SCALING_THREADS]))
    return {
        "simulator.draw_subsets.subsets_per_s": subsets_per_s,
        "simulator.thread_scaling": statistics.median(scaling),
    }


def run_traced(main, workload, seed, seconds):
    """Alternate untraced and traced passes over one fixed round."""
    checker = make_checker()
    requests = next(wl.rounds(workload, seed))
    tracer = Tracer()
    failures = []
    attempted = passes = 0
    untraced_s = traced_s = 0.0
    started = perf_counter()
    while passes == 0 or perf_counter() - started < seconds:
        outputs = []
        for args in requests:
            t0 = perf_counter()
            outputs.append(wl.invoke(main, args))
            untraced_s += perf_counter() - t0
            check(checker, args, *outputs[-1], failures)
        with tracer.patched():
            for args, expected in zip(requests, outputs):
                t0 = perf_counter()
                with tracer.request(args):
                    got = wl.invoke(main, args)
                traced_s += perf_counter() - t0
                if got[:2] != expected[:2]:
                    failures.append(f"{' '.join(args)}: traced output differs")
        attempted += 2 * len(requests)
        passes += 1
    metrics = layer_metrics(tracer, passes)
    metrics.update(simulator_microbench(workload, seed))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return attempted, failures, metrics, {"passes": passes, "requests_per_pass": len(requests)}


def provenance(workload, seed, seconds, trace):
    import numpy

    revision = "unknown"
    if (ROOT / ".git").exists():
        revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True).stdout.strip() or revision
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1 if workload == "design" else wl.MC_THREADS,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


def run(workload, seed, seconds, trace):
    """Measure one workload; return (result line dict, full record dict)."""
    spec = benchmark_spec()
    main = load_program()
    warm_up(main, workload)
    if trace:
        attempted, failures, metrics, extra = run_traced(main, workload, seed, seconds)
        declared = spec["per_layer"]
    else:
        attempted, failures, metrics, extra = run_untraced(
            main, workload, seed, seconds, SETUP_REPEATS)
        declared = spec["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {"result": result, "extra": extra, "failures": failures,
              "provenance": provenance(workload, seed, seconds, trace)}
    return result, record


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--setup-probe"]:
        program = load_program()
        warm_up(program, argv[1])
        print("ready", flush=True)
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in record["extra"].items():
        print(f"{name:42s} {value:>14.6g} {EXTRA_UNITS.get(name, 'count')}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as out:
        json.dump(record, out, indent=2, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
