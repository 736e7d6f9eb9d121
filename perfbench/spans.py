"""In-memory span tracing of coreprobe, installed from outside the package.

``Tracer.patched()`` replaces each traced library function at every
module attribute the CLI path reaches it through, and restores the
originals on exit.  Spans are kept in memory; ``write`` saves them as
JSON lines when the run ends.  A span's self time is its duration minus
the time covered by its child spans.

The combinatorics kernels are called up to ~10^5 times per query, so
they are not stored one span each: each kernel call adds its count and
time to the enclosing span (``kernels``) and to run totals.

All traced calls happen on the thread that runs the CLI command; the
simulator's worker threads call none of the patched functions.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from time import perf_counter

# (module, attribute, layer.function, kind).  "eval" spans are
# miss_probability evaluations; "kernel" calls are aggregated.
PATCHES = (
    ("coreprobe.cli", "min_core_size", "solvers.min_core_size", "span"),
    ("coreprobe.cli", "max_delta", "solvers.max_delta", "span"),
    ("coreprobe.cli", "delta_for_churn", "solvers.delta_for_churn", "span"),
    ("coreprobe.cli", "churn_rate_for", "solvers.churn_rate_for", "span"),
    ("coreprobe.cli", "miss_probability", "persistence.miss_probability", "eval"),
    ("coreprobe.cli", "churn_ratio", "persistence.churn_ratio", "span"),
    ("coreprobe.cli", "replaced_count", "persistence.replaced_count", "span"),
    ("coreprobe.cli", "compare_with_analytic", "simulator.compare_with_analytic", "span"),
    ("coreprobe.solvers", "miss_probability", "persistence.miss_probability", "eval"),
    ("coreprobe.simulator", "run_trials", "simulator.run_trials", "span"),
    ("coreprobe.simulator", "miss_probability", "persistence.miss_probability", "eval"),
    ("coreprobe.persistence", "ln_binomial", "combinatorics.ln_binomial", "kernel"),
    ("coreprobe.persistence", "binomial_exact", "combinatorics.binomial_exact", "kernel"),
    ("coreprobe.persistence", "log_sum_exp", "combinatorics.log_sum_exp", "kernel"),
)
KERNELS = tuple(name for _, _, name, kind in PATCHES if kind == "kernel")

# ln_binomial takes the exact math.comb branch when 0 < min(r, m-r) <= this.
SMALL_K = 200


class _Frame:
    __slots__ = ("span_id", "parent_id", "name", "child_s", "kernels")

    def __init__(self, span_id, parent_id, name):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.child_s = 0.0
        self.kernels = None  # {kernel name: [calls, seconds]} once one runs


class Tracer:
    """Collects spans and kernel totals for one traced pass or more."""

    def __init__(self):
        self.spans = []   # dicts, appended as spans end
        self.kernel_calls = dict.fromkeys(KERNELS, 0)
        self.kernel_s = dict.fromkeys(KERNELS, 0.0)
        self.small_k_calls = 0
        self._stack = []
        self._next_id = 0
        self._request = 0

    def _open(self, name):
        parent = self._stack[-1].span_id if self._stack else None
        self._next_id += 1
        frame = _Frame(self._next_id, parent, name)
        self._stack.append(frame)
        return frame

    def _close(self, frame, start, end, attrs):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1].child_s += duration
        self.spans.append({
            "request": self._request, "id": frame.span_id, "parent": frame.parent_id,
            "name": frame.name, "start": start, "end": end,
            "self_s": duration - frame.child_s, "kernels": frame.kernels, **attrs,
        })

    @contextlib.contextmanager
    def request(self, args):
        """Span of one CLI call, named after its command."""
        self._request += 1
        frame = self._open("cli." + args[0])
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, perf_counter(), {})

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            frame = self._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, start, perf_counter(), {})
        return traced

    def _eval(self, name, fn):
        def traced(n, alpha, q, *args, **kwargs):
            frame = self._open(name)
            start = perf_counter()
            result = None
            try:
                result = fn(n, alpha, q, *args, **kwargs)
                return result
            finally:
                end = perf_counter()
                terms = min(alpha, q) - max(0, alpha - n + q) + 1
                mode = result.mode if result is not None else None
                self._close(frame, start, end, {"n": n, "alpha": alpha, "q": q,
                                                "mode": mode, "terms": terms})
        return traced

    def _kernel(self, name, fn):
        calls, seconds, stack = self.kernel_calls, self.kernel_s, self._stack
        small_k = name == "combinatorics.ln_binomial"

        def traced(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                calls[name] += 1
                seconds[name] += duration
                if small_k:
                    m, r = args
                    if 0 < min(r, m - r) <= SMALL_K:
                        self.small_k_calls += 1
                if stack:
                    parent = stack[-1]
                    parent.child_s += duration
                    if parent.kernels is None:
                        parent.kernels = {}
                    entry = parent.kernels.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the traced wrappers; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, kind in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                wrap = {"span": self._span, "eval": self._eval, "kernel": self._kernel}[kind]
                setattr(module, attr, wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
