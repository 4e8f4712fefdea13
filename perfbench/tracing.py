"""In-memory spans recorded around the benchmark's calls into retinasim.

A span is ``(id, parent, op, name, start, end)``: ``parent`` is the span that
was open when it started, ``op`` the operation (one ``montecarlo()`` call or
one CLI call) it belongs to.  Spans stay in a list until the run ends; the
roll-up then gives each span name its count, total time and self time (its
duration minus the time its direct children cover).

The spans sit only in this directory.  :func:`patched` swaps the public
functions that ``montecarlo()`` reaches through module globals for wrappers
that open a span, so the traced call tree is the program's own, unchanged:
``prepare`` -> per trial ``trial_rng``, ``run_*`` -> ``merge_records`` ->
``write_artifacts``, and per pattern question ``candidate_menu``,
``simulate_perception`` and ``recognize``.  A name a later version of the
package no longer has is simply not traced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

# (module, attribute, layer): the functions wrapped while tracing a
# montecarlo() call, looked up in ``module`` and named "<layer>.<attribute>"
# after the module that defines them.
TRACED_CALLS = (
    ("harness", "prepare", "harness"),
    ("harness", "trial_rng", "harness"),
    ("harness", "run_sequential", "strategy_bayes"),
    ("harness", "run_serial", "strategy_serial"),
    ("harness", "run_naive", "strategy_naive"),
    ("harness", "run_pattern_test", "strategy_pattern"),
    ("harness", "merge_records", "harness"),
    ("harness", "write_artifacts", "harness"),
    ("strategy_pattern", "candidate_menu", "strategy_pattern"),
    ("strategy_pattern", "simulate_perception", "strategy_pattern"),
    ("strategy_pattern", "recognize", "strategy_pattern"),
)


class Tracer:
    """Collects spans; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [span_id, parent, self.op, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[3] == name)

    def rollup(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _sid, parent, _op, _name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, _op, name, start, end in self.spans:
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return out

    def dump(self, path: Path) -> None:
        """Write every span, times relative to the first, as JSON lines."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start_s": start - t0, "end_s": end - t0,
                }) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the calls in :data:`TRACED_CALLS` through span wrappers."""
    import retinasim.harness
    import retinasim.strategy_pattern

    modules = {
        "harness": retinasim.harness,
        "strategy_pattern": retinasim.strategy_pattern,
    }
    saved = []
    try:
        for module_name, attr, layer in TRACED_CALLS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
