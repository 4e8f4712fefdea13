#!/usr/bin/env python3
"""Steadiness check: repeat the benchmark on unchanged code and compare each
end-to-end metric's run-to-run spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload mc-walk --runs 10 --sets 2

For each workload it makes ``--runs`` untraced runs per set, each with another
seed, and reports per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  A spread above the
bound fails (``setup_s`` excepted, whose spread is not bounded); a spread
above a third of the bound is flagged.  With two sets it also checks that the
second set's median is not worse than the first's by more than the bound.
The exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-600:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported failures: {proc.stdout[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to check (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3 for quartiles")

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    summary: dict = {}
    for workload in args.workload or names:
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"{workload} set {s + 1} seed {seed}: "
                      + "  ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        summary[workload] = {}
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s)")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name, metric in bounds.items():
            bound = metric["bound"]
            rows = []
            for runs in sets:
                values = [run[name] for run in runs]
                mid, q1, q3, sp = spread(values)
                verdict = "ok"
                if name != "setup_s" and sp > bound:
                    verdict = "FAIL spread"
                    ok = False
                elif name != "setup_s" and sp > bound / 3:
                    verdict = "wide (> bound/3)"
                rows.append((mid, sp))
                print(f"  {name:16s} {mid:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{sp:8.4f} {bound:6.3f}  {verdict}")
            entry = {"medians": [m for m, _ in rows], "spreads": [s for _, s in rows],
                     "bound": bound}
            if len(rows) == 2:
                worse = worsening(rows[0][0], rows[1][0], metric["better"])
                entry["second_worse_by"] = worse
                verdict = "ok" if worse <= bound else "FAIL median"
                ok = ok and worse <= bound
                print(f"  {'':16s} second set worse by {worse:+.4f} (bound {bound})  {verdict}")
            summary[workload][name] = entry
    print(json.dumps({"ok": ok, "summary": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
