"""Steadiness check: two sets of ten benchmark runs per workload, against the bounds.

    python3 perfbench/steady.py

Every workload in BENCHMARK.json runs ten times per set, each run a separate
``run.py`` process with its own seed (set 1 uses seeds 1..10, set 2 uses
101..110). For every end-to-end metric it prints, per set, the median, the
quartiles and the spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them), then the bound from
BENCHMARK.json and how far the second median moved from the first in the
worse direction. A spread or a drift over the bound is marked ``OVER``; so is
a failed share that differs between the sets. Exits 1 if anything is over.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEED_BASES = (0, 100)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode}): {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    over = 0
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for base in SEED_BASES:
            results = []
            for seed in range(base + 1, base + RUNS + 1):
                res = run_once(workload, seed, spec["run_seconds"])
                print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                      f"failed={res['failed']} took {res['wall_s']:.0f} s",
                      file=sys.stderr)
                results.append(res)
            sets.append(results)
        print(f"\n== {workload} ({RUNS} runs per set)")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        wrong = sum(not r["correct"] for rs in sets for r in rs)
        flag = "OVER" if len(set(shares)) > 1 or wrong else "ok"
        over += flag != "ok"
        print(f"failed share per set {shares}, runs with wrong output {wrong}  {flag}")
        for name, meta in bounds.items():
            cells, medians, flag = [], [], "ok"
            for rs in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in rs])
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}")
                if spread > meta["bound"]:
                    flag = "OVER"
            change = (medians[1] - medians[0]) / medians[0]
            drift = change if meta["better"] == "lower" else -change
            if drift > meta["bound"]:
                flag = "OVER"
            over += flag != "ok"
            print(f"{name:22s} {' | '.join(cells)} | bound {meta['bound']} drift {drift:+.3f}  {flag}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
