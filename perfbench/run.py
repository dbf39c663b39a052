"""osmag-nav benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload nav-office --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, binding nothing in the program; ``--trace 1`` reports
per-layer metrics from wrappers around the program's public functions (see
``tracing.py``). Workloads are closed loops: each call starts when the previous
one returns. A run is made of whole rounds of the same operations, at least
one, and starts a round only if it should end within ``--seconds``. See
README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-up runs SETUP_FIRST times before timing starts, then once more between
# two operations whenever SETUP_GAP times its median length has passed since
# the last repeat: the repeats take about 1/SETUP_GAP of the run, and there
# are many of them where set-up is short
SETUP_FIRST = 5
SETUP_GAP = 20
WORKLOAD_NAMES = ("map-upkeep", "nav-campus", "nav-office")


def _import_program():
    """Import osmag_nav from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "osmag_nav")):
        sys.exit(f"perfbench: no program source at {SRC}/osmag_nav")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import osmag_nav

    if os.path.dirname(os.path.dirname(os.path.abspath(osmag_nav.__file__))) != SRC:
        sys.exit(f"perfbench: imported osmag_nav from {osmag_nav.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import Ops

    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    ops = Ops()
    try:
        result = _run(args, workdir, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0 if ops.correct else 1


def _run(args, workdir: str, ops) -> dict:
    clock = SetupClock(args, workdir)
    for _ in range(SETUP_FIRST):
        work = clock.sample(workdir, ops)
    clock.gap_s = SETUP_GAP * statistics.median(clock.samples)
    if args.trace:
        return _traced(args, work)

    work.between_ops = clock.between_ops
    _rounds(work, args.seconds)
    work.between_ops = None
    if work.spec["jobs"] > 1:
        work.check_against_serial_run()
    work.setup_s = clock.samples
    return work.metrics()


def _rounds(work, seconds: float) -> list[float]:
    """Whole rounds, each started only if it should end within ``seconds``
    (judged by the last round's length); at least one. Returns their wall times."""
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        t0 = time.perf_counter()
        work.round()
        walls.append(time.perf_counter() - t0)
    return walls


class SetupClock:
    """Set-up timing, spread over the run.

    The machine's speed can swing within seconds, so repeats taken back to
    back all see one speed; repeats between operations see the whole run.
    The repeats after the first ones build into a side directory and leave
    the running workload's files alone.
    """

    def __init__(self, args, workdir: str) -> None:
        self.args = args
        self.side_dir = os.path.join(workdir, "setup")
        self.gap_s = 0.0
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self, workdir: str, ops):
        from workloads import Workload

        t0 = time.perf_counter()
        work = Workload(self.args.workload, self.args.seed, workdir, ops)
        work.setup()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        return work

    def between_ops(self) -> None:
        if time.perf_counter() - self.last >= self.gap_s:
            self.sample(self.side_dir, None)


def _traced(args, work) -> dict:
    """One untraced round for reference, then traced rounds as in an untraced run."""
    from tracing import Tracer

    t0 = time.perf_counter()
    work.round()
    plain_s = time.perf_counter() - t0
    tracer = Tracer()
    work.tracer = tracer
    tracer.install()
    try:
        walls = _rounds(work, args.seconds)  # record and report bytes must equal the untraced round's
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(os.path.dirname(work.workdir), f"trace-{args.workload}-{args.seed}.jsonl"))
    out = tracer.metrics(len(walls), work.spec["jobs"])
    out["bench.trace_overhead"] = (statistics.median(walls) / plain_s - 1.0, "ratio")
    out["bench.rounds"] = (len(walls), "count")
    return out


if __name__ == "__main__":
    sys.exit(main())
