"""Workloads: set-up, whole rounds of operations, and their end-to-end metrics.

Every workload does every kind of operation a user of osmag-nav does, in its
own mix: enrich a map from perception records (``ingest``), save and reload
it (serialize, parse, validate), ask where an object is (``retrieve``), and
run an object-search experiment (``run_experiment``). The nav workloads are
dominated by the experiment; map-upkeep by batched writes and the queries
between them.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import gen
from checks import check_episode, check_ingest, check_plan, check_roundtrip, diff, recompute_report
from osmag_nav import enrichment, evalkit, osmag, retrieval
from osmag_nav.retrieval import Query

ALL_SUITES = [(c, g) for c in ("SO", "RO", "UO") for g in ("o", "or", "orf")]
# one suite per category, each at a different granularity
DIAGONAL_SUITES = [("SO", "o"), ("RO", "or"), ("UO", "orf")]
PROFILE = {"p_propose_tp": 1.0, "p_verify_tp": 1.0, "fp_rate": 0.1, "p_verify_fp": 0.0, "rotation_step_deg": 90}
UPKEEP_QUERIES_PER_BATCH = 12
CATEGORIES = ("SO", "RO", "UO")

WORKLOADS = {
    "nav-office": {"rooms": 16, "labels": 2, "suites": ALL_SUITES, "starts": 2, "jobs": 1, "batches": 1},
    "nav-campus": {"rooms": 144, "labels": 1, "suites": DIAGONAL_SUITES, "starts": 3, "jobs": 2, "batches": 1},
    "map-upkeep": {
        "rooms": 144, "labels": 1, "suites": DIAGONAL_SUITES, "starts": 1, "jobs": 1, "batches": 10,
        "target_radius": 1,
    },
}


class Ops:
    """Operations attempted and failed, and the first few problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def run(self, what: str, fn, *args):
        """Run one operation; an escaping exception fails it. Returns None on failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.failed += 1
            self.note(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def check(self, what: str, problems: list[str], ops: int = 1) -> None:
        """A failed output check fails the operation(s) it covers and the run."""
        if problems:
            self.failed += ops
            self.correct = False
            for p in problems[:3]:
                self.note(f"{what}: {p}")

    def note(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
            print(f"perfbench: {text}", file=sys.stderr)


class Workload:
    """Inputs written once, then whole rounds of the same operations."""

    def __init__(self, name: str, seed: int, workdir: str, ops: Ops) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.ops = ops
        self.tracer = None
        self.between_ops = None  # called after every operation, outside its timing
        self.setup_s: list[float] = []
        self.samples: dict[str, list[float]] = {"query_s": [], "roundtrip_s": []}
        self.ingest_records = 0
        self.ingest_s = 0.0
        self.episodes_done = 0
        self.experiment_s = 0.0
        self.map_bytes: int | None = None
        self.outputs: dict[tuple[str, str], bytes] = {}  # records + report bytes per suite, first round

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        """Generate the building and write map, records, world and config."""
        spec = self.spec
        b = gen.generate(spec["rooms"], self.seed, spec["labels"], spec["batches"], spec.get("target_radius"))
        os.makedirs(self.workdir, exist_ok=True)
        self._write("bare.osm", osmag.serialize_osmag(b.bare))
        self._write("records.json", json.dumps(b.records, sort_keys=True))
        self._write("world.json", json.dumps(b.world.to_dict(), sort_keys=True))
        self.config = {
            "map": "enriched.osm",
            "world": "world.json",
            "map_mode": "full",
            "grid_resolution_m": 0.1,
            "backend": {"kind": "heuristic"},
            "profile": PROFILE,
            # each run_experiment call takes one of these suites
            "generate": [{"category": c, "granularity": g} for c, g in spec["suites"]],
            "starts": spec["starts"],
            # fixed like the room grid, so start poses do not move with --seed
            "master_seed": 0,
        }
        self._write("experiment.json", json.dumps(self.config, sort_keys=True))
        self.building = b

    def _write(self, name: str, text: str) -> None:
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def _read(self, name: str) -> str:
        with open(os.path.join(self.workdir, name), "r", encoding="utf-8") as fh:
            return fh.read()

    def _context(self, text: str | None) -> None:
        if self.tracer is not None:
            self.tracer.set_context(text)

    @property
    def episodes_per_call(self) -> int:
        return self.spec["labels"] * self.spec["starts"]

    @property
    def ops_per_round(self) -> int:
        calls = len(self.spec["suites"])
        episodes = calls * self.episodes_per_call
        if self.spec["batches"] == 1:
            return calls * (3 + 2 * 9 * self.spec["labels"]) + episodes
        return self.spec["batches"] * (1 + 3 + UPKEEP_QUERIES_PER_BATCH) + episodes

    # -- operations ------------------------------------------------------------------

    def _op(self, what: str, fn, *args):
        out = self.ops.run(what, fn, *args)
        if self.between_ops is not None:
            self.between_ops()
        return out

    def _ingest(self, m, payload, expect):
        t0 = time.perf_counter()
        out, report = enrichment.ingest(m, payload)
        self.ingest_s += time.perf_counter() - t0
        self.ingest_records += expect["offered"]
        self.ops.check("ingest", check_ingest(expect, report, m, out))
        return out

    def _roundtrip(self, m):
        """Serialize, parse, validate; returns the text and the parsed map."""
        t0 = time.perf_counter()
        text = osmag.serialize_osmag(m)
        parsed = osmag.parse_osmag(text)
        violations = osmag.validate(parsed)
        self.samples["roundtrip_s"].append(time.perf_counter() - t0)
        self.ops.check("roundtrip", check_roundtrip(text, osmag.serialize_osmag(parsed), violations))
        return text, parsed

    def _query(self, m, query: Query, mode: str, expect_room: int | None, tag: str) -> None:
        self._context(tag)
        t0 = time.perf_counter()
        plan = retrieval.retrieve(m, query, retrieval.HeuristicBackend(), mode)
        self.samples["query_s"].append(time.perf_counter() - t0)
        self._context(None)
        self.ops.check("query", check_plan(self.building, m, plan, expect_room))

    def _experiment(self, m, suite: tuple[str, str], jobs: int) -> tuple[bytes, float]:
        """One run_experiment call over one (category, granularity) suite: its
        outputs, checked, and its wall time. ``m`` is the map as the call reads it."""
        config = dict(self.config, generate=[{"category": suite[0], "granularity": suite[1]}])
        t0 = time.perf_counter()
        records, report = evalkit.run_experiment(config, base_dir=self.workdir, jobs=jobs)
        elapsed = time.perf_counter() - t0
        self.ops.attempted += len(records)
        problems = list(self._expected_queries(records, suite))
        map_bytes = len(self._read("enriched.osm").encode("utf-8"))
        problems += diff(report.to_dict(), recompute_report(records, map_bytes))
        per_episode = [check_episode(self.building, m, rec) for rec in records]
        if problems:  # the call's output is wrong as a whole: every episode fails once
            self.ops.check("experiment", problems + [p for ps in per_episode for p in ps], len(records))
        else:
            for episode_problems in per_episode:
                self.ops.check("episode", episode_problems)
        out = "".join(r.to_json() + "\n" for r in records) + report.to_json() + evalkit.report_to_csv(report)
        return out.encode("utf-8"), elapsed

    def _expected_queries(self, records, suite: tuple[str, str]):
        """Queries, categories and episode count follow from the generator's placements."""
        category, gran = suite
        want = []
        for label in sorted(self.building.categories[category], key=str.lower):
            room = self._instance_room_name(label) if gran != "o" else None
            floor = "0" if gran == "orf" else None
            want += [(label, room, floor, category, gran)] * self.spec["starts"]
        got = [(r.query_object, r.query_room, r.query_floor, r.category, r.granularity) for r in records]
        if got != want:
            yield f"experiment ran {len(got)} episodes, generator expects {len(want)} (first {got[:1]} vs {want[:1]})"

    def _instance_room_name(self, label: str) -> str:
        b = self.building
        idx = next(i for i, inst in enumerate(b.world.instances) if inst.label == label)
        return b.rooms[b.instance_rooms[idx]].name

    def _run_experiment(self, m, suite: tuple[str, str]) -> None:
        episodes = self.episodes_per_call
        try:
            out, elapsed = self._experiment(m, suite, self.spec["jobs"])
        except Exception as exc:  # every episode of the call fails with it
            self.ops.attempted += episodes
            self.ops.failed += episodes
            self.ops.note(f"experiment: {type(exc).__name__}: {exc}")
            return
        self.episodes_done += episodes
        self.experiment_s += elapsed
        if self.between_ops is not None:
            self.between_ops()
        first = self.outputs.setdefault(suite, out)
        if out != first:
            self.ops.check("experiment", ["records/report bytes differ from the first round"], episodes)

    def check_against_serial_run(self) -> None:
        """The record stream must not depend on jobs: compare one call, its
        suite chosen by the seed, with a jobs=1 run, untimed."""
        suite = self.spec["suites"][self.seed % len(self.spec["suites"])]
        m = osmag.parse_osmag(self._read("enriched.osm"))
        reference = Workload(self.name, self.seed, self.workdir, Ops())
        reference.building, reference.config = self.building, self.config
        out, _ = reference._experiment(m, suite, 1)
        if out != self.outputs[suite]:
            self.ops.check("experiment", [f"jobs={self.spec['jobs']} {suite} records/report differ from jobs=1"])

    # -- rounds ------------------------------------------------------------------------

    def round(self) -> None:
        if self.tracer is not None:
            self.tracer.new_round()
        before = self.ops.attempted
        if self.spec["batches"] == 1:
            done = self._nav_round()
        else:
            done = self._upkeep_round()
        if not done:
            # keep rounds whole: what the abort skipped counts as failed
            missing = self.ops_per_round - (self.ops.attempted - before)
            self.ops.attempted += missing
            self.ops.failed += missing
            self.ops.note(f"round aborted; {missing} operations not run")

    def _nav_round(self) -> bool:
        """Per suite: enrich the bare map; save, reload and ask; run the
        suite's experiment on the saved map; then save, reload and ask again."""
        b = self.building
        for suite in self.spec["suites"]:
            bare = osmag.parse_osmag(self._read("bare.osm"))
            payload = json.loads(self._read("records.json"))
            m = self._op("ingest", self._ingest, bare, payload, b.batch_expect[0])
            parsed = m and self._save_and_ask(m)
            if not parsed:
                return False
            self._run_experiment(parsed, suite)
            if not self._save_and_ask(m):
                return False
        return True

    def _save_and_ask(self, m):
        """Round trip the map to enriched.osm, then ask for every queried label
        at every granularity. Returns the map as read back, None on failure."""
        b = self.building
        saved = self._op("roundtrip", self._roundtrip, m)
        if not saved:
            return None
        text, parsed = saved
        self._write("enriched.osm", text)
        self.map_bytes = len(text.encode("utf-8"))
        for label in (label for c in CATEGORIES for label in b.categories[c]):
            room = self._instance_room_name(label)
            for where in ((None, None), (room, None), (room, "0")):
                expect_room = b.single_node_labels.get(label)
                tag = f"query:{label}:{where}"
                self._op("query", self._query, m, Query(label, *where), "full", expect_room, tag)
        return parsed

    def _upkeep_round(self) -> bool:
        """Batches of records through ingest. After each batch, per granularity:
        a round trip, then four queries. Three round trips of the same map per
        batch give the round-trip time enough samples to take a percentile of."""
        b = self.building
        m = osmag.parse_osmag(self._read("bare.osm"))
        mapped: list[tuple[str, int]] = []
        observed: list[str] = []
        rooms = sorted(b.rooms)
        for i, (payload, expect) in enumerate(zip(b.batches, b.batch_expect)):
            m = self._op("ingest", self._ingest, m, payload, expect)
            if not m:
                return False
            for kind, value, room in expect["new_nodes"]:
                if kind == "object" and value in b.single_node_labels:
                    mapped.append((value, room))
                elif kind == "observed":
                    observed.append(value.split(";")[0])
            label, room = mapped[(i * 7) % len(mapped)]
            never = b.never_mapped_labels[i % len(b.never_mapped_labels)]
            seen = observed[(i * 5) % len(observed)]
            other = b.rooms[rooms[(i * 11) % len(rooms)]].name
            for gran in ("o", "or", "orf"):
                saved = self._op("roundtrip", self._roundtrip, m)
                if not saved:
                    return False
                text, parsed = saved
                here = (None, None) if gran == "o" else (b.rooms[room].name, "0" if gran == "orf" else None)
                there = (None, None) if gran == "o" else (other, "0" if gran == "orf" else None)
                for tag, query, mode, expect_room in (
                    ("mapped", Query(label, *here), "full", room),
                    ("never-mapped", Query(never, *there), "full", None),
                    ("observed", Query(seen, *there), "full", None),
                    ("rooms-only", Query(label, *here), "rooms_only", None),
                ):
                    self._op("query", self._query, m, query, mode, expect_room, f"query:{i}:{tag}:{gran}")
        self.map_bytes = osmag.map_size_bytes(m)
        if self.map_bytes != len(text.encode("utf-8")):
            self.ops.check("map_bytes", ["map_size_bytes differs from the length of the serialized map"])
        self._write("enriched.osm", text)
        for suite in self.spec["suites"]:
            self._run_experiment(parsed, suite)
        return True

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        q = self.samples["query_s"]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "episodes_per_s": (self.episodes_done / self.experiment_s, "episodes/s"),
            "query_ms_p75": (statistics.quantiles(q, n=4)[2] * 1e3, "ms"),
            "query_ms_p90": (statistics.quantiles(q, n=10)[8] * 1e3, "ms"),
            "ingest_records_per_s": (self.ingest_records / self.ingest_s, "records/s"),
            "roundtrip_ms_p75": (statistics.quantiles(self.samples["roundtrip_s"], n=4)[2] * 1e3, "ms"),
            "map_bytes": (self.map_bytes, "bytes"),
        }
