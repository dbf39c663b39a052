"""Span and count recording around the program's public functions.

:meth:`Tracer.install` rebinds the module-level names the program looks up
at call time (for example ``osmag_nav.gridworld.sense``, which ``navigate``
calls through its module globals) to wrappers that record a span per call:
name, start, end, parent span and the episode or query it belongs to. Self
time is a span's duration minus the part its child spans (same thread)
cover. Counts are taken in the same wrappers. Everything stays in memory
until :meth:`Tracer.write` at the end of the run; :meth:`Tracer.uninstall`
restores the original bindings. The program's own files are not changed.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

import osmag_nav.detection as detection
import osmag_nav.enrichment as enrichment
import osmag_nav.episode as episode
import osmag_nav.evalkit as evalkit
import osmag_nav.geometry as geometry
import osmag_nav.gridworld as gridworld
import osmag_nav.llm as llm
import osmag_nav.osmag as osmag
import osmag_nav.retrieval as retrieval

# (span name, defining module, attribute, modules whose global binding is replaced)
_SPANS = [
    ("osmag.serialize", osmag, "serialize_osmag", [osmag]),
    ("osmag.parse", osmag, "parse_osmag", [osmag, evalkit]),
    ("osmag.validate", osmag, "validate", [osmag]),
    ("enrichment.ingest", enrichment, "ingest", [enrichment]),
    ("enrichment.containing_area", enrichment, "containing_area_metric", [enrichment]),
    ("llm.complete", llm, "complete", [llm, retrieval]),
    ("retrieval.retrieve", retrieval, "retrieve", [retrieval, episode]),
    ("retrieval.build_prompt", retrieval, "build_prompt", [retrieval]),
    ("retrieval.parse_plan", retrieval, "parse_plan", [retrieval]),
    ("gridworld.render_grid", gridworld, "render_grid", [gridworld, episode, evalkit]),
    ("gridworld.inflate", gridworld, "inflate", [gridworld, evalkit]),
    ("gridworld.plan_path", gridworld, "plan_path", [gridworld]),
    ("gridworld.sense", gridworld, "sense", [gridworld]),
    ("gridworld.navigate", gridworld, "navigate", [gridworld, episode]),
    ("detection.detect", detection, "detect_at_node", [detection, episode]),
    ("detection.propose", detection, "propose", [detection]),
    ("episode.run_episode", episode, "run_episode", [episode, evalkit]),
    ("evalkit.load_inputs", evalkit, "load_experiment_inputs", [evalkit]),
    ("evalkit.generate_queries", evalkit, "generate_queries", [evalkit]),
    ("evalkit.sample_starts", evalkit, "sample_starts", [evalkit]),
    ("evalkit.compute_report", evalkit, "compute_report", [evalkit]),
    ("evalkit.run_experiment", evalkit, "run_experiment", [evalkit]),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, id, parent, context, self_s)
        self.counts: dict[str, int] = defaultdict(int)
        self.prompt_bytes: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fingerprints: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- span machinery -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_context(self, context: str | None) -> None:
        """Tag the spans this thread records next with an episode or query id."""
        self._local.context = context

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _wrap(self, name: str, fn, after=None, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append(
                    (name, start, end, sid, parent, getattr(tracer._local, "context", None), duration - frame[1])
                )
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, modules, attr: str, value) -> None:
        for module in modules:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

    # -- hooks that turn results into counts -------------------------------

    def _after_ingest(self, result, args, kwargs) -> None:
        payload = args[1] if len(args) > 1 else kwargs["records"]
        _, report = result
        self.count("enrichment.records_offered", sum(len(payload.get(k, [])) for k in ("instances", "viewpoints", "room_descriptions")))
        self.count("enrichment.records_applied", report.total_applied)
        self.count("enrichment.records_skipped", report.total_skipped)
        self.count("enrichment.records_merged", report.merged_instances)

    def _before_complete(self, args, kwargs) -> None:
        req = args[1] if len(args) > 1 else kwargs["req"]
        key = req.fingerprint()
        with self._lock:
            repeat = key in self._fingerprints
            self._fingerprints.add(key)
            self.counts["llm.complete_calls"] += 1
            self.counts["llm.repeat_requests"] += int(repeat)
        self._local.completes = getattr(self._local, "completes", 0) + 1

    def _before_retrieve(self, args, kwargs) -> None:
        self._local.completes = 0

    def _after_retrieve(self, plan, args, kwargs) -> None:
        with self._lock:
            self.counts["retrieval.retrieve_calls"] += 1
            self.counts["retrieval.corrective_retries"] += max(0, self._local.completes - 1)
            self.counts["retrieval.plan_drops"] += len(plan.drops)

    def _after_build_prompt(self, req, args, kwargs) -> None:
        size = len(req.system_text.encode("utf-8")) + len(req.user_text.encode("utf-8"))
        with self._lock:
            self.prompt_bytes.append(size)

    def _after_sense(self, result, args, kwargs) -> None:
        self.count("gridworld.sense_free_cells", len(result[1]))

    def _after_navigate(self, outcome, args, kwargs) -> None:
        with self._lock:
            self.counts["gridworld.replans"] += outcome.replans
            self.counts["gridworld.ticks"] += max(0, len(outcome.driven_path) - 1)

    def _after_detect(self, outcome, args, kwargs) -> None:
        self.count("detection.views", outcome.views_used)

    def _after_propose(self, proposals, args, kwargs) -> None:
        self.count("detection.proposals", len(proposals))

    def _before_episode(self, args, kwargs) -> None:
        cfg = args[0] if args else kwargs["cfg"]
        self.set_context(f"episode:{cfg.seed}")

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        hooks = {
            "enrichment.ingest": (None, self._after_ingest),
            "llm.complete": (self._before_complete, None),
            "retrieval.retrieve": (self._before_retrieve, self._after_retrieve),
            "retrieval.build_prompt": (None, self._after_build_prompt),
            "gridworld.sense": (None, self._after_sense),
            "gridworld.navigate": (None, self._after_navigate),
            "detection.detect": (None, self._after_detect),
            "detection.propose": (None, self._after_propose),
            "episode.run_episode": (self._before_episode, None),
        }
        for name, home, attr, modules in _SPANS:
            before, after = hooks.get(name, (None, None))
            self._rebind(modules, attr, self._wrap(name, getattr(home, attr), after=after, before=before))

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                self.count(key)
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        self._rebind(
            [geometry, osmag, episode], "point_in_ring",
            counted("geometry.point_in_ring_calls", geometry.point_in_ring),
        )
        self._rebind([osmag.SemanticMap], "copy", counted("osmag.map_copies", osmag.SemanticMap.copy))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def new_round(self) -> None:
        """Requests repeat only within a round; every round sends the same ones."""
        with self._lock:
            self._fingerprints.clear()

    # -- results ---------------------------------------------------------------

    def self_time(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _start, _end, _sid, _parent, _ctx, self_s in self.spans:
            out[name] += self_s
        return out

    def metrics(self, rounds: int, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as means per round: name -> (value, unit)."""
        selft = self.self_time()
        calls: dict[str, int] = defaultdict(int)
        busy = wall = 0.0
        for name, start, end, *_ in self.spans:
            calls[name] += 1
            if name == "episode.run_episode":
                busy += end - start
            elif name == "evalkit.run_experiment":
                wall += end - start

        def s(span):
            return (selft.get(span, 0.0) / rounds, "s")

        def n(key, source=None):
            value = (source if source is not None else self.counts).get(key, 0)
            return (value / rounds, "count")

        return {
            "geometry.point_in_ring_calls": n("geometry.point_in_ring_calls"),
            "osmag.serialize_s": s("osmag.serialize"),
            "osmag.parse_s": s("osmag.parse"),
            "osmag.validate_s": s("osmag.validate"),
            "osmag.map_copies": n("osmag.map_copies"),
            "enrichment.ingest_s": s("enrichment.ingest"),
            "enrichment.containing_area_s": s("enrichment.containing_area"),
            "enrichment.records_offered": n("enrichment.records_offered"),
            "enrichment.records_applied": n("enrichment.records_applied"),
            "enrichment.records_skipped": n("enrichment.records_skipped"),
            "enrichment.records_merged": n("enrichment.records_merged"),
            "llm.complete_calls": n("llm.complete_calls"),
            "llm.complete_s": s("llm.complete"),
            "llm.repeat_requests": n("llm.repeat_requests"),
            "retrieval.build_prompt_s": s("retrieval.build_prompt"),
            "retrieval.parse_plan_s": s("retrieval.parse_plan"),
            "retrieval.retrieve_calls": n("retrieval.retrieve_calls"),
            "retrieval.corrective_retries": n("retrieval.corrective_retries"),
            "retrieval.plan_drops": n("retrieval.plan_drops"),
            "retrieval.prompt_bytes_p50": (statistics.median(self.prompt_bytes) if self.prompt_bytes else 0.0, "bytes"),
            "gridworld.render_grid_calls": n("gridworld.render_grid", calls),
            "gridworld.render_grid_s": s("gridworld.render_grid"),
            "gridworld.inflate_calls": n("gridworld.inflate", calls),
            "gridworld.inflate_s": s("gridworld.inflate"),
            "gridworld.plan_path_calls": n("gridworld.plan_path", calls),
            "gridworld.plan_path_s": s("gridworld.plan_path"),
            "gridworld.sense_calls": n("gridworld.sense", calls),
            "gridworld.sense_s": s("gridworld.sense"),
            "gridworld.navigate_self_s": s("gridworld.navigate"),
            "gridworld.sense_free_cells": n("gridworld.sense_free_cells"),
            "gridworld.replans": n("gridworld.replans"),
            "gridworld.ticks": n("gridworld.ticks"),
            "detection.detect_calls": n("detection.detect", calls),
            "detection.detect_s": s("detection.detect"),
            "detection.views": n("detection.views"),
            "detection.proposals": n("detection.proposals"),
            "episode.run_episode_calls": n("episode.run_episode", calls),
            "episode.run_episode_self_s": s("episode.run_episode"),
            "evalkit.load_inputs_s": s("evalkit.load_inputs"),
            "evalkit.generate_queries_s": s("evalkit.generate_queries"),
            "evalkit.sample_starts_s": s("evalkit.sample_starts"),
            "evalkit.compute_report_s": s("evalkit.compute_report"),
            "evalkit.worker_busy_ratio": (busy / (wall * jobs) if wall > 0 else 0.0, "ratio"),
        }

    def write(self, path: str) -> None:
        """One JSON line per span, then one line with the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, sid, parent, ctx, self_s in self.spans:
                fh.write(json.dumps([name, start, end, sid, parent, ctx, self_s]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}, sort_keys=True) + "\n")
