"""Reference figures, timed once with time.perf_counter:

    python3 perfbench/reference.py

- ``osmag-nav demo`` wall time (in process, output to a temporary directory);
- a 48-episode experiment on the packaged five-room fixture (6 labels, the
  ``o`` granularity, 8 starts) at jobs 1 and 2;
- ``simplify_map`` and one ``retrieve`` on a 576-room generated map whose
  semantic nodes are placed directly from the generator's ground truth
  (``ingest`` at that size takes minutes);
- ``plan_path`` on a free 1000 x 1000 grid across a wall with one gap.

Writes only to a temporary directory under the checkout's ``.perfbench/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import gen  # noqa: E402
from osmag_nav import cli, fixtures  # noqa: E402
from osmag_nav.evalkit import run_experiment  # noqa: E402
from osmag_nav.gridworld import FREE, OCCUPIED, OccupancyGrid, plan_path  # noqa: E402
from osmag_nav.geometry import MetricPoint  # noqa: E402
from osmag_nav.osmag import OBJECT_KEY, OBSERVED_KEY, PARENT_KEY, MapNode, serialize_osmag  # noqa: E402
from osmag_nav.retrieval import HeuristicBackend, Query, retrieve, simplify_map  # noqa: E402


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def demo(tmp: str) -> float:
    with contextlib.redirect_stdout(io.StringIO()):
        code, seconds = timed(cli.main, ["demo", "--seed", "7", "-o", os.path.join(tmp, "demo")])
    if code != 0:
        raise RuntimeError(f"demo exited {code}")
    return seconds


def fixture_experiment(tmp: str, jobs: int) -> tuple[int, float]:
    work = os.path.join(tmp, "fixture")
    os.makedirs(work, exist_ok=True)
    m = fixtures.enriched_five_room_map()
    with open(os.path.join(work, "map.osm"), "w", encoding="utf-8") as fh:
        fh.write(serialize_osmag(m))
    with open(os.path.join(work, "world.json"), "w", encoding="utf-8") as fh:
        json.dump(fixtures.five_room_world().to_dict(), fh)
    config = dict(fixtures.demo_experiment_config(), map="map.osm", world="world.json", starts=8)
    (records, _), seconds = timed(run_experiment, config, base_dir=work, jobs=jobs)
    return len(records), seconds


def large_map(rooms: int):
    """Generated building with its semantic nodes placed from ground truth."""
    b = gen.generate(rooms, 1, 1)
    m = b.bare.copy()
    nid = max(set(m.nodes) | set(m.areas) | set(m.passages)) + 1
    payload = b.records
    for rec in payload["instances"]:
        room = b.room_of(rec["x"], rec["y"])
        if room is not None:
            pos = m.metric_to_geo(MetricPoint(rec["x"], rec["y"]))
            m.nodes[nid] = MapNode(nid, pos, {OBJECT_KEY: rec["label"], PARENT_KEY: str(room)})
            nid += 1
    for rec in payload["viewpoints"]:
        room = b.room_of(rec["x"], rec["y"])
        if room is not None:
            pos = m.metric_to_geo(MetricPoint(rec["x"], rec["y"]))
            m.nodes[nid] = MapNode(nid, pos, {OBSERVED_KEY: ";".join(rec["observed"]), PARENT_KEY: str(room)})
            nid += 1
    return m, b


def detour_grid(size: int = 1000) -> tuple[OccupancyGrid, tuple[int, int], tuple[int, int]]:
    cells = np.full((size, size), FREE, dtype=np.uint8)
    cells[: size - 100, size // 2] = OCCUPIED  # wall with a gap at the top
    return OccupancyGrid(0.1, MetricPoint(0.0, 0.0), cells), (size // 10, size // 2), (size - size // 10, size // 2)


def main() -> int:
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base)
    try:
        out = {"demo_s": demo(tmp)}
        for jobs in (1, 2):
            episodes, seconds = fixture_experiment(tmp, jobs)
            out[f"fixture_{episodes}_episodes_jobs{jobs}_s"] = seconds
        m, b = large_map(576)
        out["map576_nodes"] = len(m.nodes)
        out["map576_semantic_nodes"] = len(m.semantic_nodes())
        _, out["map576_simplify_map_s"] = timed(simplify_map, m)
        label = next(iter(b.single_node_labels))
        _, out["map576_retrieve_s"] = timed(retrieve, m, Query(label), HeuristicBackend())
        grid, start, goal = detour_grid()
        path, out["plan_path_1000x1000_detour_s"] = timed(plan_path, grid, start, goal)
        out["plan_path_1000x1000_detour_cells"] = len(path.cells)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for key, value in out.items():
        print(f"{key}: {value:.3f}" if isinstance(value, float) else f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
