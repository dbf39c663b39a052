"""Scaling contracts: per-operation work that must not grow with the building.

Each test builds seeded ``perfbench/gen`` buildings of 16 and 144 rooms and
counts calls through ``monkeypatch``. Counts are deterministic, so a contract
that breaks fails every run, unlike a wall-clock bound.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
from osmag_nav import gridworld  # noqa: E402
from osmag_nav.enrichment import ingest  # noqa: E402
from osmag_nav.osmag import SemanticMap  # noqa: E402
from osmag_nav.retrieval import simplify_map  # noqa: E402

SIZES = (16, 144)
MAX_RATIO = 1.5  # largest allowed spread of a per-operation count across SIZES


@pytest.fixture(scope="module")
def buildings():
    return {rooms: gen.generate(rooms, 1, 1, batches=4) for rooms in SIZES}


def test_segments_per_sense_call(monkeypatch, buildings):
    # sense tests a ray only against the walls near the robot, not every wall
    # of the building
    tested: list[int] = []
    ray_hits = gridworld._ray_hits

    def counted(origin_xy, dirs, segments, max_range):
        tested.append(segments.shape[0])
        return ray_hits(origin_xy, dirs, segments, max_range)

    monkeypatch.setattr(gridworld, "_ray_hits", counted)
    per_call = {}
    for rooms, b in buildings.items():
        grid = gridworld.render_grid(b.bare)
        start = b.world.start
        goals = [
            inst.position
            for inst in b.world.instances
            if math.dist((inst.position.x, inst.position.y), (start.x, start.y)) < 13.0
        ]
        assert goals
        tested.clear()
        for goal in goals:
            assert gridworld.navigate(grid, b.world, start, goal).reached
        assert tested
        per_call[rooms] = sum(tested) / len(tested)
    assert max(per_call.values()) <= MAX_RATIO * min(per_call.values()), per_call


def test_one_map_copy_per_ingest_call(monkeypatch, buildings):
    copies: list[int] = []
    copy = SemanticMap.copy

    def counted(self):
        copies.append(1)
        return copy(self)

    monkeypatch.setattr(SemanticMap, "copy", counted)
    for b in buildings.values():
        m = b.bare
        for batch in b.batches:
            copies.clear()
            m, _ = ingest(m, batch)
            assert len(copies) == 1


def test_simplify_resolves_each_semantic_node_once(monkeypatch, buildings):
    calls: list[int] = []
    resolve = SemanticMap.node_parent_area

    def counted(self, node):
        calls.append(node.id)
        return resolve(self, node)

    monkeypatch.setattr(SemanticMap, "node_parent_area", counted)
    for b in buildings.values():
        m, _ = ingest(b.bare, b.records)
        calls.clear()
        simplify_map(m, "full")
        assert len(calls) == len(m.semantic_nodes()) > 0
