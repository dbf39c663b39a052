"""Scaling contracts: per-operation work that must not grow with the building.

Each test takes the seeded ``perfbench/gen`` buildings of 16 and 144 rooms
(the ``buildings`` fixture) and counts calls through ``monkeypatch``. Counts are deterministic, so a contract
that breaks fails every run, unlike a wall-clock bound.
"""

from __future__ import annotations

import math

from osmag_nav import gridworld, osmag
from osmag_nav.enrichment import ingest
from osmag_nav.osmag import MapNode, SemanticMap
from osmag_nav.retrieval import simplify_map

MAX_RATIO = 1.5  # largest allowed spread of a per-operation count across the building sizes


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


def test_ingest_constructs_only_the_nodes_it_adds(monkeypatch, buildings):
    # the copy ingest writes to shares the map's nodes; it builds only new ones
    built: list[int] = []
    init = MapNode.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MapNode, "__init__", counted)
    for b in buildings.values():
        m = b.bare
        for batch in b.batches:
            built.clear()
            out, report = ingest(m, batch)
            assert report.total_applied > 1
            assert len(built) == len(out.nodes) - len(m.nodes)
            m = out


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


def _offered(batch: dict) -> int:
    return len(batch.get("instances", [])) + len(batch.get("viewpoints", []))


def test_point_in_ring_calls_per_ingested_record(monkeypatch, buildings):
    # a record's area is found by testing the rings near it, not every ring
    calls: list[int] = []
    point_in_ring = osmag.point_in_ring

    def counted(*args):
        calls.append(1)
        return point_in_ring(*args)

    monkeypatch.setattr(osmag, "point_in_ring", counted)
    per_record = {}
    for rooms, b in buildings.items():
        calls.clear()
        m = b.bare
        for batch in b.batches:
            m, _ = ingest(m, batch)
        per_record[rooms] = len(calls) / sum(_offered(batch) for batch in b.batches)
    assert max(per_record.values()) <= MAX_RATIO * min(per_record.values()), per_record


def test_one_free_id_scan_per_ingest_call(monkeypatch, buildings):
    scans: list[int] = []
    next_free_node_id = SemanticMap.next_free_node_id

    def counted(self):
        scans.append(1)
        return next_free_node_id(self)

    monkeypatch.setattr(SemanticMap, "next_free_node_id", counted)
    for b in buildings.values():
        m = b.bare
        for batch in b.batches:
            scans.clear()
            m, report = ingest(m, batch)
            assert report.total_applied > 1 and len(scans) <= 1
