from __future__ import annotations

import random

import pytest

import mapgen
from osmag_nav.enrichment import (
    DEFAULT_MERGE_RADIUS_M,
    EnrichmentError,
    ViewpointRecord,
    ingest,
)
from osmag_nav.geometry import MetricPoint
from osmag_nav.llm import BackendUnavailableError, CompletionRequest, ScriptedBackend, TextBackend
from osmag_nav.osmag import SemanticMap, containing_area, serialize_osmag, validate


def _ingest_one(m, section, record, summarizer=None):
    """Ingest a one-record payload; returns the map, the report and the new node ids."""
    out, report = ingest(m, {section: [record]}, summarizer)
    return out, report, sorted(set(out.nodes) - set(m.nodes))


def test_object_node_sets_parent_and_tag(bare_map):
    m, _, (nid,) = _ingest_one(bare_map, "instances", {"label": "sink", "x": 8.0, "y": 1.0})
    node = m.nodes[nid]
    assert node.tags["semantic_osmAG:object_name"] == "sink"
    assert node.tags["parent"] == "105"  # lounge
    assert len(m.nodes) == len(bare_map.nodes) + 1


def test_object_node_orphan_skipped(bare_map):
    m, report, new = _ingest_one(bare_map, "instances", {"label": "sink", "x": -10.0, "y": -10.0})
    assert report.skipped["instances"] == 1
    assert report.applied["instances"] == 0
    assert report.reasons == ["instance 'sink' at (-10.00, -10.00) lies outside every area"]
    assert new == []


def test_same_label_two_rooms_distinct_parents(bare_map):
    # multi-instance objects: one label, two rooms, two nodes
    m, _, (n1,) = _ingest_one(bare_map, "instances", {"label": "extinguisher", "x": 3.0, "y": 17.0})
    m, _, (n2,) = _ingest_one(m, "instances", {"label": "extinguisher", "x": 3.0, "y": 3.0})
    p1 = m.node_parent_area(m.nodes[n1])
    p2 = m.node_parent_area(m.nodes[n2])
    assert p1.id != p2.id
    # oracle: containment of the record centroids
    assert containing_area(m, m.nodes[n1].position) == p1.id
    assert containing_area(m, m.nodes[n2].position) == p2.id


def test_viewpoint_node_joins_observed(bare_map):
    rec = {"x": 12.0, "y": 10.5, "heading_deg": 0.0, "observed": ["robot dog", "whiteboard"]}
    m, _, (nid,) = _ingest_one(bare_map, "viewpoints", rec)
    assert m.nodes[nid].tags["semantic_osmAG:observed_object"] == "robot dog;whiteboard"
    assert m.nodes[nid].observed_objects == ["robot dog", "whiteboard"]


def test_empty_observed_list_rejected():
    with pytest.raises(EnrichmentError):
        ViewpointRecord(MetricPoint(0.0, 0.0), 0.0, ())


def test_viewpoints_along_corridor_share_parent():
    m = mapgen.corridor_map()
    for x in (4.0, 10.0, 16.0):
        m, _, (nid,) = _ingest_one(m, "viewpoints", {"x": x, "y": 1.5, "observed": ["sign"]})
        assert m.node_parent_area(m.nodes[nid]).id == 100
        assert containing_area(m, m.nodes[nid].position) == 100


def test_room_description_null_summarizer(bare_map):
    rec = {"area_id": 101, "descriptions": ["a lab with robot arms"]}
    m, _, _ = _ingest_one(bare_map, "room_descriptions", rec)
    assert m.areas[101].description == "a lab with robot arms"


def test_room_description_null_summarizer_truncates(bare_map):
    long_text = "x" * 900
    m, _, _ = _ingest_one(bare_map, "room_descriptions", {"area_id": 101, "descriptions": [long_text]})
    assert len(m.areas[101].description) == 500


def test_room_description_scripted_summarizer(bare_map):
    rec = {"area_id": 101, "descriptions": ["first image", "second image"]}
    backend = ScriptedBackend({})
    req = CompletionRequest(
        system_text="Summarize room descriptions into one compact paragraph.",
        user_text="first image second image",
    )
    backend.record(req, "a tidy meeting room")
    m, _, _ = _ingest_one(bare_map, "room_descriptions", rec, backend)
    assert m.areas[101].description == "a tidy meeting room"


class _FailingBackend(TextBackend):
    kind = "failing"

    def complete_text(self, req):
        raise BackendUnavailableError("timeout")


def test_summarizer_failure_leaves_map_unchanged(bare_map):
    before = serialize_osmag(bare_map)
    with pytest.raises(BackendUnavailableError):
        _ingest_one(
            bare_map, "room_descriptions", {"area_id": 101, "descriptions": ["anything"]}, _FailingBackend()
        )
    assert serialize_osmag(bare_map) == before


def test_ingest_copies_map_once_and_leaves_input_unchanged(bare_map, monkeypatch):
    from osmag_nav.fixtures import five_room_records

    copies = []
    original = SemanticMap.copy

    def counting_copy(self):
        copies.append(self)
        return original(self)

    monkeypatch.setattr(SemanticMap, "copy", counting_copy)
    before = serialize_osmag(bare_map)
    m, report = ingest(bare_map, five_room_records())
    assert report.total_applied > 1
    assert copies == [bare_map]
    assert serialize_osmag(bare_map) == before
    assert serialize_osmag(m) != before


def _payload_inside(m: SemanticMap, seed: int) -> dict:
    """Records at random points inside every area, with distinct labels, plus
    one orphan of each node kind and a description of a missing area."""
    rng = random.Random(seed)
    instances, viewpoints, descriptions = [], [], []
    for area in sorted(m.areas.values(), key=lambda a: a.id):
        ring = m.area_ring_metric(area)
        x0, x1 = min(x for x, _ in ring) + 0.3, max(x for x, _ in ring) - 0.3
        y0, y1 = min(y for _, y in ring) + 0.3, max(y for _, y in ring) - 0.3
        for _ in range(rng.randint(1, 3)):
            label = f"thing {len(instances)}"
            instances.append({"label": label, "x": rng.uniform(x0, x1), "y": rng.uniform(y0, y1)})
        viewpoints.append(
            {"x": rng.uniform(x0, x1), "y": rng.uniform(y0, y1), "observed": [f"seen {area.id}", "sign"]}
        )
        descriptions.append({"area_id": area.id, "descriptions": [f"room {area.id}", "tidy"]})
    instances.insert(1, {"label": "ghost", "x": -100.0, "y": -100.0})
    viewpoints.append({"x": -100.0, "y": -100.0, "observed": ["ghost"]})
    descriptions.append({"area_id": 999999, "descriptions": ["nowhere"]})
    return {"instances": instances, "viewpoints": viewpoints, "room_descriptions": descriptions}


@pytest.mark.parametrize(
    "m",
    [mapgen.minimal_map(), mapgen.two_room_map(), mapgen.nested_map(), mapgen.corridor_map()]
    + [mapgen.synthetic_map(seed) for seed in range(4)],
    ids=["minimal", "two_room", "nested", "corridor"] + [f"synthetic{seed}" for seed in range(4)],
)
def test_one_payload_equals_single_record_payloads(m):
    payload = _payload_inside(m, seed=0)
    whole, report = ingest(m, payload)
    assert report.merged_instances == 0
    assert report.total_skipped == 3
    step = m
    for section in ("instances", "viewpoints", "room_descriptions"):
        for record in payload[section]:
            step, _ = ingest(step, {section: [record]})
    assert serialize_osmag(whole) == serialize_osmag(step)


def test_ingest_counts(bare_map):
    # 10 instances + 4 viewpoints, all inside rooms
    payload = {
        "instances": [
            {"label": f"thing {i}", "x": 1.0 + 2.0 * i, "y": 8.0} for i in range(10)
        ],
        "viewpoints": [
            {"x": 2.0 + 4.0 * i, "y": 12.0, "heading_deg": 0.0, "observed": ["misc"]}
            for i in range(4)
        ],
    }
    m, report = ingest(bare_map, payload)
    assert report.total_applied == 14
    assert report.total_skipped == 0
    assert len(m.nodes) == len(bare_map.nodes) + 14


def test_ingest_orphan_skipped_with_reason(bare_map):
    payload = {"instances": [{"label": "ghost", "x": -50.0, "y": -50.0}]}
    m, report = ingest(bare_map, payload)
    assert report.applied["instances"] == 0
    assert report.skipped["instances"] == 1
    assert any("ghost" in reason for reason in report.reasons)
    assert report.reasons == ["instance 'ghost' at (-50.00, -50.00) lies outside every area"]
    assert serialize_osmag(m) == serialize_osmag(bare_map)


def test_instance_beyond_the_globe_is_orphan(bare_map):
    m, report, new = _ingest_one(bare_map, "instances", {"label": "sink", "x": 1e308, "y": 1e308})
    assert report.skipped["instances"] == 1
    assert "lies outside every area" in report.reasons[0]
    assert len(report.reasons[0]) < 80, report.reasons[0]
    assert new == []


def test_ingest_empty_records_is_identity(bare_map):
    m, report = ingest(bare_map, {})
    assert report.total_applied == 0
    assert serialize_osmag(m) == serialize_osmag(bare_map)


def test_ingest_schema_violation_aborts_before_mutation(bare_map):
    payload = {"instances": [{"label": "ok", "x": 8.0, "y": 1.0}], "bogus_section": []}
    with pytest.raises(EnrichmentError):
        ingest(bare_map, payload)
    payload = {"instances": [{"label": "ok"}]}  # missing coordinates
    with pytest.raises(EnrichmentError):
        ingest(bare_map, payload)


@pytest.mark.parametrize(
    "section, record, wanted",
    [
        ("viewpoints", {"x": 8.0, "y": 1.0, "observed": "sink"}, "bad viewpoint record #0"),
        ("room_descriptions", {"area_id": 105, "descriptions": "abc"}, "bad room description record #0"),
    ],
)
def test_string_where_list_belongs_rejected(bare_map, section, record, wanted):
    payload = {"instances": [{"label": "ok", "x": 8.0, "y": 1.0}], section: [record]}
    with pytest.raises(EnrichmentError, match=wanted):
        ingest(bare_map, payload)


def test_ingest_merges_close_duplicates(bare_map):
    payload = {
        "instances": [
            {"label": "kettle", "x": 8.0, "y": 2.0},
            {"label": "kettle", "x": 8.0 + DEFAULT_MERGE_RADIUS_M * 0.5, "y": 2.0},
            {"label": "kettle", "x": 8.0, "y": 5.0},  # far: stays separate
        ]
    }
    m, report = ingest(bare_map, payload)
    assert report.merged_instances == 1
    assert report.applied["instances"] == 2


def test_ingest_is_additive_and_valid(bare_map):
    from osmag_nav.fixtures import five_room_records

    m, report = ingest(bare_map, five_room_records())
    assert set(m.areas) == set(bare_map.areas)
    assert set(m.passages) == set(bare_map.passages)
    added_nodes = report.applied["instances"] + report.applied["viewpoints"]
    assert len(m.nodes) == len(bare_map.nodes) + added_nodes
    assert validate(m) == []


def test_ingest_order_deterministic(bare_map):
    from osmag_nav.fixtures import five_room_records

    payload = five_room_records()
    a, _ = ingest(bare_map, payload)
    b, _ = ingest(bare_map, payload)
    assert serialize_osmag(a) == serialize_osmag(b)
