from __future__ import annotations

import itertools
import math
import random
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest

import mapgen
import oracles
from osmag_nav import osmag
from osmag_nav.geometry import BOUNDARY_TOL_DEG, GeoPoint, MetricPoint, unproject
from osmag_nav.osmag import (
    Area,
    AreaTable,
    MapNode,
    MapParseError,
    SemanticMap,
    containing_area,
    containing_area_metric,
    map_size_bytes,
    parse_osmag,
    serialize_osmag,
    validate,
)

MINIMAL_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6" generator="test" origin_lat="31.0" origin_lon="121.0">
  <node id="1" lat="31.0" lon="121.0"/>
  <node id="2" lat="31.0" lon="121.00004"/>
  <node id="3" lat="31.00004" lon="121.00004"/>
  <node id="4" lat="31.00004" lon="121.0"/>
  <way id="10">
    <nd ref="1"/>
    <nd ref="2"/>
    <nd ref="3"/>
    <nd ref="4"/>
    <nd ref="1"/>
    <tag k="name" v="single room"/>
    <tag k="osmAG:type" v="area"/>
  </way>
</osm>
"""


def test_parse_minimal_document():
    m = parse_osmag(MINIMAL_DOC)
    assert len(m.areas) == 1
    assert len(m.passages) == 0
    assert len(m.nodes) == 4
    assert m.areas[10].name == "single room"
    # in-memory ring is open: the wire's closing repeat is dropped
    assert m.areas[10].ring == [1, 2, 3, 4]


def test_parse_five_room_fixture(bare_map, enriched_map):
    text = serialize_osmag(enriched_map)
    m = parse_osmag(text)
    assert len(m.areas) == 5
    names = sorted(a.name for a in m.areas.values())
    assert names == [
        "conference room",
        "lounge",
        "professor office",
        "robotics lab",
        "student office",
    ]
    for area in m.areas.values():
        assert area.description, f"area {area.id} lost its room description"
    assert len(m.passages) == 4


def test_dangling_reference_reports_id_and_line():
    doc = MINIMAL_DOC.replace('<nd ref="4"/>', '<nd ref="99"/>')
    with pytest.raises(MapParseError) as err:
        parse_osmag(doc)
    assert "99" in str(err.value)
    assert "line" in str(err.value)


def test_duplicate_id_rejected():
    doc = MINIMAL_DOC.replace('<node id="2"', '<node id="1"', 1)
    with pytest.raises(MapParseError) as err:
        parse_osmag(doc)
    assert "duplicate" in str(err.value)


def test_way_without_type_rejected():
    doc = MINIMAL_DOC.replace('<tag k="osmAG:type" v="area"/>', "")
    with pytest.raises(MapParseError) as err:
        parse_osmag(doc)
    assert "osmAG:type" in str(err.value)


@pytest.mark.parametrize(
    "old, new, line",
    [
        ('<node id="2"', '<node id="abc"', 4),
        ('<way id="10">', '<way id="w10">', 7),
        ('<nd ref="3"/>', '<nd ref="x1"/>', 10),
    ],
)
def test_non_integer_id_reports_line(old, new, line):
    with pytest.raises(MapParseError) as err:
        parse_osmag(MINIMAL_DOC.replace(old, new))
    assert err.value.line == line
    assert "not an integer" in str(err.value)


def test_malformed_xml_rejected():
    with pytest.raises(MapParseError):
        parse_osmag("<osm><node id=1></osm>")


def test_empty_map_serializes_to_header_only():
    m = SemanticMap({}, {}, {}, GeoPoint(0.0, 0.0))
    text = serialize_osmag(m)
    assert text.startswith("<?xml")
    assert "<node" not in text and "<way" not in text
    assert len(text.encode()) < 200


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_round_trip_synthetic(seed):
    m = mapgen.synthetic_map(seed)
    assert validate(m) == []
    text = serialize_osmag(m)
    again = parse_osmag(text)
    assert oracles.maps_semantically_equal(m, again)
    # canonical fixed point
    assert serialize_osmag(again) == text


def test_round_trip_fixture_is_fixed_point(enriched_map):
    first = serialize_osmag(enriched_map)
    second = serialize_osmag(parse_osmag(first))
    assert first == second


def test_enriched_fixture_size(enriched_map):
    size = map_size_bytes(enriched_map)
    assert size < 100 * 1024


def test_validate_clean_fixture(bare_map, enriched_map):
    assert validate(bare_map) == []
    assert validate(enriched_map) == []


def test_copy_shares_nodes_and_passages_but_not_areas(bare_map):
    # demo 01's pattern: edit an area of a copy, and the original keeps its bytes
    before = serialize_osmag(bare_map)
    c = bare_map.copy()
    assert all(c.nodes[i] is n for i, n in bare_map.nodes.items())
    assert all(c.passages[i] is p for i, p in bare_map.passages.items())
    assert all(c.areas[i] is not a for i, a in bare_map.areas.items())
    c.areas[101].tags["parent"] = "does-not-exist"
    c.areas[101].ring.pop()
    nid = c.next_free_node_id()
    c.nodes[nid] = MapNode(nid, bare_map.nodes[min(bare_map.nodes)].position)
    assert serialize_osmag(bare_map) == before
    assert nid not in bare_map.nodes


def test_validate_parent_missing(bare_map):
    m = bare_map.copy()
    m.areas[101].tags["parent"] = "999"
    rules = [v.rule for v in validate(m)]
    assert "parent-missing" in rules


def test_validate_parent_cycle(bare_map):
    m = bare_map.copy()
    m.areas[101].tags["parent"] = "103"
    m.areas[103].tags["parent"] = "101"
    rules = [v.rule for v in validate(m)]
    assert "parent-cycle" in rules


def test_validate_semantic_key_conflict(bare_map):
    m = bare_map.copy()
    nid = m.next_free_node_id()
    inside = unproject(MetricPoint(3.0, 17.0), m.projection_origin)
    m.nodes[nid] = MapNode(
        nid,
        inside,
        {
            "semantic_osmAG:object_name": "chair",
            "semantic_osmAG:observed_object": "chair",
            "parent": "101",
        },
    )
    rules = [v.rule for v in validate(m)]
    assert "semantic-key-conflict" in rules


def test_validate_node_outside_parent(bare_map):
    m = bare_map.copy()
    nid = m.next_free_node_id()
    outside = unproject(MetricPoint(3.0, 3.0), m.projection_origin)  # professor office
    m.nodes[nid] = MapNode(
        nid, outside, {"semantic_osmAG:object_name": "chair", "parent": "101"}
    )
    rules = [v.rule for v in validate(m)]
    assert "node-outside-parent" in rules


def test_validated_map_survives_round_trip(bare_map, enriched_map):
    # soundness: whatever validates cleanly can be serialized and re-parsed
    for m in (bare_map, enriched_map, mapgen.nested_map(), mapgen.two_room_map()):
        assert validate(m) == []
        again = parse_osmag(serialize_osmag(m))
        assert oracles.maps_semantically_equal(m, again)


def test_containing_area_simple(bare_map):
    center = unproject(MetricPoint(3.5, 17.5), bare_map.projection_origin)
    assert containing_area(bare_map, center) == 101
    outside = unproject(MetricPoint(-5.0, -5.0), bare_map.projection_origin)
    assert containing_area(bare_map, outside) is None


def test_containing_area_prefers_deepest():
    m = mapgen.nested_map()
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(0.5, 11.5)
        y = rng.uniform(0.5, 5.5)
        got = containing_area_metric(m, MetricPoint(x, y))
        # brute-force oracle: deepest containing area, ties to smaller id
        containing = []
        for area in m.areas.values():
            ring = m.area_ring_metric(area)
            from osmag_nav.geometry import point_in_ring

            if point_in_ring(x, y, ring, 1e-9):
                containing.append((-oracles.bf_area_depth(m, area), area.id))
        expected = min(containing)[1] if containing else None
        assert got == expected
        assert got in (101, 102)  # never the floor: rooms are deeper


def test_serialize_quotes_tags_as_quoteattr_does(monkeypatch):
    # strings without a character quoteattr escapes skip it; the bytes stay the same
    rng = random.Random(7)
    texts = ["".join(rng.choice("ab ;é'&<>\"\n\r\t") for _ in range(rng.randint(0, 6))) for _ in range(400)]
    assert [osmag._quote(t) for t in texts] == [quoteattr(t) for t in texts]
    m = mapgen.nested_map()
    targets = [*m.nodes.values(), *m.areas.values(), *m.passages.values()]
    for i, text in enumerate(texts):
        targets[i % len(targets)].tags[text + str(i)] = text
    fast = serialize_osmag(m)
    monkeypatch.setattr(osmag, "_quote", quoteattr)
    assert fast == serialize_osmag(m)


def _with_awkward_areas(m: SemanticMap) -> SemanticMap:
    """``m`` plus areas west of it that the tie-breaks decide: nested root
    areas of equal depth in both id orders, a deeper area inside them, a
    two-vertex ring, a ring naming a node the map lacks, two nested areas
    that are each other's parent with a child of the outer one inside both,
    and an area whose parent names another area by its name."""
    m = m.copy()
    ids = itertools.count(m.next_free_node_id())

    def area(x0, y0, x1, y1, tags=(), corners=4, missing=()):
        ring = []
        for x, y in [(x0, y0), (x1, y0), (x1, y1), (x0, y1)][:corners]:
            nid = next(ids)
            m.nodes[nid] = MapNode(nid, unproject(MetricPoint(x, y), m.projection_origin))
            ring.append(nid)
        aid = next(ids)
        m.areas[aid] = Area(aid, ring + list(missing), dict(tags))
        return aid

    outer = area(-30.0, 0.0, -2.0, 10.0)
    area(-25.0, 2.0, -15.0, 8.0)  # inside outer, same depth, higher id: outer wins
    area(-12.0, 2.0, -4.0, 8.0)  # inside the next one, same depth, lower id: wins
    area(-14.0, 1.0, -3.0, 9.0)
    area(-10.0, 3.0, -6.0, 7.0, {"parent": str(outer)})  # deeper: wins inside it
    area(-29.0, 1.0, -27.0, 9.0, corners=2)
    area(-28.0, 12.0, -20.0, 20.0, corners=3, missing=[10**9])
    # a parent cycle puts each of its areas at depth 1, not at the cycle's length
    area(-60.0, 1.0, -52.0, 9.0, {"parent": str(outer)})  # depth 1, lower id: wins over cycle_outer
    cycle_outer = area(-56.0, 0.0, -40.0, 10.0)
    cycle_inner = area(-50.0, 2.0, -42.0, 8.0, {"parent": str(cycle_outer)})  # cycle_outer wins inside it
    m.areas[cycle_outer].tags["parent"] = str(cycle_inner)
    area(-48.0, 3.0, -44.0, 7.0, {"parent": str(cycle_outer)})  # depth 2: wins inside it
    area(-60.0, 12.0, -40.0, 20.0, {"name": "awkward hall"})
    area(-55.0, 13.0, -45.0, 19.0, {"parent": "awkward hall"})  # depth 1: wins inside it
    return m


def _probe_points(m: SemanticMap, rng: np.random.Generator, areas: list[Area]):
    """Seeded probes: the vertices of ``areas``, a point on each edge and
    0.5, 1 and 2 boundary tolerances to either side of them, and points
    strewn over the whole map."""
    for area in areas:
        ring = m.area_ring_geo(area)
        for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
            yield ax, ay
            length = math.hypot(bx - ax, by - ay)
            t = rng.uniform()
            for d in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
                off = d * BOUNDARY_TOL_DEG / length if length else 0.0
                yield ax + t * (bx - ax) + off * (by - ay), ay + t * (by - ay) - off * (bx - ax)
    lons = [n.position.lon for n in m.nodes.values()]
    lats = [n.position.lat for n in m.nodes.values()]
    yield from zip(rng.uniform(min(lons), max(lons), 200), rng.uniform(min(lats), max(lats), 200))


@pytest.mark.parametrize("rooms", [16, 144])
def test_containing_area_matches_oracle(buildings, rooms):
    bare = buildings[rooms].bare
    m = _with_awkward_areas(bare)
    rng = np.random.default_rng(rooms)
    by_id = sorted(bare.areas.values(), key=lambda a: a.id)  # the floor first
    sample = by_id[:1] + [by_id[i] for i in sorted(rng.choice(range(1, len(by_id)), 8, replace=False))]
    sample += [a for a in m.areas.values() if a.id not in bare.areas]
    table = AreaTable(m)
    seen = set()
    for i, (lon, lat) in enumerate(_probe_points(m, rng, sample)):
        p = GeoPoint(lat, lon)
        expected = oracles.bf_containing_area(m, p)
        assert table.containing(p) == expected, (lon, lat)
        if i % 50 == 0:
            assert containing_area(m, p) == expected, (lon, lat)
        seen.add(expected)
    assert None in seen and len(seen) > 10


def test_origin_defaults_to_min_corner():
    doc = MINIMAL_DOC.replace(
        ' origin_lat="31.0" origin_lon="121.0"', ""
    )
    m = parse_osmag(doc)
    assert m.projection_origin.lat == 31.0
    assert m.projection_origin.lon == 121.0


def test_unknown_tags_preserved():
    doc = MINIMAL_DOC.replace(
        '<tag k="name" v="single room"/>',
        '<tag k="name" v="single room"/><tag k="custom:weird" v="kept &amp; escaped"/>',
    )
    m = parse_osmag(doc)
    assert m.areas[10].tags["custom:weird"] == "kept & escaped"
    again = parse_osmag(serialize_osmag(m))
    assert again.areas[10].tags["custom:weird"] == "kept & escaped"


def test_passage_connects_inferred_without_tags():
    m = mapgen.two_room_map()
    text = serialize_osmag(m)
    stripped = text.replace('    <tag k="osmAG:from" v="100"/>\n', "").replace(
        '    <tag k="osmAG:to" v="101"/>\n', ""
    )
    again = parse_osmag(stripped)
    assert set(again.passages[150].connects) == {100, 101}
