"""Data model, parser, canonical serializer, and validator for semantic-osmAG.

The wire format is an OSM XML subset: ``<node>``, ``<way>``, ``<nd ref>``,
``<tag k v>``. Ways tagged ``osmAG:type=area`` are polygonal rooms; ways
tagged ``osmAG:type=passage`` are traversable connections (doors) between two
areas. Nodes may carry object semantics (``semantic_osmAG:object_name``) or
viewpoint semantics (``semantic_osmAG:observed_object``). A ``parent`` tag on
nodes and areas encodes the containment hierarchy.
"""

from __future__ import annotations

import itertools
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from xml.sax.saxutils import quoteattr

from .geometry import (
    BOUNDARY_TOL_DEG,
    MAX_SUPPORTED_LAT,
    GeoPoint,
    MetricPoint,
    on_ring_boundary,
    point_in_ring,
    project,
    ring_is_simple,
    unproject,
)

TYPE_KEY = "osmAG:type"
TYPE_AREA = "area"
TYPE_PASSAGE = "passage"
PARENT_KEY = "parent"
NAME_KEY = "name"
LEVEL_KEY = "osmAG:level"
FROM_KEY = "osmAG:from"
TO_KEY = "osmAG:to"
OBJECT_KEY = "semantic_osmAG:object_name"
OBSERVED_KEY = "semantic_osmAG:observed_object"
DESCRIPTION_KEY = "semantic_osmAG:room_description"

# semicolon-separated list convention for observed-object tag values
OBSERVED_SEPARATOR = ";"

# degree-space tolerance for a passage endpoint on an area's boundary
PASSAGE_TOL_DEG = 1e-7

# an area reference that names an id
_AREA_ID = re.compile(r"-?\d+")


class OsmagError(Exception):
    """Base error for map parsing/handling."""


class MapParseError(OsmagError):
    def __init__(self, message: str, element_id: int | None = None, line: int | None = None):
        ctx = []
        if element_id is not None:
            ctx.append(f"element id {element_id}")
        if line is not None:
            ctx.append(f"line {line}")
        suffix = f" ({', '.join(ctx)})" if ctx else ""
        super().__init__(message + suffix)
        self.element_id = element_id
        self.line = line


@dataclass(frozen=True)
class Violation:
    element_id: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] element {self.element_id}: {self.message}"


@dataclass
class MapNode:
    id: int
    position: GeoPoint
    tags: dict[str, str] = field(default_factory=dict)

    @property
    def object_name(self) -> str | None:
        return self.tags.get(OBJECT_KEY)

    @property
    def observed_objects(self) -> list[str]:
        raw = self.tags.get(OBSERVED_KEY)
        if raw is None:
            return []
        return [part.strip() for part in raw.split(OBSERVED_SEPARATOR) if part.strip()]

    @property
    def is_semantic(self) -> bool:
        return OBJECT_KEY in self.tags or OBSERVED_KEY in self.tags


@dataclass
class Area:
    id: int
    ring: list[int]  # open ring: first vertex is NOT repeated in memory
    tags: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str | None:
        return self.tags.get(NAME_KEY)

    @property
    def level(self) -> str | None:
        return self.tags.get(LEVEL_KEY)

    @property
    def description(self) -> str | None:
        return self.tags.get(DESCRIPTION_KEY)


@dataclass
class Passage:
    id: int
    segment: list[int]
    connects: tuple[int, int]
    tags: dict[str, str] = field(default_factory=dict)


class SemanticMap:
    """Immutable-by-convention semantic-osmAG map.

    Mutation happens only inside ``enrichment.ingest``, on the one copy it
    makes per call; all other code treats instances as read-only and safe to
    share. A copy has its own element dicts and its own areas, rings and
    area tags, but shares its :class:`MapNode` and :class:`Passage` objects
    with the original. So a node or a passage is never edited in place: one
    that changes is replaced in its dict by a new object.
    """

    def __init__(
        self,
        nodes: dict[int, MapNode],
        areas: dict[int, Area],
        passages: dict[int, Passage],
        projection_origin: GeoPoint,
    ):
        self.nodes = nodes
        self.areas = areas
        self.passages = passages
        self.projection_origin = projection_origin

    def copy(self) -> "SemanticMap":
        areas = {i: Area(a.id, list(a.ring), dict(a.tags)) for i, a in self.areas.items()}
        return SemanticMap(dict(self.nodes), areas, dict(self.passages), self.projection_origin)

    # -- lookup helpers -------------------------------------------------

    def next_free_node_id(self) -> int:
        """One more than every element id and every node id that an area ring
        or a passage segment names, so a new node never fills a dangling
        reference."""
        rings = (nid for area in self.areas.values() for nid in area.ring)
        segments = (nid for passage in self.passages.values() for nid in passage.segment)
        return max(itertools.chain(self.nodes, self.areas, self.passages, rings, segments), default=0) + 1

    def resolve_area(self, ref: str | None) -> Area | None:
        """Resolve an area reference by id string, falling back to a unique name."""
        if ref is None:
            return None
        text = ref.strip()
        if _AREA_ID.fullmatch(text):
            area = self.areas.get(int(text))
            if area is not None:
                return area
        named = [a for a in self.areas.values() if a.tags.get(NAME_KEY) == text]
        if len(named) == 1:
            return named[0]
        return None

    def node_parent_area(self, node: MapNode) -> Area | None:
        return self.resolve_area(node.tags.get(PARENT_KEY))

    def area_parents(self) -> dict[int, int | None]:
        """Each area's parent area id, in area order; None where the
        ``parent`` tag is missing or does not resolve. Each distinct
        reference is resolved once."""
        resolved: dict[str | None, int | None] = {}
        out: dict[int, int | None] = {}
        for area in self.areas.values():
            ref = area.tags.get(PARENT_KEY)
            if ref not in resolved:
                parent = self.resolve_area(ref)
                resolved[ref] = None if parent is None else parent.id
            out[area.id] = resolved[ref]
        return out

    def area_ring_geo(self, area: Area) -> list[tuple[float, float]]:
        """Area ring as (lon, lat) vertex tuples; missing nodes are skipped."""
        out = []
        for nid in area.ring:
            node = self.nodes.get(nid)
            if node is not None:
                out.append((node.position.lon, node.position.lat))
        return out

    def area_ring_metric(self, area: Area) -> list[tuple[float, float]]:
        out = []
        for nid in area.ring:
            node = self.nodes.get(nid)
            if node is not None:
                p = project(node.position, self.projection_origin)
                out.append((p.x, p.y))
        return out

    def semantic_nodes(self) -> list[MapNode]:
        """Every object and viewpoint node of the map, in id order."""
        return sorted((n for n in self.nodes.values() if n.is_semantic), key=lambda n: n.id)

    def node_metric(self, node_id: int) -> MetricPoint:
        return project(self.nodes[node_id].position, self.projection_origin)

    def metric_to_geo(self, p: MetricPoint) -> GeoPoint:
        return unproject(p, self.projection_origin)


# ---------------------------------------------------------------------------
# parsing


def _line_of(xml_text: str, pattern: str) -> int | None:
    m = re.search(pattern, xml_text)
    if m is None:
        return None
    return xml_text.count("\n", 0, m.start()) + 1


def _id_line(xml_text: str, element_id: int) -> int | None:
    return _line_of(xml_text, rf"""<(?:node|way)\b[^>]*\bid=["']{element_id}["']""")


def _int_attr(el: ET.Element, attr: str, xml_text: str) -> int:
    raw = el.get(attr, "0")
    try:
        return int(raw)
    except ValueError:
        line = _line_of(xml_text, rf"""<{el.tag}\b[^>]*\b{attr}=["']{re.escape(raw)}["']""")
        raise MapParseError(f"<{el.tag}> {attr} '{raw}' is not an integer", line=line) from None


def parse_osmag(xml_text: str) -> SemanticMap:
    """Parse an osmAG XML document into a :class:`SemanticMap`.

    Raises :class:`MapParseError` with the offending element id and the line
    where it is declared for malformed XML, non-integer ids and references,
    dangling ``<nd>`` references, duplicate ids, and ways without an
    ``osmAG:type`` tag.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise MapParseError(f"malformed XML: {exc}", line=line) from exc

    nodes: dict[int, MapNode] = {}
    ways: list[tuple[int, list[int], dict[str, str]]] = []
    seen_ids: set[int] = set()

    for el in root:
        if el.tag == "node":
            nid = _int_attr(el, "id", xml_text)
            if nid in seen_ids:
                raise MapParseError("duplicate id", element_id=nid, line=_id_line(xml_text, nid))
            seen_ids.add(nid)
            tags = {t.get("k", ""): t.get("v", "") for t in el.findall("tag")}
            try:
                pos = GeoPoint(float(el.get("lat", "nan")), float(el.get("lon", "nan")))
            except ValueError as exc:
                raise MapParseError(
                    f"bad node coordinates: {exc}", element_id=nid, line=_id_line(xml_text, nid)
                ) from exc
            nodes[nid] = MapNode(nid, pos, tags)
        elif el.tag == "way":
            wid = _int_attr(el, "id", xml_text)
            if wid in seen_ids:
                raise MapParseError("duplicate id", element_id=wid, line=_id_line(xml_text, wid))
            seen_ids.add(wid)
            refs = [_int_attr(nd, "ref", xml_text) for nd in el.findall("nd")]
            tags = {t.get("k", ""): t.get("v", "") for t in el.findall("tag")}
            ways.append((wid, refs, tags))

    areas: dict[int, Area] = {}
    passages_raw: list[tuple[int, list[int], dict[str, str]]] = []

    for wid, refs, tags in ways:
        for ref in refs:
            if ref not in nodes:
                line = _line_of(xml_text, rf"""<nd\b[^>]*\bref=["']{ref}["']""")
                raise MapParseError(
                    f"way {wid} references undeclared node id {ref}",
                    element_id=ref,
                    line=line,
                )
        way_type = tags.get(TYPE_KEY)
        if way_type == TYPE_AREA:
            ring = refs[:-1] if len(refs) >= 2 and refs[0] == refs[-1] else list(refs)
            areas[wid] = Area(wid, ring, tags)
        elif way_type == TYPE_PASSAGE:
            passages_raw.append((wid, refs, tags))
        else:
            raise MapParseError(
                f"way is missing a recognized '{TYPE_KEY}' tag",
                element_id=wid,
                line=_id_line(xml_text, wid),
            )

    origin = _parse_origin(root, nodes, xml_text)
    partial = SemanticMap(nodes, areas, {}, origin)

    passages: dict[int, Passage] = {}
    for wid, refs, tags in passages_raw:
        connects = _passage_connects(partial, wid, refs, tags, xml_text)
        passages[wid] = Passage(wid, refs, connects, tags)

    return SemanticMap(nodes, areas, passages, origin)


def _parse_origin(root: ET.Element, nodes: dict[int, MapNode], xml_text: str) -> GeoPoint:
    lat_attr, lon_attr = root.get("origin_lat"), root.get("origin_lon")
    if lat_attr is not None and lon_attr is not None:
        try:
            return GeoPoint(float(lat_attr), float(lon_attr))
        except ValueError as exc:  # also GeometryError: a number off the globe
            raise MapParseError(f"bad map origin: {exc}", line=_line_of(xml_text, rf"<{root.tag}\b")) from exc
    if not nodes:
        return GeoPoint(0.0, 0.0)
    return GeoPoint(
        min(n.position.lat for n in nodes.values()),
        min(n.position.lon for n in nodes.values()),
    )


def _passage_connects(
    partial: SemanticMap,
    wid: int,
    refs: list[int],
    tags: dict[str, str],
    xml_text: str,
) -> tuple[int, int]:
    src = partial.resolve_area(tags.get(FROM_KEY))
    dst = partial.resolve_area(tags.get(TO_KEY))
    if src is not None and dst is not None:
        return (src.id, dst.id)
    # No (or unresolvable) from/to tags: infer the two areas whose boundary
    # carries the passage endpoints.
    touching = []
    endpoints = [refs[0], refs[-1]] if refs else []
    for area in sorted(partial.areas.values(), key=lambda a: a.id):
        ring = partial.area_ring_geo(area)
        if len(ring) < 3:
            continue
        points = [partial.nodes[e].position for e in endpoints]
        if all(on_ring_boundary(q.lon, q.lat, ring, PASSAGE_TOL_DEG) for q in points):
            touching.append(area.id)
    if len(touching) >= 2:
        return (touching[0], touching[1])
    raise MapParseError(
        "passage does not resolve to two connected areas "
        f"(tags {FROM_KEY}/{TO_KEY} missing or endpoints off any shared boundary)",
        element_id=wid,
        line=_id_line(xml_text, wid),
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt(value: float) -> str:
    # 9 decimal places cover the 1e-9 degree round-trip contract (~0.1 mm)
    # and re-round stably, keeping canonical output a fixed point.
    text = f"{float(value):.9f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


# the characters quoteattr escapes; a string without them is quoted as it is
_ESCAPED = re.compile(r'[&<>"\n\r\t]')


def _quote(text: str) -> str:
    return quoteattr(text) if _ESCAPED.search(text) else f'"{text}"'


def serialize_osmag(m: SemanticMap) -> str:
    """Canonical serialization: elements ordered by id, tags lexicographically.

    ``parse(serialize(m))`` is semantically equal to ``m`` and a second
    serialization is byte-identical (canonical fixed point).
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(
        '<osm version="0.6" generator="osmag-nav"'
        f' origin_lat="{_fmt(m.projection_origin.lat)}"'
        f' origin_lon="{_fmt(m.projection_origin.lon)}">'
    )
    for node in sorted(m.nodes.values(), key=lambda n: n.id):
        attrs = f'id="{node.id}" lat="{_fmt(node.position.lat)}" lon="{_fmt(node.position.lon)}"'
        if node.tags:
            lines.append(f"  <node {attrs}>")
            for k in sorted(node.tags):
                lines.append(f"    <tag k={_quote(k)} v={_quote(node.tags[k])}/>")
            lines.append("  </node>")
        else:
            lines.append(f"  <node {attrs}/>")
    ways: list[tuple[int, list[int], dict[str, str]]] = []
    for area in m.areas.values():
        refs = list(area.ring)
        if refs:
            refs.append(refs[0])  # close the ring on the wire
        ways.append((area.id, refs, dict(area.tags)))
    for p in m.passages.values():
        tags = dict(p.tags)
        tags[FROM_KEY] = str(p.connects[0])
        tags[TO_KEY] = str(p.connects[1])
        ways.append((p.id, list(p.segment), tags))
    for wid, refs, tags in sorted(ways, key=lambda w: w[0]):
        lines.append(f'  <way id="{wid}">')
        for ref in refs:
            lines.append(f'    <nd ref="{ref}"/>')
        for k in sorted(tags):
            lines.append(f"    <tag k={_quote(k)} v={_quote(tags[k])}/>")
        lines.append("  </way>")
    lines.append("</osm>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


def validate(m: SemanticMap) -> list[Violation]:
    """Check every structural invariant; violations are data, not failures."""
    out: list[Violation] = []
    parents = m.area_parents()

    origin_in_band = abs(m.projection_origin.lat) < MAX_SUPPORTED_LAT
    for node in m.nodes.values():
        if OBJECT_KEY in node.tags and OBSERVED_KEY in node.tags:
            out.append(
                Violation(node.id, "semantic-key-conflict",
                          f"node carries both {OBJECT_KEY} and {OBSERVED_KEY}")
            )
        if not (origin_in_band and abs(node.position.lat) < MAX_SUPPORTED_LAT):
            out.append(Violation(node.id, "latitude-out-of-band", f"node or map origin at |lat| >= {MAX_SUPPORTED_LAT}"))

    for area in m.areas.values():
        missing = [nid for nid in area.ring if nid not in m.nodes]
        if missing:
            out.append(Violation(area.id, "dangling-node", f"ring references missing nodes {missing}"))
            continue
        distinct = {
            (m.nodes[nid].position.lat, m.nodes[nid].position.lon) for nid in area.ring
        }
        if len(area.ring) < 3 or len(distinct) < 3:
            out.append(Violation(area.id, "ring-too-small", "ring needs >= 3 distinct vertices"))
            continue
        ring = m.area_ring_geo(area)
        if not ring_is_simple(ring):
            out.append(Violation(area.id, "self-intersecting", "area polygon is not simple"))
        parent_ref = area.tags.get(PARENT_KEY)
        if parent_ref is not None and parents[area.id] is None:
            out.append(Violation(area.id, "parent-missing", f"parent '{parent_ref}' does not resolve"))

    out.extend(_parent_cycles(parents))

    for p in m.passages.values():
        for side in p.connects:
            if side not in m.areas:
                out.append(Violation(p.id, "passage-area-missing", f"connected area {side} missing"))
        if len(p.segment) < 2:
            out.append(Violation(p.id, "passage-too-short", "segment needs >= 2 nodes"))
            continue
        if any(nid not in m.nodes for nid in p.segment):
            out.append(Violation(p.id, "dangling-node", "segment references missing nodes"))
            continue
        for side in p.connects:
            area = m.areas.get(side)
            if area is None:
                continue
            ring = m.area_ring_geo(area)
            if len(ring) < 3:
                continue
            for end in (p.segment[0], p.segment[-1]):
                q = m.nodes[end].position
                if not on_ring_boundary(q.lon, q.lat, ring, PASSAGE_TOL_DEG):
                    out.append(
                        Violation(
                            p.id,
                            "passage-endpoint-off-boundary",
                            f"endpoint node {end} not on boundary of area {side}",
                        )
                    )

    for node in m.nodes.values():
        if not node.is_semantic:
            continue
        parent_ref = node.tags.get(PARENT_KEY)
        if parent_ref is None:
            out.append(Violation(node.id, "node-parent-missing", "semantic node has no parent tag"))
            continue
        parent = m.resolve_area(parent_ref)
        if parent is None:
            out.append(Violation(node.id, "parent-missing", f"parent '{parent_ref}' does not resolve"))
            continue
        ring = m.area_ring_geo(parent)
        if len(ring) >= 3 and not point_in_ring(node.position.lon, node.position.lat, ring):
            out.append(
                Violation(node.id, "node-outside-parent",
                          f"node lies outside parent area {parent.id}")
            )

    return out


def _parent_cycles(parents: dict[int, int | None]) -> list[Violation]:
    out = []
    reported: set[int] = set()
    for area_id in sorted(parents):
        seen: list[int] = []
        current: int | None = area_id
        while current is not None:
            if current in seen:
                cycle = seen[seen.index(current):]
                anchor = min(cycle)
                if anchor not in reported:
                    reported.add(anchor)
                    out.append(
                        Violation(anchor, "parent-cycle",
                                  "parent chain forms a cycle " + "->".join(map(str, cycle)))
                    )
                break
            seen.append(current)
            current = parents[current]
    return out


# ---------------------------------------------------------------------------
# containment


# An area's box in the containment table is widened by this much, so that a
# point within BOUNDARY_TOL_DEG of an edge, which counts as inside, always
# passes the box filter.
_BOX_MARGIN_DEG = 2 * BOUNDARY_TOL_DEG


class AreaTable:
    """The areas of one map, indexed for repeated containment lookups.

    A row is ``(min lon, min lat, max lon, max lat, ring, area id)`` for each
    area whose ring has 3 or more vertices, the box widened by
    ``_BOX_MARGIN_DEG``. A uniform grid of about one cell per row covers the
    boxes, and each cell lists the rows whose box meets it, deepest area
    first (by parent-chain depth), then lower id. So the first row of a
    point's cell whose box and ring hold the point names its containing area.
    The table is a snapshot: it does not follow later changes to the map.
    """

    def __init__(self, m: SemanticMap):
        parents = m.area_parents()

        def depth(area_id: int) -> int:
            # the distinct areas above ``area_id``; a cycle ends the chain
            seen = {area_id}
            while (area_id := parents[area_id]) is not None and area_id not in seen:
                seen.add(area_id)
            return len(seen) - 1

        keyed = []
        for area in m.areas.values():
            ring = m.area_ring_geo(area)
            if len(ring) >= 3:
                lons, lats = zip(*ring)
                row = (min(lons) - _BOX_MARGIN_DEG, min(lats) - _BOX_MARGIN_DEG,
                       max(lons) + _BOX_MARGIN_DEG, max(lats) + _BOX_MARGIN_DEG, ring, area.id)
                keyed.append(((-depth(area.id), area.id), row))
        keyed.sort(key=lambda item: item[0])
        rows = [row for _, row in keyed]
        side = math.isqrt(len(rows)) + 1  # cells per axis
        self.lon0 = min((row[0] for row in rows), default=0.0)
        self.lat0 = min((row[1] for row in rows), default=0.0)
        self.lon_scale = side / (max((row[2] for row in rows), default=1.0) - self.lon0)
        self.lat_scale = side / (max((row[3] for row in rows), default=1.0) - self.lat0)
        self.cells: dict[tuple[int, int], list[tuple]] = {}
        for row in rows:
            (i0, j0), (i1, j1) = self._cell(row[0], row[1]), self._cell(row[2], row[3])
            for cell in itertools.product(range(i0, i1 + 1), range(j0, j1 + 1)):
                self.cells.setdefault(cell, []).append(row)

    def _cell(self, lon: float, lat: float) -> tuple[int, int]:
        # monotonic in each coordinate, so a box's cells hold every point of it
        return int((lon - self.lon0) * self.lon_scale), int((lat - self.lat0) * self.lat_scale)

    def containing(self, p: GeoPoint) -> int | None:
        """Deepest area (by parent-chain depth) whose polygon contains ``p``.

        Even-odd rule; the boundary counts as inside (tolerance
        ``BOUNDARY_TOL_DEG``). Ties on depth break toward the smaller area id.
        """
        lon, lat = p.lon, p.lat
        for x0, y0, x1, y1, ring, area_id in self.cells.get(self._cell(lon, lat), ()):
            if x0 <= lon <= x1 and y0 <= lat <= y1 and point_in_ring(lon, lat, ring, BOUNDARY_TOL_DEG):
                return area_id
        return None


def containing_area_metric(m: SemanticMap, p: MetricPoint, table: AreaTable) -> int | None:
    """:meth:`AreaTable.containing` of a metric point; ``table`` is an
    :class:`AreaTable` of ``m``."""
    return table.containing(unproject(p, m.projection_origin))


def map_size_bytes(m: SemanticMap) -> int:
    return len(serialize_osmag(m).encode("utf-8"))
