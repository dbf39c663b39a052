"""Turns offline perception records into semantic-osmAG nodes and room tags.

Instance centroids become object-nodes, camera poses with their observed
object lists become viewpoint-nodes, and per-room image descriptions are
joined into a room-description tag of at most ``DESCRIPTION_LIMIT``
characters. Records arrive in the metric map frame; conversion to lat/lon
happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fields import build, check
from .geometry import MAX_SUPPORTED_LAT, GeometryError, MetricPoint
from .osmag import (
    DESCRIPTION_KEY,
    OBJECT_KEY,
    OBSERVED_KEY,
    OBSERVED_SEPARATOR,
    PARENT_KEY,
    AreaTable,
    MapNode,
    OsmagError,
    SemanticMap,
    containing_area_metric,
)

# Two same-label instance records closer than this merge into one node;
# the offline instance extractor can double-count across frames.
DEFAULT_MERGE_RADIUS_M = 0.5

# A room-description tag keeps at most this many characters.
DESCRIPTION_LIMIT = 500


class EnrichmentError(OsmagError):
    """A record cannot be applied, for example because it lies outside
    every mapped area."""


@dataclass(frozen=True)
class InstanceRecord:
    label: str
    centroid: MetricPoint
    source: str = ""

    def __post_init__(self) -> None:
        if not self.label.strip():
            raise EnrichmentError("instance record needs a non-empty label")


@dataclass(frozen=True)
class ViewpointRecord:
    capture_pose: MetricPoint
    heading_deg: float
    observed: tuple[str, ...]


@dataclass(frozen=True)
class RoomDescriptionRecord:
    area_id: int
    descriptions: tuple[str, ...]


@dataclass
class IngestReport:
    applied: dict[str, int] = field(default_factory=lambda: {"instances": 0, "viewpoints": 0, "room_descriptions": 0})
    skipped: dict[str, int] = field(default_factory=lambda: {"instances": 0, "viewpoints": 0, "room_descriptions": 0})
    merged_instances: int = 0
    reasons: list[str] = field(default_factory=list)

    @property
    def total_applied(self) -> int:
        return sum(self.applied.values())

    @property
    def total_skipped(self) -> int:
        return sum(self.skipped.values())


def _add_node(
    m: SemanticMap, table: AreaTable, nid: int, where: MetricPoint, key: str, value: str, what: str
) -> None:
    """Insert semantic node ``nid`` into ``m`` in place, parented to the area
    of ``table`` (an :class:`AreaTable` of ``m``) containing ``where``."""
    try:
        area_id = containing_area_metric(m, where, table)
    except GeometryError:
        if abs(m.projection_origin.lat) >= MAX_SUPPORTED_LAT:
            raise  # the map itself cannot be projected
        area_id = None  # no latitude/longitude represents the point
    if area_id is None:
        at = ", ".join(f"{v:.2f}" if abs(v) < 1e9 else f"{v:.3g}" for v in (where.x, where.y))
        raise EnrichmentError(f"{what} at ({at}) lies outside every area")
    m.nodes[nid] = MapNode(nid, m.metric_to_geo(where), {key: value, PARENT_KEY: str(area_id)})


def _describe_room(m: SemanticMap, rec: RoomDescriptionRecord) -> None:
    """Set the room-description tag of ``m`` in place: the per-image
    descriptions joined by spaces, cut to ``DESCRIPTION_LIMIT`` characters."""
    if rec.area_id not in m.areas:
        raise EnrichmentError(f"room description references missing area {rec.area_id}")
    m.areas[rec.area_id].tags[DESCRIPTION_KEY] = " ".join(rec.descriptions)[:DESCRIPTION_LIMIT]


def _merge_instances(records: list[InstanceRecord]) -> tuple[list[InstanceRecord], int]:
    """Greedy same-label merge; merged record sits at the member mean."""
    merged: list[list[InstanceRecord]] = []
    by_label: dict[str, list[list[InstanceRecord]]] = {}  # the groups of each label, oldest first
    for rec in records:
        groups = by_label.setdefault(rec.label, [])
        for group in groups:
            cx = sum(g.centroid.x for g in group) / len(group)
            cy = sum(g.centroid.y for g in group) / len(group)
            if math.hypot(rec.centroid.x - cx, rec.centroid.y - cy) < DEFAULT_MERGE_RADIUS_M:
                group.append(rec)
                break
        else:
            merged.append([rec])
            groups.append(merged[-1])
    out = []
    merges = 0
    for group in merged:
        if len(group) == 1:
            out.append(group[0])
            continue
        merges += len(group) - 1
        cx = sum(g.centroid.x for g in group) / len(group)
        cy = sum(g.centroid.y for g in group) / len(group)
        out.append(InstanceRecord(group[0].label, MetricPoint(cx, cy), group[0].source))
    return out, merges


def parse_records(payload: dict) -> tuple[
    list[InstanceRecord], list[ViewpointRecord], list[RoomDescriptionRecord]
]:
    """Check and materialize a records payload, before any mutation; a value
    its schema forbids raises :class:`EnrichmentError` naming the record and
    the field."""
    check(payload, "records.schema.json", "records", EnrichmentError)
    instances = [
        build(InstanceRecord, "records", EnrichmentError, f"instances[{i}]", label=item["label"],
              centroid=MetricPoint(float(item["x"]), float(item["y"])), source=item.get("source", ""))
        for i, item in enumerate(payload.get("instances", []))
    ]
    viewpoints = [
        ViewpointRecord(MetricPoint(float(item["x"]), float(item["y"])), float(item.get("heading_deg", 0.0)),
                        tuple(item["observed"]))
        for item in payload.get("viewpoints", [])
    ]
    descriptions = [
        RoomDescriptionRecord(item["area_id"], tuple(item["descriptions"]))
        for item in payload.get("room_descriptions", [])
    ]
    return instances, viewpoints, descriptions


def ingest(m: SemanticMap, records: dict) -> tuple[SemanticMap, IngestReport]:
    """Apply a parsed records payload to one copy of ``m``.

    Instances, then viewpoints, then room descriptions, each in file order,
    are written in place to that copy; ``m`` itself is never written. Orphan
    records are skipped with a recorded reason; a schema violation aborts
    before any record is applied.
    """
    instances, viewpoints, descriptions = parse_records(records)
    report = IngestReport()

    instances, report.merged_instances = _merge_instances(instances)

    out = m.copy()
    # Areas do not change below, and no new id is one a ring names, so one
    # table serves every record; ids count up from the first free one.
    table = AreaTable(out)
    next_id = out.next_free_node_id()

    def add_node(*args) -> None:
        nonlocal next_id
        _add_node(out, table, next_id, *args)
        next_id += 1

    def apply(section: str, step, *args) -> None:
        try:
            step(*args)
        except EnrichmentError as exc:
            report.skipped[section] += 1
            report.reasons.append(str(exc))
        else:
            report.applied[section] += 1

    for rec in instances:
        apply("instances", add_node, rec.centroid, OBJECT_KEY, rec.label, f"instance '{rec.label}'")
    for rec in viewpoints:
        apply(
            "viewpoints", add_node, rec.capture_pose,
            OBSERVED_KEY, OBSERVED_SEPARATOR.join(rec.observed), "viewpoint",
        )
    for rec in descriptions:
        apply("room_descriptions", _describe_room, out, rec)
    return out, report
