"""Turns offline perception records into semantic-osmAG nodes and room tags.

Instance centroids become object-nodes, camera poses with their observed
object lists become viewpoint-nodes, and per-room image descriptions are
summarized into a room-description tag. Records arrive in the metric map
frame; conversion to lat/lon happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import llm
from .fields import Fields
from .geometry import MAX_SUPPORTED_LAT, GeometryError, MetricPoint
from .osmag import (
    DESCRIPTION_KEY,
    OBJECT_KEY,
    OBSERVED_KEY,
    OBSERVED_SEPARATOR,
    PARENT_KEY,
    MapNode,
    OsmagError,
    SemanticMap,
    containing_area_metric,
)

# Two same-label instance records closer than this merge into one node;
# the offline instance extractor can double-count across frames.
DEFAULT_MERGE_RADIUS_M = 0.5

# Fallback summarization keeps at most this many characters.
NULL_SUMMARY_LIMIT = 500


class EnrichmentError(OsmagError):
    pass


class OrphanRecordError(EnrichmentError):
    """Record position lies outside every mapped area."""


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

    def __post_init__(self) -> None:
        if not self.observed:
            raise EnrichmentError("viewpoint record needs a non-empty observed list")


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


def _add_node(m: SemanticMap, where: MetricPoint, key: str, value: str, what: str) -> None:
    """Insert one semantic node into ``m`` in place, parented to the area containing ``where``."""
    try:
        area_id = containing_area_metric(m, where)
    except GeometryError:
        if abs(m.projection_origin.lat) >= MAX_SUPPORTED_LAT:
            raise  # the map itself cannot be projected
        area_id = None  # no latitude/longitude represents the point
    if area_id is None:
        at = ", ".join(f"{v:.2f}" if abs(v) < 1e9 else f"{v:.3g}" for v in (where.x, where.y))
        raise OrphanRecordError(f"{what} at ({at}) lies outside every area")
    nid = m.next_free_node_id()
    m.nodes[nid] = MapNode(nid, m.metric_to_geo(where), {key: value, PARENT_KEY: str(area_id)})


def null_summarize(text: str) -> str:
    return text[:NULL_SUMMARY_LIMIT]


def _describe_room(m: SemanticMap, rec: RoomDescriptionRecord, summarizer) -> None:
    """Set the room-description tag of ``m`` in place from summarized per-image descriptions.

    ``summarizer`` is a TextBackend (see the llm module); ``None`` selects the
    null summarizer (first 500 characters of the concatenation). A summarizer
    failure propagates before anything is written.
    """
    if rec.area_id not in m.areas:
        raise EnrichmentError(f"room description references missing area {rec.area_id}")
    joined = " ".join(rec.descriptions)
    if summarizer is None:
        summary = null_summarize(joined)
    else:
        req = llm.CompletionRequest(
            system_text="Summarize room descriptions into one compact paragraph.",
            user_text=joined,
        )
        summary = llm.complete(summarizer, req)
    m.areas[rec.area_id].tags[DESCRIPTION_KEY] = summary


def _merge_instances(records: list[InstanceRecord]) -> tuple[list[InstanceRecord], int]:
    """Greedy same-label merge; merged record sits at the member mean."""
    merged: list[list[InstanceRecord]] = []
    for rec in records:
        target = None
        for group in merged:
            if group[0].label != rec.label:
                continue
            cx = sum(g.centroid.x for g in group) / len(group)
            cy = sum(g.centroid.y for g in group) / len(group)
            if math.hypot(rec.centroid.x - cx, rec.centroid.y - cy) < DEFAULT_MERGE_RADIUS_M:
                target = group
                break
        if target is None:
            merged.append([rec])
        else:
            target.append(rec)
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
    sections = Fields("records", EnrichmentError)
    sections.object(payload, "", allowed=("instances", "viewpoints", "room_descriptions"))

    def items(section: str, kind: str, required: tuple, optional: tuple = ()):
        for i, item in enumerate(sections.array(payload.get(section, []), section)):
            f = Fields(f"bad {kind} record #{i}", EnrichmentError)
            yield f, f.object(item, "", required, required + optional)

    instances = [
        f.build(InstanceRecord, "", label=f.typed(str, item["label"], "label"), centroid=MetricPoint(*f.xy(item, "")),
                source=f.typed(str, item.get("source", ""), "source"))
        for f, item in items("instances", "instance", ("label", "x", "y"), ("source",))
    ]
    viewpoints = [
        f.build(ViewpointRecord, "", capture_pose=MetricPoint(*f.xy(item, "")),
                heading_deg=f.number(item.get("heading_deg", 0.0), "heading_deg"),
                observed=tuple(f.typed(list[str], item["observed"], "observed")))
        for f, item in items("viewpoints", "viewpoint", ("x", "y", "observed"), ("heading_deg",))
    ]
    descriptions = [
        RoomDescriptionRecord(f.integer(item["area_id"], "area_id"),
                              tuple(f.typed(list[str], item["descriptions"], "descriptions")))
        for f, item in items("room_descriptions", "room description", ("area_id", "descriptions"))
    ]
    return instances, viewpoints, descriptions


def ingest(
    m: SemanticMap,
    records: dict,
    summarizer=None,
) -> tuple[SemanticMap, IngestReport]:
    """Apply a parsed records payload to one copy of ``m``.

    Instances, then viewpoints, then room descriptions, each in file order,
    are written in place to that copy; ``m`` itself is never written. Orphan
    records are skipped with a recorded reason; a schema violation aborts
    before any record is applied, and a summarizer failure propagates.
    """
    instances, viewpoints, descriptions = parse_records(records)
    report = IngestReport()

    instances, report.merged_instances = _merge_instances(instances)

    out = m.copy()

    def apply(section: str, step, *args) -> None:
        try:
            step(out, *args)
        except EnrichmentError as exc:
            report.skipped[section] += 1
            report.reasons.append(str(exc))
        else:
            report.applied[section] += 1

    for rec in instances:
        apply("instances", _add_node, rec.centroid, OBJECT_KEY, rec.label, f"instance '{rec.label}'")
    for rec in viewpoints:
        apply(
            "viewpoints", _add_node, rec.capture_pose,
            OBSERVED_KEY, OBSERVED_SEPARATOR.join(rec.observed), "viewpoint",
        )
    for rec in descriptions:
        apply("room_descriptions", _describe_room, rec, summarizer)
    return out, report
