"""Runs one query end to end: retrieve a plan, drive node to node, detect.

The sensed occupancy persists across legs within an episode (the robot keeps
what it has seen) but never leaks into the stored map or into other episodes.
The episode stops at the first accepted detection; ``success`` is true only
when that detection is a true positive against world ground truth, so a
spurious accept ends the trial as a recorded failure.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TypedDict

import numpy as np

from .detection import DetectionOutcome, DetectionProfile, detect_at_node
from .fields import Fields
from .geometry import MetricPoint, point_in_ring
from .gridworld import DEFAULT_RESOLUTION_M, WorldModel, navigate, render_grid
from .llm import BackendError, TextBackend
from .osmag import SemanticMap
from .retrieval import PlanError, Query, RetrievalPlan, retrieve

# metric-frame tolerance for "instance inside room polygon"
_ROOM_TOL_M = 1e-6


class EpisodeError(Exception):
    pass


@dataclass
class EpisodeConfig:
    map: SemanticMap
    world: WorldModel
    query: Query
    backend: TextBackend
    profile: DetectionProfile
    start: MetricPoint
    seed: int = 0
    map_mode: str = "full"
    grid_resolution_m: float = DEFAULT_RESOLUTION_M
    category: str | None = None  # SO / RO / UO annotation, carried into the record


class PlanNode(TypedDict):
    node_id: int
    room_id: int
    x: float
    y: float
    distance_to_gt: float | None  # None when the world holds no ground-truth instance


@dataclass
class VisitRecord:
    node_id: int
    room_id: int
    reached: bool
    driven_length_m: float
    replans: int
    failure_reason: str | None = None
    detection: DetectionOutcome | None = None


@dataclass
class EpisodeRecord:
    query_object: str
    query_room: str | None
    query_floor: str | None
    granularity: str
    category: str | None
    map_mode: str
    seed: int
    plan_rooms: list[dict] = field(default_factory=list)
    plan_drops: list[str] = field(default_factory=list)
    plan_nodes: list[PlanNode] = field(default_factory=list)
    rank1_room_id: int | None = None
    rank1_room_contains_gt: bool = False
    visits: list[VisitRecord] = field(default_factory=list)
    driven_length_m: float = 0.0
    success: bool = False
    success_node_id: int | None = None
    success_node_distance_m: float | None = None
    gt_positions: list[list[float]] = field(default_factory=list)
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def write_records(records: list[EpisodeRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def read_records(path: str) -> list[EpisodeRecord]:
    """Records of a JSON-lines file, each built from the fields of
    :class:`EpisodeRecord`; a line that breaks them raises
    :class:`EpisodeError` naming the file, the line and the field."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                f = Fields(f"{path} line {lineno}: malformed episode record", EpisodeError)
                out.append(f.dataclass(EpisodeRecord, f.parse(line)))
    return out


def _nearest_gt_distance(p: MetricPoint, gt: list[MetricPoint]) -> float | None:
    if not gt:
        return None
    return min(p.distance_to(g) for g in gt)


def _room_contains_any(m: SemanticMap, room_id: int | None, gt: list[MetricPoint]) -> bool:
    if room_id is None or room_id not in m.areas:
        return False
    ring = m.area_ring_metric(m.areas[room_id])
    if len(ring) < 3:
        return False
    return any(point_in_ring(g.x, g.y, ring, _ROOM_TOL_M) for g in gt)


def _base_record(cfg: EpisodeConfig) -> EpisodeRecord:
    return EpisodeRecord(
        query_object=cfg.query.object,
        query_room=cfg.query.room,
        query_floor=cfg.query.floor,
        granularity=cfg.query.granularity,
        category=cfg.category,
        map_mode=cfg.map_mode,
        seed=cfg.seed,
    )


def run_episode(cfg: EpisodeConfig) -> EpisodeRecord:
    """Retrieve -> navigate node by node (room-major) -> detect at each node.

    Unreachable nodes are skipped with a recorded reason and contribute no
    detection outcome. A retrieval failure (after its one corrective retry)
    yields a failed record with zero visited nodes.
    """
    rng = np.random.default_rng(cfg.seed)
    record = _base_record(cfg)
    gt = [inst.position for _, inst in cfg.world.instances_of(cfg.query.object)]
    record.gt_positions = [[p.x, p.y] for p in gt]

    try:
        plan: RetrievalPlan = retrieve(cfg.map, cfg.query, cfg.backend, cfg.map_mode)
    except (PlanError, BackendError) as exc:
        record.failure_reason = f"retrieval failed: {exc}"
        return record

    record.plan_rooms = [{"room_id": r.area_id, "node_ids": list(r.node_ids)} for r in plan.rooms]
    record.plan_drops = list(plan.drops)
    record.rank1_room_id = plan.rooms[0].area_id if plan.rooms else None
    record.rank1_room_contains_gt = _room_contains_any(cfg.map, record.rank1_room_id, gt)

    flattened = plan.flatten()
    for room_id, node_id in flattened:
        p = cfg.map.node_metric(node_id)
        record.plan_nodes.append(
            {
                "node_id": node_id,
                "room_id": room_id,
                "x": p.x,
                "y": p.y,
                "distance_to_gt": _nearest_gt_distance(p, gt),
            }
        )

    current_grid = render_grid(cfg.map, cfg.grid_resolution_m)
    current = cfg.start

    for room_id, node_id in flattened:
        goal = cfg.map.node_metric(node_id)
        nav = navigate(current_grid, cfg.world, current, goal)
        record.driven_length_m += nav.driven_length
        current_grid = nav.grid_final  # sensed obstacles persist for the episode
        if nav.driven_path:
            last = nav.driven_path[-1]
            current = MetricPoint(last[0], last[1])
        visit = VisitRecord(
            node_id=node_id,
            room_id=room_id,
            reached=nav.reached,
            driven_length_m=nav.driven_length,
            replans=nav.replans,
            failure_reason=nav.failure_reason,
        )
        if not nav.reached:
            record.visits.append(visit)
            continue
        outcome = detect_at_node(
            cfg.world,
            (current.x, current.y),
            cfg.query.object,
            cfg.profile,
            rng,
        )
        visit.detection = outcome
        record.visits.append(visit)
        if outcome.found:
            # First accepted detection ends the search; success only if true.
            if outcome.is_true_positive:
                record.success = True
                record.success_node_id = node_id
                node_p = cfg.map.node_metric(node_id)
                record.success_node_distance_m = _nearest_gt_distance(node_p, gt)
            else:
                record.failure_reason = "stopped on a false-positive detection"
            return record

    if record.failure_reason is None:
        record.failure_reason = "plan exhausted without a detection" if flattened else "plan has no nodes"
    return record
