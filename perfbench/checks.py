"""Output checks against the generator's ground truth, or against properties
the method must have. Each check returns a list of problems; empty means the
output is correct. Nothing here compares against stored output.
"""

from __future__ import annotations

import math

from gen import Building, in_rect
from osmag_nav.osmag import OBJECT_KEY, OBSERVED_KEY, PARENT_KEY

MAX_ROOMS = 3
MAX_NODES_PER_ROOM = 3
# A detection happens where the robot stopped: within the goal snap radius
# (0.5 m) plus one grid cell diagonal of the node it drove to.
DETECTION_SLACK_M = 0.5 + 0.15
K_THRESHOLDS = (1.0, 2.0, 3.0)
N_VALUES = (1, 5)
APL_RADIUS_M = 1.0
DIR_RADIUS_M = 1.0


def _close(a, b, tol: float = 1e-9) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _rect(b: Building, area_id: int):
    if area_id in b.rooms:
        return b.rooms[area_id].rect
    return b.floor_rect


def check_ingest(expect: dict, report, before, after) -> list[str]:
    """Applied / skipped / merged counts and the room of every new node."""
    out = []
    got = (report.total_applied, report.total_skipped, report.merged_instances)
    want = (expect["applied"], expect["skipped"], expect["merged"])
    if got != want:
        out.append(f"ingest applied/skipped/merged {got}, generator says {want}")
    new_ids = sorted(set(after.nodes) - set(before.nodes))
    if len(new_ids) != len(expect["new_nodes"]):
        out.append(f"ingest added {len(new_ids)} nodes, generator says {len(expect['new_nodes'])}")
        return out
    for nid, (kind, value, room) in zip(new_ids, expect["new_nodes"]):
        tags = after.nodes[nid].tags
        key = OBJECT_KEY if kind == "object" else OBSERVED_KEY
        if tags.get(key) != value or tags.get(PARENT_KEY) != str(room):
            out.append(f"node {nid} is {tags}, generator says {kind} {value!r} in room {room}")
    return out


def check_roundtrip(text: str, reparsed_text: str, violations) -> list[str]:
    out = []
    if violations:
        out.append(f"validate found {len(violations)} violations, first: {violations[0]}")
    if reparsed_text != text:
        out.append("serialize(parse(text)) differs from text")
    return out


def check_plan(b: Building, m, plan, expect_room: int | None = None) -> list[str]:
    """Plan contract: <= 3 rooms, <= 3 nodes each, nodes exist and lie in their room."""
    out = [] if plan.rooms else ["plan has no rooms"]
    out += _plan_contract(b, m, [(room.area_id, room.node_ids) for room in plan.rooms])
    if expect_room is not None and plan.rooms and plan.rooms[0].area_id != expect_room:
        out.append(f"rank-1 room {plan.rooms[0].area_id}, the only node with the label is in {expect_room}")
    return out


def _plan_contract(b: Building, m, rooms: list[tuple[int, list[int]]]) -> list[str]:
    """At most 3 rooms and 3 nodes per room; every node exists and lies in its room."""
    out = []
    if len(rooms) > MAX_ROOMS:
        out.append(f"plan has {len(rooms)} rooms")
    for area_id, node_ids in rooms:
        if len(node_ids) > MAX_NODES_PER_ROOM:
            out.append(f"room {area_id} lists {len(node_ids)} nodes")
        out.extend(p for p in (_node_in_room(b, m, nid, area_id) for nid in node_ids) if p)
    return out


def _node_in_room(b: Building, m, nid: int, area_id: int) -> str:
    node = m.nodes.get(nid)
    if node is None:
        return f"plan node {nid} does not exist"
    if node.tags.get(PARENT_KEY) != str(area_id):
        return f"plan node {nid} has parent {node.tags.get(PARENT_KEY)}, listed under {area_id}"
    p = m.node_metric(nid)
    if not in_rect(p.x, p.y, _rect(b, area_id)):
        return f"plan node {nid} at ({p.x:.2f}, {p.y:.2f}) lies outside room {area_id}"
    return ""


def check_episode(b: Building, m, rec) -> list[str]:
    out = []
    wanted = rec.query_object.strip().lower()
    world = b.world
    gt = [(inst.position.x, inst.position.y) for inst in world.instances if inst.label.strip().lower() == wanted]
    if rec.gt_positions != [[x, y] for x, y in gt]:
        out.append(f"gt_positions {rec.gt_positions} != generator placements {gt}")
    if rec.rank1_room_id is not None:
        inside = any(in_rect(x, y, _rect(b, rec.rank1_room_id)) for x, y in gt)
        if rec.rank1_room_contains_gt != inside:
            out.append(f"rank1_room_contains_gt {rec.rank1_room_contains_gt}, rectangle test says {inside}")
    out += _plan_contract(b, m, [(room["room_id"], room["node_ids"]) for room in rec.plan_rooms])
    order = [nid for room in rec.plan_rooms for nid in room["node_ids"]]
    if [n["node_id"] for n in rec.plan_nodes] != order:
        out.append("plan_nodes do not follow the plan's room-major order")
    for node in rec.plan_nodes:
        want = min((math.hypot(node["x"] - x, node["y"] - y) for x, y in gt), default=None)
        if not _close(node["distance_to_gt"], want):
            out.append(f"node {node['node_id']} distance_to_gt {node['distance_to_gt']} != hypot {want}")
    if not _close(rec.driven_length_m, sum(v.driven_length_m for v in rec.visits)):
        out.append(f"driven_length_m {rec.driven_length_m} != sum of visits")
    if rec.success:
        last = rec.visits[-1]
        det = last.detection
        if last.node_id != rec.success_node_id or det is None or det.matched_instance is None:
            out.append("success without a detection at the success node")
        else:
            inst = world.instances[det.matched_instance]
            p = m.node_metric(rec.success_node_id)
            if inst.label.strip().lower() != wanted:
                out.append(f"matched instance {inst.label!r} for query {rec.query_object!r}")
            reach = math.hypot(inst.position.x - p.x, inst.position.y - p.y)
            if reach > world.sensor.range_m + DETECTION_SLACK_M:
                out.append(f"matched instance {reach:.2f} m from the success node")
            want = min(math.hypot(p.x - x, p.y - y) for x, y in gt)
            if not _close(rec.success_node_distance_m, want):
                out.append(f"success_node_distance_m {rec.success_node_distance_m} != hypot {want}")
    return out


# ---------------------------------------------------------------------------
# report recomputation by plain arithmetic


def _top_n_min(rec, n: int):
    dists = [node["distance_to_gt"] for node in rec.plan_nodes[:n] if node["distance_to_gt"] is not None]
    return min(dists) if dists else None


def _block(records) -> dict:
    total = len(records)

    def share(count: int, base: int) -> float:
        return count / base if base else 0.0

    o_rsr = {}
    for n in N_VALUES:
        row = {}
        for k in K_THRESHOLDS:
            hits = 0
            for rec in records:
                d = _top_n_min(rec, n)
                if d is not None and d <= k:
                    hits += 1
            row[f"{k:g}"] = share(hits, total)
        o_rsr[str(n)] = row
    top5 = [_top_n_min(rec, 5) for rec in records]
    amd_values = [d for d in top5 if d is not None]
    apl_values = [
        rec.driven_length_m
        for rec in records
        if rec.success and rec.success_node_distance_m is not None and rec.success_node_distance_m <= APL_RADIUS_M
    ]
    failed = [rec for rec, d in zip(records, top5) if d is None or d > DIR_RADIUS_M]
    recovered = sum(1 for rec in failed if rec.success)
    return {
        "episodes": total,
        "r_rsr": share(sum(1 for rec in records if rec.rank1_room_contains_gt), total),
        "o_rsr": o_rsr,
        "amd_m": sum(amd_values) / len(amd_values) if amd_values else None,
        "amd_excluded": total - len(amd_values),
        "apl_m": sum(apl_values) / len(apl_values) if apl_values else None,
        "apl_count": len(apl_values),
        "dir": {"all_queries": share(recovered, total), "failed_only": share(recovered, len(failed))},
    }


def recompute_report(records, map_bytes: int) -> dict:
    out = _block(records)
    out["map_size_bytes"] = map_bytes
    out["by_category"] = {
        c: _block([r for r in records if r.category == c]) for c in sorted({r.category for r in records if r.category})
    }
    out["by_granularity"] = {
        g: _block([r for r in records if r.granularity == g]) for g in sorted({r.granularity for r in records})
    }
    return out


def diff(got, want, path: str = "report") -> list[str]:
    """Differences between two JSON-like values; floats compare to 1e-12."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        return [p for key in want for p in diff(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, float) or isinstance(got, float):
        return [] if _close(got, want, 1e-12) else [f"{path}: {got} != {want}"]
    return [] if got == want else [f"{path}: {got} != {want}"]
