"""Prompt construction, plan parsing, and the deterministic retrieval heuristic.

The LLM sees a coordinate-free text rendering of the map plus a task contract
and must answer with a room-organized JSON plan: at most 3 rooms, at most 3
nodes per room, ordered by decreasing likelihood at both levels. Whatever the
model answers, :func:`parse_plan` enforces those constraints before a plan
reaches navigation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources

from .fields import ConfigError
from .llm import CompletionRequest, TextBackend, complete
from .osmag import MapNode, SemanticMap

TASK_HEADER = "=== TASK ==="
MAP_HEADER = "=== MAP ==="
QUERY_HEADER = "=== QUERY ==="

MAX_ROOMS = 3
MAX_NODES_PER_ROOM = 3
MAP_MODES = ("full", "rooms_only")

CORRECTIVE_INSTRUCTION = (
    "Your previous answer could not be used. Reply with exactly one JSON object "
    'matching {"rooms": [{"room_id": <int>, "room_name": "<str>", "nodes": [<int>, ...]}]} '
    "and use only node and area ids that appear in the map."
)

_AREA_LINE = re.compile(r"^\s*- area (\d+) \((.*?)\)(?: \[floor ([^\]]*)\])?\s*$")
_DESC_LINE = re.compile(r"^\s*description: (.*)$")
_NODE_LINE = re.compile(r'^\s*- node (\d+): (object|observed) "(.*)"\s*$')


class PlanError(Exception):
    pass


class PlanParseError(PlanError):
    """No JSON object could be extracted from the reply."""


class PlanEmptyError(PlanError):
    """JSON was found but no valid room survived validation."""


@dataclass(frozen=True)
class Query:
    object: str
    room: str | None = None
    floor: str | None = None

    def __post_init__(self) -> None:
        if not self.object.strip():
            raise ConfigError("query object must be non-empty")

    @property
    def granularity(self) -> str:
        if self.floor is not None:
            return "orf"
        if self.room is not None:
            return "or"
        return "o"

    def text(self) -> str:
        out = self.object
        if self.room is not None:
            out += f" in the {self.room}"
        if self.floor is not None:
            out += f" on floor {self.floor}"
        return out

    @classmethod
    def from_text(cls, text: str) -> "Query":
        m = re.match(r"^(.*?)(?:\s+in the\s+(.*?))?(?:\s+on floor\s+(\S+))?\s*$", text.strip())
        if m is None:
            return cls(object=text.strip())
        obj, room, floor = m.groups()
        return cls(object=obj.strip(), room=room, floor=floor)


@dataclass
class PlanRoom:
    area_id: int
    node_ids: list[int] = field(default_factory=list)


@dataclass
class RetrievalPlan:
    rooms: list[PlanRoom]
    drops: list[str] = field(default_factory=list)

    def flatten(self) -> list[tuple[int, int]]:
        """Room-major (area_id, node_id) visit order; never interleaves rooms."""
        out = []
        for room in self.rooms:
            for nid in room.node_ids:
                out.append((room.area_id, nid))
        return out

    def to_dict(self) -> dict:
        return {
            "rooms": [{"room_id": r.area_id, "nodes": list(r.node_ids)} for r in self.rooms],
            "drops": list(self.drops),
        }


# ---------------------------------------------------------------------------
# map simplification and prompt building


def _load_template(name: str) -> str:
    return resources.files("osmag_nav").joinpath(f"templates/{name}").read_text(encoding="utf-8")


_SYSTEM_TEMPLATE = _load_template("system_v1.txt")
_TASK_TEMPLATE = _load_template("task_v1.txt")


def simplify_map(m: SemanticMap, mode: str = "full") -> str:
    """Indented, coordinate-free text rendering of the semantic hierarchy.

    ``rooms_only`` omits every object/viewpoint node, keeping only areas and
    their descriptions (the sparse variant for token-constrained deployments).
    ``full`` makes one pass over the semantic nodes, resolving each node's
    parent once, so the cost grows with the map, not with areas x nodes.
    Nodes whose parent does not resolve, or whose area is not reachable from
    a root (a parent cycle), are left out.
    """
    if mode not in MAP_MODES:
        raise ValueError(f"unknown simplify mode '{mode}'")

    children: dict[int | None, list[int]] = {}
    for area in m.areas.values():
        parent = m.area_parent(area)
        children.setdefault(parent.id if parent is not None else None, []).append(area.id)
    for ids in children.values():
        ids.sort()

    nodes_by_area: dict[int, list[MapNode]] = {}
    if mode == "full":
        for node in m.semantic_nodes():
            parent = m.node_parent_area(node)
            if parent is not None:
                nodes_by_area.setdefault(parent.id, []).append(node)

    lines: list[str] = []

    def emit(area_id: int, depth: int) -> None:
        area = m.areas[area_id]
        pad = "  " * depth
        name = area.name or ""
        floor = f" [floor {area.level}]" if area.level is not None else ""
        lines.append(f"{pad}- area {area.id} ({name}){floor}")
        if area.description:
            lines.append(f"{pad}  description: {area.description}")
        for node in nodes_by_area.get(area_id, []):
            if node.object_name is not None:
                lines.append(f'{pad}  - node {node.id}: object "{node.object_name}"')
            else:
                observed = "; ".join(node.observed_objects)
                lines.append(f'{pad}  - node {node.id}: observed "{observed}"')
        for child in children.get(area_id, []):
            emit(child, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)
    return "\n".join(lines)


def build_prompt(m: SemanticMap, query: Query, mode: str = "full") -> CompletionRequest:
    """Three fixed sections: representation explainer (system), task, map; then the query."""
    user_text = (
        _TASK_TEMPLATE.rstrip("\n")
        + "\n\n"
        + MAP_HEADER
        + "\n"
        + simplify_map(m, mode)
        + "\n\n"
        + QUERY_HEADER
        + "\n"
        + query.text()
        + "\n"
    )
    return CompletionRequest(system_text=_SYSTEM_TEMPLATE.rstrip("\n"), user_text=user_text)


# ---------------------------------------------------------------------------
# plan parsing


_DECODER = json.JSONDecoder()


def extract_first_json_object(text: str) -> dict | None:
    """First loadable JSON object in ``text`` (fences/prose tolerated): the
    one that starts at the earliest opening brace where one parses. None when
    none parses, and at the first candidate nested past the recursion limit:
    retrying from each brace inside it would take time quadratic in the reply."""
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
        except RecursionError:
            return None
    return None


def parse_plan(text: str, m: SemanticMap) -> RetrievalPlan:
    """Validate a model reply into a plan that satisfies every plan invariant.

    Rooms beyond 3 and nodes beyond 3 per room are clamped; fabricated ids,
    parent mismatches, and duplicates are dropped. Every drop is recorded for
    audit. Raises :class:`PlanParseError`/:class:`PlanEmptyError` when nothing
    usable remains.
    """
    payload = extract_first_json_object(text)
    if payload is None:
        raise PlanParseError("no JSON object found in reply")

    raw_rooms = payload.get("rooms")
    if not isinstance(raw_rooms, list):
        raise PlanEmptyError("reply JSON has no 'rooms' list")

    drops: list[str] = []
    rooms: list[PlanRoom] = []
    seen_rooms: set[int] = set()
    seen_nodes: set[int] = set()

    if len(raw_rooms) > MAX_ROOMS:
        drops.append(f"clamped to first {MAX_ROOMS} rooms ({len(raw_rooms)} listed)")
    for entry in raw_rooms[:MAX_ROOMS]:
        if not isinstance(entry, dict):
            drops.append(f"room entry is not an object: {entry!r}")
            continue
        area = None
        room_id = entry.get("room_id")
        if isinstance(room_id, int) and not isinstance(room_id, bool):
            area = m.areas.get(room_id)
        if area is None:
            area = m.resolve_area(str(entry.get("room_name", "")))
        if area is None:
            drops.append(f"room does not resolve: {entry.get('room_id')!r}/{entry.get('room_name')!r}")
            continue
        if area.id in seen_rooms:
            drops.append(f"duplicate room {area.id} dropped")
            continue
        seen_rooms.add(area.id)

        node_ids: list[int] = []
        raw_nodes = entry.get("nodes", [])
        if not isinstance(raw_nodes, list):
            drops.append(f"room {area.id}: 'nodes' is not a list")
            raw_nodes = []
        if len(raw_nodes) > MAX_NODES_PER_ROOM:
            drops.append(
                f"room {area.id}: clamped to first {MAX_NODES_PER_ROOM} nodes "
                f"({len(raw_nodes)} listed)"
            )
        for nid in raw_nodes[:MAX_NODES_PER_ROOM]:
            if isinstance(nid, bool) or not isinstance(nid, int):
                drops.append(f"room {area.id}: non-integer node id {nid!r}")
                continue
            node = m.nodes.get(nid)
            if node is None:
                drops.append(f"room {area.id}: node {nid} does not exist")
                continue
            parent = m.node_parent_area(node)
            if parent is None or parent.id != area.id:
                drops.append(f"room {area.id}: node {nid} is not in this room")
                continue
            if nid in seen_nodes:
                drops.append(f"node {nid} listed twice; second occurrence dropped")
                continue
            seen_nodes.add(nid)
            node_ids.append(nid)
        rooms.append(PlanRoom(area.id, node_ids))

    if not rooms:
        raise PlanEmptyError("no valid rooms survived validation: " + "; ".join(drops[-3:]))
    return RetrievalPlan(rooms=rooms, drops=drops)


def retrieve(
    m: SemanticMap, query: Query, backend: TextBackend, mode: str = "full"
) -> RetrievalPlan:
    """build_prompt -> complete -> parse_plan, with one corrective retry."""
    req = build_prompt(m, query, mode)
    reply = complete(backend, req)
    try:
        return parse_plan(reply, m)
    except PlanError:
        retry_req = CompletionRequest(
            system_text=req.system_text,
            user_text=req.user_text + "\n" + CORRECTIVE_INSTRUCTION + "\n",
        )
        reply = complete(backend, retry_req)
        return parse_plan(reply, m)


# ---------------------------------------------------------------------------
# heuristic backend: the in-repo, model-free retrieval oracle


_TOKEN = re.compile(r"[a-z0-9]+")


def normalize_tokens(text: str) -> frozenset[str]:
    """Lowercased alphanumeric tokens with a crude plural fold."""
    out = set()
    for word in _TOKEN.findall(text.lower()):
        if len(word) > 3 and word.endswith("s"):
            word = word[:-1]
        out.add(word)
    return frozenset(out)


def _jaccard(ta: frozenset[str], tb: frozenset[str]) -> float:
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


def token_set_similarity(a: str, b: str) -> float:
    """Jaccard similarity of normalized token sets."""
    return _jaccard(normalize_tokens(a), normalize_tokens(b))


@dataclass
class _PromptArea:
    area_id: int
    name: str
    floor: str | None
    description: str
    nodes: list[tuple[int, str, str]]  # (node_id, kind, value)


def parse_prompt_map(user_text: str) -> tuple[list[_PromptArea], Query]:
    """Recover the simplified map and query from a prompt built by build_prompt."""
    try:
        map_part = user_text.split(MAP_HEADER, 1)[1]
        map_text, query_part = map_part.split(QUERY_HEADER, 1)
    except (IndexError, ValueError) as exc:
        raise PlanParseError("prompt does not contain the expected sections") from exc

    areas: list[_PromptArea] = []
    current: _PromptArea | None = None
    for line in map_text.splitlines():
        am = _AREA_LINE.match(line)
        if am:
            current = _PromptArea(
                area_id=int(am.group(1)),
                name=am.group(2),
                floor=am.group(3),
                description="",
                nodes=[],
            )
            areas.append(current)
            continue
        dm = _DESC_LINE.match(line)
        if dm and current is not None:
            current.description = dm.group(1)
            continue
        nm = _NODE_LINE.match(line)
        if nm and current is not None:
            current.nodes.append((int(nm.group(1)), nm.group(2), nm.group(3)))
    query = Query.from_text(query_part.strip())
    return areas, query


def _node_score(query_tokens: frozenset[str], kind: str, value: str) -> float:
    if kind == "object":
        return _jaccard(query_tokens, normalize_tokens(value))
    items = [part.strip() for part in value.split(";") if part.strip()]
    return max((_jaccard(query_tokens, normalize_tokens(item)) for item in items), default=0.0)


def heuristic_plan(areas: list[_PromptArea], query: Query) -> dict:
    """Similarity-ranked plan over prompt areas; pure function of its inputs."""
    candidates = areas
    if query.floor is not None:
        matching = [a for a in areas if a.floor == query.floor]
        if matching:
            candidates = matching

    # the query is tokenized once; only map texts are tokenized per area
    wanted = normalize_tokens(query.object)
    room = normalize_tokens(query.room) if query.room is not None else None
    scored = []
    for area in candidates:
        node_scores = [
            (_node_score(wanted, kind, value), nid) for nid, kind, value in area.nodes
        ]
        best_node = max((s for s, _ in node_scores), default=0.0)
        desc = _jaccard(wanted, normalize_tokens(area.description))
        score = max(best_node, desc)
        if room is not None:
            score += 2.0 * _jaccard(room, normalize_tokens(area.name))
        scored.append((score, area, node_scores))

    scored.sort(key=lambda item: (-item[0], item[1].area_id))
    rooms = []
    for score, area, node_scores in scored[:MAX_ROOMS]:
        ranked = sorted(node_scores, key=lambda sn: (-sn[0], sn[1]))
        rooms.append(
            {
                "room_id": area.area_id,
                "room_name": area.name,
                "nodes": [nid for _, nid in ranked[:MAX_NODES_PER_ROOM]],
            }
        )
    return {"rooms": rooms}


class HeuristicBackend(TextBackend):
    """Deterministic stand-in LLM: answers retrieval prompts with a plan
    computed by token-set similarity over the map text embedded in the prompt."""

    kind = "heuristic"

    def complete_text(self, req: CompletionRequest) -> str:
        areas, query = parse_prompt_map(req.user_text)
        plan = heuristic_plan(areas, query)
        return json.dumps(plan, sort_keys=True, separators=(",", ":"))
