"""Seeded building generator for the benchmark.

Builds a single-floor building of rectangular rooms laid out on a jittered
grid, with a door on every shared wall, one entrance per side of the
building, and a floor area that contains every room. Alongside the bare map
it produces perception records (with orphans and near-duplicate sightings),
a hidden world (walls from ``walls_with_passage_gaps``, unmapped clutter,
SO / RO / UO object instances and gray-zone distractors), and the ground
truth the output checks compare against: the room of every record and of
every instance.

Everything is a pure function of the arguments of :func:`generate`. The
seed varies names, labels, object positions, duplicates and record order.
The room grid, doors, entrances, clutter, the world start and the rooms that
hold the queried objects depend only on the building size, so that the
amount of navigation per run does not swing with the seed (random start
poses drawn by ``sample_starts`` then also stay put). The program under test only ever
sees the serialized map, records, world and experiment config.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from osmag_nav.geometry import GeoPoint, MetricPoint, unproject
from osmag_nav.gridworld import (
    ObjectInstance,
    Obstacle,
    SensorConfig,
    WorldModel,
    walls_with_passage_gaps,
)
from osmag_nav.osmag import (
    FROM_KEY,
    LEVEL_KEY,
    NAME_KEY,
    PARENT_KEY,
    TO_KEY,
    TYPE_AREA,
    TYPE_KEY,
    TYPE_PASSAGE,
    Area,
    MapNode,
    Passage,
    SemanticMap,
)

ORIGIN = GeoPoint(31.0, 121.0)
ROOM_M = 6.0
DOOR_M = 1.0
WALL_CLEARANCE_M = 0.7  # semantic nodes and instances keep this far from walls
CLUTTER_CLEARANCE_M = 0.7  # nodes, instances and the start keep this far from clutter
DUPLICATE_OFFSET_M = (0.1, 0.3)  # below the 0.5 m merge radius of ingest
RO_MOVE_M = (2.3, 3.8)  # relocated instances: beyond the 2 m RO radius, within sensor range
GRAY_MOVE_M = (1.2, 1.8)  # distractors: between the SO and RO radii, so never queried
SENSOR = SensorConfig(fov_deg=120.0, range_m=4.0, rays=61)

FLOOR_ID = 100000
ROOM_ID0 = 100001
PASSAGE_ID0 = 200000

# Mapped labels are "<adjective> <noun>"; never-mapped (UO) labels use word
# lists of their own, so a UO query matches only the room description that
# names it. No noun ends in "s" (the heuristic folds plurals).
_ADJECTIVES = [
    "amber", "azure", "beige", "black", "bronze", "cedar", "chrome", "coral",
    "cream", "crimson", "denim", "ebony", "golden", "granite", "hazel", "indigo",
    "ivory", "jade", "khaki", "lemon", "lilac", "maple", "marble", "mint",
    "navy", "ochre", "olive", "pearl", "plum", "rusty", "sage", "scarlet",
    "silver", "slate", "steel", "teal", "walnut", "white",
]
_NOUNS = [
    "kettle", "stapler", "ladder", "lamp", "router", "vacuum", "heater", "fan",
    "camera", "tripod", "toolbox", "printer", "monitor", "keyboard", "speaker",
    "projector", "whiteboard", "drill", "helmet", "mug", "teapot", "blender",
    "scanner", "clock", "umbrella", "backpack", "cabinet", "easel", "globe",
    "guitar", "hammer", "microscope", "notebook", "pillow", "plant", "radio",
    "ruler", "shovel", "suitcase", "telescope", "toaster", "trophy", "vase",
    "wrench",
]
_UO_ADJECTIVES = [
    "dusty", "fuzzy", "glossy", "knitted", "lacquered", "matte", "padded",
    "quilted", "ribbed", "striped", "tinted", "woven",
]
_UO_NOUNS = [
    "abacus", "bellow", "compass", "doorstop", "funnel", "gyroscope",
    "hourglass", "inkwell", "kaleidoscope", "lantern", "metronome", "sextant",
]
_ROOM_KINDS = [
    "office", "lab", "kitchen", "storage", "workshop", "lounge", "studio",
    "library", "classroom", "archive",
]
_DESCRIPTION_WORDS = [
    "wide", "narrow", "bright", "cluttered", "tidy", "quiet", "shelving",
    "equipment", "boxes", "tools", "windows", "carpet", "benches",
]


@dataclass(frozen=True)
class Room:
    area_id: int
    name: str
    rect: tuple[float, float, float, float]  # x0, y0, x1, y1 in metres


@dataclass
class Building:
    """Generator output: program inputs plus the ground truth behind them."""

    bare: SemanticMap
    floor_rect: tuple[float, float, float, float]
    rooms: dict[int, Room]
    batches: list[dict]  # records payloads, one per ingest call
    # per batch: expected ingest outcome and the (kind, value, room) of each
    # new node in the order ingest assigns ids
    batch_expect: list[dict]
    world: WorldModel
    instance_rooms: list[int]  # room of world.instances[i]
    categories: dict[str, list[str]]  # SO / RO / UO -> queried labels
    single_node_labels: dict[str, int]  # label on exactly one node -> its room
    never_mapped_labels: list[str]  # on no node and no instance

    @property
    def records(self) -> dict:
        """All batches as one records payload, in batch order."""
        out: dict = {"instances": [], "viewpoints": [], "room_descriptions": []}
        for batch in self.batches:
            for key in out:
                out[key].extend(batch[key])
        return out

    def room_of(self, x: float, y: float) -> int | None:
        for room in self.rooms.values():
            if in_rect(x, y, room.rect):
                return room.area_id
        return None


def in_rect(x: float, y: float, rect: tuple[float, float, float, float], tol: float = 1e-6) -> bool:
    x0, y0, x1, y1 = rect
    return x0 - tol <= x <= x1 + tol and y0 - tol <= y <= y1 + tol


class _MapBuilder:
    def __init__(self) -> None:
        self.nodes: dict[int, MapNode] = {}
        self.areas: dict[int, Area] = {}
        self.passages: dict[int, Passage] = {}
        self._next = 1

    def node(self, x: float, y: float) -> int:
        nid = self._next
        self._next += 1
        self.nodes[nid] = MapNode(nid, unproject(MetricPoint(x, y), ORIGIN), {})
        return nid

    def rect_area(self, area_id: int, rect, tags: dict[str, str]) -> None:
        x0, y0, x1, y1 = rect
        ring = [self.node(x, y) for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
        self.areas[area_id] = Area(area_id, ring, {TYPE_KEY: TYPE_AREA, **tags})

    def door(self, pid: int, src: int, dst: int, a, b) -> None:
        seg = [self.node(*a), self.node(*b)]
        self.passages[pid] = Passage(
            pid, seg, (src, dst),
            {TYPE_KEY: TYPE_PASSAGE, FROM_KEY: str(src), TO_KEY: str(dst)},
        )

    def build(self) -> SemanticMap:
        return SemanticMap(self.nodes, self.areas, self.passages, ORIGIN)


def _door_span(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    a = round(rng.uniform(lo + 0.8, hi - 0.8 - DOOR_M), 3)
    return a, a + DOOR_M


def _point_in(rng: random.Random, rect, margin: float) -> tuple[float, float]:
    x0, y0, x1, y1 = rect
    return (
        round(rng.uniform(x0 + margin, x1 - margin), 4),
        round(rng.uniform(y0 + margin, y1 - margin), 4),
    )


def generate(
    rooms: int,
    seed: int,
    labels_per_category: int,
    batches: int = 1,
    target_radius: int | None = None,
) -> Building:
    """Build a seeded building of ``rooms`` rooms (a perfect square count).

    ``labels_per_category`` world labels are made queryable in each of SO, RO
    and UO, in rooms at most ``target_radius`` rooms (Chebyshev) from the
    start room when given; ``batches`` splits the records for incremental
    ingest.
    """
    side = int(round(math.sqrt(rooms)))
    if side * side != rooms or side < 2:
        raise ValueError(f"rooms must be a square of at least 4, got {rooms}")
    rng = random.Random(seed)
    layout = random.Random(f"layout-{rooms}-{labels_per_category}-{target_radius}")
    xs = ys = [i * ROOM_M for i in range(side + 1)]
    floor_rect = (0.0, 0.0, xs[-1], ys[-1])

    b = _MapBuilder()
    b.rect_area(FLOOR_ID, floor_rect, {NAME_KEY: "main floor", LEVEL_KEY: "0"})
    room_at: dict[tuple[int, int], Room] = {}
    room_ids = []
    for j in range(side):
        for i in range(side):
            area_id = ROOM_ID0 + j * side + i
            kind = _ROOM_KINDS[rng.randrange(len(_ROOM_KINDS))]
            room = Room(area_id, f"{kind} {area_id - ROOM_ID0 + 1}", (xs[i], ys[j], xs[i + 1], ys[j + 1]))
            room_at[(i, j)] = room
            room_ids.append(area_id)
            b.rect_area(area_id, room.rect, {NAME_KEY: room.name, LEVEL_KEY: "0", PARENT_KEY: str(FLOOR_ID)})
    rooms_by_id = {r.area_id: r for r in room_at.values()}

    pid = PASSAGE_ID0
    for j in range(side):
        for i in range(side):
            here = room_at[(i, j)]
            if i + 1 < side:
                a, c = _door_span(layout, ys[j], ys[j + 1])
                b.door(pid, here.area_id, room_at[(i + 1, j)].area_id, (xs[i + 1], a), (xs[i + 1], c))
                pid += 1
            if j + 1 < side:
                a, c = _door_span(layout, xs[i], xs[i + 1])
                b.door(pid, here.area_id, room_at[(i, j + 1)].area_id, (a, ys[j + 1]), (c, ys[j + 1]))
                pid += 1
    # One entrance per side, from a perimeter room to the floor area.
    for edge in range(4):
        k = layout.randrange(side)
        if edge == 0:
            room, (a, c) = room_at[(k, 0)], _door_span(layout, xs[k], xs[k + 1])
            ends = ((a, 0.0), (c, 0.0))
        elif edge == 1:
            room, (a, c) = room_at[(k, side - 1)], _door_span(layout, xs[k], xs[k + 1])
            ends = ((a, ys[-1]), (c, ys[-1]))
        elif edge == 2:
            room, (a, c) = room_at[(0, k)], _door_span(layout, ys[k], ys[k + 1])
            ends = ((0.0, a), (0.0, c))
        else:
            room, (a, c) = room_at[(side - 1, k)], _door_span(layout, ys[k], ys[k + 1])
            ends = ((xs[-1], a), (xs[-1], c))
        b.door(pid, room.area_id, FLOOR_ID, *ends)
        pid += 1
    bare = b.build()

    start_cell = (layout.randrange(side), layout.randrange(side))
    start_room = room_at[start_cell]
    sx, sy = ((start_room.rect[0] + start_room.rect[2]) / 2, (start_room.rect[1] + start_room.rect[3]) / 2)
    clutter: dict[int, list[tuple[float, float, float, float]]] = {rid: [] for rid in room_ids}
    for rid in room_ids:
        rect = rooms_by_id[rid].rect
        for _ in range(layout.randint(1, 2)):
            w, h = layout.uniform(0.4, 0.9), layout.uniform(0.4, 0.9)
            cx, cy = _point_in(layout, rect, 0.8 + max(w, h) / 2)
            box = tuple(round(v, 4) for v in (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
            if _rect_distance(sx, sy, box) >= CLUTTER_CLEARANCE_M:
                clutter[rid].append(box)

    # --- semantic content -------------------------------------------------
    label_pool = [f"{adj} {noun}" for adj in _ADJECTIVES for noun in _NOUNS]
    # large buildings need more labels than word pairs: add numbered models
    label_pool += [f"{label} mk{n}" for n in range(2, 2 + 4 * rooms // len(label_pool)) for label in label_pool]
    rng.shuffle(label_pool)
    uo_pool = [f"{adj} {noun}" for adj in _UO_ADJECTIVES for noun in _UO_NOUNS]
    rng.shuffle(uo_pool)

    objects: list[tuple[str, float, float, int]] = []  # label, x, y, room
    viewpoints: list[tuple[tuple[str, ...], float, float, int]] = []
    for rid in room_ids:
        rect = rooms_by_id[rid].rect
        labels = [label_pool.pop() for _ in range(rng.randint(3, 4))]
        for label in labels:
            x, y = _clear_point(rng, rect, clutter[rid])
            objects.append((label, x, y, rid))
        seen = tuple(rng.sample(labels, 2))
        x, y = _clear_point(rng, rect, clutter[rid])
        viewpoints.append((seen, x, y, rid))

    observed_labels = {label for seen, *_ in viewpoints for label in seen}
    single = [o for o in objects if o[0] not in observed_labels]
    k = labels_per_category
    near = [
        room_at[(i, j)].area_id
        for j in range(side)
        for i in range(side)
        if target_radius is None or max(abs(i - start_cell[0]), abs(j - start_cell[1])) <= target_radius
    ]
    if len(near) < 3 * k:
        raise ValueError("building too small for the requested labels per category")
    target_rooms = layout.sample(near, 3 * k)
    picked = []
    for rid in target_rooms[: 2 * k]:
        picked.append(rng.choice([o for o in single if o[3] == rid]))
    so_objs, ro_objs = picked[:k], picked[k:]
    rest = [o for o in single if o not in picked]
    gray_objs = rng.sample(rest, max(1, rooms // 8))

    instances: list[ObjectInstance] = []
    instance_rooms: list[int] = []
    for label, x, y, rid in so_objs:
        instances.append(ObjectInstance(label, MetricPoint(x, y), rid))
        instance_rooms.append(rid)
    for (label, x, y, rid), span in [(o, RO_MOVE_M) for o in ro_objs] + [(o, GRAY_MOVE_M) for o in gray_objs]:
        px, py = _moved(rng, x, y, rooms_by_id[rid].rect, span, clutter[rid])
        instances.append(ObjectInstance(label, MetricPoint(px, py), rid))
        instance_rooms.append(rid)
    uo_labels = [uo_pool.pop() for _ in range(k)]
    uo_rooms = target_rooms[2 * k :]
    for label, rid in zip(uo_labels, uo_rooms):
        x, y = _clear_point(rng, rooms_by_id[rid].rect, clutter[rid])
        instances.append(ObjectInstance(label, MetricPoint(x, y), rid))
        instance_rooms.append(rid)
    never_mapped = [uo_pool.pop() for _ in range(min(len(uo_pool), 8))]

    descriptions: dict[int, str] = {}
    for rid in room_ids:
        words = rng.sample(_DESCRIPTION_WORDS, 3)
        kind = rooms_by_id[rid].name.split()[0]
        text = f"A {words[0]} {kind} with {words[1]} and {words[2]}."
        descriptions[rid] = text
    for label, rid in zip(uo_labels, uo_rooms):
        descriptions[rid] = descriptions[rid][:-1] + f", and a {label}."

    obstacles = walls_with_passage_gaps(bare)
    obstacles += [Obstacle("rect", box) for rid in room_ids for box in clutter[rid]]
    world = WorldModel(obstacles, instances, SENSOR, start=MetricPoint(sx, sy))

    # --- records, duplicates, orphans, batches -----------------------------
    items: list[dict] = []  # one entry per logical sighting, with its records
    for label, x, y, rid in objects:
        recs = [{"label": label, "x": x, "y": y, "source": "scan"}]
        if rng.random() < 0.1:
            ang = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(*DUPLICATE_OFFSET_M)
            recs.append({"label": label, "x": round(x + d * math.cos(ang), 4),
                         "y": round(y + d * math.sin(ang), 4), "source": "rescan"})
        items.append({"kind": "instance", "records": recs, "room": rid, "value": label})
    for seen, x, y, rid in viewpoints:
        rec = {"x": x, "y": y, "heading_deg": float(rng.randrange(0, 360, 90)), "observed": list(seen)}
        items.append({"kind": "viewpoint", "records": [rec], "room": rid, "value": ";".join(seen)})
    for rid in room_ids:
        items.append({"kind": "description", "records": [{"area_id": rid, "descriptions": [descriptions[rid]]}],
                      "room": rid, "value": descriptions[rid]})
    for n in range(max(2, rooms // 16)):
        x, y = -3.0 - rng.uniform(0, 5), rng.uniform(0, ys[-1])
        if n % 2 == 0:
            rec = {"label": f"stray {rng.choice(_NOUNS)} {n}", "x": round(x, 4), "y": round(y, 4), "source": "scan"}
            items.append({"kind": "instance", "records": [rec], "room": None, "value": rec["label"]})
        else:
            rec = {"x": round(x, 4), "y": round(y, 4), "heading_deg": 0.0, "observed": [f"stray sign {n}"]}
            items.append({"kind": "viewpoint", "records": [rec], "room": None, "value": rec["observed"][0]})
    rng.shuffle(items)

    batch_payloads, batch_expect = [], []
    per = math.ceil(len(items) / batches)
    for start in range(0, len(items), per):
        chunk = items[start : start + per]
        payload = {"instances": [], "viewpoints": [], "room_descriptions": []}
        expect = {"applied": 0, "skipped": 0, "merged": 0, "offered": 0, "new_nodes": []}
        viewpoint_nodes = []
        for item in chunk:
            key = {"instance": "instances", "viewpoint": "viewpoints", "description": "room_descriptions"}[item["kind"]]
            payload[key].extend(item["records"])
            expect["offered"] += len(item["records"])
            expect["merged"] += len(item["records"]) - 1
            if item["room"] is None:
                expect["skipped"] += 1
                continue
            expect["applied"] += 1
            if item["kind"] == "instance":
                expect["new_nodes"].append(("object", item["value"], item["room"]))
            elif item["kind"] == "viewpoint":
                viewpoint_nodes.append(("observed", item["value"], item["room"]))
        # ingest applies every instance before any viewpoint
        expect["new_nodes"].extend(viewpoint_nodes)
        batch_payloads.append(payload)
        batch_expect.append(expect)

    return Building(
        bare=bare,
        floor_rect=floor_rect,
        rooms=rooms_by_id,
        batches=batch_payloads,
        batch_expect=batch_expect,
        world=world,
        instance_rooms=instance_rooms,
        categories={
            "SO": sorted(o[0] for o in so_objs),
            "RO": sorted(o[0] for o in ro_objs),
            "UO": sorted(uo_labels),
        },
        single_node_labels={o[0]: o[3] for o in objects if o[0] not in observed_labels},
        never_mapped_labels=never_mapped,
    )


def _clear(px: float, py: float, rect, boxes) -> bool:
    """Inside ``rect`` with wall clearance, and clear of every clutter box."""
    x0, y0, x1, y1 = rect
    m = WALL_CLEARANCE_M
    inside = x0 + m <= px <= x1 - m and y0 + m <= py <= y1 - m
    return inside and all(_rect_distance(px, py, box) >= CLUTTER_CLEARANCE_M for box in boxes)


def _clear_point(rng: random.Random, rect, boxes) -> tuple[float, float]:
    for _ in range(200):
        x, y = _point_in(rng, rect, WALL_CLEARANCE_M)
        if _clear(x, y, rect, boxes):
            return x, y
    raise ValueError(f"no clear point inside {rect}")


def _moved(rng: random.Random, x: float, y: float, rect, span: tuple[float, float], boxes) -> tuple[float, float]:
    """A clear point ``span`` metres from (x, y) inside ``rect``."""
    for _ in range(200):
        ang = rng.uniform(0, 2 * math.pi)
        d = rng.uniform(*span)
        px, py = round(x + d * math.cos(ang), 4), round(y + d * math.sin(ang), 4)
        if _clear(px, py, rect, boxes):
            return px, py
    raise ValueError(f"no room to move an instance {span} m inside {rect}")


def _rect_distance(px: float, py: float, box) -> float:
    x0, y0, x1, y1 = box
    dx = max(x0 - px, 0.0, px - x1)
    dy = max(y0 - py, 0.0, py - y1)
    return math.hypot(dx, dy)
