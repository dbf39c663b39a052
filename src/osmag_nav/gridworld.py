"""Occupancy-grid rendering, A* planning, and the replanning navigation loop.

The stored map contributes only permanent structure: area polygon boundaries
rasterize as walls, passages punch door gaps through them. Everything else
(furniture, moved objects) exists only in the hidden world model and is
discovered online by ray sensing, triggering replanning when a discovered
obstacle blocks the current path.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from heapq import heappop, heappush

import numpy as np
from scipy import ndimage

from .fields import Fields
from .geometry import MetricPoint
from .osmag import OsmagError, SemanticMap

FREE = 0
OCCUPIED = 1

ROOT2 = math.sqrt(2.0)

# 8-connected moves with unit/diagonal cell costs
_NEIGHBORS = (
    (1, 0, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (0, -1, 1.0),
    (1, 1, ROOT2),
    (1, -1, ROOT2),
    (-1, 1, ROOT2),
    (-1, -1, ROOT2),
)

DEFAULT_RESOLUTION_M = 0.1
INFLATION_M = 0.25  # robot footprint radius: every obstacle is dilated by this for planning
GOAL_SNAP_RADIUS_M = 0.5
TICK_BUDGET_FACTOR = 10
RENDER_MARGIN_M = 1.0  # free border around the map's bounding box
# a passage endpoint within this of a wall line opens a gap in that wall
PASSAGE_LATERAL_TOL_M = 0.05

Cell = tuple[int, int]


class NoPathError(Exception):
    pass


@dataclass
class OccupancyGrid:
    resolution: float
    origin: MetricPoint  # metric position of the (0, 0) cell corner
    cells: np.ndarray  # uint8 [height, width]

    @property
    def width(self) -> int:
        return int(self.cells.shape[1])

    @property
    def height(self) -> int:
        return int(self.cells.shape[0])

    def copy(self) -> "OccupancyGrid":
        return OccupancyGrid(self.resolution, self.origin, self.cells.copy())

    def cell_of(self, x: float, y: float) -> Cell:
        return (
            int(math.floor((x - self.origin.x) / self.resolution)),
            int(math.floor((y - self.origin.y) / self.resolution)),
        )

    def center_of(self, cell: Cell) -> tuple[float, float]:
        return (
            self.origin.x + (cell[0] + 0.5) * self.resolution,
            self.origin.y + (cell[1] + 0.5) * self.resolution,
        )

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def at(self, cell: Cell) -> int:
        return int(self.cells[cell[1], cell[0]])

    def to_pgm(self) -> str:
        """Plain PGM (P2): free 254, occupied 0. A grid holds no other state:
        sensing only ever adds occupied cells, and the free cells
        :func:`sense` reports are never applied to the grid."""
        shade = np.full(self.cells.shape, 254, dtype=np.int32)
        shade[self.cells == OCCUPIED] = 0
        lines = ["P2", f"{self.width} {self.height}", "255"]
        for row in shade[::-1]:  # north-up image
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    def sidecar(self) -> dict:
        return {
            "resolution_m": self.resolution,
            "origin_x": self.origin.x,
            "origin_y": self.origin.y,
            "width": self.width,
            "height": self.height,
        }


@dataclass
class Path:
    cells: list[Cell]
    resolution: float

    @property
    def step_counts(self) -> tuple[int, int]:
        straight = diagonal = 0
        for a, b in zip(self.cells, self.cells[1:]):
            if a[0] != b[0] and a[1] != b[1]:
                diagonal += 1
            else:
                straight += 1
        return straight, diagonal

    @property
    def cost_cells(self) -> float:
        straight, diagonal = self.step_counts
        return straight * 1.0 + diagonal * ROOT2

    @property
    def length_m(self) -> float:
        return self.cost_cells * self.resolution


# ---------------------------------------------------------------------------
# world model


@dataclass(frozen=True)
class SensorConfig:
    fov_deg: float = 120.0
    range_m: float = 4.0
    rays: int = 61

    def __post_init__(self) -> None:
        if not (self.fov_deg > 0 and self.range_m > 0 and self.rays >= 1):
            raise ValueError("sensor needs fov_deg > 0, range_m > 0 and rays >= 1")


@dataclass(frozen=True)
class Obstacle:
    kind: str  # "rect" (x0, y0, x1, y1) or "segment" (x0, y0, x1, y1)
    coords: tuple[float, float, float, float]

    def segments(self) -> list[tuple[float, float, float, float]]:
        x0, y0, x1, y1 = self.coords
        if self.kind == "segment":
            return [(x0, y0, x1, y1)]
        if self.kind == "rect":
            xa, xb = min(x0, x1), max(x0, x1)
            ya, yb = min(y0, y1), max(y0, y1)
            return [
                (xa, ya, xb, ya),
                (xb, ya, xb, yb),
                (xb, yb, xa, yb),
                (xa, yb, xa, ya),
            ]
        raise ValueError(f"unknown obstacle kind '{self.kind}'")


@dataclass(frozen=True)
class ObjectInstance:
    label: str
    position: MetricPoint
    room_id: int | None = None

    def __post_init__(self) -> None:
        if not self.label.strip():
            raise ValueError("instance label must be non-empty")


def normalize_label(label: str) -> str:
    """The form in which two object labels compare equal: trimmed, lower case."""
    return label.strip().lower()


_WORLD_KEYS = ("obstacles", "instances", "sensor", "start")


class WorldModel:
    """Hidden ground truth: obstacle geometry, object instances, sensor spec."""

    def __init__(
        self,
        obstacles: list[Obstacle],
        instances: list[ObjectInstance],
        sensor: SensorConfig,
        start: MetricPoint | None = None,
    ):
        self.obstacles = list(obstacles)
        self.instances = list(instances)
        self.sensor = sensor
        self.start = start
        segs = [s for ob in self.obstacles for s in ob.segments()]
        self.segments = (
            np.asarray(segs, dtype=float) if segs else np.zeros((0, 4), dtype=float)
        )
        # per-segment bounding box (xmin, ymin, xmax, ymax), for range culling
        self._boxes = np.hstack(
            [np.minimum(self.segments[:, :2], self.segments[:, 2:]),
             np.maximum(self.segments[:, :2], self.segments[:, 2:])]
        )

    def instances_of(self, label: str) -> list[tuple[int, ObjectInstance]]:
        """Instances whose label equals ``label`` under :func:`normalize_label`."""
        wanted = normalize_label(label)
        return [(i, inst) for i, inst in enumerate(self.instances) if normalize_label(inst.label) == wanted]

    @classmethod
    def from_file(cls, path: str) -> "WorldModel":
        """The world file at ``path``; a value its schema forbids raises
        :class:`ConfigError` naming the file and the field."""
        f = Fields(path)
        with open(path, "r", encoding="utf-8") as fh:
            data = f.object(f.parse(fh.read()), "", ("obstacles", "instances", "sensor"), _WORLD_KEYS)
        obstacles, instances = [], []
        for i, item in enumerate(f.array(data["obstacles"], "obstacles")):
            p = f"obstacles[{i}]"
            f.object(item, p, ("kind", "coords"), ("kind", "coords"))
            coords = f.array(item["coords"], p + ".coords", 4)
            kind = f.choice(item["kind"], p + ".kind", ("rect", "segment"))
            obstacles.append(Obstacle(kind, tuple(f.number(c, f"{p}.coords[{j}]") for j, c in enumerate(coords))))
        for i, item in enumerate(f.array(data["instances"], "instances")):
            p = f"instances[{i}]"
            f.object(item, p, ("label", "x", "y"), ("label", "x", "y", "room_id"))
            label = f.typed(str, item["label"], p + ".label")
            room_id = f.integer(item["room_id"], p + ".room_id") if "room_id" in item else None
            position = MetricPoint(*f.xy(item, p))
            instances.append(f.build(ObjectInstance, p, label=label, position=position, room_id=room_id))
        start = None
        if "start" in data:
            start = MetricPoint(*f.xy(f.object(data["start"], "start", ("x", "y"), ("x", "y")), "start"))
        return cls(obstacles, instances, f.dataclass(SensorConfig, data["sensor"], "sensor"), start)

    def to_dict(self) -> dict:
        out: dict = {
            "obstacles": [{"kind": o.kind, "coords": list(o.coords)} for o in self.obstacles],
            "instances": [
                {
                    "label": i.label,
                    "x": i.position.x,
                    "y": i.position.y,
                    **({"room_id": i.room_id} if i.room_id is not None else {}),
                }
                for i in self.instances
            ],
            "sensor": asdict(self.sensor),
        }
        if self.start is not None:
            out["start"] = {"x": self.start.x, "y": self.start.y}
        return out


@dataclass
class NavOutcome:
    reached: bool
    driven_path: list[tuple[float, float, float]]  # (x, y, heading_deg)
    driven_length: float
    replans: int
    grid_final: OccupancyGrid
    failure_reason: str | None = None


# ---------------------------------------------------------------------------
# rendering


def _bresenham(a: Cell, b: Cell) -> list[Cell]:
    x0, y0 = a
    x1, y1 = b
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    out = []
    while True:
        out.append((x0, y0))
        if x0 == x1 and y0 == y1:
            return out
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def render_grid(m: SemanticMap, resolution: float = DEFAULT_RESOLUTION_M) -> OccupancyGrid:
    """Rasterize the map: polygon boundaries as 1-cell walls, passages as gaps.

    Semantic nodes never touch the grid; enriched and bare versions of the
    same map render identically.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    points: list[tuple[float, float]] = []
    for area in m.areas.values():
        points.extend(m.area_ring_metric(area))
    if not points:
        raise OsmagError("map has no area geometry to render")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    origin = MetricPoint(min(xs) - RENDER_MARGIN_M, min(ys) - RENDER_MARGIN_M)
    width = int(math.ceil((max(xs) - min(xs) + 2 * RENDER_MARGIN_M) / resolution)) + 1
    height = int(math.ceil((max(ys) - min(ys) + 2 * RENDER_MARGIN_M) / resolution)) + 1
    grid = OccupancyGrid(resolution, origin, np.full((height, width), FREE, dtype=np.uint8))

    for area in m.areas.values():
        ring = m.area_ring_metric(area)
        n = len(ring)
        if n < 3:
            continue
        for i in range(n):
            a = grid.cell_of(*ring[i])
            b = grid.cell_of(*ring[(i + 1) % n])
            for cell in _bresenham(a, b):
                if grid.in_bounds(cell):
                    grid.cells[cell[1], cell[0]] = OCCUPIED
    for passage in m.passages.values():
        coords = []
        for nid in passage.segment:
            node = m.nodes.get(nid)
            if node is not None:
                p = m.node_metric(nid)
                coords.append((p.x, p.y))
        for a_xy, b_xy in zip(coords, coords[1:]):
            a = grid.cell_of(*a_xy)
            b = grid.cell_of(*b_xy)
            for cell in _bresenham(a, b):
                if grid.in_bounds(cell):
                    grid.cells[cell[1], cell[0]] = FREE
    return grid


def inflate(grid: OccupancyGrid, radius_m: float) -> OccupancyGrid:
    """Dilate occupied cells by a disk; stands in for costmap inflation."""
    radius_cells = int(round(radius_m / grid.resolution))
    if radius_cells <= 0:
        return grid.copy()
    span = np.arange(-radius_cells, radius_cells + 1)
    dx, dy = np.meshgrid(span, span)
    disk = (dx * dx + dy * dy) <= radius_cells * radius_cells
    occupied = grid.cells == OCCUPIED
    dilated = ndimage.binary_dilation(occupied, structure=disk)
    cells = grid.cells.copy()
    cells[dilated] = OCCUPIED
    return OccupancyGrid(grid.resolution, grid.origin, cells)


def render_true_grid(map_grid: OccupancyGrid, world: WorldModel) -> OccupancyGrid:
    """Map grid plus every world obstacle rasterized in: the omniscient grid
    used by oracles and debugging, never by the robot."""
    grid = map_grid.copy()
    step = grid.resolution * 0.5
    for x0, y0, x1, y1 in world.segments:
        length = math.hypot(x1 - x0, y1 - y0)
        n = max(2, int(math.ceil(length / step)) + 1)
        for t in np.linspace(0.0, 1.0, n):
            cell = grid.cell_of(x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
            if grid.in_bounds(cell):
                grid.cells[cell[1], cell[0]] = OCCUPIED
    return grid


# ---------------------------------------------------------------------------
# planning


def plan_path(grid: OccupancyGrid, start: Cell, goal: Cell) -> Path:
    """8-connected A* with octile heuristic and deterministic tie-breaking
    (lower heuristic first, then lower row-major cell index). Diagonal moves
    may not cut corners past two orthogonally adjacent occupied cells."""
    w, h = grid.width, grid.height
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.in_bounds(cell):
            raise NoPathError(f"{name} cell {cell} outside grid")
        if grid.at(cell) == OCCUPIED:
            raise NoPathError(f"{name} cell {cell} is occupied")

    blocked = grid.cells == OCCUPIED
    gx, gy = goal

    def octile(x: int, y: int) -> float:
        dx, dy = abs(x - gx), abs(y - gy)
        return (dx + dy) + (ROOT2 - 2.0) * min(dx, dy)

    start_idx = start[1] * w + start[0]
    goal_idx = goal[1] * w + goal[0]
    g = np.full(w * h, np.inf, dtype=float)
    came = np.full(w * h, -1, dtype=np.int64)
    closed = np.zeros(w * h, dtype=bool)
    g[start_idx] = 0.0
    h0 = octile(*start)
    heap: list[tuple[float, float, int]] = [(h0, h0, start_idx)]

    while heap:
        _, _, idx = heappop(heap)
        if closed[idx]:
            continue
        closed[idx] = True
        if idx == goal_idx:
            cells = []
            cursor = idx
            while cursor != -1:
                cells.append((cursor % w, cursor // w))
                cursor = int(came[cursor])
            cells.reverse()
            return Path(cells=cells, resolution=grid.resolution)
        x, y = idx % w, idx // w
        base = float(g[idx])
        for dx, dy, cost in _NEIGHBORS:
            nx, ny = x + dx, y + dy
            if not (0 <= nx < w and 0 <= ny < h) or blocked[ny, nx]:
                continue
            if dx != 0 and dy != 0 and (blocked[y, nx] or blocked[ny, x]):
                continue
            nidx = ny * w + nx
            ng = base + cost
            if ng < g[nidx] - 1e-12:
                g[nidx] = ng
                came[nidx] = idx
                nh = octile(nx, ny)
                heappush(heap, (ng + nh, nh, nidx))
    raise NoPathError(f"no path from {start} to {goal}")


# ---------------------------------------------------------------------------
# sensing


def _ray_directions(heading_deg: float, sensor: SensorConfig) -> np.ndarray:
    if sensor.fov_deg >= 360.0:
        angles = heading_deg + np.arange(sensor.rays) * (360.0 / sensor.rays)
    else:
        angles = np.linspace(
            heading_deg - sensor.fov_deg / 2.0, heading_deg + sensor.fov_deg / 2.0, sensor.rays
        )
    rad = np.deg2rad(angles)
    return np.stack([np.cos(rad), np.sin(rad)], axis=1)


def _ray_hits(
    origin_xy: tuple[float, float], dirs: np.ndarray, segments: np.ndarray, max_range: float
) -> np.ndarray:
    """First-hit distance per ray (inf when nothing within range)."""
    n_rays = dirs.shape[0]
    if segments.shape[0] == 0:
        return np.full(n_rays, np.inf)
    px, py = origin_xy
    ax, ay = segments[:, 0], segments[:, 1]
    sx, sy = segments[:, 2] - ax, segments[:, 3] - ay
    dx = dirs[:, 0][:, None]  # rays x 1
    dy = dirs[:, 1][:, None]
    denom = dx * sy[None, :] - dy * sx[None, :]
    wx = (ax - px)[None, :]
    wy = (ay - py)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (wx * sy[None, :] - wy * sx[None, :]) / denom
        u = (wx * dy - wy * dx) / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-9) & (u >= -1e-9) & (u <= 1.0 + 1e-9)
    t = np.where(valid, t, np.inf)
    hits = t.min(axis=1)
    hits[hits > max_range] = np.inf
    return hits


# widens the range square by more than the distance a hit may lie beyond a
# segment's end (the u tolerance of _ray_hits) for segments up to 1 km
_CULL_MARGIN_M = 1e-6


def sense(
    world: WorldModel,
    pose: tuple[float, float, float],
    grid: OccupancyGrid,
) -> tuple[list[Cell], list[Cell]]:
    """Cast the sensor's rays against world geometry from ``pose`` (x, y, heading).

    Returns (occupied_cells, free_cells). The first hit cell per ray is
    occupied, listed once in ray order; the other cells the rays cross before
    their hits are free, in row-major order. The free list is reported but
    never applied to a grid: :func:`apply_sense_updates` takes the occupied
    cells only. Purely geometric: the grid is consulted only for
    bounds/indexing.
    """
    x, y, heading = pose
    sensor = world.sensor
    dirs = _ray_directions(heading, sensor)
    # an in-range hit lies in the range square, so only segments whose box
    # meets it can hit; the others would only yield t beyond the range
    r = sensor.range_m + _CULL_MARGIN_M
    boxes = world._boxes
    near = (
        (boxes[:, 0] <= x + r) & (boxes[:, 2] >= x - r)
        & (boxes[:, 1] <= y + r) & (boxes[:, 3] >= y - r)
    )
    hits = _ray_hits((x, y), dirs, world.segments[near], sensor.range_m)

    res = grid.resolution
    ox, oy = grid.origin.x, grid.origin.y
    w, h = grid.width, grid.height

    finite = np.isfinite(hits)
    hx = x + dirs[finite, 0] * hits[finite]
    hy = y + dirs[finite, 1] * hits[finite]
    cx = np.floor((hx - ox) / res).astype(np.int64)
    cy = np.floor((hy - oy) / res).astype(np.int64)
    ok = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
    cx, cy = cx[ok], cy[ok]
    first = np.unique(cy * w + cx, return_index=True)[1]
    first.sort()
    occ_x, occ_y = cx[first], cy[first]
    occupied = list(zip(occ_x.tolist(), occ_y.tolist()))

    # free confirmations: sample each ray at half-resolution up to its hit
    step = res * 0.5
    reach = np.where(finite, hits, sensor.range_m) - 1e-9
    max_n = int(sensor.range_m / step) + 1
    ts = np.arange(1, max_n + 1) * step
    valid = ts[None, :] < reach[:, None]
    px = x + dirs[:, 0:1] * ts[None, :]
    py = y + dirs[:, 1:2] * ts[None, :]
    cx = np.floor((px - ox) / res).astype(np.int64)
    cy = np.floor((py - oy) / res).astype(np.int64)
    ok = valid & (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
    cx, cy = cx[ok], cy[ok]
    if cx.size == 0:
        return occupied, []
    # mark the samples in a window spanning them; its row-major order is the grid's
    x0, y0 = cx.min(), cy.min()
    window = np.zeros((cy.max() - y0 + 1, cx.max() - x0 + 1), dtype=bool)
    window[cy - y0, cx - x0] = True
    span_y, span_x = window.shape
    inside = (occ_x >= x0) & (occ_x < x0 + span_x) & (occ_y >= y0) & (occ_y < y0 + span_y)
    window[occ_y[inside] - y0, occ_x[inside] - x0] = False
    idx = np.flatnonzero(window)
    free = list(zip((idx % span_x + x0).tolist(), (idx // span_x + y0).tolist()))
    return occupied, free


def apply_sense_updates(grid: OccupancyGrid, occupied: list[Cell]) -> list[Cell]:
    """Mark sensed occupied cells in place; returns the cells that newly
    became occupied, in the order given. Sensing never frees a cell."""
    newly = []
    for cell in occupied:
        if grid.cells[cell[1], cell[0]] != OCCUPIED:
            grid.cells[cell[1], cell[0]] = OCCUPIED
            newly.append(cell)
    return newly


# ---------------------------------------------------------------------------
# navigation


def _snap_goal(planning: OccupancyGrid, goal: Cell, radius_m: float) -> Cell | None:
    """Nearest planning-free cell to ``goal`` within ``radius_m`` (deterministic)."""
    if planning.in_bounds(goal) and planning.at(goal) != OCCUPIED:
        return goal
    radius_cells = int(math.ceil(radius_m / planning.resolution))
    best: tuple[int, int, int, Cell] | None = None
    for dy in range(-radius_cells, radius_cells + 1):
        for dx in range(-radius_cells, radius_cells + 1):
            if dx * dx + dy * dy > radius_cells * radius_cells:
                continue
            cell = (goal[0] + dx, goal[1] + dy)
            if not planning.in_bounds(cell) or planning.at(cell) == OCCUPIED:
                continue
            key = (dx * dx + dy * dy, cell[1], cell[0], cell)
            if best is None or key < best:
                best = key
    return None if best is None else best[3]


def _plan_from(
    planning: OccupancyGrid, raw: OccupancyGrid, start: Cell, goal: Cell, halo_cells: int
) -> Path:
    # The robot may be standing inside an inflation halo (e.g. hugging a
    # wall). Cells near the start that are only inflated, not truly occupied,
    # are passable in reality, so clear them for this plan; raw walls stay.
    cleared = None
    for dy in range(-halo_cells, halo_cells + 1):
        for dx in range(-halo_cells, halo_cells + 1):
            cell = (start[0] + dx, start[1] + dy)
            if not planning.in_bounds(cell):
                continue
            if planning.at(cell) == OCCUPIED and raw.at(cell) != OCCUPIED:
                if cleared is None:
                    cleared = planning.copy()
                cleared.cells[cell[1], cell[0]] = raw.at(cell)
    return plan_path(cleared if cleared is not None else planning, start, goal)


def navigate(
    map_grid: OccupancyGrid,
    world: WorldModel,
    start: MetricPoint,
    goal: MetricPoint,
) -> NavOutcome:
    """Sense-replan-advance loop toward ``goal`` against the hidden world,
    sensing with ``world.sensor``.

    Advances one cell per tick; replans whenever a newly sensed obstacle
    intersects the remaining path; fails (reached=False) when replanning finds
    no path or the tick budget runs out. Deterministic given (world, start,
    goal, config).

    The robot never steps into an occupied cell: a planned path avoids every
    raw-grid ``OCCUPIED`` cell, and afterwards a cell turns occupied only
    through sensing, whose new cells are checked against the remaining path.
    """
    grid = map_grid.copy()
    start_cell = grid.cell_of(start.x, start.y)
    if not grid.in_bounds(start_cell) or grid.at(start_cell) == OCCUPIED:
        raise NoPathError(f"start {start} is not free in the map grid")

    halo_cells = int(round(INFLATION_M / grid.resolution)) + 1
    planning = inflate(grid, INFLATION_M)
    goal_cell = _snap_goal(planning, grid.cell_of(goal.x, goal.y), GOAL_SNAP_RADIUS_M)
    driven_path: list[tuple[float, float, float]] = []
    if goal_cell is None:
        return NavOutcome(False, driven_path, 0.0, 0, grid, "goal blocked in planning grid")

    try:
        path = _plan_from(planning, grid, start_cell, goal_cell, halo_cells)
    except NoPathError as exc:
        return NavOutcome(False, driven_path, 0.0, 0, grid, str(exc))

    budget = max(TICK_BUDGET_FACTOR * len(path.cells), 100)
    pose = start_cell
    heading = 0.0
    x, y = grid.center_of(pose)
    driven_path.append((x, y, heading))
    driven = 0.0
    replans = 0
    step_idx = 0
    ticks = 0

    while True:
        if pose == goal_cell:
            return NavOutcome(True, driven_path, driven, replans, grid, None)
        nxt = path.cells[step_idx + 1]
        heading = math.degrees(math.atan2(nxt[1] - pose[1], nxt[0] - pose[0]))
        px, py = grid.center_of(pose)
        newly = apply_sense_updates(grid, sense(world, (px, py, heading), grid)[0])
        if newly:
            remaining = path.cells[step_idx + 1 :]
            newly_set = set(newly)
            if any(cell in newly_set for cell in remaining):
                replans += 1
                planning = inflate(grid, INFLATION_M)
                goal_cell = _snap_goal(planning, goal_cell, GOAL_SNAP_RADIUS_M)
                if goal_cell is None:
                    return NavOutcome(False, driven_path, driven, replans, grid, "goal became occupied")
                try:
                    path = _plan_from(planning, grid, pose, goal_cell, halo_cells)
                except NoPathError as exc:
                    return NavOutcome(False, driven_path, driven, replans, grid, str(exc))
                step_idx = 0
                continue
        diagonal = nxt[0] != pose[0] and nxt[1] != pose[1]
        driven += (ROOT2 if diagonal else 1.0) * grid.resolution
        pose = nxt
        step_idx += 1
        nx, ny = grid.center_of(pose)
        driven_path.append((nx, ny, heading))
        ticks += 1
        if ticks > budget:
            return NavOutcome(False, driven_path, driven, replans, grid, "tick budget exhausted")


# ---------------------------------------------------------------------------
# map-derived world helpers


def _subtract_intervals(
    lo: float, hi: float, cuts: list[tuple[float, float]], tol: float = 1e-9
) -> list[tuple[float, float]]:
    cuts = sorted((max(lo, a), min(hi, b)) for a, b in cuts if b > lo and a < hi)
    out = []
    cursor = lo
    for a, b in cuts:
        if a - cursor > tol:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if hi - cursor > tol:
        out.append((cursor, hi))
    return out


def walls_with_passage_gaps(m: SemanticMap) -> list[Obstacle]:
    """World wall segments derived from area polygons, with passage spans cut out.

    Collinear overlap between a wall edge and a passage segment (within
    ``PASSAGE_LATERAL_TOL_M``) opens a gap; everything else stays solid.
    """
    passage_edges: list[tuple[float, float, float, float]] = []
    for p in m.passages.values():
        coords = [m.node_metric(nid) for nid in p.segment if nid in m.nodes]
        for a, b in zip(coords, coords[1:]):
            passage_edges.append((a.x, a.y, b.x, b.y))

    out: list[Obstacle] = []
    for area in sorted(m.areas.values(), key=lambda a: a.id):
        ring = m.area_ring_metric(area)
        n = len(ring)
        for i in range(n):
            ax, ay = ring[i]
            bx, by = ring[(i + 1) % n]
            length = math.hypot(bx - ax, by - ay)
            if length < 1e-9:
                continue
            ux, uy = (bx - ax) / length, (by - ay) / length
            cuts = []
            for px0, py0, px1, py1 in passage_edges:
                # both passage endpoints must lie near the wall line
                d0 = abs((px0 - ax) * uy - (py0 - ay) * ux)
                d1 = abs((px1 - ax) * uy - (py1 - ay) * ux)
                if d0 > PASSAGE_LATERAL_TOL_M or d1 > PASSAGE_LATERAL_TOL_M:
                    continue
                t0 = (px0 - ax) * ux + (py0 - ay) * uy
                t1 = (px1 - ax) * ux + (py1 - ay) * uy
                cuts.append((min(t0, t1), max(t0, t1)))
            for t0, t1 in _subtract_intervals(0.0, length, cuts):
                out.append(
                    Obstacle(
                        "segment",
                        (ax + ux * t0, ay + uy * t0, ax + ux * t1, ay + uy * t1),
                    )
                )
    return out

