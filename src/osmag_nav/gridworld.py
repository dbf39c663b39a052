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

from .fields import ConfigError, build, check, parse, read_text
from .geometry import MetricPoint
from .osmag import OsmagError, SemanticMap

FREE = 0
OCCUPIED = 1

ROOT2 = math.sqrt(2.0)

# 8-connected moves: a straight one costs 1 cell, a diagonal one sqrt 2
_STRAIGHT = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAGONAL = ((1, 1), (1, -1), (-1, 1), (-1, -1))

DEFAULT_RESOLUTION_M = 0.1
INFLATION_M = 0.25  # robot footprint radius: every obstacle is dilated by this for planning
GOAL_SNAP_RADIUS_M = 0.5
TICK_BUDGET_FACTOR = 10
RENDER_MARGIN_M = 1.0  # free border around the map's bounding box
MAX_GRID_CELLS = 10**8  # render_grid refuses a larger grid before allocating it
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
        sensing only ever adds occupied cells."""
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
        check(asdict(self), "world.schema.json#/properties/sensor", "sensor", ValueError)


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
        data = parse(read_text(path), path)
        check(data, "world.schema.json", path)
        obstacles = [Obstacle(item["kind"], tuple(map(float, item["coords"]))) for item in data["obstacles"]]
        instances = [
            build(ObjectInstance, path, ConfigError, f"instances[{i}]", label=item["label"],
                  position=MetricPoint(float(item["x"]), float(item["y"])), room_id=item.get("room_id"))
            for i, item in enumerate(data["instances"])
        ]
        start = data.get("start")
        start = None if start is None else MetricPoint(float(start["x"]), float(start["y"]))
        return cls(obstacles, instances, SensorConfig(**data["sensor"]), start)

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


def _line_cells(
    x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray]:
    """In-grid cells of the lines from cell (x0, y0) to cell (x1, y1), every
    line at once.

    Cell i of a line with n = max(|dx|, |dy|) lies at
    x0 + sign(dx) * floor((2 i |dx| + n) / 2n), and likewise for y: one cell
    per step along the major axis, the minor axis rounded half up. These are
    the cells Bresenham's algorithm visits.
    """
    dx, dy = x1 - x0, y1 - y0
    adx, ady = np.abs(dx), np.abs(dy)
    n = np.maximum(adx, ady)
    # along the major axis cell i lies i steps from the start: keep the steps
    # that stay in the grid, so a line reaching far outside costs no more
    # than one across it
    x_major = adx >= ady
    c0 = np.where(x_major, x0, y0)
    step = np.where(x_major, np.sign(dx), np.sign(dy))
    near, far = -c0 * step, (np.where(x_major, width, height) - 1 - c0) * step
    lo = np.maximum(np.minimum(near, far), 0)
    counts = np.maximum(np.minimum(np.maximum(near, far), n) - lo + 1, 0)
    line = np.repeat(np.arange(counts.size), counts)
    i = np.arange(line.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    n = n[line]
    denom = np.maximum(2 * n, 1)  # a one-cell line (n = 0) has numerator 0
    xs = x0[line] + np.sign(dx)[line] * ((2 * i * adx[line] + n) // denom)
    ys = y0[line] + np.sign(dy)[line] * ((2 * i * ady[line] + n) // denom)
    inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    return xs[inside], ys[inside]


def _mark_lines(
    grid: OccupancyGrid, a: list[tuple[float, float]], b: list[tuple[float, float]], value: int
) -> None:
    """Set the in-grid cells of every line from metric point a[k] to b[k] to ``value``."""
    if not a:
        return
    origin = np.array([grid.origin.x, grid.origin.y])
    ca, cb = (np.floor((np.array(points) - origin) / grid.resolution).astype(np.int64) for points in (a, b))
    xs, ys = _line_cells(ca[:, 0], ca[:, 1], cb[:, 0], cb[:, 1], grid.width, grid.height)
    grid.cells[ys, xs] = value


def _cells_across(extent_m: float, resolution: float) -> int | float:
    """Cells a grid needs to span ``extent_m``; inf when too many to count."""
    cells = extent_m / resolution
    return int(math.ceil(cells)) + 1 if math.isfinite(cells) else math.inf


def render_grid(m: SemanticMap, resolution: float = DEFAULT_RESOLUTION_M) -> OccupancyGrid:
    """Rasterize the map: polygon boundaries as 1-cell walls, passages as gaps.

    Semantic nodes never touch the grid; enriched and bare versions of the
    same map render identically. A grid of more than ``MAX_GRID_CELLS``
    cells raises :class:`OsmagError` before anything is allocated.
    """
    if not resolution > 0:  # also rejects nan
        raise ValueError("resolution must be positive")
    rings = [m.area_ring_metric(area) for area in m.areas.values()]
    points = np.array([p for ring in rings for p in ring]).reshape(-1, 2)
    if not len(points):
        raise OsmagError("map has no area geometry to render")
    (x_min, y_min), (x_max, y_max) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    origin = MetricPoint(x_min - RENDER_MARGIN_M, y_min - RENDER_MARGIN_M)
    width = _cells_across(x_max - x_min + 2 * RENDER_MARGIN_M, resolution)
    height = _cells_across(y_max - y_min + 2 * RENDER_MARGIN_M, resolution)
    if width * height > MAX_GRID_CELLS:
        raise OsmagError(
            f"a grid of {width} x {height} cells at resolution {resolution} m exceeds "
            f"the limit of {MAX_GRID_CELLS} cells"
        )
    grid = OccupancyGrid(resolution, origin, np.full((height, width), FREE, dtype=np.uint8))

    # every wall first, then every passage gap through them
    starts: list[tuple[float, float]] = []
    ends: list[tuple[float, float]] = []
    for ring in rings:
        if len(ring) >= 3:
            starts += ring
            ends += ring[1:] + ring[:1]
    _mark_lines(grid, starts, ends, OCCUPIED)
    starts, ends = [], []
    for passage in m.passages.values():
        coords = [(p.x, p.y) for p in (m.node_metric(nid) for nid in passage.segment if nid in m.nodes)]
        starts += coords[:-1]
        ends += coords[1:]
    _mark_lines(grid, starts, ends, FREE)
    return grid


def _shifted(d: int, n: int) -> slice:
    """The indices i + d that stay in range(n), for i in range(n) and |d| < n."""
    return slice(max(d, 0), n + min(d, 0))


def inflate(grid: OccupancyGrid, radius_m: float) -> OccupancyGrid:
    """Dilate occupied cells by a disk; stands in for costmap inflation.
    Cells beyond the grid's edge count as free."""
    radius_cells = int(round(radius_m / grid.resolution))
    occupied = grid.cells == OCCUPIED
    dilated = occupied.copy()
    h, w = occupied.shape
    for dy in range(-radius_cells, radius_cells + 1):
        for dx in range(-radius_cells, radius_cells + 1):
            if dx * dx + dy * dy > radius_cells * radius_cells or abs(dx) >= w or abs(dy) >= h:
                continue
            # cell (x, y) occupied makes cell (x + dx, y + dy) occupied
            dilated[_shifted(dy, h), _shifted(dx, w)] |= occupied[_shifted(-dy, h), _shifted(-dx, w)]
    cells = grid.cells.copy()
    cells[dilated] = OCCUPIED
    return OccupancyGrid(grid.resolution, grid.origin, cells)


# ---------------------------------------------------------------------------
# planning


def plan_path(grid: OccupancyGrid, start: Cell, goal: Cell) -> Path:
    """8-connected A* with octile heuristic and deterministic tie-breaking
    (lower heuristic first, then lower row-major cell index). Diagonal moves
    may not cut corners past two orthogonally adjacent occupied cells."""
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.in_bounds(cell):
            raise NoPathError(f"{name} cell {cell} outside grid")
        if grid.at(cell) == OCCUPIED:
            raise NoPathError(f"{name} cell {cell} is occupied")

    # Cells are indexed row-major in the grid framed by one occupied cell on
    # every side: no move leaves the frame, and the index orders cells as the
    # grid's own row-major index does.
    w = grid.width + 2
    framed = np.ones((grid.height + 2, w), dtype=bool)
    framed[1:-1, 1:-1] = grid.cells == OCCUPIED
    blocked = framed.tobytes()
    straight = [dx + dy * w for dx, dy in _STRAIGHT]
    # a diagonal move's index offset and those of the two cells it passes
    diagonal = [(dx + dy * w, dx, dy * w) for dx, dy in _DIAGONAL]
    gx, gy = goal[0] + 1, goal[1] + 1
    octile_k = ROOT2 - 2.0  # octile: (dx + dy) + (sqrt 2 - 2) min(dx, dy)

    start_idx = (start[1] + 1) * w + start[0] + 1
    goal_idx = gy * w + gx
    size = len(blocked)
    # Per-cell state in typed buffers. g (cost so far) and came (the cell
    # each was reached from) are read only where seen is set, so they start
    # uninitialised and a short search touches few of their pages.
    g = memoryview(np.empty(size))
    came = memoryview(np.empty(size, dtype=np.int64))
    seen = bytearray(size)
    closed = bytearray(size)
    g[start_idx] = 0.0
    came[start_idx] = -1
    seen[start_idx] = 1
    dx, dy = abs(start[0] + 1 - gx), abs(start[1] + 1 - gy)
    h0 = (dx + dy) + octile_k * min(dx, dy)
    heap: list[tuple[float, float, int]] = [(h0, h0, start_idx)]

    while heap:
        idx = heappop(heap)[2]
        if closed[idx]:
            continue
        closed[idx] = 1
        if idx == goal_idx:
            cells = []
            while idx != -1:
                cells.append((idx % w - 1, idx // w - 1))
                idx = came[idx]
            cells.reverse()
            return Path(cells=cells, resolution=grid.resolution)
        base = g[idx]
        ng = base + 1.0
        for step in straight:
            nidx = idx + step
            if not blocked[nidx] and (not seen[nidx] or ng < g[nidx] - 1e-12):
                seen[nidx] = 1
                g[nidx] = ng
                came[nidx] = idx
                dx, dy = abs(nidx % w - gx), abs(nidx // w - gy)
                nh = (dx + dy) + octile_k * min(dx, dy)
                heappush(heap, (ng + nh, nh, nidx))
        ng = base + ROOT2
        for step, side_x, side_y in diagonal:
            nidx = idx + step
            if not (blocked[nidx] or blocked[idx + side_x] or blocked[idx + side_y]) and (
                not seen[nidx] or ng < g[nidx] - 1e-12
            ):
                seen[nidx] = 1
                g[nidx] = ng
                came[nidx] = idx
                dx, dy = abs(nidx % w - gx), abs(nidx // w - gy)
                nh = (dx + dy) + octile_k * min(dx, dy)
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
    occupied, listed once in ray order. The free list is always empty: the
    robot only ever applies occupied cells (:func:`apply_sense_updates`), and
    the pair stays because ``perfbench/tracing.py`` counts ``len(result[1])``.
    Purely geometric: the grid is consulted only for bounds/indexing.
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
    return list(zip(cx[first].tolist(), cy[first].tolist())), []


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
    # ``planning`` is ``inflate(raw)``, which holds every raw occupied cell,
    # so clearing the window's inflated-only cells copies the raw window.
    x0, y0 = max(start[0] - halo_cells, 0), max(start[1] - halo_cells, 0)
    x1, y1 = start[0] + halo_cells + 1, start[1] + halo_cells + 1
    cleared = planning.copy()
    cleared.cells[y0:y1, x0:x1] = raw.cells[y0:y1, x0:x1]
    return plan_path(cleared, start, goal)


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
    A start off the grid or on an occupied cell raises :class:`NoPathError`.
    """
    grid = map_grid.copy()
    # compared with the grid's extent before flooring: far outside it,
    # :meth:`OccupancyGrid.cell_of` overflows
    u = (start.x - grid.origin.x) / grid.resolution
    v = (start.y - grid.origin.y) / grid.resolution
    start_cell = (int(u), int(v)) if 0 <= u < grid.width and 0 <= v < grid.height else None
    if start_cell is None or grid.at(start_cell) == OCCUPIED:
        raise NoPathError(f"start ({start.x:g}, {start.y:g}) is not a free cell of the map grid")

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

