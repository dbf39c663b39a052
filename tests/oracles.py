"""Independent oracle implementations used to check the library under test.

Everything here is a second code path on purpose: plain Dijkstra instead of
A*, winding numbers instead of even-odd crossing, direct arithmetic over
record dicts instead of the evalkit fold, a per-area scan of raw tags instead
of the one-pass map simplification, map equality field by field instead of
serialized bytes, great-circle distance instead of the local projection, and
every ray against every wall with per-cell sets instead of the range-culled,
array-built sense, a brace-counting scanner instead of the standard library's
JSON decoder, a segment-crossing test instead of the sensor's first-hit
ray cast, a test of every area's ring instead of the indexed area table,
Bresenham's stepping loop cell by cell instead of the closed-form wall raster,
a disk stamped around each occupied cell instead of shifted-slice dilation,
and A* over a 2-D numpy grid with per-move bounds tests instead of the
framed flat grid.
Keep these free of imports from the package's corresponding modules'
internals.
"""

from __future__ import annotations

import heapq
import json
import math
import re

import numpy as np

from osmag_nav.geometry import BOUNDARY_TOL_DEG, EARTH_RADIUS_M, MetricPoint, point_in_ring
from osmag_nav.gridworld import FREE, OCCUPIED, RENDER_MARGIN_M, NoPathError, OccupancyGrid
from osmag_nav.osmag import FROM_KEY, TO_KEY

ROOT2 = math.sqrt(2.0)


def dijkstra_cost(blocked, start, goal):
    """Uniform-cost search on an 8-connected grid with the same movement rules
    as the planner (no corner cutting); returns cost in cells or None.

    ``blocked`` is indexable as blocked[y][x] truthy for occupied.
    """
    height = len(blocked)
    width = len(blocked[0])
    sx, sy = start
    gx, gy = goal
    if blocked[sy][sx] or blocked[gy][gx]:
        return None
    # state: (float priority, straight, diagonal, (x, y))
    heap = [(0.0, 0, 0, start)]
    best: dict[tuple[int, int], float] = {start: 0.0}
    while heap:
        cost, straight, diagonal, (x, y) = heapq.heappop(heap)
        if (x, y) == (gx, gy):
            return straight * 1.0 + diagonal * ROOT2
        if cost > best.get((x, y), math.inf) + 1e-12:
            continue
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = x + dx, y + dy
                if not (0 <= nx < width and 0 <= ny < height):
                    continue
                if blocked[ny][nx]:
                    continue
                if dx != 0 and dy != 0 and (blocked[y][nx] or blocked[ny][x]):
                    continue
                step_diag = dx != 0 and dy != 0
                ncost = cost + (ROOT2 if step_diag else 1.0)
                if ncost < best.get((nx, ny), math.inf) - 1e-12:
                    best[(nx, ny)] = ncost
                    heapq.heappush(
                        heap,
                        (
                            ncost,
                            straight + (0 if step_diag else 1),
                            diagonal + (1 if step_diag else 0),
                            (nx, ny),
                        ),
                    )
    return None


def winding_number_inside(x: float, y: float, ring: list[tuple[float, float]]) -> bool:
    """Nonzero winding-number point-in-polygon test (open ring)."""
    wn = 0
    n = len(ring)
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        if y0 <= y:
            if y1 > y and _is_left(x0, y0, x1, y1, x, y) > 0:
                wn += 1
        elif y1 <= y and _is_left(x0, y0, x1, y1, x, y) < 0:
            wn -= 1
    return wn != 0


def _is_left(x0, y0, x1, y1, px, py) -> float:
    return (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)


def ray_segment_hit(px, py, dx, dy, ax, ay, bx, by):
    """Parametric ray-vs-segment intersection distance, or None."""
    sx, sy = bx - ax, by - ay
    denominator = dx * sy - dy * sx
    if abs(denominator) < 1e-12:
        return None
    t = ((ax - px) * sy - (ay - py) * sx) / denominator
    u = ((ax - px) * dy - (ay - py) * dx) / denominator
    if t <= 1e-9 or u < -1e-9 or u > 1.0 + 1e-9:
        return None
    return t


def ray_rect_hit(px, py, dx, dy, x0, y0, x1, y1):
    """Nearest intersection distance between a ray and an axis-aligned box."""
    xa, xb = min(x0, x1), max(x0, x1)
    ya, yb = min(y0, y1), max(y0, y1)
    edges = [
        (xa, ya, xb, ya),
        (xb, ya, xb, yb),
        (xb, yb, xa, yb),
        (xa, yb, xa, ya),
    ]
    hits = [ray_segment_hit(px, py, dx, dy, *e) for e in edges]
    hits = [h for h in hits if h is not None]
    return min(hits) if hits else None


# ---------------------------------------------------------------------------
# brute-force metric recomputation over raw record dicts


def _bf_top_n_min(rec: dict, n: int):
    distances = []
    for node in rec["plan_nodes"][:n]:
        if node["distance_to_gt"] is not None:
            distances.append(node["distance_to_gt"])
    if not distances:
        return None
    return min(distances)


def bf_r_rsr(recs: list[dict]) -> float:
    if not recs:
        return 0.0
    hits = 0
    for rec in recs:
        if rec["rank1_room_contains_gt"]:
            hits += 1
    return hits / len(recs)


def bf_o_rsr(recs: list[dict], n: int, k: float) -> float:
    if not recs:
        return 0.0
    hits = 0
    for rec in recs:
        d = _bf_top_n_min(rec, n)
        if d is not None and d <= k:
            hits += 1
    return hits / len(recs)


def bf_amd(recs: list[dict]):
    values = []
    excluded = 0
    for rec in recs:
        d = _bf_top_n_min(rec, 5)
        if d is None:
            excluded += 1
        else:
            values.append(d)
    if not values:
        return None, excluded
    return sum(values) / len(values), excluded


def bf_apl(recs: list[dict], radius: float = 1.0):
    lengths = []
    for rec in recs:
        if not rec["success"]:
            continue
        d = rec["success_node_distance_m"]
        if d is not None and d <= radius:
            lengths.append(rec["driven_length_m"])
    if not lengths:
        return None, 0
    return sum(lengths) / len(lengths), len(lengths)


def bf_dir(recs: list[dict], mode: str, radius: float = 1.0) -> float:
    failed = []
    for rec in recs:
        d = _bf_top_n_min(rec, 5)
        if d is None or d > radius:
            failed.append(rec)
    recovered = [rec for rec in failed if rec["success"]]
    if mode == "all_queries":
        return len(recovered) / len(recs) if recs else 0.0
    return len(recovered) / len(failed) if failed else 0.0


# ---------------------------------------------------------------------------
# per-area scan of the map text shown to the LLM


def bf_simplify_map(m, mode: str = "full") -> str:
    """The simplified-map text built area by area, scanning every node for
    each area and resolving ``parent`` tags from the raw ``areas``/``nodes``
    dicts (an id, else a unique area name)."""

    def resolve(ref):
        if ref is None:
            return None
        text = ref.strip()
        if re.fullmatch(r"-?\d+", text) and int(text) in m.areas:
            return int(text)
        named = [aid for aid, area in m.areas.items() if area.tags.get("name") == text]
        return named[0] if len(named) == 1 else None

    lines: list[str] = []

    def emit(aid: int, depth: int) -> None:
        tags = m.areas[aid].tags
        pad = "  " * depth
        floor = f" [floor {tags['osmAG:level']}]" if "osmAG:level" in tags else ""
        lines.append(f"{pad}- area {aid} ({tags.get('name') or ''}){floor}")
        if tags.get("semantic_osmAG:room_description"):
            lines.append(f"{pad}  description: {tags['semantic_osmAG:room_description']}")
        if mode == "full":
            for nid in sorted(m.nodes):
                node_tags = m.nodes[nid].tags
                if resolve(node_tags.get("parent")) != aid:
                    continue
                if "semantic_osmAG:object_name" in node_tags:
                    lines.append(
                        f'{pad}  - node {nid}: object "{node_tags["semantic_osmAG:object_name"]}"'
                    )
                elif "semantic_osmAG:observed_object" in node_tags:
                    items = node_tags["semantic_osmAG:observed_object"].split(";")
                    observed = "; ".join(item.strip() for item in items if item.strip())
                    lines.append(f'{pad}  - node {nid}: observed "{observed}"')
        children = [c for c in m.areas if resolve(m.areas[c].tags.get("parent")) == aid]
        for child in sorted(children):
            emit(child, depth + 1)

    for root in sorted(a for a in m.areas if resolve(m.areas[a].tags.get("parent")) is None):
        emit(root, 0)
    return "\n".join(lines)


def maps_semantically_equal(a, b, tol_deg: float = 1e-9) -> bool:
    """Equality on ids, tags, topology, and geometry to ``tol_deg`` degrees."""
    if set(a.nodes) != set(b.nodes) or set(a.areas) != set(b.areas) or set(a.passages) != set(b.passages):
        return False
    for nid, na in a.nodes.items():
        nb = b.nodes[nid]
        if na.tags != nb.tags:
            return False
        if (
            abs(na.position.lat - nb.position.lat) > tol_deg
            or abs(na.position.lon - nb.position.lon) > tol_deg
        ):
            return False
    for aid, aa in a.areas.items():
        ab = b.areas[aid]
        if aa.ring != ab.ring or aa.tags != ab.tags:
            return False
    for pid, pa in a.passages.items():
        pb = b.passages[pid]
        if pa.segment != pb.segment or pa.connects != pb.connects:
            return False
        # from/to tags are normalized on serialize; compare the rest verbatim
        ta = {k: v for k, v in pa.tags.items() if k not in (FROM_KEY, TO_KEY)}
        tb = {k: v for k, v in pb.tags.items() if k not in (FROM_KEY, TO_KEY)}
        if ta != tb:
            return False
    oa, ob = a.projection_origin, b.projection_origin
    return abs(oa.lat - ob.lat) <= tol_deg and abs(oa.lon - ob.lon) <= tol_deg


def haversine_m(a, b) -> float:
    """Great-circle distance in meters between two GeoPoints."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(s))


def _bf_ray_directions(heading_deg: float, sensor) -> np.ndarray:
    if sensor.fov_deg >= 360.0:
        angles = heading_deg + np.arange(sensor.rays) * (360.0 / sensor.rays)
    else:
        angles = np.linspace(
            heading_deg - sensor.fov_deg / 2.0, heading_deg + sensor.fov_deg / 2.0, sensor.rays
        )
    rad = np.deg2rad(angles)
    return np.stack([np.cos(rad), np.sin(rad)], axis=1)


def _bf_ray_hits(origin_xy, dirs: np.ndarray, segments: np.ndarray, max_range: float) -> np.ndarray:
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


def bf_sense(world, pose, grid):
    """``sense`` as it was before range culling: every ray against every world
    segment, occupied and free cells deduplicated through a Python set."""
    x, y, heading = pose
    sensor = world.sensor
    dirs = _bf_ray_directions(heading, sensor)
    hits = _bf_ray_hits((x, y), dirs, world.segments, sensor.range_m)

    res = grid.resolution
    ox, oy = grid.origin.x, grid.origin.y
    w, h = grid.width, grid.height

    occupied = []
    occupied_set = set()
    finite = np.isfinite(hits)
    if finite.any():
        hx = x + dirs[finite, 0] * hits[finite]
        hy = y + dirs[finite, 1] * hits[finite]
        cx = np.floor((hx - ox) / res).astype(np.int64)
        cy = np.floor((hy - oy) / res).astype(np.int64)
        ok = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        for a, b in zip(cx[ok], cy[ok]):
            cell = (int(a), int(b))
            if cell not in occupied_set:
                occupied_set.add(cell)
                occupied.append(cell)

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
    flat = np.unique(cy[ok] * w + cx[ok])
    free = []
    for f in flat:
        cell = (int(f % w), int(f // w))
        if cell not in occupied_set:
            free.append(cell)
    return occupied, free


def bf_segment_blocks(
    px: float, py: float, qx: float, qy: float, segments: np.ndarray
) -> bool:
    """True when any obstacle segment properly crosses the open sight line p->q."""
    if segments.shape[0] == 0:
        return False
    rx, ry = qx - px, qy - py
    ax, ay = segments[:, 0], segments[:, 1]
    sx, sy = segments[:, 2] - ax, segments[:, 3] - ay
    denom = rx * sy - ry * sx
    wx, wy = ax - px, ay - py
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (wx * sy - wy * sx) / denom
        u = (wx * ry - wy * rx) / denom
    crossing = (np.abs(denom) > 1e-12) & (t > 1e-9) & (t < 1.0 - 1e-9) & (u >= -1e-9) & (u <= 1.0 + 1e-9)
    return bool(crossing.any())


def bf_extract_first_json_object(text: str) -> dict | None:
    """First balanced, loadable JSON object in ``text`` (fences/prose tolerated)."""
    for start, ch in enumerate(text):
        if ch != "{":
            continue
        depth = 0
        in_str = False
        escaped = False
        for i in range(start, len(text)):
            c = text[i]
            if in_str:
                if escaped:
                    escaped = False
                elif c == "\\":
                    escaped = True
                elif c == '"':
                    in_str = False
            elif c == '"':
                in_str = True
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    try:
                        obj = json.loads(text[start : i + 1])
                    except json.JSONDecodeError:
                        break
                    if isinstance(obj, dict):
                        return obj
                    break
        # unbalanced or unloadable: retry from the next opening brace
    return None


def bf_area_depth(m, area) -> int:
    """Length of ``area``'s parent chain, each parent resolved by
    ``m.area_parent``; the chain ends at a root or at an area already on it."""
    depth = 0
    seen = {area.id}
    current = area
    while True:
        parent = m.area_parent(current)
        if parent is None or parent.id in seen:
            return depth
        seen.add(parent.id)
        depth += 1
        current = parent


def bf_containing_area(m, p) -> int | None:
    """Deepest area (by parent-chain depth) whose ring holds the GeoPoint
    ``p``, ties to the smaller id, found by testing every area's ring."""
    best: tuple[int, int] | None = None  # (-depth, id)
    for area in m.areas.values():
        ring = m.area_ring_geo(area)
        if len(ring) < 3:
            continue
        if point_in_ring(p.lon, p.lat, ring, BOUNDARY_TOL_DEG):
            key = (-bf_area_depth(m, area), area.id)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


def bresenham(a, b):
    """The cells of the line from cell ``a`` to cell ``b``, stepped one at a time."""
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


def bf_render_grid(m, resolution: float):
    """``render_grid`` as a per-cell loop: each ring projected twice, every
    wall and gap cell drawn by :func:`bresenham` and bounds-tested alone."""
    points = []
    for area in m.areas.values():
        points.extend(m.area_ring_metric(area))
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
            for cell in bresenham(a, b):
                if grid.in_bounds(cell):
                    grid.cells[cell[1], cell[0]] = OCCUPIED
    for passage in m.passages.values():
        coords = []
        for nid in passage.segment:
            if m.nodes.get(nid) is not None:
                p = m.node_metric(nid)
                coords.append((p.x, p.y))
        for a_xy, b_xy in zip(coords, coords[1:]):
            a = grid.cell_of(*a_xy)
            b = grid.cell_of(*b_xy)
            for cell in bresenham(a, b):
                if grid.in_bounds(cell):
                    grid.cells[cell[1], cell[0]] = FREE
    return grid


def bf_dilate(cells: np.ndarray, radius_cells: int) -> np.ndarray:
    """``cells`` with a disk of ``radius_cells`` stamped, clipped to the grid,
    around every occupied cell."""
    out = cells.copy()
    height, width = cells.shape
    r = radius_cells
    span = np.arange(-r, r + 1)
    disk = (span[None, :] ** 2 + span[:, None] ** 2) <= r * r
    for y, x in np.argwhere(cells == OCCUPIED):
        y0, y1 = max(y - r, 0), min(y + r + 1, height)
        x0, x1 = max(x - r, 0), min(x + r + 1, width)
        stamp = disk[y0 - (y - r) : y1 - (y - r), x0 - (x - r) : x1 - (x - r)]
        out[y0:y1, x0:x1][stamp] = OCCUPIED
    return out


def bf_plan_path(grid, start, goal):
    """``plan_path``'s A* over the 2-D grid, bounds-testing every move;
    returns the path's cell list."""
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

    neighbors = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
                 (1, 1, ROOT2), (1, -1, ROOT2), (-1, 1, ROOT2), (-1, -1, ROOT2)]
    start_idx = start[1] * w + start[0]
    goal_idx = goal[1] * w + goal[0]
    g = np.full(w * h, np.inf, dtype=float)
    came = np.full(w * h, -1, dtype=np.int64)
    closed = np.zeros(w * h, dtype=bool)
    g[start_idx] = 0.0
    h0 = octile(*start)
    heap = [(h0, h0, start_idx)]

    while heap:
        _, _, idx = heapq.heappop(heap)
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
            return cells
        x, y = idx % w, idx // w
        base = float(g[idx])
        for dx, dy, cost in neighbors:
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
                heapq.heappush(heap, (ng + nh, nh, nidx))
    raise NoPathError(f"no path from {start} to {goal}")
