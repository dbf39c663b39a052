from __future__ import annotations

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mapgen
import osmag_nav
from oracles import bf_dilate, bf_plan_path, bf_render_grid, bf_sense, bresenham, dijkstra_cost, ray_rect_hit
from osmag_nav import gridworld
from osmag_nav.fixtures import five_room_map
from osmag_nav.geometry import MetricPoint
from osmag_nav.gridworld import (
    FREE,
    OCCUPIED,
    ROOT2,
    NoPathError,
    Obstacle,
    OccupancyGrid,
    SensorConfig,
    WorldModel,
    apply_sense_updates,
    inflate,
    navigate,
    plan_path,
    render_grid,
    render_true_grid,
    sense,
    walls_with_passage_gaps,
)
from osmag_nav.osmag import Area, OsmagError, Passage


def _empty_grid(width: int, height: int, resolution: float = 1.0) -> OccupancyGrid:
    return OccupancyGrid(
        resolution, MetricPoint(0.0, 0.0), np.full((height, width), FREE, dtype=np.uint8)
    )


# ---------------------------------------------------------------------------
# rendering


def test_render_single_room_ring():
    m = mapgen.minimal_map()  # 4 m square room
    grid = render_grid(m, 0.1)
    occ = np.argwhere(grid.cells == OCCUPIED)
    assert len(occ) > 0
    # interior strictly free
    cx, cy = grid.cell_of(2.0, 2.0)
    assert grid.at((cx, cy)) == FREE
    # walls form a closed ring: the interior is not reachable from outside
    start = grid.cell_of(2.0, 2.0)
    outside = grid.cell_of(-0.5, -0.5)
    blocked = grid.cells == OCCUPIED
    assert dijkstra_cost(blocked, start, outside) is None


def test_render_resolution_must_be_positive():
    for resolution in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            render_grid(mapgen.minimal_map(), resolution)


def test_render_passage_opens_shared_wall():
    m = mapgen.two_room_map()  # door spans y in [2, 3] at x=5
    grid = render_grid(m, 0.1)
    wall_col = grid.cell_of(5.0, 2.5)[0]
    free_rows = [
        y
        for y in range(grid.height)
        if grid.cells[y, wall_col] == FREE
        and 0.0 <= grid.origin.y + (y + 0.5) * 0.1 <= 5.0
    ]
    assert len(free_rows) == pytest.approx(10, abs=1)
    # the two room interiors are connected through the door
    a = grid.cell_of(2.5, 2.5)
    b = grid.cell_of(7.5, 2.5)
    assert dijkstra_cost(grid.cells == OCCUPIED, a, b) is not None


def test_render_ignores_semantic_nodes(bare_map, enriched_map):
    bare = render_grid(bare_map, 0.1)
    enriched = render_grid(enriched_map, 0.1)
    assert np.array_equal(bare.cells, enriched.cells)
    assert bare.origin == enriched.origin


def test_line_cells_match_bresenham():
    span = np.arange(-40, 41)
    dx, dy = (a.ravel() for a in np.meshgrid(span, span))
    x0 = np.full(dx.size, 40)
    y0 = np.full(dy.size, 40)
    xs, ys = gridworld._line_cells(x0, y0, x0 + dx, y0 + dy, 81, 81)
    expected = [cell for a, b in zip(dx.tolist(), dy.tolist()) for cell in bresenham((40, 40), (40 + a, 40 + b))]
    assert list(zip(xs.tolist(), ys.tolist())) == expected


def test_line_cells_clip_to_the_grid():
    """Lines that start, end or lie wholly outside a 23 x 17 grid keep
    exactly their in-grid cells, in order."""
    rng = np.random.default_rng(5)
    ends = rng.integers(-60, 90, size=(4, 400))
    ends[:, :40] = rng.integers(-3, 26, size=(4, 40))  # some from the border rows and columns
    xs, ys = gridworld._line_cells(*ends, 23, 17)
    expected = [
        (x, y)
        for x0, y0, x1, y1 in ends.T.tolist()
        for x, y in bresenham((x0, y0), (x1, y1))
        if 0 <= x < 23 and 0 <= y < 17
    ]
    assert list(zip(xs.tolist(), ys.tolist())) == expected


def _awkward_map():
    """Passages that leave the grid (one end, both ends, hundreds of metres
    out along either axis, through a missing node) and rings of fewer than
    three vertices."""
    b = mapgen._Builder()
    b.rect_area(100, 0.0, 0.0, 5.0, 5.0, {})
    b.rect_area(101, 5.0, 0.0, 10.0, 5.0, {})
    b.door(150, 100, 101, (5.0, 2.0), (5.0, 3.0))
    b.door(151, 100, 101, (2.0, 2.5), (-3.7, 9.1))
    b.door(152, 100, 101, (7.5, 1.0), (900.0, 35.0))
    b.door(153, 100, 101, (-50.0, 4.0), (60.0, 1.5))
    b.door(154, 100, 101, (3.05, -500.0), (3.35, 800.0))
    b.passages[155] = Passage(155, [b.node(9.0, 4.0), 99999, b.node(9.0, -2.0), b.node(-1.5, -2.0)], (100, 101), {})
    b.areas[102] = Area(102, [b.node(1.0, 1.0), b.node(4.0, 4.0)], {})
    b.areas[103] = Area(103, [b.node(-20.0, 7.0)], {})
    b.areas[104] = Area(104, [b.node(6.0, 1.0), 99998, b.node(9.0, 1.0)], {})
    return b.build()


_ORACLE_MAPS = {
    "fixture": five_room_map,
    "minimal": mapgen.minimal_map,
    "two-room": mapgen.two_room_map,
    "nested": mapgen.nested_map,
    "corridor": mapgen.corridor_map,
    "synthetic-3": lambda: mapgen.synthetic_map(3),
    "synthetic-8": lambda: mapgen.synthetic_map(8),
    "awkward": _awkward_map,
}


@pytest.mark.parametrize("name", sorted(_ORACLE_MAPS))
@pytest.mark.parametrize("resolution", [0.1, 0.07, 0.5])
def test_render_matches_oracle(name, resolution):
    m = _ORACLE_MAPS[name]()
    grid, oracle = render_grid(m, resolution), bf_render_grid(m, resolution)
    assert grid.sidecar() == oracle.sidecar()
    assert np.array_equal(grid.cells, oracle.cells)


@pytest.mark.parametrize("rooms", [16, 144])
def test_render_gen_building_matches_oracle(buildings, rooms):
    m = buildings[rooms].bare
    grid, oracle = render_grid(m), bf_render_grid(m, 0.1)
    assert grid.sidecar() == oracle.sidecar()
    assert np.array_equal(grid.cells, oracle.cells)


def test_render_refuses_oversized_grid_before_allocating(monkeypatch):
    m = mapgen.two_room_map()
    with pytest.raises(OsmagError) as exc:
        render_grid(m, 1e-7)
    assert re.fullmatch(r"a grid of \d+ x \d+ cells at resolution 1e-07 m exceeds the limit of 100000000 cells",
                        str(exc.value))
    fits = render_grid(m, 0.1)
    width, height = fits.width, fits.height
    monkeypatch.setattr(gridworld, "MAX_GRID_CELLS", width * height)
    assert render_grid(m, 0.1).cells.size == width * height  # at the limit
    monkeypatch.setattr(gridworld, "MAX_GRID_CELLS", width * height - 1)
    with pytest.raises(OsmagError, match=f"{width} x {height} cells at resolution 0.1 m"):
        render_grid(m, 0.1)


def test_render_refuses_resolution_too_fine_to_count():
    with pytest.raises(OsmagError, match="inf x inf cells"):
        render_grid(mapgen.two_room_map(), 5e-324)


_RADII_M = [0.0, 0.1, 0.25, 0.33, 0.6]


@pytest.mark.parametrize("rooms", [16, 144])
@pytest.mark.parametrize("radius_m", _RADII_M)
def test_inflate_gen_building_matches_oracle(buildings, rooms, radius_m):
    grid = render_grid(buildings[rooms].bare)
    assert np.array_equal(inflate(grid, radius_m).cells, bf_dilate(grid.cells, int(round(radius_m / 0.1))))


@pytest.mark.parametrize("radius_m", _RADII_M)
def test_inflate_random_grids_match_oracle(radius_m):
    """Grids as small as one cell, larger disks than grids, and occupied
    cells on every border: cells beyond the edge count as free."""
    rng = np.random.default_rng(int(radius_m * 100))
    for _ in range(40):
        height, width = (int(v) for v in rng.integers(1, 16, size=2))
        cells = (rng.random((height, width)) < rng.uniform(0.0, 0.2)).astype(np.uint8)
        edge = int(rng.integers(4))
        if edge == 0:
            cells[0, :] = OCCUPIED
        elif edge == 1:
            cells[:, -1] = OCCUPIED
        else:
            cells[int(rng.integers(height)), 0 if edge == 2 else width - 1] = OCCUPIED
        grid = OccupancyGrid(0.1, MetricPoint(0.0, 0.0), cells)
        assert np.array_equal(inflate(grid, radius_m).cells, bf_dilate(cells, int(round(radius_m / 0.1))))


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(osmag_nav.__file__)))
    code = "import sys, osmag_nav.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        check=True, capture_output=True, text=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# planning


def test_plan_diagonal_line():
    grid = _empty_grid(5, 5)
    path = plan_path(grid, (0, 0), (4, 4))
    assert path.cost_cells == pytest.approx(4 * ROOT2)
    assert len(path.cells) == 5


def test_plan_wall_with_gap_matches_dijkstra():
    grid = _empty_grid(5, 5)
    for y in range(4):  # wall at column 2 except row 4
        grid.cells[y, 2] = OCCUPIED
    path = plan_path(grid, (0, 0), (4, 0))
    oracle = dijkstra_cost(grid.cells == OCCUPIED, (0, 0), (4, 0))
    assert path.cost_cells == oracle


def test_plan_sealed_room_raises():
    grid = _empty_grid(7, 7)
    grid.cells[2:5, 2] = OCCUPIED
    grid.cells[2:5, 4] = OCCUPIED
    grid.cells[2, 2:5] = OCCUPIED
    grid.cells[4, 2:5] = OCCUPIED
    with pytest.raises(NoPathError):
        plan_path(grid, (0, 0), (3, 3))


def test_plan_rejects_occupied_endpoints():
    grid = _empty_grid(3, 3)
    grid.cells[0, 0] = OCCUPIED
    with pytest.raises(NoPathError):
        plan_path(grid, (0, 0), (2, 2))


def test_plan_never_cuts_corners():
    grid = _empty_grid(3, 3)
    grid.cells[0, 1] = OCCUPIED  # (x=1, y=0)
    grid.cells[1, 0] = OCCUPIED  # (x=0, y=1)
    with pytest.raises(NoPathError):
        plan_path(grid, (0, 0), (2, 2))


def test_plan_cost_equals_dijkstra_on_random_grids():
    rng = np.random.default_rng(1234)
    mismatches = 0
    for trial in range(60):
        density = rng.uniform(0.0, 0.4)
        cells = (rng.random((30, 30)) < density).astype(np.uint8)
        grid = OccupancyGrid(1.0, MetricPoint(0.0, 0.0), cells)
        free = np.argwhere(cells == FREE)
        if len(free) < 2:
            continue
        sy, sx = free[rng.integers(len(free))]
        gy, gx = free[rng.integers(len(free))]
        start, goal = (int(sx), int(sy)), (int(gx), int(gy))
        oracle = dijkstra_cost(cells == OCCUPIED, start, goal)
        try:
            path = plan_path(grid, start, goal)
        except NoPathError:
            assert oracle is None
            continue
        assert oracle is not None
        if path.cost_cells != oracle:
            mismatches += 1
    assert mismatches == 0


def test_octile_heuristic_admissible():
    # heuristic(a, goal) <= true optimal cost, sampled on random free grids
    rng = np.random.default_rng(77)
    for _ in range(20):
        cells = (rng.random((20, 20)) < 0.2).astype(np.uint8)
        free = np.argwhere(cells == FREE)
        sy, sx = free[rng.integers(len(free))]
        gy, gx = free[rng.integers(len(free))]
        oracle = dijkstra_cost(cells == OCCUPIED, (int(sx), int(sy)), (int(gx), int(gy)))
        if oracle is None:
            continue
        dx, dy = abs(int(sx) - int(gx)), abs(int(sy) - int(gy))
        octile = (dx + dy) + (ROOT2 - 2.0) * min(dx, dy)
        assert octile <= oracle + 1e-9


def _assert_same_plan(grid, start, goal):
    try:
        expected = bf_plan_path(grid, start, goal)
    except NoPathError as exc:
        with pytest.raises(NoPathError) as got:
            plan_path(grid, start, goal)
        assert str(got.value) == str(exc)
        return
    assert plan_path(grid, start, goal).cells == expected


@pytest.mark.parametrize("rooms, pairs, reach", [(16, 16, None), (144, 8, 120)])
def test_plan_matches_oracle_on_gen_buildings(buildings, rooms, pairs, reach):
    """Seeded start and goal cells, the goal within ``reach`` cells of the
    start on each axis when given (several rooms apart at 144 rooms)."""
    grid = inflate(render_grid(buildings[rooms].bare), 0.25)
    free = np.argwhere(grid.cells == FREE)
    rng = np.random.default_rng(rooms)
    for _ in range(pairs):
        sy, sx = free[rng.integers(len(free))]
        goals = free if reach is None else free[np.abs(free - (sy, sx)).max(axis=1) <= reach]
        gy, gx = goals[rng.integers(len(goals))]
        _assert_same_plan(grid, (int(sx), int(sy)), (int(gx), int(gy)))


def test_plan_matches_oracle_on_hand_made_grids():
    corner = _empty_grid(4, 4)
    corner.cells[1, 2] = corner.cells[2, 1] = OCCUPIED  # a diagonal gap to squeeze through
    for start, goal in [((1, 1), (2, 2)), ((0, 0), (3, 3)), ((3, 0), (0, 3))]:
        _assert_same_plan(corner, start, goal)
    border = _empty_grid(9, 6)
    border.cells[1:, 4] = OCCUPIED  # the only way round runs along the top row
    border.cells[0, 2] = OCCUPIED
    for start, goal in [((0, 0), (8, 5)), ((8, 0), (0, 5)), ((0, 5), (8, 0)), ((3, 0), (5, 0))]:
        _assert_same_plan(border, start, goal)
    ties = _empty_grid(7, 7)  # many equal-cost paths: the tie-break decides
    _assert_same_plan(ties, (0, 0), (6, 3))
    _assert_same_plan(ties, (6, 6), (0, 2))
    for line in (_empty_grid(1, 6), _empty_grid(6, 1)):
        _assert_same_plan(line, (0, 0), (line.width - 1, line.height - 1))
    sealed = _empty_grid(7, 7)
    sealed.cells[2:5, 2] = sealed.cells[2:5, 4] = OCCUPIED
    sealed.cells[2, 2:5] = sealed.cells[4, 2:5] = OCCUPIED
    for start, goal in [
        ((0, 0), (0, 0)),  # start equals goal
        ((0, 0), (3, 3)),  # unreachable
        ((3, 3), (6, 6)),  # walled in
        ((2, 2), (6, 6)),  # blocked start
        ((0, 0), (4, 3)),  # blocked goal
        ((-1, 0), (6, 6)),  # start off the grid
        ((0, 0), (7, 6)),  # goal off the grid
    ]:
        _assert_same_plan(sealed, start, goal)


def test_path_length_meters():
    grid = _empty_grid(10, 10, resolution=0.5)
    path = plan_path(grid, (0, 0), (3, 0))
    assert path.length_m == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# sensing


def _lidar(fov=360.0, range_m=10.0, rays=180):
    return SensorConfig(fov_deg=fov, range_m=range_m, rays=rays)


def test_sense_empty_world_no_occupied():
    world = WorldModel([], [], _lidar())
    grid = _empty_grid(100, 100, 0.1)
    occupied, free = sense(world, (5.0, 5.0, 0.0), grid)
    assert occupied == []
    assert len(free) > 0


def test_sense_box_ahead_marks_near_face():
    # 1 m-wide box 2 m ahead: occupied cells hug the near face at x = 7
    box = Obstacle("rect", (7.0, 4.5, 8.0, 5.5))
    world = WorldModel([box], [], _lidar(fov=90.0, rays=31))
    grid = _empty_grid(120, 120, 0.1)
    occupied, _ = sense(world, (5.0, 5.0, 0.0), grid)
    assert occupied
    for cx, cy in occupied:
        x, y = grid.center_of((cx, cy))
        # oracle: every hit must sit on the box boundary within one cell
        r = math.hypot(x - 5.0, y - 5.0)
        d = ray_rect_hit(5.0, 5.0, (x - 5.0) / r, (y - 5.0) / r, 7.0, 4.5, 8.0, 5.5)
        assert d is not None
        assert abs(r - d) <= 0.15


def test_sense_box_behind_fov_excludes():
    box = Obstacle("rect", (1.0, 4.5, 2.0, 5.5))  # behind a robot facing +x
    world = WorldModel([box], [], _lidar(fov=60.0, rays=21))
    grid = _empty_grid(120, 120, 0.1)
    occupied, _ = sense(world, (5.0, 5.0, 0.0), grid)
    assert occupied == []


def test_sense_range_cut():
    box = Obstacle("rect", (8.0, 4.0, 9.0, 6.0))
    world = WorldModel([box], [], _lidar(fov=60.0, range_m=2.0, rays=21))
    grid = _empty_grid(120, 120, 0.1)
    occupied, _ = sense(world, (5.0, 5.0, 0.0), grid)
    assert occupied == []


def test_sense_is_conservative_no_hallucinated_obstacles():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rects = [
            Obstacle(
                "rect",
                (x0 := rng.uniform(0, 9), y0 := rng.uniform(0, 9), x0 + rng.uniform(0.3, 1.5), y0 + rng.uniform(0.3, 1.5)),
            )
            for _ in range(3)
        ]
        world = WorldModel(rects, [], _lidar(rays=90))
        grid = _empty_grid(140, 140, 0.1)
        px, py = rng.uniform(1, 9), rng.uniform(1, 9)
        occupied, _ = sense(world, (px, py, 0.0), grid)
        for cell in occupied:
            x, y = grid.center_of(cell)
            half = grid.resolution / 2.0
            # cell square must touch some obstacle segment (within float slack)
            touches = False
            for x0, y0, x1, y1 in world.segments:
                steps = np.linspace(0.0, 1.0, 50)
                sx = x0 + (x1 - x0) * steps
                sy = y0 + (y1 - y0) * steps
                inside = (np.abs(sx - x) <= half + 1e-6) & (np.abs(sy - y) <= half + 1e-6)
                if inside.any():
                    touches = True
                    break
            assert touches


def _oracle_case(rng, sensor, px, py):
    """A pose at (px, py) and a random world of rects and segments, plus
    segments across and along the pose's first ray whose near end lies just
    inside or just beyond ``sensor.range_m``."""
    # the first ray points at ``first`` degrees; half the time along an axis
    first = 90.0 * int(rng.integers(4)) if rng.random() < 0.5 else rng.uniform(-180.0, 180.0)
    heading = first if sensor.fov_deg >= 360.0 else first + sensor.fov_deg / 2.0
    obstacles = []
    for _ in range(int(rng.integers(0, 6))):
        x0, y0 = rng.uniform(-2, 12), rng.uniform(-2, 10)
        obstacles.append(Obstacle("rect", (x0, y0, x0 + rng.uniform(0.1, 2), y0 + rng.uniform(0.1, 2))))
    for _ in range(int(rng.integers(0, 6))):
        obstacles.append(Obstacle("segment", tuple(rng.uniform(-2, 12, 4))))
    ux, uy = np.cos(np.deg2rad(first)), np.sin(np.deg2rad(first))
    for _ in range(int(rng.integers(0, 4))):
        d = sensor.range_m + rng.choice([-1e-3, -1e-7, 0.0, 1e-7, 2e-6, 1e-3])
        ax, ay = px + d * ux, py + d * uy
        if rng.random() < 0.7:  # across the ray, centred on it
            obstacles.append(Obstacle("segment", (ax - uy, ay + ux, ax + uy, ay - ux)))
        else:  # along the ray, pointing away from the pose
            obstacles.append(Obstacle("segment", (ax, ay, ax + ux, ay + uy)))
    return (px, py, heading), WorldModel(obstacles, [], sensor)


def test_sense_matches_oracle():
    # the range-culled, array-built sense equals the all-segments, per-cell
    # oracle, order included
    rng = np.random.default_rng(11)
    grid = _empty_grid(100, 80, 0.1)  # 10 m x 8 m
    sensors = [
        _lidar(fov=360.0, range_m=4.0, rays=90),
        _lidar(fov=120.0, range_m=4.0, rays=61),
        _lidar(fov=8.0, range_m=2.5, rays=5),
        _lidar(fov=360.0, range_m=1.0, rays=1),
    ]
    for trial in range(400):
        sensor = sensors[trial % len(sensors)]
        # poses inside, near and beyond the grid edge
        px, py = rng.uniform(-1.5, 11.5), rng.uniform(-1.5, 9.5)
        if trial % 5 == 0:
            px = rng.choice([0.01, 9.99, -0.3, 10.3])
        pose, world = _oracle_case(rng, sensor, px, py)
        if trial % 10 == 0:
            world = WorldModel([], [], sensor)
        assert sense(world, pose, grid) == bf_sense(world, pose, grid), (trial, pose)


def test_apply_updates_returns_newly_occupied():
    grid = _empty_grid(10, 10)
    grid.cells[5, 5] = OCCUPIED
    newly = apply_sense_updates(grid, [(2, 2), (5, 5), (7, 1)])
    assert newly == [(2, 2), (7, 1)]
    assert {(x, y) for y, x in zip(*np.nonzero(grid.cells))} == {(2, 2), (5, 5), (7, 1)}


# ---------------------------------------------------------------------------
# navigation


def _one_room_world(extra=None) -> tuple:
    m = mapgen.minimal_map()
    # scale: room is 4x4 at (0,0)-(4,4); use a bigger synthetic room instead
    import mapgen as mg

    b = mg._Builder()
    b.rect_area(100, 0.0, 0.0, 10.0, 10.0, {"name": "hall"})
    m = b.build()
    obstacles = walls_with_passage_gaps(m)
    if extra:
        obstacles.extend(extra)
    world = WorldModel(obstacles, [], _lidar(fov=360.0, range_m=3.0, rays=91))
    grid = render_grid(m, 0.1)
    return m, world, grid


def test_navigate_without_obstacles_follows_initial_plan():
    m, world, grid = _one_room_world()
    out = navigate(grid, world, MetricPoint(1.0, 5.0), MetricPoint(9.0, 5.0))
    assert out.reached
    assert out.replans == 0
    # straight-line optimal: driven equals the initial A* plan length
    planning = inflate(grid, 0.25)
    start, goal = grid.cell_of(1.0, 5.0), grid.cell_of(9.0, 5.0)
    assert out.driven_length == pytest.approx(plan_path(planning, start, goal).length_m)


def test_navigate_detours_around_unmapped_wall():
    blocker = Obstacle("segment", (5.0, 2.0, 5.0, 8.0))
    m, world, grid = _one_room_world([blocker])
    out = navigate(grid, world, MetricPoint(1.0, 5.0), MetricPoint(9.0, 5.0))
    assert out.reached
    assert out.replans >= 1
    # oracle: optimal cost on the fully-known true grid is a lower bound
    true_grid = render_true_grid(grid, world)
    cost = dijkstra_cost(
        true_grid.cells == OCCUPIED, grid.cell_of(1.0, 5.0), grid.cell_of(9.0, 5.0)
    )
    assert cost is not None
    assert out.driven_length >= cost * grid.resolution - 1e-9
    # reached outcomes can never undercut the straight-line distance
    sx, sy, _ = out.driven_path[0]
    gx, gy, _ = out.driven_path[-1]
    assert out.driven_length >= np.hypot(gx - sx, gy - sy) - grid.resolution
    # and the robot never physically crossed an obstacle
    for x, y, _ in out.driven_path:
        cell = true_grid.cell_of(x, y)
        assert true_grid.at(cell) != OCCUPIED


def test_navigate_escapes_inflation_halo_at_start():
    # a start pose hugging the wall sits inside the inflated region; the
    # robot must still be able to leave it (raw walls stay forbidden)
    m, world, grid = _one_room_world()
    out = navigate(grid, world, MetricPoint(0.15, 0.15), MetricPoint(9.0, 9.0))
    assert out.reached
    true_grid = render_true_grid(grid, world)
    for x, y, _ in out.driven_path:
        assert true_grid.at(true_grid.cell_of(x, y)) != OCCUPIED


def test_navigate_blocked_goal_fails_after_discovery():
    # seal the goal area behind an unmapped wall ring
    blockers = [
        Obstacle("segment", (7.0, 3.0, 7.0, 7.0)),
        Obstacle("segment", (7.0, 7.0, 10.0, 7.0)),
        Obstacle("segment", (7.0, 3.0, 10.0, 3.0)),
    ]
    m, world, grid = _one_room_world(blockers)
    out = navigate(grid, world, MetricPoint(1.0, 5.0), MetricPoint(9.0, 5.0))
    assert not out.reached
    assert out.replans >= 1
    assert out.failure_reason


def test_navigate_never_enters_occupied(bare_map, demo_world):
    grid = render_grid(bare_map, 0.1)
    out = navigate(grid, demo_world, MetricPoint(6.0, 10.5), MetricPoint(20.0, 12.5))
    assert out.reached
    true_grid = render_true_grid(grid, demo_world)
    for x, y, _ in out.driven_path:
        assert true_grid.at(true_grid.cell_of(x, y)) != OCCUPIED


def test_navigate_deterministic(bare_map, demo_world):
    grid = render_grid(bare_map, 0.1)
    a = navigate(grid, demo_world, MetricPoint(6.0, 10.5), MetricPoint(8.0, 1.0))
    b = navigate(grid, demo_world, MetricPoint(6.0, 10.5), MetricPoint(8.0, 1.0))
    assert a.driven_path == b.driven_path
    assert a.driven_length == b.driven_length
    assert a.replans == b.replans


def test_inflate_dilates_by_radius():
    grid = _empty_grid(20, 20, 0.1)
    grid.cells[10, 10] = OCCUPIED
    fat = inflate(grid, 0.25)
    assert fat.at((10, 10)) == OCCUPIED
    assert fat.at((10, 12)) == OCCUPIED  # 2 cells away
    assert fat.at((10, 13)) == FREE
    assert grid.at((10, 12)) == FREE  # input untouched


def test_walls_with_passage_gaps_and_true_grid():
    m = mapgen.two_room_map()
    obstacles = walls_with_passage_gaps(m)
    world = WorldModel(obstacles, [], _lidar())
    grid = render_grid(m, 0.1)
    true_grid = render_true_grid(grid, world)
    # the doorway stays free in the true grid: rooms remain connected
    a = true_grid.cell_of(2.5, 2.5)
    b = true_grid.cell_of(7.5, 2.5)
    assert dijkstra_cost(true_grid.cells == OCCUPIED, a, b) is not None


def test_grid_pgm_dump_round_trip_header():
    grid = _empty_grid(4, 3, 0.5)
    grid.cells[1, 2] = OCCUPIED
    pgm = grid.to_pgm()
    lines = pgm.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 3"
    sidecar = grid.sidecar()
    assert sidecar["width"] == 4 and sidecar["height"] == 3
    assert sidecar["resolution_m"] == 0.5
