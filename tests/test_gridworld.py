from __future__ import annotations

import math

import numpy as np
import pytest

import mapgen
from oracles import bf_sense, dijkstra_cost, ray_rect_hit
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
    with pytest.raises(ValueError):
        render_grid(mapgen.minimal_map(), 0.0)


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
