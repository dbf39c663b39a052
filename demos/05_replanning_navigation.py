"""Drive toward a goal while discovering unmapped obstacles.

The stored map knows only walls and doors. The hidden world adds a wall
segment the map has never seen; the robot senses it mid-route, marks the
cells occupied, replans around it, and still reaches the goal. The stored
map is never touched, which is what keeps it valid long-term.
"""

from osmag_nav import navigate, plan_path, render_grid
from osmag_nav.geometry import GeoPoint, MetricPoint, unproject
from osmag_nav.gridworld import (
    OCCUPIED,
    Obstacle,
    SensorConfig,
    WorldModel,
    walls_with_passage_gaps,
)
from osmag_nav.osmag import Area, MapNode, SemanticMap

# one 10 x 10 m hall, built in the metric frame around an arbitrary origin
origin = GeoPoint(31.0, 121.0)
corners = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
nodes = {
    i + 1: MapNode(i + 1, unproject(MetricPoint(x, y), origin))
    for i, (x, y) in enumerate(corners)
}
hall = Area(100, [1, 2, 3, 4], {"osmAG:type": "area", "name": "hall"})
m = SemanticMap(nodes, {100: hall}, {}, origin)

grid = render_grid(m, 0.1)
unmapped = Obstacle("segment", (5.0, 2.0, 5.0, 8.0))
world = WorldModel(
    walls_with_passage_gaps(m) + [unmapped],
    [],
    SensorConfig(fov_deg=120.0, range_m=3.0, rays=61),
)

out = navigate(grid, world, MetricPoint(1.0, 5.0), MetricPoint(9.0, 5.0))
print(f"reached: {out.reached}")
print(f"replans after discovering the wall: {out.replans}")
print(f"driven: {out.driven_length:.2f} m (straight line would be 8 m)")

# compare with the best any planner could do knowing the wall upfront: the
# map grid with the wall's column of cells marked occupied
true_grid = grid.copy()
(wall_x, wall_y0), (_, wall_y1) = grid.cell_of(5.0, 2.0), grid.cell_of(5.0, 8.0)
true_grid.cells[wall_y0 : wall_y1 + 1, wall_x] = OCCUPIED
optimal = plan_path(true_grid, grid.cell_of(1.0, 5.0), grid.cell_of(9.0, 5.0))
print(f"omniscient optimum: {optimal.length_m:.2f} m")
print(f"online overhead: {out.driven_length - optimal.length_m:+.2f} m")
