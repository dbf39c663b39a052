"""Coordinate frames and planar geometry shared by the map model and the simulator.

Geographic coordinates (WGS84 degrees) are the wire format; planning and
metrics run in a local metric frame obtained by an equirectangular projection
around a per-map origin. At building scale the projection error is far below
the tolerances used anywhere in the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_M = 6378137.0
DEG = math.pi / 180.0

# Latitude band where the equirectangular projection stays well conditioned.
MAX_SUPPORTED_LAT = 85.0

# Degree-space tolerance for "on the boundary counts as inside".
BOUNDARY_TOL_DEG = 1e-9


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 position in degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise GeometryError(f"latitude {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise GeometryError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class MetricPoint:
    """Planar position in meters east/north of the projection origin."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite metric point ({self.x}, {self.y})")

    def distance_to(self, other: "MetricPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def project(p: GeoPoint, origin: GeoPoint) -> MetricPoint:
    """Local equirectangular projection of ``p`` around ``origin``."""
    if abs(p.lat) >= MAX_SUPPORTED_LAT or abs(origin.lat) >= MAX_SUPPORTED_LAT:
        raise GeometryError(
            f"latitude outside supported band (|lat| < {MAX_SUPPORTED_LAT})"
        )
    x = (p.lon - origin.lon) * DEG * EARTH_RADIUS_M * math.cos(origin.lat * DEG)
    y = (p.lat - origin.lat) * DEG * EARTH_RADIUS_M
    return MetricPoint(x, y)


def unproject(p: MetricPoint, origin: GeoPoint) -> GeoPoint:
    """Inverse of :func:`project`; exact up to floating-point rounding."""
    if abs(origin.lat) >= MAX_SUPPORTED_LAT:
        raise GeometryError(
            f"latitude outside supported band (|lat| < {MAX_SUPPORTED_LAT})"
        )
    lat = origin.lat + p.y / (DEG * EARTH_RADIUS_M)
    lon = origin.lon + p.x / (DEG * EARTH_RADIUS_M * math.cos(origin.lat * DEG))
    return GeoPoint(lat, lon)


def point_segment_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Distance from point (px, py) to segment (a, b)."""
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 <= 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def on_ring_boundary(x: float, y: float, ring: list[tuple[float, float]], tol: float) -> bool:
    """True when (x, y) lies within ``tol`` of an edge of the closed ``ring``."""
    n = len(ring)
    for i in range(n):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % n]
        if point_segment_distance(x, y, ax, ay, bx, by) <= tol:
            return True
    return False


def point_in_ring(
    x: float,
    y: float,
    ring: list[tuple[float, float]],
    boundary_tol: float = BOUNDARY_TOL_DEG,
) -> bool:
    """Even-odd point-in-polygon test; points on the boundary count as inside.

    ``ring`` is an open vertex list (last vertex connects back to the first).
    """
    n = len(ring)
    if n < 3:
        return False
    if boundary_tol > 0.0 and on_ring_boundary(x, y, ring, boundary_tol):
        return True
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = ring[i]
        xj, yj = ring[j]
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def _segments_properly_intersect(
    p1: tuple[float, float],
    p2: tuple[float, float],
    q1: tuple[float, float],
    q2: tuple[float, float],
) -> bool:
    def orient(a, b, c) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def ring_is_simple(ring: list[tuple[float, float]]) -> bool:
    """True when no two non-adjacent edges of the ring properly cross."""
    n = len(ring)
    if n < 3:
        return False
    edges = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_properly_intersect(*edges[i], *edges[j]):
                return False
    return True
