from __future__ import annotations

import math

import numpy as np
import pytest

from osmag_nav.geometry import (
    EARTH_RADIUS_M,
    GeoPoint,
    GeometryError,
    MetricPoint,
    point_in_ring,
    project,
    ring_is_simple,
    unproject,
)
from oracles import haversine_m, winding_number_inside

ORIGIN = GeoPoint(31.0, 121.0)


def test_project_origin_is_zero():
    p = project(ORIGIN, ORIGIN)
    assert p.x == 0.0 and p.y == 0.0


def test_project_lon_offset_matches_formula():
    # independent evaluation: x = dlon * (pi/180) * R * cos(lat)
    expected = 1e-5 * math.pi / 180.0 * EARTH_RADIUS_M * math.cos(math.radians(31.0))
    assert abs(expected - 0.954185) < 1e-4  # freeze the oracle value itself
    p = project(GeoPoint(31.0, 121.0 + 1e-5), ORIGIN)
    assert p.x == pytest.approx(expected, rel=1e-4)
    assert p.y == 0.0


def test_project_lat_offset_matches_formula():
    expected = 1e-5 * math.pi / 180.0 * EARTH_RADIUS_M
    assert abs(expected - 1.113195) < 1e-4
    p = project(GeoPoint(31.0 + 1e-5, 121.0), ORIGIN)
    assert p.y == pytest.approx(expected, rel=1e-4)
    assert p.x == 0.0


def test_unproject_inverts_project():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = GeoPoint(31.0 + rng.uniform(-0.01, 0.01), 121.0 + rng.uniform(-0.01, 0.01))
        q = unproject(project(p, ORIGIN), ORIGIN)
        assert abs(q.lat - p.lat) < 1e-9
        assert abs(q.lon - p.lon) < 1e-9


def test_projection_isometry_against_haversine():
    # within 500 m of the origin, metric distance matches haversine to 0.1%
    rng = np.random.default_rng(23)
    for _ in range(300):
        a = MetricPoint(rng.uniform(-500, 500), rng.uniform(-500, 500))
        b = MetricPoint(rng.uniform(-500, 500), rng.uniform(-500, 500))
        ga, gb = unproject(a, ORIGIN), unproject(b, ORIGIN)
        euclid = a.distance_to(b)
        sphere = haversine_m(ga, gb)
        if sphere > 1.0:
            assert abs(euclid - sphere) / sphere < 1e-3


def test_latitude_band_enforced():
    with pytest.raises(GeometryError):
        project(GeoPoint(86.0, 0.0), GeoPoint(85.5, 0.0))
    with pytest.raises(GeometryError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(GeometryError):
        GeoPoint(0.0, 181.0)


def test_point_in_ring_matches_winding_oracle():
    rng = np.random.default_rng(7)
    rings = [
        [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)],
        [(0.0, 0.0), (6.0, 0.0), (6.0, 2.0), (2.0, 2.0), (2.0, 6.0), (0.0, 6.0)],  # L-shape
        [(0.0, 0.0), (5.0, 1.0), (7.0, 4.0), (3.0, 6.0), (-1.0, 3.0)],  # convex-ish pentagon
    ]
    for ring in rings:
        for _ in range(1000):
            x = rng.uniform(-2.0, 8.0)
            y = rng.uniform(-2.0, 8.0)
            # boundary tolerance off: the oracle has no boundary handling
            assert point_in_ring(x, y, ring, boundary_tol=0.0) == winding_number_inside(
                x, y, ring
            )


def test_point_in_ring_matches_winding_on_fixture_polygons():
    from osmag_nav.fixtures import enriched_five_room_map

    m = enriched_five_room_map()
    rng = np.random.default_rng(31)
    for area in m.areas.values():
        ring = m.area_ring_metric(area)
        xs = [v[0] for v in ring]
        ys = [v[1] for v in ring]
        for _ in range(1000):
            x = rng.uniform(min(xs) - 2.0, max(xs) + 2.0)
            y = rng.uniform(min(ys) - 2.0, max(ys) + 2.0)
            assert point_in_ring(x, y, ring, boundary_tol=0.0) == winding_number_inside(
                x, y, ring
            )


def test_boundary_counts_as_inside():
    ring = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    assert point_in_ring(2.0, 0.0, ring, boundary_tol=1e-9)
    assert point_in_ring(4.0, 2.0, ring, boundary_tol=1e-9)


def test_ring_simplicity():
    square = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    bowtie = [(0.0, 0.0), (4.0, 4.0), (4.0, 0.0), (0.0, 4.0)]
    assert ring_is_simple(square)
    assert not ring_is_simple(bowtie)


def test_metric_point_rejects_non_finite():
    with pytest.raises(GeometryError):
        MetricPoint(float("nan"), 0.0)
    with pytest.raises(GeometryError):
        MetricPoint(0.0, float("inf"))
