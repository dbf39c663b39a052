from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import bf_segment_blocks
from osmag_nav.detection import (
    DetectionProfile,
    Proposal,
    detect_at_node,
    propose,
    verify,
    visible,
)
from osmag_nav.geometry import MetricPoint
from osmag_nav.gridworld import Obstacle, ObjectInstance, SensorConfig, WorldModel


def _world(instances, obstacles=(), fov=120.0, range_m=5.0):
    return WorldModel(
        list(obstacles), list(instances), SensorConfig(fov_deg=fov, range_m=range_m, rays=61)
    )


def test_profile_validation():
    with pytest.raises(ValueError, match="field 'p_propose_tp' must be a finite number >= 0 and <= 1, got 1.5"):
        DetectionProfile(p_propose_tp=1.5)
    with pytest.raises(ValueError, match="rotation_step_deg must divide 360"):
        DetectionProfile(rotation_step_deg=70)


def test_visible_straight_ahead():
    world = _world([ObjectInstance("cup", MetricPoint(1.0, 0.0))])
    assert visible(world, (0.0, 0.0, 0.0), world.instances[0])


def test_visible_blocked_by_wall():
    wall = Obstacle("segment", (0.5, -1.0, 0.5, 1.0))
    world = _world([ObjectInstance("cup", MetricPoint(1.0, 0.0))], [wall])
    assert not visible(world, (0.0, 0.0, 0.0), world.instances[0])


def test_visible_range_cut():
    world = _world([ObjectInstance("cup", MetricPoint(5.1, 0.0))], range_m=5.0)
    assert not visible(world, (0.0, 0.0, 0.0), world.instances[0])


def test_visible_fov_cut():
    world = _world([ObjectInstance("cup", MetricPoint(0.0, 2.0))], fov=60.0)
    assert not visible(world, (0.0, 0.0, 0.0), world.instances[0])  # 90 deg off heading
    assert visible(world, (0.0, 0.0, 90.0), world.instances[0])


def test_visible_coincident_instance():
    world = _world([ObjectInstance("cup", MetricPoint(0.0, 0.0))])
    assert visible(world, (0.0, 0.0, 0.0), world.instances[0])


def _sight_case(rng, kind):
    """(p, q, walls) for one sight-line case of the given kind."""
    n = 0 if kind == "empty" else int(rng.integers(1, 9))
    walls = rng.uniform(-1.0, 11.0, size=(n, 4))
    p, q = rng.uniform(0.0, 10.0, size=2), rng.uniform(0.0, 10.0, size=2)
    if kind == "axis":
        # each wall horizontal or vertical; sight lines often along an axis too
        for w in walls:
            if rng.random() < 0.5:
                w[3] = w[1]
            else:
                w[2] = w[0]
        if rng.random() < 0.5:
            axis = int(rng.integers(2))
            q[axis] = p[axis]
    elif kind == "integer":
        # endpoints on shared lattice points: touching, collinear and end-on walls
        walls, p, q = np.round(walls / 2.0), np.round(p / 2.0), np.round(q / 2.0)
    elif kind == "zero":
        q = p.copy()
    return p, q, walls


def test_line_of_sight_matches_segment_crossing_oracle():
    # visible blocks a sight line through the sensor's first-hit ray
    # cast; the oracle is the segment-crossing test it replaced
    rng = np.random.default_rng(23)
    kinds = ("random", "axis", "integer", "empty", "zero")
    blocked = 0
    for trial in range(4000):
        p, q, walls = _sight_case(rng, kinds[trial % len(kinds)])
        world = WorldModel(
            [Obstacle("segment", tuple(w)) for w in walls],
            [ObjectInstance("cup", MetricPoint(*q))],
            SensorConfig(fov_deg=360.0, range_m=100.0, rays=1),
        )
        expected = bf_segment_blocks(p[0], p[1], q[0], q[1], world.segments)
        assert visible(world, (p[0], p[1], 0.0), world.instances[0]) == (not expected), (trial, p, q, walls)
        blocked += expected
    assert 500 < blocked < 3000


@pytest.mark.parametrize("wall_x, seen", [(2.0, True), (2.0 - 1e-9, True), (2.0 - 1e-8, False)])
def test_sight_line_stops_short_of_the_instance(wall_x, seen):
    # the sight line ends at the instance (t = 1); a wall there, or within
    # 1e-9 of the line's length before it, leaves the instance visible, and
    # a wall 5e-9 of the length before it blocks
    wall = Obstacle("segment", (wall_x, -1.0, wall_x, 1.0))
    world = _world([ObjectInstance("cup", MetricPoint(2.0, 0.0))], [wall])
    assert visible(world, (0.0, 0.0, 0.0), world.instances[0]) == seen
    assert bf_segment_blocks(0.0, 0.0, 2.0, 0.0, world.segments) == (not seen)


def test_propose_perfect_single_target():
    world = _world([ObjectInstance("cup", MetricPoint(1.0, 0.0))])
    profile = DetectionProfile(p_propose_tp=1.0, fp_rate=0.0)
    rng = np.random.default_rng(0)
    proposals = propose(world, (0.0, 0.0, 0.0), "cup", profile, rng)
    assert len(proposals) == 1
    assert proposals[0].instance_ref == 0


def test_propose_no_target_no_fp():
    world = _world([ObjectInstance("plate", MetricPoint(1.0, 0.0))])
    profile = DetectionProfile(p_propose_tp=1.0, fp_rate=0.0)
    proposals = propose(world, (0.0, 0.0, 0.0), "cup", profile, np.random.default_rng(0))
    assert proposals == []


def test_propose_sorted_and_poisson_rate():
    world = _world([ObjectInstance("cup", MetricPoint(1.0, 0.0))])
    profile = DetectionProfile(p_propose_tp=1.0, fp_rate=2.0)
    rng = np.random.default_rng(42)
    spurious_total = 0
    trials = 10_000
    for _ in range(trials):
        proposals = propose(world, (0.0, 0.0, 0.0), "cup", profile, rng)
        confidences = [p.confidence for p in proposals]
        assert confidences == sorted(confidences, reverse=True)
        spurious_total += sum(1 for p in proposals if p.instance_ref is None)
    mean = spurious_total / trials
    assert abs(mean - 2.0) / 2.0 < 0.05  # Poisson mean within 5%


def test_verify_extremes():
    rng = np.random.default_rng(0)
    true_prop = Proposal(0.9, 0, 0.0)
    fake_prop = Proposal(0.9, None, 0.0)
    assert verify(true_prop, DetectionProfile(p_verify_tp=1.0), rng)
    assert not verify(fake_prop, DetectionProfile(p_verify_fp=0.0), rng)


def test_verify_fp_rate_monte_carlo():
    profile = DetectionProfile(p_verify_fp=0.1)
    rng = np.random.default_rng(7)
    fake = Proposal(0.5, None, 0.0)
    accepted = sum(verify(fake, profile, rng) for _ in range(10_000))
    assert abs(accepted / 10_000 - 0.1) < 0.01


def test_detect_views_used_enumerates_headings():
    # target visible only around absolute heading 180 with a narrow FOV
    world = _world([ObjectInstance("cup", MetricPoint(-2.0, 0.0))], fov=90.0)
    profile = DetectionProfile(p_propose_tp=1.0, fp_rate=0.0, p_verify_tp=1.0)
    outcome = detect_at_node(world, (0.0, 0.0), "cup", profile, np.random.default_rng(0))
    assert outcome.found and outcome.is_true_positive
    assert outcome.views_used == 3  # headings 0, 90, 180


def test_detect_absent_target_exhausts_views():
    world = _world([])
    profile = DetectionProfile(p_propose_tp=1.0, fp_rate=0.0, rotation_step_deg=90)
    outcome = detect_at_node(world, (0.0, 0.0), "cup", profile, np.random.default_rng(0))
    assert not outcome.found
    assert outcome.views_used == 4
    assert outcome.matched_instance is None
    for step in (1, 45, 120, 360):
        profile = DetectionProfile(p_propose_tp=1.0, fp_rate=0.0, rotation_step_deg=step)
        outcome = detect_at_node(world, (0.0, 0.0), "cup", profile, np.random.default_rng(0))
        assert outcome.views_used == 360 // step


def test_detect_false_positive_failure_mode():
    # nothing visible, spurious accepts allowed: found with is_true_positive False
    world = _world([])
    profile = DetectionProfile(p_propose_tp=1.0, fp_rate=2.0, p_verify_fp=1.0)
    outcome = detect_at_node(world, (0.0, 0.0), "cup", profile, np.random.default_rng(1))
    assert outcome.found
    assert not outcome.is_true_positive
    assert outcome.matched_instance is None


def test_detect_deterministic_per_seed():
    world = _world([ObjectInstance("cup", MetricPoint(2.0, 1.0))])
    profile = DetectionProfile(p_propose_tp=0.7, fp_rate=1.0, p_verify_tp=0.8, p_verify_fp=0.1)
    a = detect_at_node(world, (0.0, 0.0), "cup", profile, np.random.default_rng(5))
    b = detect_at_node(world, (0.0, 0.0), "cup", profile, np.random.default_rng(5))
    assert a == b


def test_detect_perfect_profile_matches_visibility_oracle():
    rng = np.random.default_rng(11)
    profile = DetectionProfile(p_propose_tp=1.0, fp_rate=0.0, p_verify_tp=1.0)
    for _ in range(50):
        inst = ObjectInstance("cup", MetricPoint(rng.uniform(-6, 6), rng.uniform(-6, 6)))
        world = _world([inst], fov=120.0, range_m=4.0)
        outcome = detect_at_node(world, (0.0, 0.0), "cup", profile, np.random.default_rng(0))
        # oracle: purely geometric visibility at some rotation heading
        r = math.hypot(inst.position.x, inst.position.y)
        bearing = math.degrees(math.atan2(inst.position.y, inst.position.x)) % 360.0
        visible_any = r <= 4.0 and any(
            abs((bearing - h + 180.0) % 360.0 - 180.0) <= 60.0 for h in (0, 90, 180, 270)
        )
        assert outcome.found == visible_any

