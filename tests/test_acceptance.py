"""Acceptance gate: one test per criterion, at the stated tolerance and
runtime bound. Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import mapgen
import oracles
import osmag_nav
from osmag_nav.cli import main as cli_main
from osmag_nav.detection import DetectionProfile, Proposal, propose, verify
from osmag_nav.enrichment import ingest
from osmag_nav.episode import EpisodeRecord
from osmag_nav.evalkit import compute_report, dir_rate, r_rsr, run_experiment
from osmag_nav.fixtures import (
    demo_experiment_config,
    enriched_five_room_map,
    five_room_map,
    five_room_records,
    five_room_world,
)
from osmag_nav.geometry import MetricPoint
from osmag_nav.gridworld import (
    FREE,
    OCCUPIED,
    NoPathError,
    Obstacle,
    OccupancyGrid,
    SensorConfig,
    WorldModel,
    navigate,
    plan_path,
    render_grid,
    render_true_grid,
    walls_with_passage_gaps,
)
from osmag_nav.osmag import (
    map_size_bytes,
    parse_osmag,
    serialize_osmag,
)
from osmag_nav.retrieval import PlanError, parse_plan
from test_retrieval import _adversarial_reply, _assert_plan_invariants


def test_c01_parser_round_trip_ten_fixtures():
    maps = [
        mapgen.minimal_map(),
        mapgen.two_room_map(),
        mapgen.nested_map(),
        five_room_map(),
        enriched_five_room_map(),
    ] + [mapgen.synthetic_map(seed) for seed in range(5)]
    assert len(maps) == 10
    started = time.perf_counter()
    for m in maps:
        first = serialize_osmag(m)
        parsed = parse_osmag(first)
        assert oracles.maps_semantically_equal(m, parsed), "round-trip must be semantically identical"
        assert serialize_osmag(parsed) == first, "canonical serialization must be a fixed point"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"round-trip suite took {elapsed:.2f}s (budget 1s)"


def test_c02_astar_matches_dijkstra_on_200_grids():
    rng = np.random.default_rng(20240817)
    started = time.perf_counter()
    paths_found = 0
    no_paths = 0
    for trial in range(200):
        density = rng.uniform(0.0, 0.4)
        cells = (rng.random((30, 30)) < density).astype(np.uint8)
        free = np.argwhere(cells == FREE)
        sy, sx = free[rng.integers(len(free))]
        gy, gx = free[rng.integers(len(free))]
        start, goal = (int(sx), int(sy)), (int(gx), int(gy))
        grid = OccupancyGrid(1.0, MetricPoint(0.0, 0.0), cells)
        oracle = oracles.dijkstra_cost(cells == OCCUPIED, start, goal)
        try:
            path = plan_path(grid, start, goal)
        except NoPathError:
            assert oracle is None, "planner reported no path where Dijkstra finds one"
            no_paths += 1
            continue
        assert oracle is not None, "planner found a path where Dijkstra finds none"
        assert path.cost_cells == oracle, f"cost mismatch on trial {trial}"
        paths_found += 1
    elapsed = time.perf_counter() - started
    assert paths_found > 0 and no_paths > 0  # both branches exercised
    assert elapsed < 10.0, f"A* equivalence took {elapsed:.2f}s (budget 10s)"


def test_c03_replanning_soundness():
    builder = mapgen._Builder()
    builder.rect_area(100, 0.0, 0.0, 10.0, 10.0, {"name": "hall"})
    m = builder.build()
    # unmapped wall splits the room, open at both ends: collision then detour
    blocker = Obstacle("segment", (5.0, 2.0, 5.0, 8.0))
    world = WorldModel(
        walls_with_passage_gaps(m) + [blocker],
        [],
        SensorConfig(fov_deg=120.0, range_m=3.0, rays=61),
    )
    grid = render_grid(m, 0.1)
    start, goal = MetricPoint(1.0, 5.0), MetricPoint(9.0, 5.0)

    outcomes = [navigate(grid, world, start, goal) for _ in range(2)]
    a, b = outcomes
    assert a.reached, "robot must reach the goal around the unmapped wall"
    assert a.replans >= 1, "discovering the wall must trigger replanning"
    true_grid = render_true_grid(grid, world)
    for x, y, _ in a.driven_path:
        assert true_grid.at(true_grid.cell_of(x, y)) != OCCUPIED, "entered an occupied cell"
    optimal = oracles.dijkstra_cost(
        true_grid.cells == OCCUPIED, grid.cell_of(start.x, start.y), grid.cell_of(goal.x, goal.y)
    )
    assert optimal is not None
    assert a.driven_length >= optimal * grid.resolution - 1e-9
    # deterministic per seed (navigation is seed-free and pure)
    assert a.driven_path == b.driven_path and a.replans == b.replans


def test_c04_fuzzed_replies_never_break_plan_invariants():
    m = enriched_five_room_map()
    rng = np.random.default_rng(4242)
    parsed = 0
    for _ in range(1000):
        reply = _adversarial_reply(rng, m)
        try:
            plan = parse_plan(reply, m)
        except PlanError:
            continue
        parsed += 1
        _assert_plan_invariants(plan, m)
    assert parsed > 100, "fuzz generator must exercise the accepting path"


def test_c05_metric_oracle_equivalence_50_batches():
    from test_evalkit import synthetic_batch

    rng = np.random.default_rng(555)
    for _ in range(50):
        batch = synthetic_batch(rng, int(rng.integers(4, 50)))
        dicts = [rec.to_dict() for rec in batch]
        report = compute_report(batch)
        assert report.r_rsr == oracles.bf_r_rsr(dicts)
        for n in (1, 5):
            ks = [1.0, 2.0, 3.0]
            values = []
            for k in ks:
                got = report.o_rsr[str(n)][f"{k:g}"]
                assert got == oracles.bf_o_rsr(dicts, n, k)
                values.append(got)
            assert values == sorted(values), "O-RSR must be monotone in k"
        for k in ("1", "2", "3"):
            assert report.o_rsr["1"][k] <= report.o_rsr["5"][k] + 1e-15, "monotone in n"
        assert (report.amd_m, report.amd_excluded) == oracles.bf_amd(dicts)
        assert (report.apl_m, report.apl_count) == oracles.bf_apl(dicts, 1.0)
        assert report.dir["all_queries"] == oracles.bf_dir(dicts, "all_queries")
        assert report.dir["failed_only"] == oracles.bf_dir(dicts, "failed_only")


def test_c06_detection_statistics_within_3_sigma():
    profile = DetectionProfile(
        p_propose_tp=0.8, fp_rate=1.0, p_verify_tp=0.9, p_verify_fp=0.05
    )
    from osmag_nav.gridworld import ObjectInstance

    world = WorldModel(
        [], [ObjectInstance("cup", MetricPoint(1.0, 0.0))], SensorConfig(fov_deg=360.0)
    )
    trials = 10_000
    rng = np.random.default_rng(0)

    tp_proposals = 0
    spurious_proposals = 0
    for _ in range(trials):
        props = propose(world, (0.0, 0.0, 0.0), "cup", profile, rng)
        tp_proposals += sum(1 for p in props if p.instance_ref is not None)
        spurious_proposals += sum(1 for p in props if p.instance_ref is None)

    sigma_tp = math.sqrt(trials * 0.8 * 0.2)
    assert abs(tp_proposals - trials * 0.8) <= 3 * sigma_tp
    sigma_poisson = math.sqrt(trials * 1.0)  # Poisson total over all trials
    assert abs(spurious_proposals - trials * 1.0) <= 3 * sigma_poisson

    true_prop = Proposal(0.9, 0, 0.0)
    fake_prop = Proposal(0.9, None, 0.0)
    accepted_tp = sum(verify(true_prop, profile, rng) for _ in range(trials))
    accepted_fp = sum(verify(fake_prop, profile, rng) for _ in range(trials))
    sigma_vtp = math.sqrt(trials * 0.9 * 0.1)
    sigma_vfp = math.sqrt(trials * 0.05 * 0.95)
    assert abs(accepted_tp - trials * 0.9) <= 3 * sigma_vtp
    assert abs(accepted_fp - trials * 0.05) <= 3 * sigma_vfp


def _demo_run(tmp_path, profile_overrides=None, map_mode="full"):
    out = tmp_path
    (out / "fixture_enriched.osm").write_text(
        serialize_osmag(enriched_five_room_map()), encoding="utf-8"
    )
    (out / "world.json").write_text(
        json.dumps(five_room_world().to_dict(), sort_keys=True), encoding="utf-8"
    )
    config = demo_experiment_config()
    config["map"] = "fixture_enriched.osm"
    config["world"] = "world.json"
    config["map_mode"] = map_mode
    if profile_overrides:
        config["profile"].update(profile_overrides)
    return run_experiment(config, base_dir=str(out))


def test_c07_end_to_end_so_ro_uo_demo(tmp_path):
    started = time.perf_counter()
    records, report = _demo_run(tmp_path)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"demo took {elapsed:.1f}s (budget 60s)"

    by_cat: dict[str, list[EpisodeRecord]] = {"SO": [], "RO": [], "UO": []}
    for rec in records:
        by_cat[rec.category].append(rec)
    assert all(len(v) == 2 for v in by_cat.values())

    # SO queries succeed at plan node 1
    for rec in by_cat["SO"]:
        assert rec.success, f"SO query {rec.query_object} failed"
        assert rec.success_node_id == rec.plan_nodes[0]["node_id"]

    # RO recovery through online detection beats a detection-disabled run
    ro_dir = dir_rate(by_cat["RO"], "failed_only")
    disabled_records, _ = _demo_run(tmp_path, {"p_propose_tp": 0.0, "fp_rate": 0.0})
    disabled_ro = [r for r in disabled_records if r.category == "RO"]
    assert ro_dir > dir_rate(disabled_ro, "failed_only")
    for rec in by_cat["RO"]:
        assert rec.success, f"RO query {rec.query_object} failed"

    # UO: room descriptions alone give perfect room retrieval, nonzero success
    assert r_rsr(by_cat["UO"]) == 1.0
    assert sum(1 for rec in by_cat["UO"] if rec.success) > 0

    # navigation effort ordering: static queries drive the shortest paths
    mean_driven = {
        cat: sum(r.driven_length_m for r in recs) / len(recs)
        for cat, recs in by_cat.items()
    }
    assert mean_driven["SO"] < mean_driven["RO"]
    assert mean_driven["SO"] < mean_driven["UO"]


def test_c08_rooms_only_variant_room_retrieval(tmp_path):
    records, report = _demo_run(tmp_path, map_mode="rooms_only")
    assert report.r_rsr >= 0.8, f"rooms_only R-RSR {report.r_rsr} below 0.8"


def test_c09_map_size_budgets():
    bare = five_room_map()
    enriched, _ = ingest(bare, five_room_records())
    assert map_size_bytes(enriched) < 1024 * 1024, "enriched fixture must stay under 1 MB"
    # per-node budget measured on the node-adding records alone (room
    # descriptions are per-room text, not node cost)
    records = five_room_records()
    nodes_only = {"instances": records["instances"], "viewpoints": records["viewpoints"]}
    with_nodes, ingest_report = ingest(bare, nodes_only)
    added = ingest_report.applied["instances"] + ingest_report.applied["viewpoints"]
    per_node = (map_size_bytes(with_nodes) - map_size_bytes(bare)) / added
    assert per_node < 200.0, f"enrichment adds {per_node:.0f} bytes per node (budget 200)"


def test_c10_demo_determinism_across_runs_and_jobs(tmp_path, capsys):
    out_a, out_b, out_c = (tmp_path / name for name in ("a", "b", "c"))
    assert cli_main(["demo", "--seed", "11", "-o", str(out_a), "--jobs", "1"]) == 0
    assert cli_main(["demo", "--seed", "11", "-o", str(out_b), "--jobs", "1"]) == 0
    assert cli_main(["demo", "--seed", "11", "-o", str(out_c), "--jobs", "4"]) == 0
    capsys.readouterr()
    for name in ("records.jsonl", "report.json", "report.csv"):
        bytes_a = (out_a / name).read_bytes()
        assert bytes_a == (out_b / name).read_bytes(), f"{name} differs across runs"
        assert bytes_a == (out_c / name).read_bytes(), f"{name} differs across job counts"


def test_c10_demo_bytes_independent_of_hash_seed(tmp_path):
    """The configuration speed-ups cite for unchanged outputs, run in two fresh
    interpreters: --jobs 1 with hash seed 0 against --jobs 2 with hash seed 5."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(osmag_nav.__file__)))
    for name, jobs, hash_seed in (("a", "1", "0"), ("b", "2", "5")):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        subprocess.run(
            [sys.executable, "-m", "osmag_nav.cli", "demo", "-o", str(tmp_path / name),
             "--granularities", "o,or,orf", "--jobs", jobs],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
        )
    for name in ("records.jsonl", "report.json", "report.csv", "fixture_enriched.osm"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
