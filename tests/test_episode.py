from __future__ import annotations

import pytest

from oracles import dijkstra_cost, render_true_grid
from osmag_nav.detection import DetectionProfile
from osmag_nav.episode import EpisodeConfig, EpisodeRecord, read_records, run_episode, write_records
from osmag_nav.gridworld import inflate, render_grid
from osmag_nav.llm import TextBackend
from osmag_nav.retrieval import Query


def _cfg(enriched_map, demo_world, backend, profile, query, **kwargs):
    return EpisodeConfig(
        map=enriched_map,
        world=demo_world,
        query=query,
        backend=backend,
        profile=profile,
        start=demo_world.start,
        seed=kwargs.pop("seed", 7),
        **kwargs,
    )


def test_static_target_succeeds_at_first_node(enriched_map, demo_world, heuristic_backend, demo_profile):
    rec = run_episode(_cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("sink")))
    assert rec.success
    assert rec.success_node_id == rec.plan_nodes[0]["node_id"]
    assert rec.visits[0].detection.is_true_positive
    # driven length equals optimal on the planning grid (no unmapped obstacle
    # intersects this route), within one diagonal step
    grid = render_grid(enriched_map, 0.1)
    planning = inflate(grid, 0.25)
    start = grid.cell_of(6.0, 10.5)
    goal = grid.cell_of(8.0, 1.0)
    oracle = dijkstra_cost(planning.cells == 1, start, goal)
    assert oracle is not None
    assert abs(rec.driven_length_m - oracle * 0.1) <= 0.1 * 1.5


def test_relocated_target_found_in_rank2_room(enriched_map, demo_world, heuristic_backend, demo_profile):
    rec = run_episode(
        _cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("robot dog"), category="RO")
    )
    assert rec.success
    # mapped node (room 103) yields no detection; success comes in room 102
    first = rec.visits[0]
    assert first.room_id == 103 and first.detection and not first.detection.found
    success_visit = next(v for v in rec.visits if v.node_id == rec.success_node_id)
    assert success_visit.room_id == 102


def test_zero_probability_profile_visits_everything(enriched_map, demo_world, heuristic_backend):
    disabled = DetectionProfile(p_propose_tp=0.0, fp_rate=0.0)
    rec = run_episode(_cfg(enriched_map, demo_world, heuristic_backend, disabled, Query("sink")))
    assert not rec.success
    assert len(rec.visits) == len(rec.plan_nodes)
    for visit in rec.visits:
        if visit.reached:
            assert visit.detection.views_used == 360 // disabled.rotation_step_deg
            assert not visit.detection.found


def test_visit_order_is_plan_flattening(enriched_map, demo_world, heuristic_backend):
    disabled = DetectionProfile(p_propose_tp=0.0, fp_rate=0.0)
    rec = run_episode(_cfg(enriched_map, demo_world, heuristic_backend, disabled, Query("robot dog")))
    assert [v.node_id for v in rec.visits] == [n["node_id"] for n in rec.plan_nodes]


def test_record_bytes_reproducible(enriched_map, demo_world, heuristic_backend, demo_profile):
    a = run_episode(_cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("measuring cup")))
    b = run_episode(_cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("measuring cup")))
    assert a.to_json() == b.to_json()


def test_success_label_matches_query(enriched_map, demo_world, heuristic_backend, demo_profile):
    rec = run_episode(_cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("TV")))
    assert rec.success
    matched = rec.visits[-1].detection.matched_instance
    assert demo_world.instances[matched].label.lower() == "tv"


def test_driven_length_is_sum_of_legs(enriched_map, demo_world, heuristic_backend, demo_profile):
    rec = run_episode(_cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("robot dog")))
    assert rec.driven_length_m == pytest.approx(sum(v.driven_length_m for v in rec.visits))


def test_driven_exceeds_true_grid_optimal(enriched_map, demo_world, heuristic_backend, demo_profile):
    rec = run_episode(_cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("sink")))
    grid = render_grid(enriched_map, 0.1)
    true_grid = render_true_grid(grid, demo_world)
    cost = dijkstra_cost(
        true_grid.cells == 1, grid.cell_of(6.0, 10.5), grid.cell_of(8.0, 1.0)
    )
    assert rec.driven_length_m >= cost * 0.1 - 1e-9


class _NoJsonBackend(TextBackend):
    kind = "scripted"

    def complete_text(self, req):
        return "nothing useful"


def test_retrieval_failure_records_failed_episode(enriched_map, demo_world, demo_profile):
    rec = run_episode(_cfg(enriched_map, demo_world, _NoJsonBackend(), demo_profile, Query("sink")))
    assert not rec.success
    assert rec.visits == []
    assert "retrieval failed" in rec.failure_reason
    assert rec.plan_nodes == []


class _DeepJsonBackend(TextBackend):
    kind = "scripted"

    def complete_text(self, req):
        return '{"a":' * 100_000 + "1" + "}" * 100_000


def test_reply_nested_too_deeply_records_failed_episode(enriched_map, demo_world, demo_profile):
    rec = run_episode(_cfg(enriched_map, demo_world, _DeepJsonBackend(), demo_profile, Query("sink")))
    assert rec.failure_reason.startswith("retrieval failed") and rec.visits == []


def test_rooms_only_episode_keeps_rank1_room(enriched_map, demo_world, heuristic_backend, demo_profile):
    rec = run_episode(
        _cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("sink"), map_mode="rooms_only")
    )
    assert rec.rank1_room_id == 105
    assert rec.rank1_room_contains_gt
    assert rec.visits == []  # rooms-only plans carry no nodes
    assert not rec.success


def test_false_positive_stop_is_failure(enriched_map, demo_world, heuristic_backend):
    # verifier accepts every spurious proposal: the robot stops early and fails
    fp_profile = DetectionProfile(p_propose_tp=0.0, fp_rate=3.0, p_verify_fp=1.0)
    rec = run_episode(
        _cfg(enriched_map, demo_world, heuristic_backend, fp_profile, Query("sink"), seed=3)
    )
    assert not rec.success
    assert rec.failure_reason == "stopped on a false-positive detection"
    found_visits = [v for v in rec.visits if v.detection and v.detection.found]
    assert len(found_visits) == 1
    assert not found_visits[0].detection.is_true_positive


def test_records_round_trip_through_jsonl(tmp_path, enriched_map, demo_world, heuristic_backend, demo_profile):
    recs = [
        run_episode(_cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query(q)))
        for q in ("sink", "TV")
    ]
    path = tmp_path / "records.jsonl"
    write_records(recs, str(path))
    loaded = read_records(str(path))
    assert [r.to_json() for r in loaded] == [r.to_json() for r in recs]
    assert isinstance(loaded[0], EpisodeRecord)


def test_records_file_ends_lines_in_lf_on_every_platform(tmp_path, enriched_map, demo_world, heuristic_backend, demo_profile):
    # records.jsonl is hashed for byte-identity; text mode would write the
    # platform's line end
    recs = [run_episode(_cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("sink")))]
    path = tmp_path / "records.jsonl"
    write_records(recs, str(path))
    data = path.read_bytes()
    assert b"\r" not in data
    assert data == (recs[0].to_json() + "\n").encode("utf-8")


def test_unreachable_node_skipped_without_detection(enriched_map, heuristic_backend, demo_profile):
    # a world whose walls seal the lounge doorway: the sink node is unreachable
    from osmag_nav.fixtures import five_room_world
    from osmag_nav.gridworld import Obstacle, WorldModel

    base = five_room_world()
    obstacles = list(base.obstacles) + [Obstacle("segment", (11.8, 7.0, 13.2, 7.0))]
    world = WorldModel(obstacles, base.instances, base.sensor, base.start)
    cfg = EpisodeConfig(
        map=enriched_map,
        world=world,
        query=Query("sink"),
        backend=heuristic_backend,
        profile=demo_profile,
        start=world.start,
        seed=7,
    )
    rec = run_episode(cfg)
    sink_visit = rec.visits[0]
    assert sink_visit.node_id == 162
    assert not sink_visit.reached
    assert sink_visit.detection is None
    assert sink_visit.failure_reason


def test_run_episode_builds_no_world_model(monkeypatch, enriched_map, demo_world, heuristic_backend, demo_profile):
    # every leg senses and detects with the episode's own world and its sensor
    from osmag_nav.gridworld import WorldModel

    built = []
    init = WorldModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WorldModel, "__init__", counting_init)
    rec = run_episode(_cfg(enriched_map, demo_world, heuristic_backend, demo_profile, Query("robot dog")))
    assert len(rec.visits) >= 2
    assert built == []
