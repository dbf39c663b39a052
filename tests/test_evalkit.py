from __future__ import annotations

import json

import numpy as np
import pytest

import oracles
from osmag_nav.episode import EpisodeRecord
from osmag_nav.evalkit import (
    CATEGORIES,
    EvalError,
    QueryGenerationError,
    amd,
    apl,
    categorize_label,
    compute_report,
    dir_rate,
    generate_queries,
    o_rsr,
    r_rsr,
    report_to_csv,
    run_experiment,
    sample_starts,
)
from osmag_nav.geometry import MetricPoint
from osmag_nav.osmag import serialize_osmag


def _rec(
    distances,
    rank1=False,
    success=False,
    driven=0.0,
    success_distance=None,
    category=None,
    granularity="o",
):
    return EpisodeRecord(
        query_object="thing",
        query_room=None,
        query_floor=None,
        granularity=granularity,
        category=category,
        map_mode="full",
        seed=0,
        plan_nodes=[
            {"node_id": i, "room_id": 1, "x": 0.0, "y": 0.0, "distance_to_gt": d}
            for i, d in enumerate(distances)
        ],
        rank1_room_id=1 if distances else None,
        rank1_room_contains_gt=rank1,
        driven_length_m=driven,
        success=success,
        success_node_id=0 if success else None,
        success_node_distance_m=success_distance,
        gt_positions=[[0.0, 0.0]],
    )


# ---------------------------------------------------------------------------
# hand-constructed arithmetic cases


def test_r_rsr_simple_counts():
    records = [_rec([0.5], rank1=True) for _ in range(4)]
    assert r_rsr(records) == 1.0
    records[2].rank1_room_contains_gt = False
    records[3].rank1_room_contains_gt = False
    assert r_rsr(records) == 0.5


def test_r_rsr_empty_plan_counts_in_denominator():
    records = [_rec([], rank1=False), _rec([0.2], rank1=True)]
    assert r_rsr(records) == 0.5


def test_o_rsr_single_node():
    assert o_rsr([_rec([0.5])], n=1, k=1.0) == 1.0


def test_o_rsr_top_n_window():
    rec = _rec([2.5, 1.5])
    assert o_rsr([rec], n=1, k=2.0) == 0.0
    assert o_rsr([rec], n=5, k=2.0) == 1.0


def test_o_rsr_monotone_in_k():
    rng = np.random.default_rng(2)
    records = [_rec(list(rng.uniform(0, 4, size=5))) for _ in range(40)]
    for n in (1, 5):
        values = [o_rsr(records, n, k) for k in (1.0, 2.0, 3.0)]
        assert values == sorted(values)


def test_amd_arithmetic():
    assert amd([_rec([0.0])]) == (0.0, 0)
    mean, excluded = amd([_rec([1.0, 9.9]), _rec([3.0])])
    assert mean == pytest.approx(2.0)
    assert excluded == 0


def test_amd_excludes_no_gt_records():
    rec = _rec([None, None])
    rec.plan_nodes = [
        {"node_id": 0, "room_id": 1, "x": 0.0, "y": 0.0, "distance_to_gt": None}
    ]
    mean, excluded = amd([rec, _rec([2.0])])
    assert mean == pytest.approx(2.0)
    assert excluded == 1


def test_apl_arithmetic():
    records = [
        _rec([0.1], success=True, driven=10.0, success_distance=0.1),
        _rec([0.2], success=True, driven=20.0, success_distance=0.2),
        _rec([0.3], success=False, driven=99.0),
    ]
    mean, count = apl(records)
    assert mean == pytest.approx(15.0)
    assert count == 2


def test_apl_absent_when_no_qualifiers():
    assert apl([_rec([5.0], success=False)]) == (None, 0)


def test_apl_radius_filters_far_successes():
    records = [_rec([2.0], success=True, driven=10.0, success_distance=2.0)]
    assert apl(records) == (None, 0)


def test_apl_baseline_intersection():
    from osmag_nav.evalkit import record_key

    a = _rec([0.1], success=True, driven=10.0, success_distance=0.1)
    a.query_object = "sink"
    b = _rec([0.1], success=True, driven=30.0, success_distance=0.1)
    b.query_object = "couf"
    both = [a, b]
    assert apl(both) == (20.0, 2)
    # baseline solved only the first episode: intersection drops the second
    assert apl(both, baseline_success_keys={record_key(a)}) == (10.0, 1)


def test_dir_modes_set_arithmetic():
    # 10 records, 4 initially failed, 2 of those recovered
    records = []
    for i in range(6):
        records.append(_rec([0.5]))  # initially fine
    for i in range(2):
        records.append(_rec([5.0], success=True, success_distance=5.0))
    for i in range(2):
        records.append(_rec([5.0], success=False))
    assert dir_rate(records, "all_queries") == pytest.approx(0.2)
    assert dir_rate(records, "failed_only") == pytest.approx(0.5)


def test_dir_zero_failed_set():
    records = [_rec([0.1]), _rec([0.2])]
    assert dir_rate(records, "all_queries") == 0.0
    assert dir_rate(records, "failed_only") == 0.0


def test_dir_failed_only_dominates_all_queries():
    rng = np.random.default_rng(5)
    records = [
        _rec(
            list(rng.uniform(0, 4, size=3)),
            success=bool(rng.random() < 0.5),
            success_distance=float(rng.uniform(0, 2)),
        )
        for _ in range(30)
    ]
    assert dir_rate(records, "failed_only") >= dir_rate(records, "all_queries") - 1e-12


def test_unknown_dir_mode_rejected():
    report = compute_report([_rec([0.1])])
    with pytest.raises(EvalError):
        report_to_csv(report, "bogus")
    with pytest.raises(EvalError):
        dir_rate([_rec([0.1])], "bogus")


# ---------------------------------------------------------------------------
# report vs brute-force oracle on synthetic batches


def synthetic_batch(rng: np.random.Generator, size: int) -> list[EpisodeRecord]:
    records = []
    for _ in range(size):
        n_nodes = int(rng.integers(0, 7))
        has_gt = rng.random() > 0.15
        distances = [
            float(rng.uniform(0, 5)) if has_gt else None for _ in range(n_nodes)
        ]
        success = bool(rng.random() < 0.4) and has_gt
        rec = _rec(
            distances,
            rank1=bool(rng.random() < 0.5),
            success=success,
            driven=float(rng.uniform(1, 60)),
            success_distance=float(rng.uniform(0, 3)) if success else None,
            category=str(rng.choice(["SO", "RO", "UO"])),
            granularity=str(rng.choice(["o", "or", "orf"])),
        )
        records.append(rec)
    return records


def test_report_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        batch = synthetic_batch(rng, int(rng.integers(5, 40)))
        dicts = [r.to_dict() for r in batch]
        report = compute_report(batch)
        assert report.r_rsr == oracles.bf_r_rsr(dicts)
        for n in (1, 5):
            for k in (1.0, 2.0, 3.0):
                assert report.o_rsr[str(n)][f"{k:g}"] == oracles.bf_o_rsr(dicts, n, k)
        assert (report.amd_m, report.amd_excluded) == oracles.bf_amd(dicts)
        assert (report.apl_m, report.apl_count) == oracles.bf_apl(dicts, 1.0)
        assert report.dir["all_queries"] == oracles.bf_dir(dicts, "all_queries")
        assert report.dir["failed_only"] == oracles.bf_dir(dicts, "failed_only")


def test_report_breakdowns_match_filtered_oracle():
    rng = np.random.default_rng(9)
    batch = synthetic_batch(rng, 60)
    report = compute_report(batch)
    for category, block in report.by_category.items():
        sub = [r.to_dict() for r in batch if r.category == category]
        assert block["r_rsr"] == oracles.bf_r_rsr(sub)
        assert block["episodes"] == len(sub)
    for gran, block in report.by_granularity.items():
        sub = [r.to_dict() for r in batch if r.granularity == gran]
        assert block["dir"]["failed_only"] == oracles.bf_dir(sub, "failed_only")


def test_report_csv_layout():
    rng = np.random.default_rng(4)
    batch = synthetic_batch(rng, 20)
    report = compute_report(batch)
    csv_text = report_to_csv(report)
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["slice", "episodes", "R-RSR"]
    assert "O-RSR_top5@1m" in header and "O-RSR_top1@3m" in header
    assert header[-3:] == ["AMD_m", "DIR", "APL_m"]
    assert lines[1].startswith("all,")


# ---------------------------------------------------------------------------
# query generation


def test_categorize_labels(enriched_map, demo_world):
    assert categorize_label(demo_world, enriched_map, "sink") == "SO"
    assert categorize_label(demo_world, enriched_map, "TV") == "SO"
    assert categorize_label(demo_world, enriched_map, "screwdriver") == "RO"
    assert categorize_label(demo_world, enriched_map, "robot dog") == "RO"
    assert categorize_label(demo_world, enriched_map, "measuring cup") == "UO"
    assert categorize_label(demo_world, enriched_map, "presentation remote") == "UO"
    assert categorize_label(demo_world, enriched_map, "unicorn") is None


def test_generate_queries_each_category(enriched_map, demo_world):
    for category in CATEGORIES:
        queries = generate_queries(demo_world, enriched_map, "o", category)
        assert len(queries) == 2
        assert all(q.room is None for q in queries)


def test_generate_queries_ro_distance_scan(enriched_map, demo_world):
    # every emitted RO object is > 2 m from all same-label mapped nodes
    from osmag_nav.evalkit import _mapped_label_positions

    mapped = _mapped_label_positions(enriched_map)
    for q in generate_queries(demo_world, enriched_map, "o", "RO"):
        positions = mapped[q.object.lower()]
        for _, inst in demo_world.instances_of(q.object):
            assert all(inst.position.distance_to(p) > 2.0 for p in positions)


def test_generate_queries_uo_label_scan(enriched_map, demo_world):
    # UO labels appear nowhere in the map's object names or observed lists
    mapped_labels = set()
    for node in enriched_map.nodes.values():
        if node.object_name:
            mapped_labels.add(node.object_name.lower())
        mapped_labels.update(o.lower() for o in node.observed_objects)
    for q in generate_queries(demo_world, enriched_map, "o", "UO"):
        assert q.object.lower() not in mapped_labels


def test_generate_queries_fills_room_and_floor(enriched_map, demo_world):
    queries = generate_queries(demo_world, enriched_map, "orf", "SO")
    by_object = {q.object: q for q in queries}
    assert by_object["sink"].room == "lounge"
    assert by_object["sink"].floor == "0"
    assert by_object["TV"].room == "conference room"


def test_generate_queries_unrealizable_category(enriched_map):
    from osmag_nav.gridworld import SensorConfig, WorldModel

    empty_world = WorldModel([], [], SensorConfig())
    with pytest.raises(QueryGenerationError):
        generate_queries(empty_world, enriched_map, "o", "SO")


def _mapgen_world(m, seed):
    """World for a tests/mapgen.py map: per mapped label, an instance near one
    of its nodes (SO), one far from all of them (RO) or between (neither),
    plus labels the map never names (UO)."""
    import random

    from osmag_nav.gridworld import ObjectInstance, SensorConfig, WorldModel

    rng = random.Random(seed)
    instances = []
    for node in m.semantic_nodes():
        p = m.node_metric(node.id)
        for label in [node.object_name] if node.object_name else node.observed_objects:
            offset = rng.choice([0.3, 1.5, 6.0])
            instances.append(ObjectInstance(label, MetricPoint(p.x + offset, p.y)))
    for i in range(rng.randint(1, 3)):
        instances.append(ObjectInstance(f"unmapped thing {i}", MetricPoint(1.0 + i, 1.0)))
    return WorldModel([], instances, SensorConfig())


def _suite_pairs(enriched_map, demo_world):
    import mapgen

    pairs = [(demo_world, enriched_map)]
    for seed in range(8):
        m = mapgen.synthetic_map(seed)
        pairs.append((_mapgen_world(m, seed), m))
    return pairs


def test_generate_queries_matches_categorize_label(enriched_map, demo_world):
    from osmag_nav.osmag import containing_area_metric

    for world, m in _suite_pairs(enriched_map, demo_world):
        labels = sorted({inst.label for inst in world.instances}, key=lambda s: s.strip().lower())
        for category in CATEGORIES:
            expected = [label for label in labels if categorize_label(world, m, label) == category]
            for granularity in ("o", "or", "orf"):
                wanted = [
                    label
                    for label in expected
                    if granularity == "o"
                    or containing_area_metric(m, world.instances_of(label)[0][1].position) is not None
                ]
                if not wanted:
                    with pytest.raises(QueryGenerationError):
                        generate_queries(world, m, granularity, category)
                    continue
                queries = generate_queries(world, m, granularity, category)
                assert [q.object for q in queries] == wanted


def test_generate_queries_scans_the_map_once(enriched_map, demo_world, monkeypatch):
    import osmag_nav.evalkit as evalkit

    calls = []
    scan = evalkit._mapped_label_positions

    def counted(m):
        calls.append(m)
        return scan(m)

    monkeypatch.setattr(evalkit, "_mapped_label_positions", counted)
    generate_queries(demo_world, enriched_map, "orf", "SO")
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# experiment runner


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    from osmag_nav.fixtures import (
        demo_experiment_config,
        enriched_five_room_map,
        five_room_world,
    )

    out = tmp_path_factory.mktemp("experiment")
    (out / "map.osm").write_text(serialize_osmag(enriched_five_room_map()), encoding="utf-8")
    (out / "world.json").write_text(
        json.dumps(five_room_world().to_dict(), sort_keys=True), encoding="utf-8"
    )
    config = demo_experiment_config()
    config["map"] = "map.osm"
    config["world"] = "world.json"
    return out, config


def test_run_experiment_episode_count(experiment_dir):
    out, config = experiment_dir
    config = dict(config)
    config["generate"] = [{"category": "SO", "granularity": "o"}]
    config["queries"] = [{"object": "sink", "category": "SO"}]
    config["starts"] = 5
    records, report = run_experiment(config, base_dir=str(out))
    assert len(records) == 15  # (1 explicit + 2 generated) x 5 starts
    assert report.episodes == 15


def test_run_experiment_missing_file_aborts(experiment_dir):
    out, config = experiment_dir
    config = dict(config)
    config["world"] = "nope.json"
    with pytest.raises(EvalError):
        run_experiment(config, base_dir=str(out))


def test_run_experiment_deterministic_and_parallel(experiment_dir):
    out, config = experiment_dir
    config = dict(config)
    config["generate"] = [{"category": "UO", "granularity": "o"}]
    records_a, report_a = run_experiment(config, base_dir=str(out), jobs=1)
    records_b, report_b = run_experiment(config, base_dir=str(out), jobs=4)
    assert [r.to_json() for r in records_a] == [r.to_json() for r in records_b]
    assert report_a.to_json() == report_b.to_json()


def test_run_experiment_report_matches_records_recomputation(experiment_dir):
    out, config = experiment_dir
    config = dict(config)
    records, report = run_experiment(config, base_dir=str(out))
    dicts = [r.to_dict() for r in records]
    assert report.r_rsr == oracles.bf_r_rsr(dicts)
    for n in (1, 5):
        values = [report.o_rsr[str(n)][f"{k:g}"] for k in (1.0, 2.0, 3.0)]
        assert values == sorted(values)  # monotone in k
    for k in ("1", "2", "3"):
        assert report.o_rsr["1"][k] <= report.o_rsr["5"][k] + 1e-12  # monotone in n


def test_sample_starts_deterministic(enriched_map, demo_world):
    a = sample_starts(enriched_map, demo_world, 5, master_seed=3)
    b = sample_starts(enriched_map, demo_world, 5, master_seed=3)
    assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]
    assert (a[0].x, a[0].y) == (demo_world.start.x, demo_world.start.y)
