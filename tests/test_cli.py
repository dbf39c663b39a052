from __future__ import annotations

import json
import re

import pytest

from osmag_nav.cli import main
from osmag_nav.fixtures import five_room_map, five_room_records
from osmag_nav.osmag import serialize_osmag


@pytest.fixture()
def fixture_files(tmp_path):
    map_path = tmp_path / "fixture.osm"
    map_path.write_text(serialize_osmag(five_room_map()), encoding="utf-8")
    records_path = tmp_path / "records.json"
    records_path.write_text(json.dumps(five_room_records()), encoding="utf-8")
    return tmp_path, map_path, records_path


def test_validate_ok(fixture_files, capsys):
    _, map_path, _ = fixture_files
    assert main(["validate", str(map_path)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_validate_json_output(fixture_files, capsys):
    _, map_path, _ = fixture_files
    assert main(["validate", str(map_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"violations": []}


def test_validate_reports_violations(fixture_files, capsys):
    tmp_path, map_path, _ = fixture_files
    broken = map_path.read_text().replace(
        '<tag k="name" v="lounge"/>',
        '<tag k="name" v="lounge"/>\n    <tag k="parent" v="999"/>',
    )
    bad = tmp_path / "broken.osm"
    bad.write_text(broken, encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "parent-missing" in capsys.readouterr().out


def test_missing_file_is_config_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.osm")]) == 2


def test_unknown_flag_exits_2(fixture_files):
    _, map_path, _ = fixture_files
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(map_path), "--frobnicate"])
    assert exc.value.code == 2


def test_enrich_and_query_pipeline(fixture_files, capsys):
    tmp_path, map_path, records_path = fixture_files
    enriched_path = tmp_path / "enriched.osm"
    assert main(["enrich", str(map_path), str(records_path), "-o", str(enriched_path)]) == 0
    capsys.readouterr()
    assert enriched_path.exists()

    assert main(["query", str(enriched_path), "sink"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["rooms"][0]["room_id"] == 105
    assert plan["rooms"][0]["nodes"][0] == 162
    assert "drops" in plan


def test_query_with_scripted_fixture_file(fixture_files, capsys, tmp_path):
    tmp, map_path, records_path = fixture_files
    enriched_path = tmp / "enriched.osm"
    main(["enrich", str(map_path), str(records_path), "-o", str(enriched_path)])
    capsys.readouterr()

    from osmag_nav.osmag import parse_osmag
    from osmag_nav.retrieval import Query, build_prompt

    m = parse_osmag(enriched_path.read_text())
    reply = json.dumps({"rooms": [{"room_id": 105, "nodes": [163]}]})
    fixtures_path = tmp_path / "replies.json"
    fixtures_path.write_text(json.dumps({build_prompt(m, Query("couch")).fingerprint(): reply}), encoding="utf-8")

    code = main(
        [
            "query", str(enriched_path), "couch",
            "--backend", "scripted", "--fixtures", str(fixtures_path),
        ]
    )
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["rooms"] == [{"room_id": 105, "nodes": [163]}]


def test_render_writes_pgm_and_sidecar(fixture_files, capsys):
    tmp_path, map_path, _ = fixture_files
    out = tmp_path / "grid.pgm"
    assert main(["render", str(map_path), "--res", "0.1", "-o", str(out)]) == 0
    assert out.exists()
    sidecar = tmp_path / "grid.json"
    assert sidecar.exists()
    meta = json.loads(sidecar.read_text())
    assert meta["resolution_m"] == 0.1
    assert out.read_text().startswith("P2\n")


def test_render_nonpositive_resolution_is_config_error(fixture_files, capsys):
    tmp_path, map_path, _ = fixture_files
    for res in ("0", "-0.1", "nan"):
        assert main(["render", str(map_path), "--res", res, "-o", str(tmp_path / "grid.pgm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "grid.pgm").exists()


def test_render_map_beyond_supported_latitude_is_failure(fixture_files, capsys):
    tmp_path, map_path, _ = fixture_files
    polar = tmp_path / "polar.osm"
    polar.write_text(map_path.read_text().replace('lat="31', 'lat="86'), encoding="utf-8")
    assert main(["render", str(polar), "-o", str(tmp_path / "grid.pgm")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "latitude" in err and "Traceback" not in err


def test_validate_map_beyond_supported_latitude_is_failure(fixture_files, capsys):
    tmp_path, map_path, _ = fixture_files
    polar = tmp_path / "polar.osm"
    polar.write_text(map_path.read_text().replace('lat="31', 'lat="86'), encoding="utf-8")
    assert main(["validate", str(polar), "--json"]) == 1
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations and {v["rule"] for v in violations} == {"latitude-out-of-band"}


def test_render_map_without_areas_is_failure(tmp_path, capsys):
    from osmag_nav.osmag import SemanticMap

    m = five_room_map()
    empty = tmp_path / "no_areas.osm"
    empty.write_text(serialize_osmag(SemanticMap(m.nodes, {}, {}, m.projection_origin)), encoding="utf-8")
    assert main(["render", str(empty), "-o", str(tmp_path / "grid.pgm")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "grid.pgm").exists()


def test_render_oversized_grid_is_failure(fixture_files, capsys):
    tmp_path, map_path, _ = fixture_files
    out = tmp_path / "grid.pgm"
    assert main(["render", str(map_path), "--res", "1e-7", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a grid of ") and err.count("\n") == 1
    assert "resolution 1e-07 m" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_oversized_grid_is_failure(tmp_path, capsys):
    from osmag_nav.fixtures import demo_experiment_config, enriched_five_room_map, five_room_world

    (tmp_path / "map.osm").write_text(serialize_osmag(enriched_five_room_map()), encoding="utf-8")
    (tmp_path / "world.json").write_text(json.dumps(five_room_world().to_dict()), encoding="utf-8")
    config = demo_experiment_config()
    config.update({"map": "map.osm", "world": "world.json", "grid_resolution_m": 1e-7})
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    records_out = tmp_path / "records.jsonl"
    assert main(["simulate", str(config_path), "-o", str(records_out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a grid of ") and err.count("\n") == 1
    assert "resolution 1e-07 m" in err and "Traceback" not in err
    assert not records_out.exists()


def test_simulate_then_eval(fixture_files, capsys):
    tmp_path, map_path, records_path = fixture_files
    enriched_path = tmp_path / "enriched.osm"
    main(["enrich", str(map_path), str(records_path), "-o", str(enriched_path)])
    capsys.readouterr()

    from osmag_nav.fixtures import demo_experiment_config, five_room_world

    world_path = tmp_path / "world.json"
    world_path.write_text(json.dumps(five_room_world().to_dict()), encoding="utf-8")
    config = demo_experiment_config()
    config["map"] = "enriched.osm"
    config["world"] = "world.json"
    config["generate"] = [{"category": "SO", "granularity": "o"}]
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    records_out = tmp_path / "records.jsonl"
    assert main(["simulate", str(config_path), "-o", str(records_out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["episodes"] == 2

    report_out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    code = main(
        [
            "eval",
            str(records_out),
            "-o",
            str(report_out),
            "--csv",
            str(csv_out),
            "--map",
            str(enriched_path),
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["episodes"] == 2
    assert report["r_rsr"] == 1.0
    assert report["map_size_bytes"] > 0
    assert json.loads(report_out.read_text())["episodes"] == 2
    assert csv_out.read_text().startswith("slice,")


@pytest.mark.parametrize(
    "field, value",
    [
        ("grid_resolution_m", 0),
        ("grid_resolution_m", -0.1),
        ("grid_resolution_m", float("nan")),
        ("profile", {"p_propose_tp": 1.0, "bogus": 1}),
        ("starts", "many"),
        ("master_seed", -1),
        ("map_mode", "dense"),
        ("profile", {"conf_tp": [0.5, 1.0]}),  # a removed field is refused, not ignored
        ("profile", {"conf_fp": [0.1, 0.8]}),
        ("queries", [{"room": "kitchen"}]),
        ("queries", "sink"),
        ("generate", "SO"),
        ("backend", {"kind": "live"}),
        ("backend", "live"),
        ("experiment config", lambda config: [config]),
        ("backend", {"kind": "live", "endpoint": "http://localhost:1", "timeout_s": "abc"}),
        ("backend", {"kind": "live", "endpoint": "http://localhost:1", "max_in_flight": 0}),
        ("profile", {"rotation_step_deg": 45.0}),
        ("map", 5),
        ("starts", True),
        ("starts", 2.7),
        ("queries", [{"object": "sink", "category": "XX"}]),
        ("queries", [{"object": "sink", "room": 5}]),
        ("queries", [{"object": ["a"]}]),
        ("queries", [{"object": " "}]),
        ("generate", [{"categroy": "RO"}]),
        ("queries", [{"object": "sink", "rooom": "lab"}]),
        ("backend", {"kind": "scripted", "fixture_file": "fx.json"}),
        ("backend", {"kind": "scripted"}),
        ("backend", {"kind": "scripted", "fixtures": {}}),
        ("inflation_radius_m", 0.25),
    ],
)
def test_simulate_bad_config_field_is_config_error(tmp_path, capsys, monkeypatch, field, value):
    from osmag_nav.fixtures import demo_experiment_config, enriched_five_room_map, five_room_world

    monkeypatch.setenv("OSMAG_NAV_API_KEY", "sk-test")
    (tmp_path / "map.osm").write_text(serialize_osmag(enriched_five_room_map()), encoding="utf-8")
    (tmp_path / "world.json").write_text(json.dumps(five_room_world().to_dict()), encoding="utf-8")
    config = demo_experiment_config()
    config.update({"map": "map.osm", "world": "world.json"})
    seed = []
    if field == "experiment config":  # the whole document is the bad value
        config, seed = value(config), ["--seed", "1"]  # the seed override must not meet it either
    else:
        config[field] = value
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    records_out = tmp_path / "records.jsonl"
    assert main(["simulate", str(config_path), "-o", str(records_out), *seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err and "Traceback" not in err
    assert not records_out.exists()


def _drop_instance_x(world):
    del world["instances"][0]["x"]
    return world


_WORLD_EDITS = [
    _drop_instance_x,
    lambda world: [world],
    lambda world: {**world, "sensor": [1]},
    lambda world: {**world, "sensor": {"rays": -1}},
    lambda world: {**world, "sensor": {"rays": 0}},
    lambda world: {**world, "sensor": {"rays": 2.5}},
    lambda world: {**world, "sensor": {"range_m": -1}},
    lambda world: {**world, "sensor": {"fov_deg": 0}},
]


def test_simulate_malformed_world_file_is_config_error(tmp_path, capsys):
    from osmag_nav.fixtures import demo_experiment_config, enriched_five_room_map, five_room_world

    (tmp_path / "map.osm").write_text(serialize_osmag(enriched_five_room_map()), encoding="utf-8")
    config = demo_experiment_config()
    config.update({"map": "map.osm", "world": "world.json"})
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    records_out = tmp_path / "records.jsonl"
    for i, edit in enumerate(_WORLD_EDITS):
        world = edit(five_room_world().to_dict())
        (tmp_path / "world.json").write_text(json.dumps(world), encoding="utf-8")
        assert main(["simulate", str(config_path), "-o", str(records_out)]) == 2, f"world edit {i}"
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "world.json" in err and "Traceback" not in err
        assert not records_out.exists()


@pytest.mark.parametrize("sensor", [{"range_m": 1e308}, {"rays": 10**30}], ids=["range_m", "rays"])
def test_simulate_oversized_sensor_is_config_error(tmp_path, capsys, sensor):
    # refused when the world file is read, before sense sizes anything by them
    from osmag_nav.fixtures import demo_experiment_config, enriched_five_room_map, five_room_world

    (tmp_path / "map.osm").write_text(serialize_osmag(enriched_five_room_map()), encoding="utf-8")
    world = five_room_world().to_dict()
    world["sensor"].update(sensor)
    (tmp_path / "world.json").write_text(json.dumps(world), encoding="utf-8")
    config = demo_experiment_config()
    config.update({"map": "map.osm", "world": "world.json"})
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    records_out = tmp_path / "records.jsonl"
    assert main(["simulate", str(config_path), "-o", str(records_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "world.json" in err and "'sensor'" in err and "Traceback" not in err
    assert not records_out.exists()


@pytest.mark.parametrize(
    "start, shown",
    [({"x": 0, "y": 0}, "(0, 0)"), ({"x": 1000, "y": 0}, "(1000, 0)"), ({"x": 1e308, "y": 0}, "(1e+308, 0)")],
    ids=["on-a-wall", "off-the-map", "beyond-every-cell-index"],
)
def test_simulate_start_not_free_is_config_error(tmp_path, capsys, start, shown):
    from osmag_nav.fixtures import demo_experiment_config, enriched_five_room_map, five_room_world

    (tmp_path / "map.osm").write_text(serialize_osmag(enriched_five_room_map()), encoding="utf-8")
    (tmp_path / "world.json").write_text(json.dumps({**five_room_world().to_dict(), "start": start}), encoding="utf-8")
    config = demo_experiment_config()
    config.update({"map": "map.osm", "world": "world.json"})
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    records_out = tmp_path / "records.jsonl"
    for jobs in ("1", "2"):
        assert main(["simulate", str(config_path), "-o", str(records_out), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err == f"error: start {shown} is not a free cell of the map grid\n"
        assert not records_out.exists()


def test_simulate_resolves_fixtures_file_beside_config(tmp_path, capsys, monkeypatch):
    from osmag_nav.fixtures import demo_experiment_config, enriched_five_room_map, five_room_world

    (tmp_path / "map.osm").write_text(serialize_osmag(enriched_five_room_map()), encoding="utf-8")
    (tmp_path / "world.json").write_text(json.dumps(five_room_world().to_dict()), encoding="utf-8")
    (tmp_path / "fx.json").write_text("{}", encoding="utf-8")
    config = demo_experiment_config()
    config.update({"map": "map.osm", "world": "world.json", "backend": {"kind": "scripted", "fixtures_file": "fx.json"}})
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)

    assert main(["simulate", str(config_path), "-o", "records.jsonl"]) == 0
    capsys.readouterr()
    # the empty fixture file answers no prompt: every retrieval fails, recorded
    records = [json.loads(line) for line in (elsewhere / "records.jsonl").read_text().splitlines()]
    assert records and all(r["failure_reason"].startswith("retrieval failed") for r in records)


@pytest.mark.parametrize(
    "drop, extra, wanted",
    [
        ("granularity", {}, "granularity"),
        (None, {"visits": [5]}, "malformed"),
        (None, {"plan_nodes": [1, 2]}, "plan_nodes[0]"),
        (
            None,
            {"plan_nodes": [{"node_id": 1, "room_id": 2, "x": 0.0, "y": 0.0, "distance_to_gt": "far"}]},
            "plan_nodes[0].distance_to_gt",
        ),
        (None, {"success": True, "success_node_distance_m": "near"}, "success_node_distance_m"),
        (None, {"success": True, "success_node_distance_m": 0.5, "driven_length_m": "far"}, "driven_length_m"),
        (None, {"category": 5}, "category"),
        (None, {"granularity": ["o"]}, "granularity"),
    ],
)
def test_eval_bad_record_is_config_error(tmp_path, capsys, drop, extra, wanted):
    from osmag_nav.episode import EpisodeRecord

    good = EpisodeRecord("sink", None, None, "o", None, "full", 0).to_dict()
    bad = {**{k: v for k, v in good.items() if k != drop}, **extra}
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    assert main(["eval", str(records)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "records.jsonl line 2" in err and wanted in err and "Traceback" not in err


def test_validate_non_integer_id_is_failure(fixture_files, capsys):
    tmp_path, map_path, _ = fixture_files
    bad = tmp_path / "bad_id.osm"
    bad.write_text(re.sub(r'<node id="\d+"', '<node id="abc"', map_path.read_text(), count=1), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'abc'" in err and "line" in err and "Traceback" not in err


def test_validate_non_numeric_origin_is_failure(fixture_files, capsys):
    tmp_path, map_path, _ = fixture_files
    bad = tmp_path / "bad_origin.osm"
    bad.write_text(map_path.read_text().replace('origin_lat="31"', 'origin_lat="abc"'), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "origin" in err and "'abc'" in err and "line 2" in err


def test_query_live_without_endpoint_is_config_error(fixture_files, capsys, monkeypatch):
    _, map_path, _ = fixture_files
    monkeypatch.setenv("OSMAG_NAV_API_KEY", "sk-test")
    assert main(["query", str(map_path), "sink", "--backend", "live"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "endpoint" in err and "sk-test" not in err


@pytest.mark.parametrize("command, code", [("simulate", 2), ("enrich", 1)])
def test_input_file_that_is_not_json_is_named(fixture_files, capsys, command, code):
    tmp_path, map_path, _ = fixture_files
    bad = tmp_path / "not_json.json"
    bad.write_text("not json", encoding="utf-8")
    args = {
        "simulate": ["simulate", str(bad), "-o", str(tmp_path / "records.jsonl")],
        "enrich": ["enrich", str(map_path), str(bad), "-o", str(tmp_path / "enriched.osm")],
    }[command]
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not_json.json" in err and "Traceback" not in err


@pytest.fixture()
def every_input(tmp_path):
    """A valid file for every kind of input the CLI reads, in ``tmp_path``."""
    from osmag_nav.episode import EpisodeRecord
    from osmag_nav.fixtures import demo_experiment_config, enriched_five_room_map, five_room_world

    config = {**demo_experiment_config(), "map": "map.osm", "world": "world.json"}
    record = EpisodeRecord("sink", None, None, "o", None, "full", 0).to_json() + "\n"
    for name, text in [
        ("map.osm", serialize_osmag(enriched_five_room_map())),
        ("records.json", json.dumps(five_room_records())),
        ("world.json", json.dumps(five_room_world().to_dict())),
        ("experiment.json", json.dumps(config)),
        ("replies.json", "{}"),
        ("episodes.jsonl", record),
        ("baseline.jsonl", record),
    ]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


# (arguments, the input file made bad, exit code when that file nests JSON too
# deeply, or None when it is not JSON); an argument with a dot names a file in
# the input directory
_FILE_ARGUMENTS = [
    (["validate", "map.osm"], "map.osm", None),
    (["render", "map.osm", "-o", "out.pgm"], "map.osm", None),
    (["enrich", "map.osm", "records.json", "-o", "out.osm"], "map.osm", None),
    (["enrich", "map.osm", "records.json", "-o", "out.osm"], "records.json", 1),
    (["query", "map.osm", "sink"], "map.osm", None),
    (["query", "map.osm", "sink", "--backend", "scripted", "--fixtures", "replies.json"], "replies.json", 2),
    (["simulate", "experiment.json", "-o", "out.jsonl"], "experiment.json", 2),
    (["simulate", "experiment.json", "-o", "out.jsonl"], "map.osm", None),
    (["simulate", "experiment.json", "-o", "out.jsonl"], "world.json", 2),
    (["eval", "episodes.jsonl"], "episodes.jsonl", 2),
    (["eval", "episodes.jsonl", "--map", "map.osm"], "map.osm", None),
    (["eval", "episodes.jsonl", "--apl-intersect", "baseline.jsonl"], "baseline.jsonl", 2),
]


def _run_with_bad_file(every_input, capsys, args, bad, content: bytes) -> tuple[int, str]:
    """Exit code and stderr of ``args`` with the input ``bad`` overwritten by
    ``content``; stderr must be one ``error:`` line."""
    (every_input / bad).write_bytes(content)
    code = main([str(every_input / arg) if "." in arg else arg for arg in args])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    return code, err


@pytest.mark.parametrize("args, bad", [(args, bad) for args, bad, _ in _FILE_ARGUMENTS],
                         ids=[f"{args[0]}-{bad}" for args, bad, _ in _FILE_ARGUMENTS])
def test_input_file_that_is_not_utf8_is_config_error(every_input, capsys, args, bad):
    code, err = _run_with_bad_file(every_input, capsys, args, bad, b"\xff\xfe\x00garbage\n")
    assert code == 2 and bad in err, err


_JSON_ARGUMENTS = [entry for entry in _FILE_ARGUMENTS if entry[2] is not None]


@pytest.mark.parametrize("args, bad, code", _JSON_ARGUMENTS, ids=[f"{a[0]}-{bad}" for a, bad, _ in _JSON_ARGUMENTS])
def test_input_json_nested_too_deeply_is_named(every_input, capsys, args, bad, code):
    deep = b"[" * 100_000 + b"]" * 100_000 + b"\n"
    exit_code, err = _run_with_bad_file(every_input, capsys, args, bad, deep)
    assert exit_code == code and bad in err


@pytest.mark.parametrize("flags, field", [
    (["--fixtures", "/nonexistent/replies.json"], "fixtures_file"),
    (["--endpoint", "http://localhost:1"], "endpoint"),
    (["--backend", "scripted", "--fixtures", "replies.json", "--model", "m"], "model"),
])
def test_query_flag_of_another_backend_is_config_error(every_input, capsys, flags, field):
    args = ["query", str(every_input / "map.osm"), "sink"]
    code = main(args + [str(every_input / f) if f.endswith(".json") and "/" not in f else f for f in flags])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and field in err, err


@pytest.mark.parametrize("text", ["", "   "])
def test_query_empty_object_is_config_error(fixture_files, capsys, text):
    _, map_path, _ = fixture_files
    assert main(["query", str(map_path), text]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "query object" in captured.err and captured.out == ""


@pytest.mark.parametrize("line", [5, {"sink||0": True}, ["sink||0", 3], ["sink||0"]])
def test_eval_apl_intersect_rejects_malformed_baseline(tmp_path, capsys, line):
    from osmag_nav.episode import EpisodeRecord

    records = tmp_path / "records.jsonl"
    records.write_text(EpisodeRecord("sink", None, None, "o", None, "full", 0).to_json() + "\n", encoding="utf-8")
    baseline = tmp_path / "baseline.jsonl"
    baseline.write_text(json.dumps(line) + "\n", encoding="utf-8")
    assert main(["eval", str(records), "--apl-intersect", str(baseline)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(baseline) in err and "Traceback" not in err


def test_eval_reproduces_demo_report(tmp_path, capsys):
    import csv

    from osmag_nav.episode import read_records, write_records

    demo = tmp_path / "demo"
    assert main(["demo", "-o", str(demo)]) == 0
    records = str(demo / "records.jsonl")
    enriched = str(demo / "fixture_enriched.osm")
    report_out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
    assert main(["eval", records, "--map", enriched, "-o", str(report_out), "--csv", str(csv_out)]) == 0
    assert report_out.read_bytes() == (demo / "report.json").read_bytes()
    assert csv_out.read_bytes() == (demo / "report.csv").read_bytes()

    assert main(["eval", records, "--map", enriched, "--csv", str(csv_out), "--dir-mode", "failed_only"]) == 0
    report = json.loads(report_out.read_text())
    blocks = {"all": report}
    blocks.update({f"category:{c}": b for c, b in report["by_category"].items()})
    blocks.update({f"granularity:{g}": b for g, b in report["by_granularity"].items()})
    rows = list(csv.DictReader(csv_out.read_text().splitlines()))
    assert [row["slice"] for row in rows] == list(blocks)
    for row in rows:
        assert row["DIR"] == f"{blocks[row['slice']]['dir']['failed_only']:.4f}"

    capsys.readouterr()
    assert main(["eval", records, "--apl-intersect", records, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["apl_m"] is not None
    assert payload["apl_intersected_m"] == payload["apl_m"]
    assert payload["apl_intersected_count"] == payload["apl_count"]

    # a baseline that solved none of the same episodes leaves nothing to average
    failed = read_records(records)
    for rec in failed:
        rec.success = False
    write_records(failed, str(tmp_path / "baseline.jsonl"))
    assert main(["eval", records, "--apl-intersect", str(tmp_path / "baseline.jsonl"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["apl_intersected_m"], payload["apl_intersected_count"]) == (None, 0)


def test_demo_seed_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["demo", "--seed", "7", "-o", str(out_a)]) == 0
    assert main(["demo", "--seed", "7", "-o", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("records.jsonl", "report.json", "report.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_demo_json_parses(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--seed", "1", "-o", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["episodes"] == 6
    assert set(payload["by_category"]) == {"SO", "RO", "UO"}
