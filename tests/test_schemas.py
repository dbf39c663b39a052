"""The shipped JSON Schemas are the one rule book for inputs: they accept
what the pipeline produces, the loaders refuse exactly what they refuse, and
the walker in ``osmag_nav.fields`` applies every keyword they use."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import osmag_nav
from osmag_nav import evalkit, fields, gridworld
from osmag_nav.cli import main
from osmag_nav.enrichment import EnrichmentError, parse_records
from osmag_nav.episode import EpisodeError, read_records
from osmag_nav.evalkit import CATEGORIES, GRANULARITIES, EvalError, run_experiment
from osmag_nav.fields import ConfigError
from osmag_nav.gridworld import WorldModel
from osmag_nav.llm import BACKEND_KINDS, BackendError
from osmag_nav.retrieval import MAP_MODES
from osmag_nav.fixtures import (
    demo_experiment_config,
    five_room_records,
    five_room_world,
)

SCHEMA_DIR = Path(fields.SCHEMAS)
ANNOTATIONS = {"$schema", "title", "description"}


def _schema(name: str) -> dict:
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _experiment_schema() -> dict:
    schema = _schema("experiment.schema.json")
    # inline the cross-file reference so no resolver setup is needed; without
    # its "$schema" the profile is checked by the experiment's validator class
    schema["properties"]["profile"] = {k: v for k, v in _schema("profile.schema.json").items() if k != "$schema"}
    return schema


def _schema_nodes(node):
    """Every schema object within the schema ``node``, ``node`` first."""
    yield node
    for key, value in node.items():
        if key in ("properties", "$defs"):
            for sub in value.values():
                yield from _schema_nodes(sub)
        elif key in ("items", "additionalProperties") and isinstance(value, dict):
            yield from _schema_nodes(value)
        elif key in ("anyOf", "oneOf"):
            for sub in value:
                yield from _schema_nodes(sub)


SCHEMA_NAMES = sorted(path.name for path in SCHEMA_DIR.glob("*.schema.json"))


def test_schemas_ship_with_the_package():
    assert SCHEMA_NAMES == [
        "episode_record.schema.json", "experiment.schema.json", "fixtures.schema.json", "plan.schema.json",
        "profile.schema.json", "records.schema.json", "world.schema.json",
    ]
    assert SCHEMA_DIR == Path(osmag_nav.__file__).parent / "schemas"


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_every_keyword_is_one_the_walker_applies(name):
    # a keyword the walker does not know would be ignored without a word
    used = {key for node in _schema_nodes(_schema(name)) for key in node}
    assert used - ANNOTATIONS <= fields.KEYWORDS, sorted(used - ANNOTATIONS - fields.KEYWORDS)


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_every_schema_is_valid_and_every_ref_resolves(name):
    schema = _schema(name)
    jsonschema.Draft202012Validator.check_schema(schema)
    for node in _schema_nodes(schema):
        if "$ref" in node:
            target, _, pointer = node["$ref"].partition("#")
            resolved = _schema(target) if target else schema
            for part in pointer.split("/")[1:]:
                resolved = resolved[part]
            assert isinstance(resolved, dict), node["$ref"]
    fields._compiled(name)  # the walker compiles it, sibling files and all


def test_schema_choices_equal_the_programs():
    schema = _schema("experiment.schema.json")["properties"]
    assert schema["map_mode"]["enum"] == list(MAP_MODES)
    assert schema["queries"]["items"]["properties"]["category"]["enum"] == [*CATEGORIES, None]
    assert schema["generate"]["items"]["properties"]["category"]["enum"] == list(CATEGORIES)
    assert schema["generate"]["items"]["properties"]["granularity"]["enum"] == list(GRANULARITIES)
    kinds = [branch["properties"]["kind"]["const"] for branch in schema["backend"]["oneOf"]]
    assert kinds == list(BACKEND_KINDS)


def test_grid_resolution_bound_is_twice_the_inflation_radius():
    # from 0.5 m up, inflate's round(INFLATION_M / res) is 0 cells: the
    # planner would no longer model the robot's footprint
    bound = _schema("experiment.schema.json")["properties"]["grid_resolution_m"]["exclusiveMaximum"]
    assert bound == 2 * gridworld.INFLATION_M
    assert round(gridworld.INFLATION_M / bound) == 0
    assert round(gridworld.INFLATION_M / (bound * 0.99)) == 1


def test_fixture_records_validate():
    jsonschema.validate(five_room_records(), _schema("records.schema.json"))


def test_fixture_world_validates():
    jsonschema.validate(five_room_world().to_dict(), _schema("world.schema.json"))


def test_demo_experiment_config_validates():
    config = demo_experiment_config()
    config["map"] = "fixture_enriched.osm"
    config["world"] = "world.json"
    jsonschema.validate(config, _experiment_schema())


@pytest.mark.parametrize("spec", [
    {"kind": "heuristic"},
    {"kind": "heuristic", "fixtures_file": "replies.json"},
    {"kind": "heuristic", "endpoint": "http://localhost:1"},
    {"kind": "scripted", "fixtures_file": "replies.json"},
    {"kind": "scripted"},
    {"kind": "scripted", "fixtures_file": "replies.json", "endpoint": "http://localhost:1"},
    {"kind": "live", "endpoint": "http://localhost:1", "model": "m", "retries": 2},
    {"kind": "live"},
    {"kind": "live", "endpoint": "http://localhost:1", "fixtures_file": "replies.json"},
])
def test_backend_schema_and_loader_agree_on_each_kinds_keys(tmp_path, monkeypatch, spec):
    from osmag_nav.llm import make_backend

    monkeypatch.setenv("OSMAG_NAV_API_KEY", "sk-test")
    (tmp_path / "replies.json").write_text("{}", encoding="utf-8")
    schema = _schema("experiment.schema.json")["properties"]["backend"]
    try:
        make_backend(spec, str(tmp_path))
    except BackendError:
        loaded = False
    else:
        loaded = True
    assert jsonschema.Draft202012Validator(schema).is_valid(spec) == loaded


def test_heuristic_reply_validates_against_plan_schema(enriched_map, heuristic_backend):
    from osmag_nav.llm import complete
    from osmag_nav.retrieval import Query, build_prompt

    reply = complete(heuristic_backend, build_prompt(enriched_map, Query("sink")))
    jsonschema.validate(json.loads(reply), _schema("plan.schema.json"))


def test_demo_outputs_validate(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--seed", "3", "-o", str(out)]) == 0
    capsys.readouterr()
    jsonschema.validate(
        json.loads((out / "world.json").read_text()), _schema("world.schema.json")
    )
    jsonschema.validate(
        json.loads((out / "records.json").read_text()), _schema("records.schema.json")
    )
    experiment = json.loads((out / "experiment.json").read_text())
    jsonschema.validate(experiment, _experiment_schema())
    lines = (out / "records.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        jsonschema.validate(json.loads(line), _schema("episode_record.schema.json"))


_DROP = object()
_REPLACEMENTS = (_DROP, "abc", 5, -1, 0, 2.5, float("nan"), True, None, [], {})


def _key_paths(doc, path=()):
    """Every key path of ``doc``, the document itself first. Items of one
    array share one shape, so the first item stands for all of them."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _key_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from _key_paths(doc[0], path + (0,))


def _mutations(doc):
    """(path, mutated document) for every key path and replacement: the key
    dropped, a value of another type, NaN, or a value out of range; and, in
    every object, one unknown key added."""
    for path in _key_paths(doc):
        mutated = copy.deepcopy(doc)
        target = mutated
        for key in path:
            target = target[key]
        if isinstance(target, dict):
            target["unknown_key"] = 1
            yield path + ("unknown key",), mutated
        for value in _REPLACEMENTS:
            if not path:
                if value is not _DROP:
                    yield path, value
                continue
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if value is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path + (("dropped",) if value is _DROP else (value,)), mutated


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    assert main(["demo", "-o", str(out)]) == 0
    return out


def _world_loader(tmp_path):
    def load(doc):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        WorldModel.from_file(str(path))

    return load


def _records_loader(tmp_path):
    def load(doc):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        read_records(str(path))

    return load


def _is_number(checker, value) -> bool:
    return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max


# Plain JSON Schema lets NaN, the infinities and an integer beyond every float
# through as numbers, and 2.0 as an integer; the loaders, as documented, do not.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"number": _is_number, "integer": lambda checker, value: type(value) is int}
    ),
)

# The mutations whose refusal is a rule no schema states: the experiment
# needs at least one query, and its map and world must name files.
_EXEMPT = {
    "experiment.json": [("generate", "dropped"), ("generate", []), ("map", "abc"), ("world", "abc")],
}


class _Loaded(Exception):
    """The experiment passed every check and reached its first episode."""


@pytest.mark.parametrize("artifact", ["world.json", "records.json", "experiment.json", "records.jsonl"])
def test_schema_rejection_implies_loader_rejection(demo_dir, tmp_path, monkeypatch, artifact):
    """For every mutation of a demo artifact, the loader refuses it, with its
    typed error, exactly when its schema does, but for the named exemptions:
    the schema's verdict and the loader's are one.
    For ``records.jsonl`` the artifact is its first line, one episode record;
    an experiment counts as loaded when it reaches its first episode."""
    text = (demo_dir / artifact).read_text()
    doc = json.loads(text.splitlines()[0] if artifact == "records.jsonl" else text)
    if artifact == "records.jsonl":
        schema, load, errors = _schema("episode_record.schema.json"), _records_loader(tmp_path), EpisodeError
    elif artifact == "world.json":
        schema, load, errors = _schema("world.schema.json"), _world_loader(tmp_path), ConfigError
    elif artifact == "records.json":
        schema, load, errors = _schema("records.schema.json"), parse_records, EnrichmentError
    else:
        schema, errors = _experiment_schema(), (EvalError, BackendError)

        def load(config):
            try:
                run_experiment(config, base_dir=str(demo_dir))
            except _Loaded:
                pass

        def first_episode(cfg):
            raise _Loaded

        monkeypatch.setattr(evalkit, "run_episode", first_episode)

    validator = _Validator(schema)
    exempt = _EXEMPT.get(artifact, [])
    disagree, refused, exempted = [], 0, 0
    for path, mutated in _mutations(doc):
        valid = validator.is_valid(mutated)
        refused += not valid
        try:
            load(mutated)
        except errors:
            loaded = False
        except Exception as exc:  # the wrong error is as much a disagreement as none
            disagree.append((path, f"{type(exc).__name__}: {exc}"))
            continue
        else:
            loaded = True
        if path in exempt:
            exempted += 1
            if not valid or loaded:
                disagree.append((path, f"exempt, but schema {valid} and loader {loaded}"))
        elif loaded != valid:
            disagree.append((path, f"schema {valid}, loader {loaded}"))
    assert refused > 50 and exempted == len(exempt)
    assert not disagree, disagree


def test_runtime_imports_no_jsonschema(demo_dir, tmp_path):
    # jsonschema is a test extra: the loaders check inputs with the package's own walker
    code = (
        "import sys; sys.modules['jsonschema'] = None\n"
        "from osmag_nav.cli import main\n"
        "sys.exit(main(['simulate', sys.argv[1], '-o', sys.argv[2]]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(osmag_nav.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code, str(demo_dir / "experiment.json"), str(tmp_path / "records.jsonl")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "records.jsonl").read_bytes() == (demo_dir / "records.jsonl").read_bytes()
