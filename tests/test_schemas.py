"""The documented JSON Schemas must accept what the pipeline actually produces."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import jsonschema
import pytest

from osmag_nav.cli import main
from osmag_nav.enrichment import EnrichmentError, parse_records
from osmag_nav.episode import EpisodeError, read_records
from osmag_nav.evalkit import EvalError, run_experiment
from osmag_nav.fields import ConfigError
from osmag_nav.gridworld import WorldModel
from osmag_nav.llm import BackendError
from osmag_nav.fixtures import (
    demo_experiment_config,
    five_room_records,
    five_room_world,
)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _schema(name: str) -> dict:
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_records_validate():
    jsonschema.validate(five_room_records(), _schema("records.schema.json"))


def test_fixture_world_validates():
    jsonschema.validate(five_room_world().to_dict(), _schema("world.schema.json"))


def test_demo_experiment_config_validates():
    config = demo_experiment_config()
    config["map"] = "fixture_enriched.osm"
    config["world"] = "world.json"
    schema = _schema("experiment.schema.json")
    # inline the cross-file reference so no resolver setup is needed
    schema["properties"]["profile"] = _schema("profile.schema.json")
    jsonschema.validate(config, schema)


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
    schema = _schema("experiment.schema.json")
    schema["properties"]["profile"] = _schema("profile.schema.json")
    jsonschema.validate(experiment, schema)
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


@pytest.mark.parametrize("artifact", ["world.json", "records.json", "experiment.json", "records.jsonl"])
def test_schema_rejection_implies_loader_rejection(demo_dir, tmp_path, artifact):
    """Every mutation of a demo artifact that its schema rejects, its loader
    rejects too, with the loader's typed error. For ``records.jsonl`` the
    artifact is its first line, one episode record."""
    text = (demo_dir / artifact).read_text()
    doc = json.loads(text.splitlines()[0] if artifact == "records.jsonl" else text)
    if artifact == "records.jsonl":
        schema, load, errors = _schema("episode_record.schema.json"), _records_loader(tmp_path), EpisodeError
    elif artifact == "world.json":
        schema, load, errors = _schema("world.schema.json"), _world_loader(tmp_path), ConfigError
    elif artifact == "records.json":
        schema, load, errors = _schema("records.schema.json"), parse_records, EnrichmentError
    else:
        schema = _schema("experiment.schema.json")
        schema["properties"]["profile"] = _schema("profile.schema.json")
        errors = (EvalError, BackendError)

        def load(config):
            run_experiment(config, base_dir=str(demo_dir))

    validator = jsonschema.Draft202012Validator(schema)
    missed, checked = [], 0
    for path, mutated in _mutations(doc):
        if validator.is_valid(mutated):
            continue
        checked += 1
        try:
            load(mutated)
        except errors:
            continue
        except Exception as exc:  # the wrong error is as much a miss as none
            missed.append((path, f"{type(exc).__name__}: {exc}"))
            continue
        missed.append((path, "accepted"))
    assert checked > 50
    assert not missed, missed
