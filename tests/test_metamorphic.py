"""Metamorphic gates on the demo map: rewrites of the map file that must not
change what the pipeline does with it."""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET

import pytest

from osmag_nav.cli import main
from osmag_nav.episode import write_records
from osmag_nav.evalkit import run_experiment
from osmag_nav.osmag import parse_osmag, serialize_osmag

ID_SHIFT = 5000
# the tags whose value names an element by id
_ID_TAGS = ("parent", "osmAG:from", "osmAG:to")


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    assert main(["demo", "-o", str(out)]) == 0
    return out


def _rerun(demo_dir, tmp_path, map_text: str):
    """The demo experiment on ``map_text`` in place of the demo map: its
    records.jsonl bytes and its report as a dict."""
    (tmp_path / "map.osm").write_text(map_text, encoding="utf-8")
    config = json.loads((demo_dir / "experiment.json").read_text(encoding="utf-8"))
    config.update({"map": str(tmp_path / "map.osm"), "world": str(demo_dir / "world.json")})
    records, report = run_experiment(config)
    write_records(records, str(tmp_path / "records.jsonl"))
    return (tmp_path / "records.jsonl").read_bytes(), json.loads(report.to_json())


def _xml(root: ET.Element) -> str:
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_element_order_changes_nothing(demo_dir, tmp_path, seed):
    # nodes and ways in any order, and each element's tags in any order; the
    # node refs of a way keep theirs, since they trace its ring
    text = (demo_dir / "fixture_enriched.osm").read_text(encoding="utf-8")
    root = ET.fromstring(text)
    rng = random.Random(seed)
    elements = list(root)
    rng.shuffle(elements)
    for element in elements:
        children = list(element)
        tags = [child for child in children if child.tag == "tag"]
        rng.shuffle(tags)
        element[:] = tags + [child for child in children if child.tag != "tag"]
    root[:] = elements
    shuffled = _xml(root)
    assert shuffled != text
    assert serialize_osmag(parse_osmag(shuffled)) == text
    records, _ = _rerun(demo_dir, tmp_path, shuffled)
    assert records == (demo_dir / "records.jsonl").read_bytes()


def test_element_ids_change_no_metric(demo_dir, tmp_path):
    root = ET.fromstring((demo_dir / "fixture_enriched.osm").read_text(encoding="utf-8"))
    for element in root:
        element.set("id", str(int(element.get("id")) + ID_SHIFT))
        for child in element:
            if child.tag == "nd":
                child.set("ref", str(int(child.get("ref")) + ID_SHIFT))
            elif child.get("k") in _ID_TAGS and child.get("v").isdigit():
                child.set("v", str(int(child.get("v")) + ID_SHIFT))
    records, report = _rerun(demo_dir, tmp_path, _xml(root))
    assert records != (demo_dir / "records.jsonl").read_bytes()  # the plans name the new ids
    expected = json.loads((demo_dir / "report.json").read_text(encoding="utf-8"))
    report.pop("map_size_bytes")
    expected.pop("map_size_bytes")
    assert report == expected
