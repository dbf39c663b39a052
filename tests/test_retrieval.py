from __future__ import annotations

import json
import re

import numpy as np
import pytest

from oracles import bf_extract_first_json_object
from osmag_nav.llm import CompletionRequest, ScriptedBackend, TextBackend
from osmag_nav.retrieval import (
    MAP_HEADER,
    QUERY_HEADER,
    TASK_HEADER,
    PlanEmptyError,
    PlanError,
    PlanParseError,
    Query,
    build_prompt,
    extract_first_json_object,
    parse_plan,
    retrieve,
    simplify_map,
    token_set_similarity,
)

COORD_PATTERN = re.compile(r"-?\d+\.\d{4,}")  # signed decimals with >= 4 fraction digits


def _assert_plan_invariants(plan, m):
    assert len(plan.rooms) <= 3
    seen_rooms = set()
    seen_nodes = set()
    for room in plan.rooms:
        assert room.area_id in m.areas
        assert room.area_id not in seen_rooms
        seen_rooms.add(room.area_id)
        assert len(room.node_ids) <= 3
        for nid in room.node_ids:
            assert nid in m.nodes
            assert nid not in seen_nodes
            seen_nodes.add(nid)
            parent = m.node_parent_area(m.nodes[nid])
            assert parent is not None and parent.id == room.area_id
    # room-contiguous flattening: room ids never interleave
    flat_rooms = [room_id for room_id, _ in plan.flatten()]
    compressed = [flat_rooms[i] for i in range(len(flat_rooms)) if i == 0 or flat_rooms[i] != flat_rooms[i - 1]]
    assert len(compressed) == len(set(compressed))


# ---------------------------------------------------------------------------
# queries


def test_query_granularity_and_text():
    assert Query("pillow").granularity == "o"
    assert Query("pillow", room="living room").granularity == "or"
    q = Query("pillow", room="living room", floor="0")
    assert q.granularity == "orf"
    assert q.text() == "pillow in the living room on floor 0"
    assert Query.from_text(q.text()) == q


# ---------------------------------------------------------------------------
# simplify_map


def test_simplify_single_room_object(enriched_map, bare_map):
    from osmag_nav.enrichment import ingest

    m, _ = ingest(bare_map, {"instances": [{"label": "sink", "x": 8.0, "y": 1.0}]})
    (nid,) = set(m.nodes) - set(bare_map.nodes)
    text = simplify_map(m)
    node_lines = [line for line in text.splitlines() if "node" in line]
    assert len(node_lines) == 1
    assert "sink" in node_lines[0] and str(nid) in node_lines[0]


def test_simplify_full_never_leaks_coordinates(enriched_map):
    text = simplify_map(enriched_map, "full")
    assert COORD_PATTERN.findall(text) == []


def test_simplify_rooms_only_has_areas_no_nodes(enriched_map):
    text = simplify_map(enriched_map, "rooms_only")
    area_ids = re.findall(r"- area (\d+)", text)
    node_ids = re.findall(r"- node (\d+)", text)
    assert len(area_ids) == 5
    assert len(node_ids) == 0


def test_simplify_nested_indentation():
    import mapgen

    text = simplify_map(mapgen.nested_map())
    lines = text.splitlines()
    floor_line = next(line for line in lines if "area 100" in line)
    room_line = next(line for line in lines if "area 101" in line)
    assert not floor_line.startswith(" ")
    assert room_line.startswith("  ")


def _oracle_map():
    """Nested areas, name and id parents, an unresolved parent, a semantic node
    without a parent tag, an area without semantic nodes, and a parent cycle."""
    import mapgen
    from osmag_nav.osmag import LEVEL_KEY, NAME_KEY, OBJECT_KEY, OBSERVED_KEY, PARENT_KEY

    b = mapgen._Builder()
    b.rect_area(100, 0.0, 0.0, 12.0, 6.0, {NAME_KEY: "floor", LEVEL_KEY: "1"})
    b.rect_area(101, 0.0, 0.0, 6.0, 6.0, {NAME_KEY: "west room", PARENT_KEY: "100"})
    b.rect_area(102, 6.0, 0.0, 12.0, 6.0, {NAME_KEY: "east room", PARENT_KEY: "floor"})
    b.rect_area(103, 0.0, 3.0, 3.0, 6.0, {NAME_KEY: "closet", PARENT_KEY: " west room "})
    b.rect_area(104, 20.0, 0.0, 24.0, 4.0, {NAME_KEY: "loop a", PARENT_KEY: "105"})
    b.rect_area(105, 24.0, 0.0, 28.0, 4.0, {NAME_KEY: "loop b", PARENT_KEY: "104"})
    b.node(1.0, 1.0, {OBJECT_KEY: "lamp", PARENT_KEY: "west room"})
    b.node(7.0, 1.0, {OBSERVED_KEY: "fan; ;kettle", PARENT_KEY: "102"})
    b.node(8.0, 2.0, {OBJECT_KEY: "router", PARENT_KEY: "999"})
    b.node(9.0, 2.0, {OBJECT_KEY: "heater"})
    b.node(1.0, 4.0, {OBJECT_KEY: "vacuum", PARENT_KEY: "103"})
    b.node(2.0, 1.0, {OBSERVED_KEY: "plant", PARENT_KEY: "101"})
    b.node(21.0, 1.0, {OBJECT_KEY: "tripod", PARENT_KEY: "104"})
    b.node(2.5, 2.5, {PARENT_KEY: "101"})
    return b.build()


def test_simplify_matches_per_area_oracle():
    import mapgen
    import oracles

    maps = [mapgen.synthetic_map(seed) for seed in range(10)] + [_oracle_map()]
    for m in maps:
        for mode in ("full", "rooms_only"):
            assert simplify_map(m, mode).encode() == oracles.bf_simplify_map(m, mode).encode()
    text = simplify_map(_oracle_map())
    assert "router" not in text and "heater" not in text and "tripod" not in text
    assert re.search(r'^      - node \d+: object "vacuum"$', text, re.M)
    assert 'observed "fan; kettle"' in text


def test_simplify_resolves_each_node_parent_once(monkeypatch):
    import mapgen
    from osmag_nav.osmag import SemanticMap

    calls = []
    resolve = SemanticMap.node_parent_area

    def counted(self, node):
        calls.append(node.id)
        return resolve(self, node)

    monkeypatch.setattr(SemanticMap, "node_parent_area", counted)
    for m in [mapgen.synthetic_map(seed) for seed in range(8)] + [_oracle_map()]:
        calls.clear()
        simplify_map(m, "full")
        assert len(calls) <= len(m.semantic_nodes())
        assert len(calls) == len(set(calls))


# ---------------------------------------------------------------------------
# prompts


def test_prompt_sections_in_order(enriched_map):
    req = build_prompt(enriched_map, Query("sink"))
    assert "=== MAP REPRESENTATION ===" in req.system_text
    positions = [req.user_text.index(h) for h in (TASK_HEADER, MAP_HEADER, QUERY_HEADER)]
    assert positions == sorted(positions)


def test_prompt_contains_exact_query_string(enriched_map):
    q = Query("pillow", room="living room", floor="0")
    req = build_prompt(enriched_map, q)
    assert "pillow in the living room on floor 0" in req.user_text


def test_prompt_deterministic(enriched_map):
    a = build_prompt(enriched_map, Query("sink"))
    b = build_prompt(enriched_map, Query("sink"))
    assert a.system_text == b.system_text and a.user_text == b.user_text


# ---------------------------------------------------------------------------
# parse_plan


def test_parse_plan_valid_rooms(enriched_map):
    reply = json.dumps(
        {
            "rooms": [
                {"room_id": 105, "room_name": "lounge", "nodes": [162, 163]},
                {"room_id": 103, "room_name": "robotics lab", "nodes": [158, 159]},
            ]
        }
    )
    plan = parse_plan(reply, enriched_map)
    assert [nid for _, nid in plan.flatten()] == [162, 163, 158, 159]
    _assert_plan_invariants(plan, enriched_map)


def test_parse_plan_tolerates_prose_and_fences(enriched_map):
    reply = (
        "Sure! Here is the plan you asked for:\n```json\n"
        '{"rooms": [{"room_id": 105, "nodes": [162]}]}\n```\nGood luck!'
    )
    plan = parse_plan(reply, enriched_map)
    assert [nid for _, nid in plan.flatten()] == [162]


def test_parse_plan_clamps_five_rooms(enriched_map):
    reply = json.dumps(
        {
            "rooms": [
                {"room_id": rid, "nodes": []}
                for rid in (101, 102, 103, 104, 105)
            ]
        }
    )
    plan = parse_plan(reply, enriched_map)
    assert [r.area_id for r in plan.rooms] == [101, 102, 103]
    assert any("clamped" in d for d in plan.drops)


def test_parse_plan_drops_fabricated_node(enriched_map):
    reply = json.dumps({"rooms": [{"room_id": 105, "nodes": [162, 9999]}]})
    plan = parse_plan(reply, enriched_map)
    assert [nid for _, nid in plan.flatten()] == [162]
    assert any("9999" in d for d in plan.drops)


def test_parse_plan_resolves_room_by_unique_name(enriched_map):
    reply = json.dumps({"rooms": [{"room_name": "lounge", "nodes": [162]}]})
    plan = parse_plan(reply, enriched_map)
    assert plan.rooms[0].area_id == 105
    assert plan.rooms[0].node_ids == [162]


def test_parse_plan_drops_wrong_room_node(enriched_map):
    reply = json.dumps({"rooms": [{"room_id": 101, "nodes": [162]}]})  # 162 is in 105
    plan = parse_plan(reply, enriched_map)
    assert plan.rooms[0].node_ids == []


def test_parse_plan_no_json(enriched_map):
    with pytest.raises(PlanError):
        parse_plan("I could not find anything useful.", enriched_map)


def test_parse_plan_zero_valid_rooms(enriched_map):
    with pytest.raises(PlanEmptyError):
        parse_plan('{"rooms": [{"room_id": 999, "nodes": [1]}]}', enriched_map)


def test_extract_first_json_object_picks_first():
    text = 'noise {"a": 1} and later {"b": 2}'
    assert extract_first_json_object(text) == {"a": 1}
    assert extract_first_json_object("{broken") is None


def test_reply_nested_past_the_recursion_limit_is_parse_error(enriched_map):
    # a plan after the deep object is not reached: the scan stops there
    deep = '{"rooms":' * 100_000 + "[]" + "}" * 100_000 + ' {"rooms": [{"room_id": 105}]}'
    assert extract_first_json_object(deep) is None
    with pytest.raises(PlanParseError):
        parse_plan(deep, enriched_map)


_PLAN_TEXT = json.dumps({"rooms": [{"room_id": 105, "room_name": "kitchen \\ \"A\" {1}", "nodes": [162, 163]}]})
_JSON_TOKENS = (
    "{", "{", "}", "}", "[", "]", '"', '"', "\\", '\\"', ":", ",", " ", "\n", "a", "1", "-2.5e3",
    "true", "null", "```json\n", "\n```", '"k"', '{"a": 1}', "{}", '{"rooms": []}', "\u00e9",
)


def _fuzzed_reply(rng) -> str:
    """Random mixes of braces, quotes, escapes and code fences, with whole,
    truncated or repeated plan JSON between them."""
    parts = []
    for _ in range(int(rng.integers(0, 12))):
        roll = rng.random()
        if roll < 0.15:
            parts.append(_PLAN_TEXT)
        elif roll < 0.3:
            cut = int(rng.integers(0, len(_PLAN_TEXT)))
            parts.append(_PLAN_TEXT[:cut] if rng.random() < 0.5 else _PLAN_TEXT[cut:])
        else:
            parts.append(_JSON_TOKENS[int(rng.integers(len(_JSON_TOKENS)))])
    return "".join(parts)


def test_extract_first_json_object_matches_brace_scanner_oracle():
    rng = np.random.default_rng(31)
    found = 0
    for trial in range(20000):
        text = _fuzzed_reply(rng)
        expected = bf_extract_first_json_object(text)
        assert extract_first_json_object(text) == expected, (trial, text)
        found += expected is not None
    assert 2000 < found < 18000


# ---------------------------------------------------------------------------
# retrieve


def test_retrieve_heuristic_sink(enriched_map, heuristic_backend):
    plan = retrieve(enriched_map, Query("sink"), heuristic_backend)
    assert plan.rooms[0].area_id == 105
    assert plan.rooms[0].node_ids[0] == 162
    _assert_plan_invariants(plan, enriched_map)


def test_retrieve_scripted_reply(enriched_map):
    canned = json.dumps(
        {"rooms": [{"room_id": 103, "nodes": [158]}, {"room_id": 105, "nodes": [162]}]}
    )
    backend = ScriptedBackend({})
    backend.record(build_prompt(enriched_map, Query("robot dog")), canned)
    plan = retrieve(enriched_map, Query("robot dog"), backend)
    assert [(r.area_id, r.node_ids) for r in plan.rooms] == [(103, [158]), (105, [162])]


def test_retrieve_unmapped_object_ranks_by_description(enriched_map, heuristic_backend):
    plan = retrieve(enriched_map, Query("measuring cup"), heuristic_backend)
    assert plan.rooms, "UO plan must be non-empty"
    # oracle: recompute description similarity per room independently
    scores = {
        area.id: token_set_similarity("measuring cup", area.description or "")
        for area in enriched_map.areas.values()
    }
    best = max(sorted(scores), key=lambda aid: scores[aid])
    assert plan.rooms[0].area_id == best == 105


class _RetryBackend(TextBackend):
    """First reply unusable, second reply valid; counts calls."""

    kind = "scripted"

    def __init__(self, good_reply: str):
        self.calls = 0
        self.good_reply = good_reply

    def complete_text(self, req: CompletionRequest) -> str:
        self.calls += 1
        if self.calls == 1:
            return "no json here"
        assert "could not be used" in req.user_text  # corrective instruction appended
        return self.good_reply


def test_retrieve_retries_once_with_corrective(enriched_map):
    backend = _RetryBackend('{"rooms": [{"room_id": 105, "nodes": [162]}]}')
    plan = retrieve(enriched_map, Query("sink"), backend)
    assert backend.calls == 2
    assert [nid for _, nid in plan.flatten()] == [162]


class _AlwaysBadBackend(TextBackend):
    kind = "scripted"

    def complete_text(self, req):
        return "still nothing"


def test_retrieve_fails_after_retry(enriched_map):
    with pytest.raises(PlanError):
        retrieve(enriched_map, Query("sink"), _AlwaysBadBackend())


def test_retrieve_heuristic_is_pure(enriched_map, heuristic_backend):
    a = retrieve(enriched_map, Query("robot dog"), heuristic_backend)
    b = retrieve(enriched_map, Query("robot dog"), heuristic_backend)
    assert a.to_dict() == b.to_dict()


def test_heuristic_rooms_only_plans_rooms(enriched_map, heuristic_backend):
    plan = retrieve(enriched_map, Query("sink"), heuristic_backend, "rooms_only")
    assert plan.rooms[0].area_id == 105
    assert all(room.node_ids == [] for room in plan.rooms)


def test_heuristic_floor_filter(enriched_map, heuristic_backend):
    # all fixture rooms are floor 0; an orf query still plans normally
    plan = retrieve(
        enriched_map, Query("sink", room="lounge", floor="0"), heuristic_backend
    )
    assert plan.rooms[0].area_id == 105


def test_heuristic_tokenizes_the_query_once(monkeypatch, enriched_map):
    import osmag_nav.retrieval as retrieval

    areas, query = retrieval.parse_prompt_map(
        build_prompt(enriched_map, Query("Sinks", room="Lounges")).user_text
    )
    seen: list[str] = []
    tokenize = retrieval.normalize_tokens

    def counted(text):
        seen.append(text)
        return tokenize(text)

    monkeypatch.setattr(retrieval, "normalize_tokens", counted)
    plan = retrieval.heuristic_plan(areas, query)
    assert plan["rooms"][0]["room_id"] == 105
    # no map text reads "Sinks" or "Lounges", so each count is the query's own
    assert seen.count("Sinks") == 1
    assert seen.count("Lounges") == 1


# ---------------------------------------------------------------------------
# adversarial fuzzing (mirrors the acceptance criterion at smaller scale)


def _adversarial_reply(rng: np.random.Generator, m) -> str:
    real_nodes = [n.id for n in m.nodes.values()]
    real_areas = list(m.areas)
    choice = rng.integers(0, 8)
    if choice == 0:
        return "complete garbage without braces"
    if choice == 1:
        return '{"rooms": [{"room_id": '  # truncated JSON
    if choice == 2:
        rooms = [
            {
                "room_id": int(rng.choice(real_areas + [777, -1])),
                "nodes": [int(x) for x in rng.choice(real_nodes + [0, 10**6], size=rng.integers(0, 8))],
            }
            for _ in range(int(rng.integers(0, 7)))
        ]
        return json.dumps({"rooms": rooms})
    if choice == 3:
        return json.dumps({"rooms": "not a list"})
    if choice == 4:
        return json.dumps({"something_else": 1})
    if choice == 5:
        nodes = [int(x) for x in rng.choice(real_nodes, size=4)]
        return (
            "prose before ```json\n"
            + json.dumps({"rooms": [{"room_id": int(rng.choice(real_areas)), "nodes": nodes}]})
            + "\n``` prose after"
        )
    if choice == 6:
        return json.dumps(
            {"rooms": [{"room_id": int(rng.choice(real_areas)), "nodes": [True, None, "x"]}]}
        )
    return json.dumps(
        {
            "rooms": [
                {"room_id": int(rng.choice(real_areas)), "nodes": [int(rng.choice(real_nodes))]}
            ]
            * 2  # duplicated room entry
        }
    )


def test_fuzzed_replies_never_violate_plan_invariants(enriched_map):
    rng = np.random.default_rng(99)
    survived = 0
    for _ in range(300):
        reply = _adversarial_reply(rng, enriched_map)
        try:
            plan = parse_plan(reply, enriched_map)
        except PlanError:
            continue
        survived += 1
        _assert_plan_invariants(plan, enriched_map)
    assert survived > 50  # the generator must exercise the accepting path too
