from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from osmag_nav.llm import (
    BackendError,
    BackendUnavailableError,
    CompletionRequest,
    CredentialError,
    LiveBackend,
    MissingFixtureError,
    ScriptedBackend,
    complete,
    make_backend,
)
from osmag_nav.retrieval import HeuristicBackend, build_prompt, Query


def test_scripted_replay():
    req = CompletionRequest(system_text="sys", user_text="user")
    backend = ScriptedBackend({req.fingerprint(): "canned reply"})
    assert complete(backend, req) == "canned reply"
    # referential transparency
    assert complete(backend, req) == complete(backend, req)


def test_scripted_unknown_prompt_fails_loudly():
    backend = ScriptedBackend({})
    with pytest.raises(MissingFixtureError):
        complete(backend, CompletionRequest(system_text="s", user_text="u"))


def test_heuristic_first_room_contains_query_node(enriched_map):
    backend = HeuristicBackend()
    req = build_prompt(enriched_map, Query("sink"))
    reply = complete(backend, req)
    plan = json.loads(reply)
    first_room = plan["rooms"][0]
    assert first_room["room_id"] == 105  # the lounge holds the sink node
    assert 162 in first_room["nodes"]
    # deterministic bytes
    assert complete(backend, req) == reply


def test_make_backend_kinds(tmp_path):
    assert make_backend({"kind": "heuristic"}).kind == "heuristic"
    fixture_file = tmp_path / "replies.json"
    fixture_file.write_text(json.dumps({"abc": "reply"}), encoding="utf-8")
    scripted = make_backend({"kind": "scripted", "fixtures_file": str(fixture_file)})
    assert scripted.fixtures == {"abc": "reply"}


@pytest.mark.parametrize("replies", [[1, 2], {"abc": 5}, "reply"])
def test_scripted_fixtures_map_keys_to_reply_strings(tmp_path, replies):
    fixture_file = tmp_path / "replies.json"
    fixture_file.write_text(json.dumps(replies), encoding="utf-8")
    with pytest.raises(BackendError, match="replies.json"):
        make_backend({"kind": "scripted", "fixtures_file": str(fixture_file)})


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout_s", 0),
        ("timeout_s", -1.0),
        ("timeout_s", "abc"),
        ("retries", 0),
        ("retries", 1.5),
        ("max_in_flight", 0),
        ("max_in_flight", -1),
        ("max_in_flight", True),
    ],
)
def test_make_backend_live_bounds(monkeypatch, field, value):
    monkeypatch.setenv("OSMAG_NAV_API_KEY", "sk-test")
    spec = {"kind": "live", "endpoint": "http://localhost:1", field: value}
    with pytest.raises(BackendError, match=field):
        make_backend(spec)
    backend = make_backend({**spec, field: 1})  # the least value in bounds builds; no request is made
    assert isinstance(backend, LiveBackend)


@pytest.mark.parametrize(
    "field,value",
    [
        ("timeout_s", 0),
        ("timeout_s", -1.0),
        ("timeout_s", math.nan),
        ("timeout_s", math.inf),
        ("retries", 0),
        ("retries", -2),
        ("max_in_flight", 0),
        ("max_in_flight", -1),
    ],
)
def test_live_backend_rejects_bounds_itself(field, value):
    # built directly, without make_backend; no request is made
    kwargs = {"endpoint": "http://localhost:1", "model": "m", "api_key": "sk-test"}
    with pytest.raises(BackendError, match=f"field '{field}'"):
        LiveBackend(**kwargs, **{field: value})
    assert isinstance(LiveBackend(**kwargs, **{field: 1}), LiveBackend)


def test_live_backend_requires_credential(monkeypatch):
    monkeypatch.delenv("OSMAG_NAV_API_KEY", raising=False)
    with pytest.raises(CredentialError):
        LiveBackend(endpoint="http://localhost:1", model="m")


class _Scenario:
    """Shared state telling the stub server how to behave per request."""

    def __init__(self):
        self.behavior = "ok"
        self.requests = 0
        self.bodies: list[dict] = []


def _make_server(scenario: _Scenario):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            scenario.requests += 1
            length = int(self.headers.get("Content-Length", "0"))
            scenario.bodies.append(json.loads(self.rfile.read(length)))
            if scenario.behavior == "hang":
                time.sleep(1.5)  # longer than the client's timeout budget
                return
            if scenario.behavior == "fail_once" and scenario.requests == 1:
                self.send_response(503)
                self.end_headers()
                return
            body = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": "live reply"}}]}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


@pytest.fixture()
def live_server():
    scenario = _Scenario()
    server = _make_server(scenario)
    yield scenario, f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_live_backend_happy_path(live_server, monkeypatch):
    scenario, endpoint = live_server
    monkeypatch.setenv("OSMAG_NAV_API_KEY", "sk-test")
    backend = LiveBackend(endpoint=endpoint, model="test-model", timeout_s=5.0)
    reply = complete(backend, CompletionRequest(system_text="s", user_text="u"))
    assert reply == "live reply"
    body = scenario.bodies[0]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.0 and body["max_tokens"] == 1024
    assert [m["role"] for m in body["messages"]] == ["system", "user"]


def test_live_backend_retries_transient_failure(live_server, monkeypatch):
    scenario, endpoint = live_server
    scenario.behavior = "fail_once"
    monkeypatch.setenv("OSMAG_NAV_API_KEY", "sk-test")
    backend = LiveBackend(endpoint=endpoint, model="m", timeout_s=5.0, retries=3)
    assert complete(backend, CompletionRequest(system_text="s", user_text="u")) == "live reply"
    assert scenario.requests == 2


def test_live_backend_bounded_by_timeout_times_retries(live_server, monkeypatch):
    scenario, endpoint = live_server
    scenario.behavior = "hang"
    monkeypatch.setenv("OSMAG_NAV_API_KEY", "sk-test")
    backend = LiveBackend(endpoint=endpoint, model="m", timeout_s=0.4, retries=2)
    started = time.monotonic()
    with pytest.raises(BackendUnavailableError):
        complete(backend, CompletionRequest(system_text="s", user_text="u"))
    elapsed = time.monotonic() - started
    assert elapsed < 0.4 * 2 + 0.5  # timeout x retries plus slack


def test_live_backend_unreachable_endpoint(monkeypatch):
    monkeypatch.setenv("OSMAG_NAV_API_KEY", "sk-test")
    backend = LiveBackend(endpoint="http://127.0.0.1:9", model="m", timeout_s=0.2, retries=2)
    with pytest.raises(BackendUnavailableError):
        complete(backend, CompletionRequest(system_text="s", user_text="u"))
