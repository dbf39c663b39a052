"""Uniform text-completion backends: one live HTTP client, two offline stand-ins.

The live backend speaks the OpenAI-compatible chat-completions protocol; the
scripted backend replays fixture replies keyed by a hash of the request; the
heuristic backend (defined in the retrieval module, constructed here via
:func:`make_backend`) computes a retrieval plan from the prompt itself with a
deterministic string-similarity scorer. Offline backends are referentially
transparent: identical request, identical reply bytes.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass

from .fields import Fields, read_text

API_KEY_ENV = "OSMAG_NAV_API_KEY"
DEFAULT_TIMEOUT_S = 30.0
DEFAULT_RETRIES = 3
DEFAULT_MAX_IN_FLIGHT = 4
# the keys each backend kind reads: (required, optional)
_BACKEND_KEYS = {
    "heuristic": (("kind",), ()),
    "scripted": (("kind", "fixtures_file"), ()),
    "live": (("kind", "endpoint"), ("model", "timeout_s", "retries", "max_in_flight")),
}
BACKEND_KINDS = tuple(_BACKEND_KEYS)
# every live request is greedy and capped: plans are short and must be repeatable
TEMPERATURE = 0.0
MAX_TOKENS = 1024


class BackendError(Exception):
    """A completion backend failed: a bad spec, a missing API key, no
    scripted reply for a prompt, or a transport failure that survived all
    retries."""


@dataclass(frozen=True)
class CompletionRequest:
    system_text: str
    user_text: str

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.system_text.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.user_text.encode("utf-8"))
        return digest.hexdigest()


class TextBackend:
    """Interface: subclasses implement ``complete_text``."""

    kind = "abstract"

    def complete_text(self, req: CompletionRequest) -> str:
        raise NotImplementedError


def complete(backend: TextBackend, req: CompletionRequest) -> str:
    return backend.complete_text(req)


class ScriptedBackend(TextBackend):
    """Replays canned replies; fails loudly on an unknown prompt key.

    The fixture maps ``CompletionRequest.fingerprint()`` hex digests to reply
    text.
    """

    kind = "scripted"

    def __init__(self, fixtures: dict[str, str]):
        self.fixtures = dict(fixtures)

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        f = Fields(path, BackendError)
        return cls(f.typed(dict[str, str], f.parse(read_text(path)), ""))

    def complete_text(self, req: CompletionRequest) -> str:
        key = req.fingerprint()
        if key not in self.fixtures:
            raise BackendError(f"no scripted reply for prompt hash {key[:16]}…")
        return self.fixtures[key]


class LiveBackend(TextBackend):
    """OpenAI-compatible chat-completions client with bounded retries.

    The credential comes from the environment only (never a flag or file) and
    is never echoed. A call can block at most timeout x retries. A bound out of
    range (``timeout_s`` not finite and positive, ``retries`` or
    ``max_in_flight`` below 1) raises :class:`BackendError` naming the field.
    """

    kind = "live"

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        retries: int = DEFAULT_RETRIES,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    ):
        f = Fields("backend", BackendError)
        self.timeout_s = f.number(timeout_s, "timeout_s", above=0)
        self.retries = f.integer(retries, "retries", minimum=1)
        self._gate = threading.Semaphore(f.integer(max_in_flight, "max_in_flight", minimum=1))
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise BackendError(f"set {API_KEY_ENV} to use the live backend")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self._api_key = key

    def complete_text(self, req: CompletionRequest) -> str:
        import requests

        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.system_text},
                {"role": "user", "content": req.user_text},
            ],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        headers = {
            "Authorization": f"Bearer {self._api_key}",
            "Content-Type": "application/json",
        }
        url = f"{self.endpoint}/chat/completions"
        last_error: Exception | None = None
        # Hard ceiling: a call never blocks past timeout x retries, backoff included.
        deadline = time.monotonic() + self.timeout_s * self.retries
        with self._gate:
            for attempt in range(self.retries):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    resp = requests.post(
                        url, json=body, headers=headers, timeout=min(self.timeout_s, remaining)
                    )
                    if resp.status_code in (429, 500, 502, 503, 504):
                        last_error = BackendError(
                            f"HTTP {resp.status_code} from completion endpoint"
                        )
                    else:
                        resp.raise_for_status()
                        data = resp.json()
                        return data["choices"][0]["message"]["content"]
                except requests.RequestException as exc:
                    last_error = exc
                except (KeyError, IndexError, ValueError) as exc:
                    raise BackendError(f"malformed completion response: {exc}") from exc
                backoff = min(2.0**attempt * 0.25, 2.0)
                if attempt + 1 < self.retries and time.monotonic() + backoff < deadline:
                    time.sleep(backoff)
        raise BackendError(
            f"completion endpoint failed after {self.retries} attempts: {last_error}"
        )


def make_backend(spec: dict, base_dir: str = ".") -> TextBackend:
    """Build a backend from its spec, ``{"kind": "live"|"scripted"|"heuristic", ...}``;
    a scripted backend replays its ``fixtures_file``, which resolves against
    ``base_dir`` when relative. A value the experiment schema forbids, or a
    key that the spec's kind does not read, raises :class:`BackendError`
    naming the field."""
    f = Fields("backend", BackendError)
    kind = f.choice(f.object(spec, "", required=("kind",))["kind"], "kind", BACKEND_KINDS)
    required, optional = _BACKEND_KEYS[kind]
    f = Fields(f"{kind} backend", BackendError)
    f.object(spec, "", required, required + optional)
    if kind == "scripted":
        path = os.path.join(base_dir, f.typed(str, spec["fixtures_file"], "fixtures_file"))
        return ScriptedBackend.from_file(path)
    if kind == "live":
        return LiveBackend(
            endpoint=f.typed(str, spec["endpoint"], "endpoint"),
            model=f.typed(str, spec.get("model", "gpt-4o"), "model"),
            timeout_s=spec.get("timeout_s", DEFAULT_TIMEOUT_S),
            retries=spec.get("retries", DEFAULT_RETRIES),
            max_in_flight=spec.get("max_in_flight", DEFAULT_MAX_IN_FLIGHT),
        )
    from .retrieval import HeuristicBackend

    return HeuristicBackend()
