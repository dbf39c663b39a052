"""The one rule book for JSON inputs: the schemas in ``schemas/`` and the
walker that checks a document against one of them.

Each loader parses its document, checks the whole of it once with
:func:`check` and then reads it with plain indexing. A violation raises the
loader's typed error naming the source and the innermost field, for example
``experiment config: field 'queries[0].object' must be a string, got 5``.
The walker applies exactly :data:`KEYWORDS`, a little more strictly than JSON
Schema: a number is finite and fits a float, an integer is a JSON integer
(``2.0`` is not), and ``true`` or ``false`` is neither. Each schema compiles
once into closures; a field path is built only as a failure unwinds.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from importlib import resources

SCHEMAS = resources.files(__package__).joinpath("schemas")
KEYWORDS = frozenset({"type", "enum", "const", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
                      "minLength", "minItems", "maxItems", "items", "required", "properties",
                      "additionalProperties", "$ref", "$defs", "anyOf", "oneOf"})
_NOT_TYPED = {"$schema", "title", "description", "$ref", "$defs", "anyOf", "oneOf"}
_TYPES = {  # each JSON type's Python types, and how a message names it
    "object": ((dict,), "an object"), "array": ((list,), "an array"), "string": ((str,), "a string"),
    "integer": ((int,), "an integer"), "number": ((int, float), "a finite number"),
    "boolean": ((bool,), "true or false"), "null": ((type(None),), "null"),
}


class ConfigError(ValueError):
    """An input value that breaks its documented format; the CLI exits 2."""


def read_text(path: str) -> str:
    """The text of the input file at ``path``, read as UTF-8; a file that is
    not UTF-8 text raises :class:`ConfigError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse(text: str, source: str, error: type[Exception] = ConfigError):
    """The JSON document ``text``; text that is not JSON raises ``error``
    naming ``source``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{source}: is not JSON: {exc}") from None
    except RecursionError:
        raise error(f"{source}: is JSON nested too deeply to read") from None


def check(doc, schema: str, source: str, error: type[Exception] = ConfigError) -> None:
    """Check ``doc`` against ``schema``: a file in ``schemas/``, optionally
    with a JSON pointer (``experiment.schema.json#/properties/backend``). The
    first violation raises ``error`` naming ``source`` and the field."""
    try:
        _compiled(schema)(doc)
    except _Invalid as exc:
        path = ""
        for key in reversed(exc.path):
            path += f"[{key}]" if type(key) is int else f".{key}" if path else key
        raise error(f"{source}: " + (f"field '{path}' " if path else "") + exc.problem) from None


def build(cls, source: str, error: type[Exception], path: str, /, **kwargs):
    """``cls(**kwargs)``; a value the constructor refuses raises ``error``
    naming ``source`` and the field ``path``."""
    try:
        return cls(**kwargs)
    except (ValueError, error) as exc:
        raise error(f"{source}: field '{path}' is invalid: {exc}") from None


class _Invalid(Exception):
    """``problem`` at ``path``, innermost key first; ``choices`` is set when
    the ``value`` is merely not one that a ``const`` or ``enum`` allows."""

    def __init__(self, problem: str, choices=(), value=None, path=()):
        self.problem, self.choices, self.value, self.path = problem, choices, value, list(path)


def _want(wanted: str, value, choices=(), path=()) -> _Invalid:
    got = repr(value)
    return _Invalid(f"must be {wanted}, got {got if len(got) <= 40 else got[:37] + '...'}", choices, value, path)


@functools.cache
def _compiled(ref: str):
    """The check of ``ref``: a schema file, with an optional ``#/...`` pointer into it."""
    name, _, pointer = ref.partition("#")
    node = json.loads(SCHEMAS.joinpath(name).read_text(encoding="utf-8"))
    for part in pointer.split("/")[1:]:
        node = node[int(part)] if type(node) is list else node[part]
    return _compile(node, name)


def _compile(s: dict, name: str):
    """A function that raises :class:`_Invalid` for a value ``s`` refuses. It
    descends only where ``s`` has a sub-schema."""
    checks = []
    if "$ref" in s:
        checks.append(_compiled(name + s["$ref"] if s["$ref"].startswith("#") else s["$ref"]))
    if s.keys() - _NOT_TYPED or not checks and not s.keys() & {"anyOf", "oneOf"}:
        checks.append(_typed(s, name))
    for key in ("anyOf", "oneOf"):
        if key in s:
            checks.append(_alternatives([_compile(branch, name) for branch in s[key]], key == "oneOf"))
    # every check in turn; in the shipped schemas a node has one
    return checks[0] if len(checks) == 1 else lambda v: all(check(v) is None for check in checks)


def _typed(s: dict, name: str):
    """The ``type`` check, with the keywords that apply to one type each."""
    kinds = [s["type"]] if type(s.get("type")) is str else s.get("type", list(_TYPES))
    lo, hi = s.get("minimum", -math.inf), s.get("maximum", math.inf)
    above, below = s.get("exclusiveMinimum", -math.inf), s.get("exclusiveMaximum", math.inf)
    fewest, most = s.get("minItems", -math.inf), s.get("maxItems", math.inf)
    bounds = " and ".join(f"{op} {b:g}" for op, b in ((">=", lo), (">", above), ("<=", hi), ("<", below))
                          if math.isfinite(b))
    length = f"{fewest}" if fewest == most else " and ".join(
        f"{op} {b}" for op, b in ((">=", fewest), ("<=", most)) if math.isfinite(b))
    details = {"number": bounds and " " + bounds, "integer": bounds and " " + bounds,
               "string": f" of length >= {s['minLength']}" if "minLength" in s else "",
               "array": length and " of length " + length}
    wanted = " or ".join(_TYPES[kind][1] + details.get(kind, "") for kind in kinds)
    choices = s.get("enum", [s["const"]] if "const" in s else None)
    one_of = f"one of {tuple(choices)!r}" if "enum" in s else repr(s.get("const"))
    if "integer" not in kinds:  # a number, unlike an integer, must fit a float
        lo, hi = max(lo, -sys.float_info.max), min(hi, sys.float_info.max)
    pys, shortest = frozenset(py for kind in kinds for py in _TYPES[kind][0]), s.get("minLength", 0)
    items = _compile(s["items"], name) if "items" in s else None
    props = [(key, _compile(sub, name)) for key, sub in s.get("properties", {}).items()]
    known, required = frozenset(s.get("properties", ())), s.get("required", ())
    extra = s.get("additionalProperties", True)
    extra = extra if type(extra) is bool else _compile(extra, name)

    def node(v):
        t = type(v)
        if choices is not None and v not in choices:
            raise _want(one_of, v, choices)
        if t not in pys or (
            not (lo <= v <= hi and above < v < below) if t is int or t is float  # also false for NaN and inf
            else not fewest <= len(v) <= most if t is list else t is str and len(v) < shortest
        ):
            raise _want(wanted, v)
        try:
            if t is dict:  # properties before required keys: a oneOf branch whose const fails is set aside
                for key, check in props:
                    if key in v:
                        check(v[key])
                for key in required:
                    if key not in v:
                        raise _Invalid("is missing")
                for key in () if extra is True or known.issuperset(v) else v:
                    if key not in known:
                        if extra is False:
                            raise _Invalid("is not a known field")
                        extra(v[key])
            elif t is list and items:
                for key, item in enumerate(v):
                    items(item)
        except _Invalid as exc:
            exc.path.append(key)
            raise

    return node


def _alternatives(branches: list, exactly_one: bool):
    """``anyOf``, or ``oneOf`` when ``exactly_one``. When every branch fails,
    the deepest failure is raised, one that is not merely a value outside a
    ``const`` or ``enum`` first; if there is none, with every value allowed."""

    def alternatives(v):
        errors = []
        for branch in branches:
            try:
                branch(v)
            except _Invalid as exc:
                errors.append(exc)
        passed = len(branches) - len(errors)
        if passed == 1 or passed and not exactly_one:
            return
        if passed:
            raise _Invalid(f"must match one alternative only, matches {passed}")
        worst = max(errors, key=lambda e: (len(e.path), not e.choices))
        if worst.choices:
            choices = tuple(c for e in errors if e.path == worst.path for c in e.choices)
            raise _want(f"one of {choices!r}", worst.value, choices, worst.path)
        raise worst

    return alternatives
