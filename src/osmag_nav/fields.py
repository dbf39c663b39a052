"""The one field checker behind every JSON input loader.

Each loader sits beside the type it builds and reads its document through a
:class:`Fields`, which checks every value as it reads it. A value the schema
forbids raises the loader's typed error, naming the source (a file, or
"experiment config") and the field path, for example ``instances[3].x``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing


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


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


class Fields:
    """Checked reads from one JSON document, failing with ``error``."""

    def __init__(self, source: str, error: type[Exception] = ConfigError):
        self.source = source
        self.error = error

    def fail(self, path: str, problem: str):
        raise self.error(f"{self.source}: " + (f"field '{path}' " if path else "") + problem)

    def _want(self, path: str, wanted: str, value):
        got = repr(value)
        self.fail(path, f"must be {wanted}, got {got if len(got) <= 40 else got[:37] + '...'}")

    def parse(self, text: str):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            self.fail("", f"is not JSON: {exc}")
        except RecursionError:
            self.fail("", "is JSON nested too deeply to read")

    def object(self, value, path: str, required=(), allowed=None) -> dict:
        """``value`` as a JSON object with every key in ``required`` and,
        unless ``allowed`` is None, no key outside ``allowed``."""
        if type(value) is not dict:
            self._want(path, "an object", value)
        for key in required:
            if key not in value:
                self.fail(_join(path, key), "is missing")
        for key in value if allowed is not None else ():
            if key not in allowed:
                self.fail(_join(path, key), "is not a known field")
        return value

    def array(self, value, path: str, length: int | None = None) -> list:
        if type(value) is not list or length not in (None, len(value)):
            self._want(path, "an array" + (f" of {length} items" if length else ""), value)
        return value

    def choice(self, value, path: str, choices: tuple):
        if value not in choices:
            self._want(path, f"one of {choices}", value)
        return value

    def integer(self, value, path: str, minimum: int | None = None) -> int:
        if type(value) is not int or (minimum is not None and value < minimum):
            self._want(path, "an integer" + (f" >= {minimum}" if minimum is not None else ""), value)
        return value

    def number(self, value, path: str, minimum: float | None = None, above: float | None = None) -> float:
        """``value`` as a finite float, at least ``minimum`` and more than ``above``."""
        try:
            x = float(value) if type(value) in (int, float) else math.nan
        except OverflowError:  # an integer beyond every float
            x = math.nan
        if not (math.isfinite(x) and (minimum is None or x >= minimum) and (above is None or x > above)):
            bound = f" >= {minimum:g}" if minimum is not None else f" > {above:g}" if above is not None else ""
            self._want(path, "a finite number" + bound, value)
        return x

    def xy(self, item: dict, path: str) -> tuple[float, float]:
        return self.number(item["x"], _join(path, "x")), self.number(item["y"], _join(path, "y"))

    def build(self, cls, path: str, **kwargs):
        """``cls(**kwargs)``, failing at ``path`` when the constructor refuses a value."""
        try:
            return cls(**kwargs)
        except (ValueError, self.error) as exc:
            self.fail(path, f"is invalid: {exc}")

    def typed(self, hint, value, path: str):
        """``value`` checked against the type annotation ``hint``. Scalars come
        back unconverted, arrays as the annotated list or tuple, and objects
        annotated with a dataclass as that dataclass."""
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if hint in (int, float):
            (self.integer if hint is int else self.number)(value, path)
        elif hint in (str, bool):
            if type(value) is not hint:
                self._want(path, "a string" if hint is str else "true or false", value)
        elif hint is dict or origin is dict:
            self.object(value, path)
            if args:
                return {key: self.typed(args[1], item, _join(path, key)) for key, item in value.items()}
        elif dataclasses.is_dataclass(hint):
            return self.dataclass(hint, value, path)
        elif typing.is_typeddict(hint):
            hints = _hints(hint)
            self.object(value, path, required=hints, allowed=hints)
            return {key: self.typed(hints[key], item, _join(path, key)) for key, item in value.items()}
        elif origin in (typing.Union, types.UnionType):
            if value is None and type(None) in args:
                return None
            (inner,) = [arg for arg in args if arg is not type(None)]
            return self.typed(inner, value, path)
        elif origin in (list, tuple):
            items = self.array(value, path, len(args) if origin is tuple else None)
            kinds = args if origin is tuple else args * len(items)
            return origin(self.typed(kind, item, f"{path}[{i}]") for i, (kind, item) in enumerate(zip(kinds, items)))
        else:
            raise TypeError(f"no reader for {hint!r}")
        return value

    def dataclass(self, cls, value, path: str = ""):
        """``cls`` built from the JSON object ``value`` by its field annotations.
        A missing field takes its default, or None when it has none and its
        type allows None; a key that names no field is refused."""
        hints = _hints(cls)
        self.object(value, path, allowed=hints)
        kwargs = {}
        for fld in dataclasses.fields(cls):
            if fld.name in value:
                kwargs[fld.name] = self.typed(hints[fld.name], value[fld.name], _join(path, fld.name))
            elif fld.default is dataclasses.MISSING and fld.default_factory is dataclasses.MISSING:
                if type(None) not in typing.get_args(hints[fld.name]):
                    self.fail(_join(path, fld.name), "is missing")
                kwargs[fld.name] = None
        return self.build(cls, path, **kwargs)
