"""JSON input I/O and the one decoder every input goes through.

Record files (corpus, logs, judgments, patterns, reports) hold one JSON object
per UTF-8 line; config files (engine config, ranker weights, tune specs,
engagement models) hold one. Each input kind declares a `Table` of `Field`s
(name, kind, default or REQUIRED, allowed values), so this module alone
decides how a JSON value becomes a typed field and what a bad value's error
says:

    RecordParseError    docs.jsonl:3: field 'quality.authentic': expected number, got str
    ConfigurationError  engine.json: key 'retrieval.k': expected integer, got str

A number takes a JSON integer or float but not true/false; an integer takes
an integer or an integral float; a list never takes a string; a field whose
default is None also takes null. An unknown field in a record file is ignored
with one warning per (file, field); an unknown key in a config is an error.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import ConfigurationError, RecordParseError

log = logging.getLogger(__name__)

REQUIRED: Any = object()  # the default of a field that must be present
# shared by every record whose field is absent or empty
EMPTY_SET: frozenset = frozenset()
EMPTY_MAP: Mapping = MappingProxyType({})


def write_records(path: str | Path, records: Iterable[dict[str, Any]]) -> None:
    """Write records as canonical (sorted-key) JSON lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")


class DecodeError(Exception):
    """A JSON value does not fit its kind; `key` is the path down to it."""

    def __init__(self, message: str, key: Optional[list] = None):
        super().__init__(message)
        self.key = key or []

    def at(self, noun: str) -> str:
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in self.key)
        return f"{noun} {path.lstrip('.')!r}: {self.args[0]}" if path else self.args[0]


def _expected(what: str, value: Any) -> DecodeError:
    return DecodeError(f"expected {what}, got {'null' if value is None else type(value).__name__}")


# A kind maps (json_value, unknown) to a typed value or raises DecodeError.
# `unknown` is None in a config, where an unknown key is an error; in a record
# file it is a (found, key prefix) pair collecting unknown key paths. A kind's
# `exact` names the one type it returns unchanged, so a Table skips that call.
Kind = Callable[[Any, Optional[tuple]], Any]


def string(value: Any, unknown: Any = None) -> str:
    if type(value) is str:
        return value
    raise _expected("string", value)


def number(value: Any, unknown: Any = None) -> float:
    if type(value) is float or type(value) is int:
        return float(value)
    raise _expected("number", value)


def integer(value: Any, unknown: Any = None) -> int:
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise _expected("integer", value)


def boolean(value: Any, unknown: Any = None) -> bool:
    if value is True or value is False:
        return value
    raise _expected("boolean", value)


string.exact, number.exact, integer.exact, boolean.exact = str, float, int, bool


def int_or_name(names: Mapping[str, int]) -> Kind:
    """An integer, or one of `names` (in any case) standing for one."""

    def kind(value: Any, unknown: Any = None) -> int:
        if type(value) is str and value.lower() in names:
            return names[value.lower()]
        if type(value) is str:
            raise _expected(f"integer or one of {', '.join(map(repr, names))}", value)
        return integer(value)

    return kind


def list_of(item: Kind, build: Callable = tuple, length: Optional[int] = None) -> Kind:
    """A JSON list of `item`s collected by `build`; `length` fixes its size."""
    empty = EMPTY_SET if build is frozenset else build(())

    def kind(value: Any, unknown: Any = None) -> Any:
        if type(value) is not list:
            raise _expected("list", value)
        if length is not None and len(value) != length:
            raise DecodeError(f"expected a list of {length} items, got {len(value)}")
        out = []
        for i, v in enumerate(value):
            try:
                out.append(item(v, unknown))
            except DecodeError as exc:
                exc.key.insert(0, i)
                raise
        return build(out) if out else empty

    return kind


def map_of(item: Kind) -> Kind:
    """A JSON object with free keys and `item` values, as a dict."""

    def kind(value: Any, unknown: Any = None) -> dict:
        if type(value) is not dict:
            raise _expected("object", value)
        out = {}
        for k, v in value.items():
            try:
                out[k] = item(v, unknown)
            except DecodeError as exc:
                exc.key.insert(0, k)
                raise
        return out

    return kind


class Field(NamedTuple):
    name: str
    kind: Kind
    default: Any = REQUIRED
    choices: Optional[tuple] = None


class Table:
    """A JSON object kind: decodes its fields and returns `build(**fields)`."""

    def __init__(self, build: Callable[..., Any], *fields: Field):
        self.build = build
        self.fields = {f.name: (f.kind, f.default, f.choices, isinstance(f.kind, Table),
                                getattr(f.kind, "exact", None)) for f in fields}
        self.defaults = {f.name: f.default for f in fields if f.default is not REQUIRED}

    def __call__(self, obj: Any, unknown: Optional[tuple] = None) -> Any:
        if type(obj) is not dict:
            raise _expected("object", obj)
        values = self.defaults.copy()
        specs = self.fields
        for name, value in obj.items():
            spec = specs.get(name)
            if spec is None:
                if unknown is None:
                    raise DecodeError(f"unknown key (known: {', '.join(sorted(self.fields))})",
                                      [name])
                unknown[0].append(unknown[1] + name)
                continue
            kind, default, choices, nested, exact = spec
            if value is None and default is None:
                values[name] = None
                continue
            if type(value) is not exact:
                try:
                    value = kind(value, (unknown[0], f"{unknown[1]}{name}.")
                                 if nested and unknown else unknown)
                except DecodeError as exc:
                    exc.key.insert(0, name)
                    raise
            if choices is not None and value not in choices:
                raise DecodeError(
                    f"expected one of {', '.join(map(repr, choices))}, got {value!r}", [name])
            values[name] = value
        if len(values) < len(self.fields):
            missing = next(name for name in self.fields if name not in values)
            raise DecodeError("required but missing", [missing])
        return self.build(**values)

    def encode(self, obj: Any) -> dict:
        """The record of a built object: sets become sorted lists, None fields are left out."""
        rec = {}
        for name, (kind, *_) in self.fields.items():
            value = getattr(obj, name)
            if isinstance(kind, Table) and value is not None:
                value = kind.encode(value)
            elif isinstance(value, (tuple, frozenset)):
                value = sorted(value) if isinstance(value, frozenset) else list(value)
            if value is not None:
                rec[name] = dict(value) if isinstance(value, Mapping) else value
        return rec


def by_kind(tag: str, tables: Mapping[str, Table], what: str) -> Kind:
    """A JSON object decoded by the table its `tag` field names."""

    def kind(value: Any, unknown: Any = None) -> Any:
        name = value.get(tag) if type(value) is dict else None
        if type(name) is not str or name not in tables:
            if type(value) is not dict:
                raise _expected("object", value)
            raise DecodeError(f"unknown {what} {name!r}; valid: {', '.join(tables)}", [tag])
        return tables[name](value, unknown)

    return kind


def read_table(path: str | Path, table: Table) -> Iterator[tuple[int, Any]]:
    """Decode each record of a record file; yields (line_no, value)."""
    path = str(path)
    found: list[str] = []
    unknown: dict[str, list[int]] = {}  # key path -> [first line, count]
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = table(json.loads(line), (found, ""))
            except json.JSONDecodeError as exc:
                raise RecordParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            except DecodeError as exc:
                raise RecordParseError(path, line_no, exc.at("field")) from None
            for key in found:
                unknown.setdefault(key, [line_no, 0])[1] += 1
            found.clear()
            yield line_no, value
    for key, (first, count) in unknown.items():
        log.warning("%s: ignoring unknown field %r in %d record(s), first at line %d",
                    path, key, count, first)


def decode_config(table: Table, obj: Any, source: str) -> Any:
    """Decode one config object; `source` names it in errors."""
    try:
        return table(obj)
    except DecodeError as exc:
        raise ConfigurationError(f"{source}: {exc.at('key')}") from None


def read_config(path: str | Path, table: Table, text: Optional[str] = None) -> Any:
    """Parse and decode a config file, or its already read `text`."""
    if text is None:
        text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc.msg}") from exc
    return decode_config(table, obj, str(path))
