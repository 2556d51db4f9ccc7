"""The one artifact writer and the one config-dict reader.

Every artifact goes through ``atomic_open``: bytes land in a temp file beside
the target, which then replaces it, so a write that fails or is interrupted
leaves the previous file intact and no partial one. Every JSON artifact is
encoded with ``JSON_STYLE``, which writes a dataclass as its field dict, and
every JSONL file is read through ``read_jsonl``; config-file dicts become
dataclasses through ``from_dict``, which rejects what it does not recognize.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import json
import os
import types
import typing
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError


@contextmanager
def atomic_open(path, binary: bool = False):
    """Yield a file to write ``path``'s new content into; it replaces ``path`` on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") if binary else tmp.open("w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _plain(obj):
    # a dataclass is written as its fields (without asdict's deep copy), a path as its string
    return vars(obj) if dataclasses.is_dataclass(obj) else os.fspath(obj)


JSON_STYLE = {"sort_keys": True, "ensure_ascii": False, "default": _plain}


def write_json(obj, path) -> None:
    """Write ``obj`` as indented JSON plus a final newline."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, **JSON_STYLE)
        fh.write("\n")


def read_jsonl(path):
    """Yield ``(f"{path}:{lineno}", obj)`` for each non-blank line of a JSONL file.

    A line that is not valid JSON, or not a JSON object, raises DataError
    naming its path and line number.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise DataError(f"{where}: row is not a JSON object")
            yield where, obj


def from_dict(cls, raw, where: str, **given):
    """Build dataclass ``cls`` from a config-file dict, recursing into dataclass fields.

    Unknown keys, missing required fields and values of the wrong type raise
    DataError naming them. ``given`` sets fields that the file may not set;
    a ``raw`` that is already a ``cls`` is returned as is.
    """
    if isinstance(raw, cls):
        return raw
    if not isinstance(raw, dict):
        raise DataError(f"{where} must be an object, got {type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in given}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise DataError(f"{where} has unknown keys: {', '.join(unknown)}")
    missing = [name for name, f in fields.items() if name not in raw
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise DataError(f"{where} is missing fields: {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    return cls(**{k: _coerce(hints[k], v, f"{where}.{k}") for k, v in raw.items()}, **given)


def _coerce(tp, value, where: str):
    # the annotation shapes config dataclasses use: X | None, a dataclass, list[X] or
    # Sequence[X], and scalars; an int is taken for a float, a bool only for a bool
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        options = [a for a in typing.get_args(tp) if a is not type(None)]
        if value is None and len(options) < len(typing.get_args(tp)):
            return None
        tp = options[0]
    origin = typing.get_origin(tp) or tp
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, where)
    if origin in (list, collections.abc.Sequence):
        if isinstance(value, list):
            (item,) = typing.get_args(tp)
            return [_coerce(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
        origin = list
    elif (isinstance(value, bool) == (tp is bool)
          and isinstance(value, (int, float) if tp is float else origin)):
        return float(value) if tp is float else value
    raise DataError(f"{where} must be {origin.__name__}, got {type(value).__name__} {value!r}")
