"""Tests for the atomic artifact writer, the JSONL reader and the config-dict reader."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from cicle.errors import DataError
from cicle.serialize import atomic_open, from_dict, read_json, read_jsonl, write_json


def test_write_json_bytes(tmp_path):
    path = tmp_path / "sub" / "m.json"
    write_json({"b": [1, 2], "a": "é", "p": tmp_path}, path)
    assert path.read_bytes() == (
        '{\n  "a": "é",\n  "b": [\n    1,\n    2\n  ],\n  "p": "%s"\n}\n' % tmp_path
    ).encode("utf-8")


def test_failed_write_keeps_previous_bytes_and_no_temp_file(tmp_path):
    path = tmp_path / "manifest.json"
    write_json({"a": 1}, path)
    before = path.read_bytes()
    # "a" is already in the temp file when the unserializable value raises
    with pytest.raises(TypeError):
        write_json({"a": 2, "b": [object()]}, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_binary_write_is_atomic_too(tmp_path):
    path = tmp_path / "v.npy"
    with atomic_open(path, binary=True) as fh:
        np.save(fh, np.arange(3.0))
    with pytest.raises(RuntimeError):
        with atomic_open(path, binary=True) as fh:
            np.save(fh, np.zeros(5))
            raise RuntimeError("interrupted")
    assert np.array_equal(np.load(path), np.arange(3.0))
    assert list(tmp_path.iterdir()) == [path]


def test_read_jsonl_names_each_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": 2}\n', encoding="utf-8")
    assert list(read_jsonl(path)) == [(f"{path}:1", {"a": 1}), (f"{path}:4", {"b": 2})]


@pytest.mark.parametrize("content,needle", [
    (None, "cannot read thing .*: No such file"),
    (b"\xff{}", "cannot read thing .*: not valid JSON"),
    (b'{"a": 1', "cannot read thing .*: not valid JSON"),
    (b"[1]", "thing .* does not hold a JSON object"),
], ids=["missing", "not-utf-8", "not-json", "list"])
def test_read_json_names_what_and_the_file(tmp_path, content, needle):
    path = tmp_path / "thing.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match=needle) as err:
        read_json(path, "thing")
    assert str(path) in str(err.value)
    path.write_text('{"a": [1]}', encoding="utf-8")
    assert read_json(path, "thing") == {"a": [1]}


@dataclass
class Inner:
    name: str
    weight: float = 1.0


@dataclass
class Outer:
    inner: Inner
    sizes: list[int] = field(default_factory=list)
    note: str | None = None
    flag: bool = False


def test_from_dict_builds_nested_dataclasses():
    out = from_dict(Outer, {"inner": {"name": "x", "weight": 2}, "sizes": [1, 2]}, "cfg")
    assert out == Outer(inner=Inner(name="x", weight=2.0), sizes=[1, 2])
    assert isinstance(out.inner.weight, float)
    assert from_dict(Outer, {"inner": Inner("y"), "note": None}, "cfg").inner == Inner("y")


@pytest.mark.parametrize("raw,needle", [
    ({"inner": {"name": "x"}, "sise": [1]}, "cfg has unknown keys: sise"),
    ({"inner": {"name": "x", "wieght": 2}}, "cfg.inner has unknown keys: wieght"),
    ({"inner": {"weight": 2.0}}, "cfg.inner is missing fields: name"),
    ({}, "cfg is missing fields: inner"),
    ({"inner": {"name": 3}}, "cfg.inner.name must be str"),
    ({"inner": {"name": "x", "weight": "2"}}, "cfg.inner.weight must be float"),
    ({"inner": {"name": "x", "weight": True}}, "cfg.inner.weight must be float"),
    ({"inner": {"name": "x"}, "sizes": [1, "2"]}, r"cfg.sizes\[1\] must be int"),
    ({"inner": {"name": "x"}, "sizes": 5}, "cfg.sizes must be"),
    ({"inner": {"name": "x"}, "flag": 1}, "cfg.flag must be bool"),
    ({"inner": {"name": "x"}, "note": 7}, "cfg.note must be str"),
    ({"inner": ["x"]}, "cfg.inner must be an object"),
])
def test_from_dict_rejects_and_names_the_key(raw, needle):
    with pytest.raises(DataError, match=needle):
        from_dict(Outer, raw, "cfg")
