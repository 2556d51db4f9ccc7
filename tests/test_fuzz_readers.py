"""No input file ends a command in a traceback.

Each reader of a JSON or JSONL file is driven through the command line with
one JSON value of its file replaced by an arbitrary JSON value. The command
must exit 0, or 3 with exactly one ``error:`` line; never 1. The replacement
may also be the id of another frozen row, so that a frozen split repeats an id.
CSV rows are left out, since their fields are always strings.
"""

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cicle.cli import main
from cicle.corpus import file_sha256
from cicle.pipeline import record_filename
from cicle.prompting import DEFAULT_TEMPLATE

from conftest import make_items

CICLE_RECORDS = f"out/records/{record_filename('toy', 24, 0, 'cicle')}"

# reader -> (file, JSONL line or None for a JSON file, commands that read it); the
# record line is the first one with a prompt, so it holds a set and prompt stats
READERS = {
    "dataset-row": ("raw.jsonl", 0, ("prepare",)),
    "frozen-row": ("out/data/toy/test.jsonl", 0, ("run",)),
    "frozen-manifest": ("out/data/toy/manifest.json", None, ("run",)),
    "config": ("config.json", None, ("run",)),
    "template": ("template.json", None, ("run",)),
    "run-manifest": ("out/run_manifest.json", None, ("run", "report")),
    "record": (CICLE_RECORDS, "prompted", ("report",)),
}

# an endpoint holding "://" is an HTTP endpoint, which a fuzzed config must not call
TEXT = st.text(max_size=8).filter(lambda s: "://" not in s)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT
    | st.sampled_from([10 ** 40, -(10 ** 400), float("inf")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6)


@dataclass(frozen=True)
class AnotherRowId:
    """Stands for the id of frozen row n (modulo their count): the pool's rows,
    then the test split's rows after its first, which is the one edited."""

    n: int


def another_row_id(work: Path, n: int) -> str:
    frozen = work / "out" / "data" / "toy"
    rows = (frozen / "pool.jsonl").read_text(encoding="utf-8").splitlines()
    rows += (frozen / "test.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    return json.loads(rows[n % len(rows)])["id"]


def write_config(work: Path) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps({
        "datasets": [{"name": "toy", "path": str(work / "raw.jsonl"), "min_size": 10}],
        "output": str(work / "out"), "sizes": [24], "test_size": 12, "seed": 0,
        "alpha": 0.2, "k": 1, "jobs": 1,
        "strategies": ["base", "fewshot-sparse", "cicle"],
        "template": str(work / "template.json"),
        "llm": {"endpoint": "noisy", "max_new_tokens": 5,
                "oracle_params": {"accuracy": {"alpha": 0.9}, "default_accuracy": 0.8,
                                  "seed": 1}},
    }), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """A prepared and run workspace: a raw dataset whose first row is multi-label,
    a config, a template, frozen splits, record files and a run manifest; and the
    line of the first cicle record with a prompt."""
    work = tmp_path_factory.mktemp("baseline")
    rows = [{"id": it.id, "text": it.text, "label": it.label}
            for it in make_items(48, n_classes=3, seed=0, overlap=0.5)]
    rows[0] = {"id": rows[0]["id"], "text": rows[0]["text"], "labels": ["alpha", "bravo"]}
    (work / "raw.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows),
                                    encoding="utf-8")
    (work / "template.json").write_text(json.dumps(vars(DEFAULT_TEMPLATE)), encoding="utf-8")
    config = write_config(work)
    for command in ("prepare", "run"):
        assert main([command, "--config", str(config)]) == 0
    records = (work / CICLE_RECORDS).read_text(encoding="utf-8").splitlines()
    prompted = [i for i, line in enumerate(records) if json.loads(line)["prompt_stats"]]
    return work, prompted[0]


def json_paths(doc, path=()):
    """Every value's path in ``doc``, the document itself first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from json_paths(child, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def rehash(work: Path, name: str, manifest: str, table: str) -> None:
    """Write the sha256 of the edited file ``name`` into ``manifest``'s ``table``."""
    path = work / manifest
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj[table][Path(name).name] = file_sha256(work / name)
    path.write_text(json.dumps(obj), encoding="utf-8")


@settings(max_examples=150, deadline=None)
@given(reader=st.sampled_from(sorted(READERS)), target=st.integers(min_value=0),
       value=JSON | st.builds(AnotherRowId, st.integers(min_value=0)))
@example(reader="frozen-row", target=("id",), value=AnotherRowId(0))
@example(reader="frozen-row", target=("id",), value=AnotherRowId(-1))
@example(reader="dataset-row", target=("labels",), value=5)
@example(reader="dataset-row", target=("labels",), value="abc")
@example(reader="record", target=("gold_label",), value=float("inf"))
@example(reader="record", target=("prompt_stats", "token_count"), value=10 ** 400)
def test_a_replaced_value_exits_0_or_3_with_one_error_line(baseline, reader, target, value):
    name, line, commands = READERS[reader]
    original, prompted = baseline
    if line == "prompted":
        line = prompted
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        shutil.copytree(original, work)
        config = write_config(work)
        if isinstance(value, AnotherRowId):
            value = another_row_id(work, value.n)
        path = work / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        doc = json.loads(lines[line] if line is not None else "".join(lines))
        # an int target picks a path; an explicit example names one
        paths = list(json_paths(doc))
        path_in_doc = target if isinstance(target, tuple) else paths[target % len(paths)]
        edited = json.dumps(replaced(doc, path_in_doc, value))
        if line is None:
            path.write_text(edited, encoding="utf-8")
        else:
            lines[line] = edited + "\n"
            path.write_text("".join(lines), encoding="utf-8")
        if reader == "frozen-row":
            rehash(work, name, "out/data/toy/manifest.json", "sha256")
        elif reader == "record":
            rehash(work, name, "out/run_manifest.json", "records")
        for command in commands:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(config)])
            errors = [e for e in stderr.getvalue().splitlines() if e.startswith("error:")]
            assert code in (0, 3), (command, path_in_doc, value, code)
            assert len(errors) == (code == 3), (command, path_in_doc, value, errors)
            if code:
                break
