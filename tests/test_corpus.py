import csv
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicle.corpus import (LabeledText, LabelSpace, apportion, file_sha256, freeze_dataset,
                          load_dataset, load_frozen, stable_seed,
                          stratified_split, stratified_subsample, write_jsonl)
from cicle.errors import DataError

from conftest import make_items, space_for


def test_load_jsonl_roundtrip(tmp_path):
    items = make_items(20)
    path = tmp_path / "data.jsonl"
    write_jsonl(items, path)
    loaded, space = load_dataset(path)
    assert loaded == items
    assert space.labels == ("alpha", "bravo", "charlie", "delta")


def test_load_jsonl_multilabel_keeps_first(tmp_path):
    path = tmp_path / "multi.jsonl"
    rows = [{"id": "a", "text": "x y", "labels": ["warm", "cold"]},
            {"id": "b", "text": "y z", "labels": ["cold"]}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    loaded, space = load_dataset(path)
    assert [it.label for it in loaded] == ["warm", "cold"]
    assert space.labels == ("cold", "warm")


@pytest.mark.parametrize("line,fragment", [
    ('{"id": "a", "text": "x"}', "label"),
    ('{"id": "a", "label": "b"}', "text"),
    ('{"id": "a", "text": "  ", "label": "b"}', "empty text"),
    ('{"id": "a", "text": "x", "labels": []}', "label"),
    ('not json', "invalid JSON"),
    ('[1, 2]', "not a JSON object"),
    ('{"text": "x", "label": "b"}', ":2: missing 'id' field"),
    ('{"id": "a", "text": "x", "labels": [" "]}', ":2: empty label"),
    ('{"id": " ", "text": "x", "label": "b"}', ":2: empty id"),
    ('{"id": 2.5, "text": "x", "label": "b"}', ":2: id must be str or int, got float 2.5"),
    ('{"id": "a", "text": "x", "labels": [true]}', ":2: label must be str or int, got bool"),
])
def test_load_jsonl_rejects_bad_rows(tmp_path, line, fragment):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok", "text": "fine", "label": "a"}\n' + line + "\n")
    with pytest.raises(DataError, match=fragment):
        load_dataset(path)


def test_load_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok", "text": "fine", "label": "a"}\n{broken\n')
    with pytest.raises(DataError, match=r":2:"):
        load_dataset(path)


def test_load_jsonl_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    row = '{"id": "same", "text": "x", "label": "a"}\n'
    path.write_text(row + row.replace('"a"', '"b"'))
    with pytest.raises(DataError, match="duplicate id"):
        load_dataset(path)


def test_load_csv_synthesizes_ids(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("text,label\nhello there,pos\nbad day,neg\nmore text,pos\n")
    loaded, space = load_dataset(path)
    assert [it.id for it in loaded] == ["row-000001", "row-000002", "row-000003"]
    assert [it.label for it in loaded] == ["pos", "neg", "pos"]
    assert space.labels == ("neg", "pos")


def test_load_csv_requires_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("body,category\nhello,pos\n")
    with pytest.raises(DataError, match="header"):
        load_dataset(path)


def test_load_dataset_unknown_suffix(tmp_path):
    path = tmp_path / "data.xml"
    path.write_text("<x/>")
    with pytest.raises(DataError, match="suffix"):
        load_dataset(path)
    with pytest.raises(DataError, match="not found"):
        load_dataset(tmp_path / "absent.jsonl")


def test_label_space_validation():
    # names an LLM answer could not tell apart: equal once trimmed and case-folded
    for labels in (["a", "b", "a"], ["Sports", "sports"], ["a", " a"]):
        with pytest.raises(DataError, match="duplicate"):
            LabelSpace.from_labels(labels)
    with pytest.raises(DataError, match="classes"):
        LabelSpace.from_labels(["only"])
    space = LabelSpace.from_labels(["x", "y", "z"])
    assert len(space) == 3
    assert space.position("y") == 1
    assert "z" in space and "w" not in space
    with pytest.raises(DataError, match="not in label space"):
        space.position("w")


def test_reduce_primary_label(tmp_path):
    path = tmp_path / "multi.jsonl"
    path.write_text('{"id": 3, "text": "t", "labels": ["b", "a"]}\n'
                    '{"id": 4, "text": "u", "label": "a"}\n'
                    '{"id": "5", "text": "v", "label": 7}\n')
    items, _ = load_dataset(path)
    assert items[0] == LabeledText(id="3", text="t", label="b")
    assert items[2] == LabeledText(id="5", text="v", label="7")
    path.write_text('{"id": 3, "text": "t", "labels": []}\n')
    with pytest.raises(DataError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path}:1: empty label list"


@pytest.mark.parametrize("rows,error", [
    ([{"text": "hello there", "label": "pos"}, {"text": 'a "quoted", line', "label": "neg"},
      {"text": " padded ", "label": "two words"}], None),
    ([{"text": "fine", "label": "a"}, {"text": "  ", "label": "b"}], "empty text"),
    ([{"text": "fine", "label": "a"}, {"text": "", "label": "b"}], "empty text"),
    ([{"text": "fine", "label": "a"}, {"text": None, "label": "b"}], "empty text"),
    ([{"text": "fine", "label": "a"}, {"text": "x", "label": " "}], "empty label"),
    ([{"text": "fine", "label": "a"}, {"text": "x", "label": None}], "empty label"),
    ([{"text": "fine", "label": "a"}, {"text": "\t", "label": None}], "empty text"),
], ids=["valid", "blank-text", "empty-text", "null-text", "blank-label", "null-label",
        "both-blank"])
def test_csv_and_jsonl_rows_pass_one_check(tmp_path, rows, error):
    # CSV has no null, so a null JSONL value is an empty CSV field; both must fail alike
    ids = [f"row-{i:06d}" for i in range(1, len(rows) + 1)]
    jsonl = tmp_path / "data.jsonl"
    jsonl.write_text("".join(json.dumps({"id": i, **row}) + "\n" for i, row in zip(ids, rows)))
    table = tmp_path / "data.csv"
    with table.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        writer.writerows([row["text"], row["label"]] for row in rows)
    if error is None:
        assert load_dataset(jsonl) == load_dataset(table)
        return
    messages = []
    for path in (jsonl, table):
        with pytest.raises(DataError) as exc:
            load_dataset(path)
        messages.append(str(exc.value))
    # the CSV header is line 1, so each CSV row sits one line below its JSONL twin
    assert messages == [f"{jsonl}:{len(rows)}: {error}", f"{table}:{len(rows) + 1}: {error}"]


def test_apportion_hand_case():
    assert apportion([70, 20, 10], 10) == [7, 2, 1]


def test_apportion_breaks_ties_by_position():
    assert apportion([1, 1, 1], 2) == [1, 1, 0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=12).filter(any), st.data())
def test_apportion_properties(counts, data):
    n = data.draw(st.integers(0, sum(counts)))
    alloc = apportion(counts, n)
    assert sum(alloc) == n
    for a, c in zip(alloc, counts):
        assert 0 <= a <= c
        assert abs(a - Fraction(n * c, sum(counts))) < 1


def test_subsample_is_stratified():
    items = make_items(400)
    out = stratified_subsample(items, 100, seed=3)
    assert len(out) == 100
    counts = {c: sum(1 for it in out if it.label == c) for c in "alpha bravo charlie delta".split()}
    assert counts == {"alpha": 25, "bravo": 25, "charlie": 25, "delta": 25}
    assert len({it.id for it in out}) == 100
    assert {it.id for it in out} <= {it.id for it in items}


def test_subsample_deterministic():
    items = make_items(300)
    assert stratified_subsample(items, 80, seed=5) == stratified_subsample(items, 80, seed=5)
    other = stratified_subsample(items, 80, seed=6)
    assert {it.id for it in other} != {it.id for it in stratified_subsample(items, 80, seed=5)}


def test_subsample_warns_on_dropped_class(caplog):
    items = (make_items(97, n_classes=1, prefix="a")
             + [LabeledText(id="b1", text="bb", label="bravo")]
             + [LabeledText(id="c1", text="cc", label="charlie")])
    with caplog.at_level("WARNING"):
        out = stratified_subsample(items, 10, seed=0)
    assert len(out) == 10
    assert all(it.label == "alpha" for it in out)
    assert "zero allocation" in caplog.text


def test_subsample_too_large():
    with pytest.raises(ValueError):
        stratified_subsample(make_items(10), 11, seed=0)


def test_split_partitions_data():
    items = make_items(200)
    split = stratified_split(items, 0.2, seed=5)
    train_ids = {it.id for it in split.train}
    calib_ids = {it.id for it in split.calibration}
    assert not train_ids & calib_ids
    assert train_ids | calib_ids == {it.id for it in items}
    assert len(split.calibration) == 40
    for c in "alpha bravo charlie delta".split():
        assert sum(1 for it in split.calibration if it.label == c) == 10


def test_split_deterministic():
    items = make_items(150)
    a = stratified_split(items, 0.25, seed=1)
    b = stratified_split(items, 0.25, seed=1)
    assert a.calibration == b.calibration and a.train == b.train
    c = stratified_split(items, 0.25, seed=2)
    assert {it.id for it in c.calibration} != {it.id for it in a.calibration}


def per_class_calibration(items, fraction, seed):
    """The calibration draw as a per-class loop: largest-remainder counts over
    the sorted classes, then one seeded ``rng.sample`` per class, in order."""
    by_label = {}
    for it in items:
        by_label.setdefault(it.label, []).append(it)
    classes = sorted(by_label)
    alloc = apportion([len(by_label[c]) for c in classes], int(fraction * len(items) + 0.5))
    rng = random.Random(seed)
    return [it for c, a in zip(classes, alloc) for it in rng.sample(by_label[c], a)]


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(1, 30), min_size=1, max_size=5),
       fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**64 - 1))
def test_split_draws_calibration_as_a_per_class_loop(counts, fraction, seed):
    items = [LabeledText(id=f"{c}-{i}", text="t", label=f"c{c}")
             for c, n in enumerate(counts) for i in range(n)]
    random.Random(seed).shuffle(items)
    split = stratified_split(items, fraction, seed)
    assert split.calibration == per_class_calibration(items, fraction, seed)
    calib = set(split.calibration)
    assert split.train == [it for it in items if it not in calib]


def test_split_warns_when_a_class_gets_no_calibration_item(caplog):
    items = make_items(40, n_classes=1) + [LabeledText(id="b1", text="bb", label="bravo"),
                                           LabeledText(id="b2", text="bb", label="bravo")]
    with caplog.at_level("WARNING"):
        split = stratified_split(items, 0.2, seed=0)
    assert {it.label for it in split.calibration} == {"alpha"}
    assert "zero allocation: bravo" in caplog.text


def test_stable_seed_is_stable():
    assert stable_seed("unit", 7) == 6670773245163959267
    assert stable_seed(1, "a") == stable_seed(1, "a")
    assert stable_seed(1, "a") != stable_seed(1, "b")
    assert stable_seed("1a") != stable_seed(1, "a")


def test_freeze_and_load_roundtrip(tmp_path):
    items = make_items(300)
    space = space_for(items)
    manifest = freeze_dataset(items, space, tmp_path / "d", "toy", 60, test_seed=9)
    pool, test, space2, manifest2 = load_frozen(tmp_path / "d")
    assert manifest2 == manifest
    assert len(test) == 60 and len(pool) == 240
    assert not {it.id for it in pool} & {it.id for it in test}
    assert space2.labels == space.labels
    assert "sizes" not in manifest
    assert manifest["sha256"]["pool.jsonl"] == file_sha256(tmp_path / "d" / "pool.jsonl")
    assert manifest["sha256"]["test.jsonl"] == file_sha256(tmp_path / "d" / "test.jsonl")


def test_freeze_rerun_is_identical(tmp_path):
    items = make_items(200)
    space = space_for(items)
    m1 = freeze_dataset(items, space, tmp_path / "one", "toy", 40, test_seed=3)
    m2 = freeze_dataset(items, space, tmp_path / "two", "toy", 40, test_seed=3)
    assert m1 == m2
    assert (tmp_path / "one" / "pool.jsonl").read_bytes() == \
        (tmp_path / "two" / "pool.jsonl").read_bytes()


def test_freeze_test_split_is_stratified(tmp_path):
    items = make_items(400)
    freeze_dataset(items, space_for(items), tmp_path / "d", "toy", 100, test_seed=1)
    _, test, _, _ = load_frozen(tmp_path / "d")
    for c in "alpha bravo charlie delta".split():
        assert sum(1 for it in test if it.label == c) == 25


@pytest.mark.parametrize("name", ["pool.jsonl", "test.jsonl"])
def test_load_frozen_rejects_a_changed_split(tmp_path, name):
    items = make_items(120)
    freeze_dataset(items, space_for(items), tmp_path / "d", "toy", 40, test_seed=1)
    with (tmp_path / "d" / name).open("a", encoding="utf-8") as fh:
        fh.write('{"id": "extra", "text": "one more row", "label": "alpha"}\n')
    with pytest.raises(DataError, match=name.replace(".", r"\.") + " does not match the sha256"):
        load_frozen(tmp_path / "d")


def append_rehashed(frozen, name, row):
    """Append ``row`` to the frozen split ``name`` and write its new sha256 into the manifest."""
    with (frozen / name).open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    manifest_path = frozen / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sha256"][name] = file_sha256(frozen / name)
    manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("field", ["text", "label"])
@pytest.mark.parametrize("value", [None, " "])
def test_load_frozen_rejects_a_blank_row_whose_hash_was_rewritten(tmp_path, field, value):
    items = make_items(120)
    freeze_dataset(items, space_for(items), tmp_path / "d", "toy", 40, test_seed=1)
    row = {"id": "edited", "text": "one more row", "label": "alpha", field: value}
    append_rehashed(tmp_path / "d", "pool.jsonl", row)
    with pytest.raises(DataError, match=f"pool\\.jsonl:81: empty {field}$"):
        load_frozen(tmp_path / "d")


@pytest.mark.parametrize("source,name", [
    ("pool.jsonl", "test.jsonl"),
    ("pool.jsonl", "pool.jsonl"),
    ("test.jsonl", "test.jsonl"),
], ids=["test-id-in-pool", "pool-id-repeats", "test-id-repeats"])
def test_load_frozen_rejects_a_repeated_id(tmp_path, source, name):
    # a row of ``name`` takes the id of the first row of ``source``
    items = make_items(120)
    freeze_dataset(items, space_for(items), tmp_path / "d", "toy", 40, test_seed=1)
    first = json.loads((tmp_path / "d" / source).read_text().splitlines()[0])
    append_rehashed(tmp_path / "d", name, {**first, "text": "another row"})
    with pytest.raises(DataError) as exc:
        load_frozen(tmp_path / "d")
    assert str(exc.value) == (f"{tmp_path / 'd'}: duplicate id: {first['id']!r} "
                              "in pool.jsonl or test.jsonl")


def test_load_frozen_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="prepare"):
        load_frozen(tmp_path / "nope")


def test_file_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc123")
    assert file_sha256(path) == hashlib.sha256(b"abc123").hexdigest()
