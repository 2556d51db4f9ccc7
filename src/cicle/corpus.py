"""Dataset ingestion, label spaces, stratified sampling, and frozen splits.

All sampling here is a pure function of (input order, seed): per-class counts
come from exact integer largest-remainder apportionment and membership from a
seeded ``random.Random``, so identical inputs always reproduce identical
output, in identical order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataError
from .serialize import atomic_open, read_json, read_jsonl, typed, write_json

log = logging.getLogger(__name__)

MIN_CLASSES = 2
MAX_CLASSES = 1000
# each field of a dataset row and the type it is read as
_ROW_FIELDS = (("id", str | int), ("text", str), ("label", str | int))


@dataclass(frozen=True)
class LabeledText:
    """A single classification item: opaque id, text, gold class name."""

    id: str
    text: str
    label: str


@dataclass(frozen=True, eq=True)
class LabelSpace:
    """The ordered universe of class names for one dataset."""

    labels: tuple[str, ...]
    index: dict[str, int] = field(compare=False, repr=False, default_factory=dict)
    # each name trimmed and case-folded, as an LLM answer is matched against it
    folded: dict[str, int] = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        folded: dict[str, int] = {}
        for i, c in enumerate(self.labels):
            j = folded.setdefault(c.strip().casefold(), i)
            if j != i:
                raise DataError(f"label space contains duplicate class names {self.labels[j]!r} "
                                f"and {c!r} (equal once trimmed and case-folded)")
        if not (MIN_CLASSES <= len(self.labels) <= MAX_CLASSES):
            raise DataError(
                f"label space must have {MIN_CLASSES}..{MAX_CLASSES} classes, "
                f"got {len(self.labels)}"
            )
        object.__setattr__(self, "index", {c: i for i, c in enumerate(self.labels)})
        object.__setattr__(self, "folded", folded)

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "LabelSpace":
        return cls(labels=tuple(labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def position(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise DataError(f"label {label!r} not in label space") from None


@dataclass
class DatasetSplit:
    """Disjoint train and calibration parts."""

    train: list[LabeledText]
    calibration: list[LabeledText]


def _dataset_row(obj: Mapping, where: str) -> LabeledText:
    """The one check of a dataset row, for JSONL objects, CSV rows and frozen splits:
    an ``id``, a ``text`` and a ``label`` (or a non-empty ``labels`` list whose first
    entry is taken), each neither null nor blank, then the text a string and the id
    and the label a string or an integer, which becomes its decimal string."""
    if "text" not in obj:
        raise DataError(f"{where}: missing 'text' field")
    if "label" not in obj and "labels" not in obj:
        raise DataError(f"{where}: missing 'label' (or 'labels') field")
    if "id" not in obj:
        raise DataError(f"{where}: missing 'id' field")
    if "label" in obj:
        label = obj["label"]
    else:
        labels = typed(list | None, obj["labels"], f"{where}: labels")
        if not labels:
            raise DataError(f"{where}: empty label list")
        label = labels[0]
    fields = [obj["id"], obj["text"], label]
    for i, (name, tp) in enumerate(_ROW_FIELDS):
        value = fields[i]
        if value is None or (type(value) is str and not value.strip()):
            raise DataError(f"{where}: empty {name}")
        if type(value) is not str:  # an exact string, nearly every field, skips the dispatch
            fields[i] = str(typed(tp, value, f"{where}: {name}"))
    return LabeledText(*fields)


def _read_jsonl(path: Path) -> list[LabeledText]:
    return [_dataset_row(obj, where) for where, obj in read_jsonl(path)]


def load_dataset(path) -> tuple[list[LabeledText], LabelSpace]:
    """Read a JSONL or CSV dataset file; the suffix, ``.jsonl`` or ``.csv``,
    decides the format.

    CSV files carry a ``text,label`` header and get synthesized row ids; rows
    of either format pass the one row check, ``_dataset_row``. Row order is
    preserved; the label space is the sorted set of distinct labels encountered.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    suffix = path.suffix.lower()
    if suffix not in (".jsonl", ".csv"):
        raise DataError(f"{path}: unknown dataset suffix {suffix!r}; expected .jsonl or .csv")

    items: list[LabeledText] = []
    if suffix == ".jsonl":
        items = _read_jsonl(path)
    else:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"text", "label"} <= set(reader.fieldnames):
                raise DataError(f"{path}:1: CSV header must contain 'text' and 'label'")
            for i, row in enumerate(reader, start=1):
                obj = {"id": f"row-{i:06d}", "text": row["text"], "label": row["label"]}
                items.append(_dataset_row(obj, f"{path}:{reader.line_num}"))

    if not items:
        raise DataError(f"{path}: empty dataset")
    seen: set[str] = set()
    for item in items:
        if item.id in seen:
            raise DataError(f"{path}: duplicate id: {item.id!r}")
        seen.add(item.id)
    space = LabelSpace.from_labels(sorted({item.label for item in items}))
    return items, space


def apportion(counts: Sequence[int], n: int) -> list[int]:
    """Largest-remainder apportionment of n over integer class counts.

    Exact integer arithmetic: allocation i starts at floor(n*counts[i]/total)
    and the shortfall goes to the largest fractional remainders, ties broken
    by position. The result sums to n and each entry is within 1 of the
    real-valued quota.
    """
    total = sum(counts)
    base = [(n * c) // total for c in counts]
    remainders = [n * c - b * total for c, b in zip(counts, base)]
    short = n - sum(base)
    for i in sorted(range(len(counts)), key=lambda i: (-remainders[i], i))[:short]:
        base[i] += 1
    return base


def _group_by_label(data: Sequence[LabeledText]) -> tuple[list[str], dict[str, list[LabeledText]]]:
    by_label: dict[str, list[LabeledText]] = {}
    for item in data:
        by_label.setdefault(item.label, []).append(item)
    return sorted(by_label), by_label


def stratified_subsample(data: Sequence[LabeledText], n: int, seed: int) -> list[LabeledText]:
    """Draw n items preserving per-class proportions (largest remainder).

    Selection within a class is uniform without replacement under the seeded
    generator. Classes whose apportioned count is zero are dropped with a
    warning.
    """
    if n > len(data):
        raise ValueError(f"cannot subsample n={n} from {len(data)} items")
    classes, by_label = _group_by_label(data)
    alloc = apportion([len(by_label[c]) for c in classes], n)
    dropped = [c for c, a in zip(classes, alloc) if a == 0]
    if dropped:
        log.warning("subsample n=%d drops classes with zero allocation: %s", n, ", ".join(dropped))
    rng = random.Random(seed)
    chosen: list[LabeledText] = []
    for c, a in zip(classes, alloc):
        chosen.extend(rng.sample(by_label[c], a))
    return chosen


def stratified_split(data: Sequence[LabeledText], calib_fraction: float, seed: int) -> DatasetSplit:
    """Split into train + calibration parts with stratified class proportions.

    The calibration part is the ``stratified_subsample`` of calib_fraction
    of the data (half-up rounding); the train part is the rest, in input
    order. Frozen test sets are supplied separately.
    """
    classes, by_label = _group_by_label(data)
    thin = [c for c in classes if len(by_label[c]) < 2]
    if thin:
        log.warning("classes with fewer than 2 items may yield an empty part: %s", ", ".join(thin))
    calibration = stratified_subsample(data, int(calib_fraction * len(data) + 0.5), seed)
    calib_ids = {item.id for item in calibration}
    train = [item for item in data if item.id not in calib_ids]
    return DatasetSplit(train=train, calibration=calibration)


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed from arbitrary parts, stable across processes."""
    digest = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def write_jsonl(items: Iterable[LabeledText], path) -> None:
    with atomic_open(path) as fh:
        for item in items:
            fh.write(json.dumps({"id": item.id, "text": item.text, "label": item.label},
                                ensure_ascii=False) + "\n")


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def freeze_dataset(items: Sequence[LabeledText], label_space: LabelSpace, out_dir,
                   name: str, test_size: int, test_seed: int) -> dict:
    """Freeze a dataset to disk: fixed test split, remaining pool, manifest.

    The test set is sampled once with its dedicated seed; the pool is the
    remaining items in source order. The manifest records the test seed and
    content hashes so reruns can be verified byte-for-byte.
    """
    out_dir = Path(out_dir)
    test = stratified_subsample(items, test_size, test_seed)
    test_ids = {item.id for item in test}
    pool = [item for item in items if item.id not in test_ids]
    if not pool:
        raise DataError(f"dataset {name!r}: no items left for the pool after the test split")
    write_jsonl(pool, out_dir / "pool.jsonl")
    write_jsonl(test, out_dir / "test.jsonl")
    manifest = {
        "dataset": name,
        "labels": list(label_space.labels),
        "pool_size": len(pool),
        "test_size": len(test),
        "test_seed": test_seed,
        "sha256": {
            "pool.jsonl": file_sha256(out_dir / "pool.jsonl"),
            "test.jsonl": file_sha256(out_dir / "test.jsonl"),
        },
    }
    write_json(manifest, out_dir / "manifest.json")
    return manifest


def load_frozen(dir_path) -> tuple[list[LabeledText], list[LabeledText], LabelSpace, dict]:
    """Load a frozen dataset directory back into (pool, test, labels, manifest).

    Each split must still hash to its manifest's sha256, no id may repeat, and
    every label of either split must be in the manifest's label list.
    """
    dir_path = Path(dir_path)
    manifest_path = dir_path / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no frozen dataset at {dir_path} (missing manifest.json); run prepare first")
    manifest = read_json(manifest_path, "frozen dataset manifest")
    labels = typed(list[str], manifest.get("labels"), f"{manifest_path} labels")
    sha256 = typed(dict[str, str], manifest.get("sha256"), f"{manifest_path} sha256")
    for name in ("pool.jsonl", "test.jsonl"):
        if file_sha256(dir_path / name) != sha256.get(name):
            raise DataError(f"{dir_path / name} does not match the sha256 in its manifest.json; "
                            "run prepare again")
    pool = _read_jsonl(dir_path / "pool.jsonl")
    test = _read_jsonl(dir_path / "test.jsonl")
    seen: set[str] = set()
    for item in pool + test:
        if item.id in seen:
            raise DataError(f"{dir_path}: duplicate id: {item.id!r} in pool.jsonl or test.jsonl")
        seen.add(item.id)
    space = LabelSpace.from_labels(labels)
    for split, items in (("pool", pool), ("test", test)):
        for item in items:
            if item.label not in space:
                raise DataError(
                    f"frozen {split} item {item.id!r} has label outside the label space")
    return pool, test, space, manifest
