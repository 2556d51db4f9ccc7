"""Experiment orchestration: subsample, fit, calibrate, classify, persist.

A cell is one (dataset, size, seed, strategy) combination. Every cell writes
one JSONL record file whose bytes depend only on the run configuration and
the frozen data, never on scheduling: item seeds are derived from the run
seed and the item id, records are written in test-set order, and no
timestamps enter any artifact.

Each prompting strategy draws its shots from one ``ShotSource``, and cicle
and the few-shot baselines share one select-and-prompt step. cicle's pool is
the cell's train part, since calibration items tuned its threshold; the
baselines need no calibration and draw from the whole subsample.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from threading import Event
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .classifier import predict_proba, train
from .conformal import ConformalCalibration, ConformalSet, calibrate, predict_set
from .corpus import (LabeledText, LabelSpace, file_sha256, load_frozen, stable_seed,
                     stratified_split, stratified_subsample)
from .errors import CicleError, DataError, TransportError
from .llm_client import LlmClient, LlmConfig, PromptMeta, parse_label
from .prompting import DEFAULT_TEMPLATE, PromptStats, PromptTemplate, build_prompt
from .selection import ShotPool, ShotSet, select_random, select_sparse
from .serialize import JSON_STYLE, atomic_open, read_json, read_jsonl, typed, write_json
# transform and stack are not called here; perfbench/spans.py wraps these names
from .vectorize import encode, fit_tfidf, stack, transform, transform_many

log = logging.getLogger(__name__)

FEWSHOT = ("fewshot-random", "fewshot-sparse")
STRATEGIES = ("base", *FEWSHOT, "cicle")
DEFAULT_SIZES = (100, 200, 300, 400, 500, 1000, 2000, 3000, 4000, 5000)
# the calibration share of each cell's subsample
CALIB_FRACTION = 0.2

_NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")


@dataclass
class DatasetSpec:
    name: str
    path: str
    min_size: int = 0
    task: str = "text classification"

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"dataset name must match [A-Za-z0-9_-]+, got {self.name!r}")
        if self.min_size < 0:
            raise ValueError(f"min_size must be >= 0, got {self.min_size}")


@dataclass
class RunConfig:
    datasets: list[DatasetSpec]
    output: str = "runs"
    sizes: Sequence[int] = DEFAULT_SIZES
    seed: int = 0
    alpha: float = 0.05
    k: int = 2
    strategies: Sequence[str] = STRATEGIES
    template: PromptTemplate = DEFAULT_TEMPLATE
    llm: LlmConfig = field(default_factory=LlmConfig)
    test_size: int = 1000
    jobs: int = 1

    def __post_init__(self):
        if not self.datasets:
            raise ValueError("at least one dataset is required")
        sizes = [int(s) for s in self.sizes]
        if not sizes or any(s <= 0 for s in sizes):
            raise ValueError("sizes must be positive")
        if sizes != sorted(set(sizes)):
            raise ValueError("sizes must be strictly ascending without repeats")
        self.sizes = sizes
        strategies = list(self.strategies)
        if not strategies:
            raise ValueError("strategies must be non-empty")
        if len(set(strategies)) != len(strategies):
            raise ValueError("strategies contain duplicates")
        unknown = [s for s in strategies if s not in STRATEGIES]
        if unknown:
            raise ValueError(
                f"unknown strategies: {', '.join(unknown)}; choose from {', '.join(STRATEGIES)}")
        self.strategies = strategies
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.test_size < 1:
            raise ValueError(f"test_size must be >= 1, got {self.test_size}")

    @property
    def data_dir(self) -> Path:
        return Path(self.output) / "data"

    @property
    def records_dir(self) -> Path:
        return Path(self.output) / "records"

    @property
    def manifest_path(self) -> Path:
        return Path(self.output) / "run_manifest.json"


@dataclass
class PredictionRecord:
    item_id: str
    strategy: str
    gold_label: int
    final_label: int | None
    base_probs: list[float] | None = None
    conformal_set: ConformalSet | None = None
    bypassed: bool = False
    prompt_stats: PromptStats | None = None
    llm_raw: str | None = None
    error: str | None = None

    @classmethod
    def from_json(cls, obj: dict, where: str) -> "PredictionRecord":
        """Decode one record; ``where`` (a file's ``path:lineno``) prefixes any error.

        Each value is checked by ``typed``, so a ``"false"`` in a bool field or a
        2.9 in an int field makes the record malformed.
        """
        try:
            cset = obj.get("conformal_set")
            if cset is not None:
                cset = ConformalSet(
                    candidates=[(typed(int, c, "conformal_set class"),
                                 typed(float, p, "conformal_set probability"))
                                for c, p in typed(list, cset["candidates"],
                                                  "conformal_set.candidates")],
                    forced_fallback=typed(bool, cset["forced_fallback"],
                                          "conformal_set.forced_fallback"),
                )
            stats = obj.get("prompt_stats")
            if stats is not None:
                stats = PromptStats(
                    token_count=typed(int, stats["token_count"], "prompt_stats.token_count"),
                    shot_count=typed(int, stats["shot_count"], "prompt_stats.shot_count"),
                    candidate_count=typed(int, stats["candidate_count"],
                                          "prompt_stats.candidate_count"))
            final = obj["final_label"]
            probs = obj.get("base_probs")
            raw = obj.get("llm_raw")
            error = obj.get("error")
            return cls(
                item_id=typed(str, obj["item_id"], "item_id"),
                strategy=typed(str, obj["strategy"], "strategy"),
                gold_label=typed(int, obj["gold_label"], "gold_label"),
                final_label=None if final is None else typed(int, final, "final_label"),
                base_probs=(None if probs is None
                            else [typed(float, p, "base_probs entry")
                                  for p in typed(list, probs, "base_probs")]),
                conformal_set=cset,
                bypassed=typed(bool, obj.get("bypassed", False), "bypassed"),
                prompt_stats=stats,
                llm_raw=None if raw is None else typed(str, raw, "llm_raw"),
                error=None if error is None else typed(str, error, "error"),
            )
        except (KeyError, TypeError, ValueError, DataError) as exc:
            raise DataError(f"{where}: malformed prediction record: {exc}") from None


def write_records(records: Sequence[PredictionRecord], path) -> None:
    """Write one cell's records as JSONL, atomically: a write that fails or is
    interrupted leaves no partial cell file for a later run to reuse."""
    encoder = json.JSONEncoder(**JSON_STYLE)
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(encoder.encode(rec) + "\n")


def read_records(path) -> list[PredictionRecord]:
    return [PredictionRecord.from_json(obj, where) for where, obj in read_jsonl(path)]


def recorded_entries(manifest_path) -> tuple[dict[str, str], dict[str, str],
                                             dict[str, dict[str, str]]]:
    """Record file name -> sha256, name -> configuration key and dataset name
    -> its frozen splits' sha256, from a run manifest; all are empty when
    there is no manifest yet."""
    path = Path(manifest_path)
    if not path.exists():
        return {}, {}, {}
    manifest = read_json(path, "run manifest")
    return (typed(dict[str, str], manifest.get("records"), f"{path} records"),
            typed(dict[str, str], manifest.get("keys", {}), f"{path} keys"),
            typed(dict[str, dict[str, str]], manifest.get("datasets", {}), f"{path} datasets"))


# The version of the program's record bytes. It is part of every configuration
# key, so files written before a change to what the same configuration and
# data produce (say, a new solver) are recomputed once. Version 2: Newton-CG.
# Version 3: the solver runs in one BLAS thread. Version 4: a class with no
# training row gets probability 0.
RECORDS_VERSION = 4
# RunConfig fields that shape no record byte, or that the record file name
# holds. run reads the frozen split, whose sha256 is keyed, never test_size.
_UNKEYED = ("output", "jobs", "sizes", "strategies", "datasets", "test_size")
# LlmConfig fields that shape no record byte: a call that still fails after its
# retries fails its (cell, strategy), which then writes no file
_UNKEYED_LLM = ("timeout", "max_retries", "backoff")


def config_key(config: RunConfig, spec: DatasetSpec, data_sha256: dict) -> str:
    """The sha256 of everything besides the file name that shapes a dataset's
    record files: the records version, the run configuration, the dataset's
    task and its frozen splits."""
    shaping = {k: v for k, v in vars(config).items() if k not in _UNKEYED}
    shaping["llm"] = {k: v for k, v in vars(config.llm).items() if k not in _UNKEYED_LLM}
    blob = json.dumps([RECORDS_VERSION, shaping, spec.task, data_sha256], **JSON_STYLE)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ShotSource:
    """One prompting strategy's shot pool, the pool's tf-idf rows and the test
    set's rows under the same model; both are None for fewshot-random."""

    pool: ShotPool
    pool_vectors: sp.csr_matrix | None = None
    test_vectors: sp.csr_matrix | None = None


@dataclass
class CellResources:
    """Everything one (dataset, size) cell shares across its strategies.

    The test set's class probabilities are computed once, for base and cicle
    alike; model-side fields stay None when neither runs. ``shots`` holds one
    shot source per requested prompting strategy.
    """

    label_space: LabelSpace
    test: list[LabeledText]
    task: str
    calibration: ConformalCalibration | None = None
    test_probs: np.ndarray | None = None
    shots: dict[str, ShotSource] = field(default_factory=dict)


def build_cell(subsample: Sequence[LabeledText], test: Sequence[LabeledText],
               label_space: LabelSpace, config: RunConfig, cell_seed: int, task: str,
               strategies: Sequence[str]) -> CellResources:
    """Fit the per-cell models and the shot source of each prompting strategy
    among ``strategies``, and compute the test set's class probabilities."""
    subsample = list(subsample)
    res = CellResources(label_space=label_space, test=list(test), task=task)
    if {"base", "cicle", "fewshot-sparse"} & set(strategies):
        # each text of the cell is tokenized once; every fit and transform takes rows of it
        texts = encode([t.text for t in subsample + res.test])
        row = {item.id: i for i, item in enumerate(subsample)}
        test_texts = texts.take(range(len(subsample), len(texts)))

    if "base" in strategies or "cicle" in strategies:
        split = stratified_split(subsample, CALIB_FRACTION, cell_seed)
        if not split.train or not split.calibration:
            raise DataError("cell split produced an empty train or calibration part")
        train_texts = texts.take(row[t.id] for t in split.train)
        tfidf = fit_tfidf(train_texts)
        X = transform_many(tfidf, train_texts)
        y = [label_space.position(t.label) for t in split.train]
        model = train(X, y, label_space)
        test_vectors = transform_many(tfidf, test_texts)
        res.test_probs = predict_proba(model, test_vectors)
        if "cicle" in strategies:
            res.shots["cicle"] = ShotSource(ShotPool(split.train), X, test_vectors)
            cal_X = transform_many(tfidf, texts.take(row[t.id] for t in split.calibration))
            cal_y = [label_space.position(t.label) for t in split.calibration]
            res.calibration = calibrate(predict_proba(model, cal_X), cal_y, config.alpha)

    fewshot = [s for s in strategies if s in FEWSHOT]
    if fewshot:
        pool = ShotPool(subsample)
        if "fewshot-random" in fewshot:
            res.shots["fewshot-random"] = ShotSource(pool)
        if "fewshot-sparse" in fewshot:
            pool_texts = texts.take(range(len(subsample)))
            tfidf = fit_tfidf(pool_texts)
            res.shots["fewshot-sparse"] = ShotSource(pool, transform_many(tfidf, pool_texts),
                                                     transform_many(tfidf, test_texts))
    return res


@dataclass
class LlmCall:
    """A finished prompt awaiting its completion, and the record the answer fills in."""

    record: PredictionRecord
    prompt: str
    meta: PromptMeta


def classify_base(res: CellResources, item: LabeledText, probs: np.ndarray) -> PredictionRecord:
    """Argmax of the base classifier's probability row for one test item; no LLM."""
    return PredictionRecord(
        item_id=item.id,
        strategy="base",
        gold_label=res.label_space.position(item.label),
        final_label=int(np.argmax(probs)),
        base_probs=[float(p) for p in probs],
    )


def classify_fewshot(res: CellResources, item: LabeledText, strategy: str) -> PredictionRecord:
    """One item's few-shot record; cell_calls prompts it over every class in label order."""
    return PredictionRecord(
        item_id=item.id,
        strategy=strategy,
        gold_label=res.label_space.position(item.label),
        final_label=None,
    )


def classify_cicle(res: CellResources, item: LabeledText, probs: np.ndarray) -> PredictionRecord:
    """Conformal gate for one item's probability row: a singleton set bypasses the LLM.

    Any other record is returned with ``final_label`` None; its prompt, over
    the set's classes only, is built once the whole cell is gated.
    """
    cset = predict_set(res.calibration, probs)
    record = PredictionRecord(
        item_id=item.id,
        strategy="cicle",
        gold_label=res.label_space.position(item.label),
        final_label=None,
        base_probs=[float(p) for p in probs],
        conformal_set=cset,
    )
    if len(cset) == 1:
        record.bypassed = True
        record.final_label = cset.candidates[0][0]
    return record


def _select(res: CellResources, strategy: str, rows: list[int],
            classes: list[list[str]], config: RunConfig) -> list[ShotSet]:
    """Shots from ``strategy``'s source for each of ``rows``, in the order ``classes`` gives it."""
    source = res.shots[strategy]
    if strategy == "fewshot-random":
        seeds = [stable_seed(config.seed, "item", res.test[i].id) for i in rows]
        return select_random(source.pool, classes, config.k, seeds)
    return select_sparse(source.pool, source.pool_vectors, source.test_vectors[rows], classes,
                         config.k)


def _complete_into(call: LlmCall, llm: LlmClient, labels: LabelSpace, stop: Event) -> None:
    """Fill ``call``'s record in from its completion unless ``stop`` is set; a failure sets it."""
    if stop.is_set():
        return
    try:
        resp = llm.complete(call.prompt, call.meta)
    except BaseException:
        stop.set()
        raise
    call.record.llm_raw = resp.raw
    call.record.final_label = parse_label(resp.raw, labels)


def cell_calls(res: CellResources, strategy: str,
               config: RunConfig) -> tuple[list[PredictionRecord], list[LlmCall]]:
    """The CPU stage of one strategy over the cell's test set, batched on the
    calling thread: probabilities, conformal sets, shot selection and prompts.

    cicle prompts the rows its gate does not bypass, over their sets' classes;
    the few-shot baselines prompt every row over every class. Returns every
    record, in test order, and the calls whose completions still have to fill
    their records in.
    """
    if strategy == "base":
        return [classify_base(res, item, probs)
                for item, probs in zip(res.test, res.test_probs)], []
    labels = res.label_space.labels
    if strategy == "cicle":
        records = [classify_cicle(res, item, probs)
                   for item, probs in zip(res.test, res.test_probs)]
        rows = [i for i, rec in enumerate(records) if not rec.bypassed]
        if not rows:
            return records, []
        classes = [[labels[c] for c in records[i].conformal_set.classes()] for i in rows]
    else:
        records = [classify_fewshot(res, item, strategy) for item in res.test]
        rows = list(range(len(records)))
        classes = [list(labels)] * len(rows)
    calls = []
    for i, shots in zip(rows, _select(res, strategy, rows, classes, config)):
        item, record = res.test[i], records[i]
        prompt, record.prompt_stats = build_prompt(config.template, shots, item, task=res.task)
        meta = PromptMeta(classes=tuple(shots.classes()), gold_label=item.label)
        calls.append(LlmCall(record=record, prompt=prompt, meta=meta))
    return records, calls


def record_filename(dataset: str, size: int, seed: int, strategy: str) -> str:
    return f"{dataset}_{size}_{seed}_{strategy}.jsonl"


def cell_files(config: RunConfig, spec: DatasetSpec, pool_size: int) -> dict[int, dict[str, Path]]:
    """Each size a dataset runs at -> each configured strategy's record file path.

    A dataset runs at the configured sizes from its minimum up to its pool
    size; each skipped size is logged once. ``run`` and ``report`` both walk
    their cells through here.
    """
    cells = {}
    for size in config.sizes:
        if size < spec.min_size:
            log.warning("skipping %s size %d: below the dataset minimum %d",
                        spec.name, size, spec.min_size)
        elif size > pool_size:
            log.warning("skipping %s size %d: pool has only %d items", spec.name, size, pool_size)
        else:
            cells[size] = {s: config.records_dir / record_filename(spec.name, size, config.seed, s)
                           for s in config.strategies}
    return cells


def stale_reason(name: str, sha256: str, key: str, hashes: dict[str, str],
                 keys: dict[str, str]) -> str | None:
    """Why the record file ``name`` (bytes hashing to ``sha256``) is not what the
    configuration keyed ``key`` writes, by the manifest's tables; None when it is.
    ``run`` reuses, and ``report`` accepts, exactly the files judged None."""
    if name not in hashes:
        return "has no entry in run_manifest.json"
    if hashes[name] != sha256:
        return "does not match the sha256 in run_manifest.json"
    if keys.get(name) != key:
        return "was written under another configuration"
    return None


def run_experiment(config: RunConfig, force: bool = False) -> int:
    """Run every (dataset, size, strategy) cell; returns the number of records
    in the run's record files.

    Frozen datasets must already exist under ``output/data/{name}``. An
    existing cell file is kept when ``stale_reason`` finds none, unless
    ``force`` is set; any other file is recomputed with a warning naming the
    reason. The manifest is rewritten after each file, so an interrupted run
    keeps its finished files. A failed cell, or a (cell, strategy) whose LLM
    call still fails after its retries, makes no further calls and writes no
    file; once every cell has run, any failure raises one error naming each
    failed cell: a TransportError if one of them was, else a DataError.

    Both ``jobs`` paths run a (cell, strategy)'s CPU stage, ``cell_calls``, on
    this thread, and its calls share one stop flag that a failed call sets.
    With ``jobs`` 1 they complete one by one there, and the file is written
    before the next one starts. With more, one pool of ``jobs`` threads serves
    the whole run: while one (cell, strategy)'s calls complete, this thread
    runs the next one's CPU stage, then reads the previous calls' results in
    submission order and writes their file.
    """
    llm_client = LlmClient(config.llm)
    n_records = 0
    failures: list[tuple[str, Exception]] = []
    # entries for cells and datasets this run leaves alone carry over, so runs over
    # different datasets, strategies or sizes add up to one manifest that report
    # can check them all by
    hashes, keys, datasets_meta = recorded_entries(config.manifest_path)

    def write_manifest() -> None:
        write_json({"config": config, "datasets": datasets_meta, "keys": keys,
                    "records": hashes}, config.manifest_path)

    def failed(cell: str, exc: Exception) -> None:
        log.error("cell %s failed: %s", cell, exc)
        failures.append((cell, exc))

    def finish(cell: str, path: Path, key: str, records: list[PredictionRecord],
               done: list) -> None:
        nonlocal n_records
        try:
            for future in done:
                future.result()
        except TransportError as exc:
            failed(cell, exc)
            return
        write_records(records, path)
        hashes[path.name] = file_sha256(path)
        keys[path.name] = key
        write_manifest()
        n_records += len(records)

    pool = ThreadPoolExecutor(max_workers=config.jobs) if config.jobs > 1 else None
    # (cell, path, key, records, futures) not yet written; a pooled run keeps one waiting
    in_flight: deque = deque()
    lag = 0 if pool is None else 1
    stops: list[Event] = []  # one per (cell, strategy)
    try:
        for spec in config.datasets:
            pool_items, test, space, data_manifest = load_frozen(config.data_dir / spec.name)
            datasets_meta[spec.name] = data_manifest["sha256"]
            key = config_key(config, spec, data_manifest["sha256"])
            for size, paths in cell_files(config, spec, len(pool_items)).items():
                pending = []
                for strategy, path in paths.items():
                    if path.exists() and not force:
                        reason = stale_reason(path.name, file_sha256(path), key, hashes, keys)
                        if reason is None:
                            log.info("cell file matches run_manifest.json, reusing: %s",
                                     path.name)
                            n_records += len(test)
                            continue
                        log.warning("cell file %s %s; recomputing it", path.name, reason)
                    pending.append(strategy)
                if not pending:
                    continue
                cell_seed = stable_seed(config.seed, spec.name, size)
                try:
                    subsample = stratified_subsample(pool_items, size, cell_seed)
                    res = build_cell(subsample, test, space, config, cell_seed, task=spec.task,
                                     strategies=pending)
                except (CicleError, ValueError, OSError) as exc:
                    failed(f"{spec.name}/{size}", exc)
                    continue
                for strategy in pending:
                    cell = f"{spec.name}/{size}/{strategy}"
                    records, calls = cell_calls(res, strategy, config)
                    stop = Event()
                    stops.append(stop)
                    try:
                        if pool is None:
                            for call in calls:
                                _complete_into(call, llm_client, space, stop)
                            done = []
                        else:
                            done = [pool.submit(_complete_into, call, llm_client, space, stop)
                                    for call in calls]
                    except TransportError as exc:
                        failed(cell, exc)
                        continue
                    del calls  # each prompt goes once its call completes
                    in_flight.append((cell, paths[strategy], key, records, done))
                    del records  # the queue holds the only reference until the file is written
                    while len(in_flight) > lag:
                        finish(*in_flight.popleft())
        while in_flight:
            finish(*in_flight.popleft())
    finally:
        for stop in stops:  # a run that raises starts no further call
            stop.set()
        if pool is not None:
            pool.shutdown()

    write_manifest()
    if failures:
        error = (TransportError if any(isinstance(exc, TransportError) for _, exc in failures)
                 else DataError)
        raise error(f"{len(failures)} failed cell(s): "
                    + "; ".join(f"{cell}: {exc}" for cell, exc in failures))
    return n_records
