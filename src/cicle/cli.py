"""Command-line entry points: prepare frozen splits, run cells, emit reports.

Configuration comes from an optional JSON file (--config) overridden by
flags; flags always win. Exit codes: 0 success, 2 usage, 3 data error,
4 transport error. Errors print a single machine-parsable stderr line of
the form "error: <kind>: <message>".
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .corpus import file_sha256, freeze_dataset, load_dataset, load_frozen, stable_seed
from .errors import DataError, TransportError
from .evalreport import build_report, cell_metrics, emit_report
from .llm_client import ORACLES
from .pipeline import (STRATEGIES, DatasetSpec, RunConfig, cell_files, config_key,
                       read_records, recorded_entries, run_experiment, stale_reason)
from .prompting import template_from_file
from .serialize import from_dict, read_json


class UsageError(ValueError):
    """Bad invocation (unknown strategy, malformed NAME=VALUE); exits 2."""


def _split_pair(value: str, flag: str) -> tuple[str, str]:
    if "=" not in value:
        raise UsageError(f"{flag} expects NAME=VALUE, got {value!r}")
    name, _, rest = value.partition("=")
    if not name or not rest:
        raise UsageError(f"{flag} expects NAME=VALUE, got {value!r}")
    return name, rest


def _parse_int_list(value: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {value!r}") from None


def _overlay(payload: dict, key: str, **flags) -> None:
    """Set the non-None ``flags`` over the config file's ``key`` section. An
    empty section is left out, so the dataclass default applies; a section that
    is not an object is left for ``from_dict`` to reject."""
    section = payload.pop(key, None) or {}
    if isinstance(section, dict):
        section = {**section, **{k: v for k, v in flags.items() if v is not None}}
    if section:
        payload[key] = section


def _build_datasets(payload: dict, args, where: str) -> list[DatasetSpec]:
    entries = payload.get("datasets", [])
    if not isinstance(entries, list):
        raise DataError(f"{where}.datasets must be a list")
    by_name = {}
    for i, entry in enumerate(entries):
        spec = from_dict(DatasetSpec, entry, f"{where}.datasets[{i}]")
        by_name[spec.name] = spec
    for value in args.dataset or []:
        name, path = _split_pair(value, "--dataset")
        by_name[name] = (dataclasses.replace(by_name[name], path=path) if name in by_name
                         else DatasetSpec(name=name, path=path))
    for value in args.min_size or []:
        name, n = _split_pair(value, "--min-size")
        if name not in by_name:
            raise UsageError(f"--min-size names unknown dataset {name!r}")
        try:
            n = int(n)
        except ValueError:
            raise UsageError(f"--min-size expects an integer, got {n!r}") from None
        by_name[name] = dataclasses.replace(by_name[name], min_size=n)
    for value in args.task or []:
        name, task = _split_pair(value, "--task")
        if name not in by_name:
            raise UsageError(f"--task names unknown dataset {name!r}")
        by_name[name] = dataclasses.replace(by_name[name], task=task)
    if not by_name:
        raise UsageError("no datasets given; use --dataset NAME=PATH or a config file")
    return list(by_name.values())


def build_run_config(args) -> RunConfig:
    """Merge the JSON config file (if any) with flag overrides; flags win.

    Every section goes through ``from_dict``, so an unknown key, a missing
    required field or a value of the wrong type is a DataError naming the file.
    """
    payload = read_json(args.config, "config") if args.config else {}
    where = f"config ({args.config})" if args.config else "config"
    flags = {"output": args.output, "seed": args.seed, "alpha": args.alpha, "k": args.k,
             "calib_fraction": args.calib_fraction, "test_size": args.test_size,
             "jobs": args.jobs}
    payload.update({key: value for key, value in flags.items() if value is not None})
    if args.sizes:
        payload["sizes"] = _parse_int_list(args.sizes, "--sizes")
    if args.strategies:
        payload["strategies"] = [s.strip() for s in args.strategies.split(",") if s.strip()]
        unknown = [s for s in payload["strategies"] if s not in STRATEGIES]
        if unknown:
            raise UsageError(f"unknown strategy: {', '.join(unknown)}; "
                             f"choose from {', '.join(STRATEGIES)}")
    if args.template or isinstance(payload.get("template"), str):
        payload["template"] = template_from_file(args.template or payload["template"])
    payload["datasets"] = _build_datasets(payload, args, where)
    if args.oracle and args.llm_endpoint:
        raise UsageError("--oracle and --llm-endpoint are mutually exclusive")
    if args.oracle and args.oracle not in ORACLES:
        raise UsageError(
            f"unknown oracle {args.oracle!r}; known oracles: {', '.join(sorted(ORACLES))}")
    _overlay(payload, "llm", endpoint=args.oracle or args.llm_endpoint, model_id=args.model_id,
             max_new_tokens=args.max_new_tokens)
    if isinstance(payload.get("llm"), dict):
        # decoding is always deterministic; old files still name it
        payload["llm"].pop("deterministic", None)
    _overlay(payload, "embedding", endpoint=args.embedding_endpoint,
             cache_dir=args.embedding_cache)
    return from_dict(RunConfig, payload, where)


def cmd_prepare(args) -> int:
    """Freeze each raw dataset into pool/test splits plus a hashed manifest."""
    config = build_run_config(args)
    for spec in config.datasets:
        items, space = load_dataset(spec.path, spec.fmt)
        test_seed = stable_seed(config.seed, "test", spec.name)
        manifest = freeze_dataset(items, space, config.data_dir / spec.name, spec.name,
                                  config.test_size, test_seed)
        print(f"prepared {spec.name}: pool={manifest['pool_size']} "
              f"test={manifest['test_size']} classes={len(space)}")
    return 0


def cmd_run(args) -> int:
    """Classify every prepared cell and write one record file per cell."""
    config = build_run_config(args)
    n_records = run_experiment(config, force=args.force)
    print(f"run complete: {n_records} records under {config.records_dir}")
    return 0


def cmd_report(args) -> int:
    """Aggregate the record files ``run`` would reuse into report.json and
    plot-ready CSVs, holding one file's records at a time."""
    config = build_run_config(args)
    cells = {}  # (dataset, size, strategy) -> (path, test ids, class count, configuration key)
    missing: list[str] = []
    for spec in config.datasets:
        pool, test, space, data_manifest = load_frozen(config.data_dir / spec.name)
        dataset = ([t.id for t in test], len(space),
                   config_key(config, spec, data_manifest["sha256"]))
        for size, paths in cell_files(config, spec, len(pool)).items():
            for strategy, path in paths.items():
                if path.exists():
                    cells[spec.name, size, strategy] = (path, *dataset)
                else:
                    missing.append(path.name)
    if missing:
        raise DataError(f"missing record files: {', '.join(missing)}")
    if not config.manifest_path.exists():
        raise DataError(f"{config.manifest_path} not found; run the cells before reporting")
    hashes, keys = recorded_entries(config.manifest_path)
    per_cell = {}
    for cell, (path, test_ids, n_classes, key) in cells.items():
        records = read_records(path)
        reason = stale_reason(path.name, file_sha256(path), key, hashes, keys)
        if reason is not None:
            raise DataError(f"{path.name} {reason}")
        if len(records) != len(test_ids):
            raise DataError(f"{path.name} holds {len(records)} records; "
                            f"the frozen test set has {len(test_ids)}")
        if [r.item_id for r in records] != test_ids:
            raise DataError(f"{path.name}: item ids are not in frozen test order")
        per_cell[cell] = cell_metrics(records, n_classes)
    report = build_report(per_cell)
    written = emit_report(report, Path(config.output) / "report")
    print(f"report written: {', '.join(p.name for p in written)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("configuration")
    g.add_argument("--config", metavar="PATH", help="JSON config file; flags override it")
    g.add_argument("--output", metavar="DIR", help="output directory (default runs)")
    g.add_argument("--dataset", action="append", metavar="NAME=PATH",
                   help="dataset name and raw file path; repeatable")
    g.add_argument("--min-size", action="append", metavar="NAME=N",
                   help="smallest usable subsample size for a dataset; repeatable")
    g.add_argument("--task", action="append", metavar="NAME=TEXT",
                   help="task phrasing used in that dataset's prompts; repeatable")
    g.add_argument("--sizes", metavar="N,N,...",
                   help="comma-separated subsample sizes (default 100..5000)")
    g.add_argument("--seed", type=int, help="run seed (default 0)")
    g.add_argument("--test-size", type=int, help="frozen test split size (default 1000)")
    g.add_argument("--alpha", type=float, help="conformal miscoverage level (default 0.05)")
    g.add_argument("--k", type=int, help="shots per candidate class (default 2)")
    g.add_argument("--strategies", metavar="S,S,...",
                   help=f"strategies to run, from: {', '.join(STRATEGIES)}")
    g.add_argument("--calib-fraction", type=float,
                   help="calibration share of each subsample (default 0.2)")
    g.add_argument("--template", metavar="PATH", help="prompt template JSON file")
    g.add_argument("--oracle", metavar="NAME",
                   help=f"mock oracle instead of a live endpoint: {', '.join(sorted(ORACLES))}")
    g.add_argument("--llm-endpoint", metavar="URL",
                   help="chat-completions endpoint URL (API key via CICLE_API_KEY)")
    g.add_argument("--model-id", metavar="ID", help="model identifier sent to the endpoint")
    g.add_argument("--max-new-tokens", type=int, help="completion token cap (default 5)")
    g.add_argument("--embedding-endpoint", metavar="URL",
                   help="embedding service URL for the dense few-shot baseline")
    g.add_argument("--embedding-cache", metavar="DIR", help="embedding cache directory")
    g.add_argument("--jobs", type=int,
                   help="LLM calls in flight at once across the whole run (default 1, serial)")
    g.add_argument("--force", action="store_true", help="recompute existing cell files")

    parser = argparse.ArgumentParser(
        prog="cicle",
        description="Conformal gating for in-context text classification: "
                    "prepare data, run strategy cells, report metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("prepare", parents=[common],
                       help="freeze raw datasets into pool/test splits")
    p.set_defaults(fn=cmd_prepare)
    p = sub.add_parser("run", parents=[common],
                       help="run every (dataset, size, strategy) cell")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("report", parents=[common],
                       help="aggregate record files into CSV/JSON reports")
    p.set_defaults(fn=cmd_report)
    return parser


def _report_error(kind: str, exc: Exception) -> None:
    message = " ".join(str(exc).split())
    print(f"error: {kind}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.fn(args)
    except UsageError as exc:
        _report_error("usage", exc)
        return 2
    except TransportError as exc:
        _report_error("transport", exc)
        return 4
    except DataError as exc:
        _report_error("data", exc)
        return 3
    except (ValueError, OSError) as exc:
        _report_error("data", exc)
        return 3


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
