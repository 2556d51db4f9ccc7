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
from .serialize import from_dict, read_json, typed


class UsageError(ValueError):
    """Bad invocation (malformed NAME=VALUE, a flag value the configuration
    rejects); exits 2."""


def _split_pair(value: str, flag: str) -> tuple[str, str]:
    name, _, rest = value.partition("=")
    if not name or not rest:
        raise UsageError(f"{flag} expects NAME=VALUE, got {value!r}")
    return name, rest


def _parse_int_list(value: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {value!r}") from None


def _flag_spec(spec: DatasetSpec | None, **values) -> DatasetSpec:
    """``spec`` with ``values`` from a flag set (a new spec when None); a value
    that DatasetSpec rejects is a usage error."""
    try:
        return DatasetSpec(**values) if spec is None else dataclasses.replace(spec, **values)
    except ValueError as exc:
        raise UsageError(f"command line: {exc}") from None


def _build_datasets(payload: dict, args, where: str) -> list[DatasetSpec]:
    specs = typed(list[DatasetSpec], payload.get("datasets", []), f"{where}.datasets")
    by_name = {spec.name: spec for spec in specs}
    for value in args.dataset or []:
        name, path = _split_pair(value, "--dataset")
        by_name[name] = _flag_spec(by_name.get(name), name=name, path=path)
    for value in args.min_size or []:
        name, n = _split_pair(value, "--min-size")
        if name not in by_name:
            raise UsageError(f"--min-size names unknown dataset {name!r}")
        try:
            n = int(n)
        except ValueError:
            raise UsageError(f"--min-size expects an integer, got {n!r}") from None
        by_name[name] = _flag_spec(by_name[name], min_size=n)
    for value in args.task or []:
        name, task = _split_pair(value, "--task")
        if name not in by_name:
            raise UsageError(f"--task names unknown dataset {name!r}")
        by_name[name] = _flag_spec(by_name[name], task=task)
    if not by_name and not args.config:  # RunConfig rejects a file that names none
        raise UsageError("no datasets given; use --dataset NAME=PATH or a config file")
    return list(by_name.values())


def build_run_config(args) -> RunConfig:
    """Merge the JSON config file (if any) with flag overrides; flags win.

    Every section goes through ``from_dict``. An unknown key, a missing
    required field or a value of the wrong type or out of range is a DataError
    naming the file when the file alone is rejected too; otherwise a flag
    broke the config, and it is a UsageError.
    """
    payload = read_json(args.config, "config") if args.config else {}
    where = f"config ({args.config})" if args.config else "config"
    payload["datasets"] = _build_datasets(payload, args, where)
    flags = {"output": args.output, "seed": args.seed, "alpha": args.alpha, "k": args.k,
             "test_size": args.test_size, "jobs": args.jobs}
    merged = {**payload, **{key: value for key, value in flags.items() if value is not None}}
    if args.sizes:
        merged["sizes"] = _parse_int_list(args.sizes, "--sizes")
    if args.strategies:
        merged["strategies"] = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if args.template or isinstance(merged.get("template"), str):
        merged["template"] = template_from_file(args.template or merged["template"])
    if args.oracle and args.llm_endpoint:
        raise UsageError("--oracle and --llm-endpoint are mutually exclusive")
    llm_flags = {"endpoint": args.oracle or args.llm_endpoint, "model_id": args.model_id,
                 "max_new_tokens": args.max_new_tokens}
    # an empty llm section is left out, so LlmConfig's defaults apply; one that
    # is not an object is left for from_dict to reject
    llm = merged.pop("llm", None) or {}
    if isinstance(llm, dict):
        llm = {**llm, **{key: value for key, value in llm_flags.items() if value is not None}}
    if llm:
        merged["llm"] = llm
    try:
        return from_dict(RunConfig, merged, "command line")
    except DataError as exc:
        if isinstance(payload.get("template"), str):
            payload["template"] = template_from_file(payload["template"])
        from_dict(RunConfig, payload, where)  # a file the flags did not break names itself
        raise UsageError(str(exc)) from None


def cmd_prepare(args) -> int:
    """Freeze each raw dataset into pool/test splits plus a hashed manifest."""
    config = build_run_config(args)
    for spec in config.datasets:
        items, space = load_dataset(spec.path)
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
    hashes, keys, _ = recorded_entries(config.manifest_path)
    per_cell = {}
    missing: list[str] = []
    for spec in config.datasets:
        pool, test, space, data_manifest = load_frozen(config.data_dir / spec.name)
        test_ids = [t.id for t in test]
        key = config_key(config, spec, data_manifest["sha256"])
        for size, paths in cell_files(config, spec, len(pool)).items():
            for strategy, path in paths.items():
                if not path.exists():
                    missing.append(path.name)
                    continue
                if not config.manifest_path.exists():
                    raise DataError(f"{config.manifest_path} not found; "
                                    "run the cells before reporting")
                # judge the bytes by run's reuse rule before decoding them
                reason = stale_reason(path.name, file_sha256(path), key, hashes, keys)
                if reason is not None:
                    raise DataError(f"{path.name} {reason}")
                records = read_records(path)
                if len(records) != len(test_ids):
                    raise DataError(f"{path.name} holds {len(records)} records; "
                                    f"the frozen test set has {len(test_ids)}")
                if [r.item_id for r in records] != test_ids:
                    raise DataError(f"{path.name}: item ids are not in frozen test order")
                try:
                    per_cell[spec.name, size, strategy] = cell_metrics(records, len(space))
                except (ValueError, OverflowError) as exc:  # a label or count out of range
                    raise DataError(f"{path.name}: {exc}") from None
    if missing:
        raise DataError(f"missing record files: {', '.join(missing)}")
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
    g.add_argument("--template", metavar="PATH", help="prompt template JSON file")
    g.add_argument("--oracle", metavar="NAME",
                   help=f"mock oracle instead of a live endpoint: {', '.join(sorted(ORACLES))}")
    g.add_argument("--llm-endpoint", metavar="URL",
                   help="chat-completions endpoint URL (API key via CICLE_API_KEY)")
    g.add_argument("--model-id", metavar="ID", help="model identifier sent to the endpoint")
    g.add_argument("--max-new-tokens", type=int, help="completion token cap (default 5)")
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
    except (DataError, ValueError, OSError) as exc:
        _report_error("data", exc)
        return 3


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
