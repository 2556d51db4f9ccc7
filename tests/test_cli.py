"""End-to-end tests for the prepare/run/report command line."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cicle.cli import build_parser, build_run_config, main
from cicle.corpus import file_sha256, load_frozen, write_jsonl
from cicle.llm_client import ORACLES, LlmConfig
from cicle import cli, pipeline
from cicle.pipeline import STRATEGIES, record_filename

from conftest import make_items, scripted_chat_app


def write_toy(tmp_path, n=240, overlap=0.75, name="toy"):
    items = make_items(n, n_classes=4, seed=0, overlap=overlap)
    path = tmp_path / f"{name}.jsonl"
    write_jsonl(items, path)
    return path


def base_args(data_path, out, *extra):
    return ["--dataset", f"toy={data_path}", "--output", str(out),
            "--sizes", "80", "--test-size", "60", *extra]


def error_lines(capsys):
    err = capsys.readouterr().err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_help_lists_shared_flags(capsys):
    assert main(["run", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--dataset", "--sizes", "--alpha", "--k", "--strategies",
                 "--oracle", "--llm-endpoint", "--jobs", "--force"):
        assert flag in out
    assert "--embedding" not in out and "fewshot-dense" not in out


@pytest.mark.parametrize("flag", ["--embedding-endpoint", "--embedding-cache"])
def test_a_removed_embedding_flag_is_usage_error(tmp_path, capsys, flag):
    data = write_toy(tmp_path)
    assert main(["run", *base_args(data, tmp_path / "out"), flag, "http://127.0.0.1:9/embed"]) == 2
    assert flag in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_prepare_run_report_happy_path(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"

    assert main(["prepare", *base_args(data, out)]) == 0
    assert "prepared toy: pool=180 test=60 classes=4" in capsys.readouterr().out
    assert (out / "data" / "toy" / "manifest.json").exists()
    assert (out / "data" / "toy" / "pool.jsonl").exists()
    assert (out / "data" / "toy" / "test.jsonl").exists()

    run_args = base_args(data, out, "--strategies", "base,cicle", "--alpha", "0.1")
    assert main(["run", *run_args]) == 0
    assert "run complete: 120 records" in capsys.readouterr().out
    for strategy in ("base", "cicle"):
        assert (out / "records" / record_filename("toy", 80, 0, strategy)).exists()
    assert (out / "run_manifest.json").exists()

    assert main(["report", *run_args]) == 0
    assert "report written:" in capsys.readouterr().out
    report_dir = out / "report"
    assert (report_dir / "report.json").exists()
    assert (report_dir / "cells.csv").exists()
    assert (report_dir / "curve_toy.csv").exists()
    payload = json.loads((report_dir / "report.json").read_text("utf-8"))
    assert "toy/80/cicle" in payload["per_cell"]


def test_prepare_missing_file_is_data_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["prepare", *base_args(tmp_path / "absent.jsonl", out)])
    assert rc == 3
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("error: data:")


def test_unknown_strategy_is_usage_error(tmp_path, capsys):
    data = write_toy(tmp_path)
    rc = main(["run", *base_args(data, tmp_path / "out"), "--strategies", "zero-shot"])
    assert rc == 2
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("error: usage:")
    assert "zero-shot" in lines[0]


def test_no_datasets_is_usage_error(tmp_path, capsys):
    rc = main(["run", "--output", str(tmp_path / "out")])
    assert rc == 2
    assert "no datasets" in error_lines(capsys)[0]


def test_run_before_prepare_mentions_prepare(tmp_path, capsys):
    data = write_toy(tmp_path)
    rc = main(["run", *base_args(data, tmp_path / "out"), "--strategies", "base"])
    assert rc == 3
    line = error_lines(capsys)[0]
    assert line.startswith("error: data:")
    assert "prepare" in line


def test_report_with_missing_cells_lists_files(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    assert main(["prepare", *base_args(data, out)]) == 0
    capsys.readouterr()
    rc = main(["report", *base_args(data, out), "--strategies", "base,cicle"])
    assert rc == 3
    line = error_lines(capsys)[0]
    assert "missing record files" in line
    assert record_filename("toy", 80, 0, "base") in line
    assert record_filename("toy", 80, 0, "cicle") in line


def test_base_only_run_makes_no_network_calls(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("network call attempted")

    monkeypatch.setattr("urllib.request.urlopen", boom)
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    assert main(["prepare", *base_args(data, out)]) == 0
    assert main(["run", *base_args(data, out), "--strategies", "base"]) == 0


def test_rerun_in_fresh_directory_is_byte_identical(tmp_path):
    data = write_toy(tmp_path)
    args = ["--sizes", "80", "--test-size", "60", "--strategies", "base,cicle",
            "--alpha", "0.1", "--jobs", "3"]
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main(["prepare", "--dataset", f"toy={data}", "--output", str(out), *args]) == 0
        assert main(["run", "--dataset", f"toy={data}", "--output", str(out), *args]) == 0
        assert main(["report", "--dataset", f"toy={data}", "--output", str(out), *args]) == 0
        outputs.append(out)

    first, second = outputs
    record_names = sorted(p.name for p in (first / "records").glob("*.jsonl"))
    assert record_names
    for name in record_names:
        assert (first / "records" / name).read_bytes() == (second / "records" / name).read_bytes()
    report_names = sorted(p.name for p in (first / "report").iterdir())
    for name in report_names:
        assert (first / "report" / name).read_bytes() == (second / "report" / name).read_bytes()


def test_config_file_with_flag_override(tmp_path):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "datasets": [{"name": "toy", "path": str(data)}],
        "output": str(out),
        "sizes": [80],
        "test_size": 60,
        "seed": 5,
        "alpha": 0.2,
        "k": 3,
        "strategies": ["base"],
    }), encoding="utf-8")

    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["run", "--config", str(config_path), "--k", "2"]) == 0

    manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
    assert manifest["config"]["k"] == 2
    assert manifest["config"]["alpha"] == 0.2
    assert manifest["config"]["seed"] == 5
    assert (out / "records" / record_filename("toy", 80, 5, "base")).exists()


def test_min_size_flag_skips_small_sizes(tmp_path):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = ["--dataset", f"toy={data}", "--output", str(out), "--sizes", "80,120",
            "--test-size", "60", "--strategies", "base", "--min-size", "toy=100"]
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    files = sorted(p.name for p in (out / "records").glob("*.jsonl"))
    assert files == [record_filename("toy", 120, 0, "base")]
    assert main(["report", *args]) == 0
    payload = json.loads((out / "report" / "report.json").read_text("utf-8"))
    assert list(payload["per_cell"]) == ["toy/120/base"]


def test_report_skips_the_sizes_run_skipped(tmp_path, caplog):
    data = write_toy(tmp_path, n=360)
    out = tmp_path / "out"
    args = ["--dataset", f"toy={data}", "--output", str(out), "--sizes", "100,1000",
            "--test-size", "60", "--strategies", "base"]
    assert main(["prepare", *args]) == 0  # a 300-item pool
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        assert main(["run", *args]) == 0
        assert main(["report", *args]) == 0
    skips = [rec.message for rec in caplog.records if "skipping" in rec.message]
    assert skips == ["skipping toy size 1000: pool has only 300 items"] * 2
    cells = (out / "report" / "cells.csv").read_text("utf-8").splitlines()
    assert [line.split(",")[1] for line in cells[1:]] == ["100"]


def test_bad_template_file_is_data_error(tmp_path, capsys):
    data = write_toy(tmp_path)
    template = tmp_path / "template.json"
    template.write_text('{"task_intro": "only {task}"}', encoding="utf-8")
    rc = main(["run", *base_args(data, tmp_path / "out"), "--template", str(template)])
    assert rc == 3
    assert "missing fields" in error_lines(capsys)[0]


def test_oracle_and_endpoint_conflict(tmp_path, capsys):
    data = write_toy(tmp_path)
    rc = main(["run", *base_args(data, tmp_path / "out"),
               "--oracle", "perfect", "--llm-endpoint", "http://example.test/v1"])
    assert rc == 2
    assert "mutually exclusive" in error_lines(capsys)[0]


def test_unknown_oracle_is_usage_error(tmp_path, capsys):
    data = write_toy(tmp_path)
    rc = main(["run", *base_args(data, tmp_path / "out"), "--oracle", "psychic"])
    assert rc == 2
    line = error_lines(capsys)[0]
    assert line.startswith("error: usage:")
    assert line.endswith("known oracles: majority, noisy, perfect")


@pytest.mark.parametrize("argv_extra,needle", [
    (["--sizes", "80,beta"], "--sizes"),
    (["--dataset", "nopath"], "NAME=VALUE"),
    (["--min-size", "ghost=100"], "unknown dataset"),
    (["--min-size", "toy=x"], "--min-size expects an integer, got 'x'"),
    (["--task", "nosuch=x"], "--task names unknown dataset 'nosuch'"),
    (["--dataset", "=x.jsonl"], "--dataset expects NAME=VALUE, got '=x.jsonl'"),
    (["--task", "toy="], "--task expects NAME=VALUE, got 'toy='"),
    # values of the right type that the configuration rejects
    (["--alpha", "2"], "command line: alpha must be in (0, 1), got 2.0"),
    (["--k", "0"], "command line: k must be >= 1"),
    (["--jobs", "0"], "command line: jobs must be >= 1"),
    (["--max-new-tokens", "0"], "command line.llm: max_new_tokens must be >= 1"),
    (["--sizes", "0"], "command line: sizes must be positive"),
    (["--strategies", "fewshot-dense"], "command line: unknown strategies: fewshot-dense"),
    (["--dataset", "d!=d.jsonl"], "command line: dataset name must match"),
    (["--min-size", "toy=-1"], "command line: min_size must be >= 0, got -1"),
    (["--strategies", "base,bogus"], "command line: unknown strategies: bogus"),
])
def test_malformed_flag_values(tmp_path, capsys, argv_extra, needle):
    data = write_toy(tmp_path)
    argv = ["run", "--dataset", f"toy={data}", "--output", str(tmp_path / "out"),
            *argv_extra]
    rc = main(argv)
    assert rc == 2
    [line] = error_lines(capsys)
    assert line.startswith("error: usage:") and needle in line


@pytest.mark.parametrize("file_alpha,flag_alpha,rc,prefix", [
    (0.1, "2", 2, "error: usage: command line: alpha"),  # the flag broke the config
    (2, "2", 3, "error: data: config ({config}): alpha"),  # the file is at fault too
    (2, "0.1", 0, None),  # a valid flag wins over the file's bad value
])
def test_a_rejected_value_names_the_flag_or_the_file(tmp_path, capsys, file_alpha,
                                                     flag_alpha, rc, prefix):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": file_alpha}), encoding="utf-8")
    args = base_args(write_toy(tmp_path), tmp_path / "out", "--config", str(config),
                     "--strategies", "base", "--alpha", flag_alpha)
    assert main(["prepare", *args]) == rc
    lines = error_lines(capsys)
    if prefix is None:
        assert lines == []
    else:
        [line] = lines
        assert line.startswith(prefix.format(config=config))


def test_a_config_naming_an_unknown_oracle_fails_every_command(tmp_path, capsys):
    out = tmp_path / "out"
    args = base_args(write_toy(tmp_path), out, "--strategies", "base")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"llm": {"endpoint": "psychic"}}), encoding="utf-8")
    capsys.readouterr()
    for command in ("prepare", "run", "report"):
        assert main([command, *args, "--config", str(config)]) == 3
        [line] = error_lines(capsys)
        assert line.startswith(f"error: data: config ({config}).llm: unknown oracle 'psychic'")


def test_task_flag_puts_its_phrase_into_every_prompt(tmp_path, monkeypatch):
    prompts = []

    def capture(prompt, meta, params):
        prompts.append(prompt)
        return meta.gold_label

    monkeypatch.setitem(ORACLES, "capture", capture)
    data = write_toy(tmp_path)
    args = base_args(data, tmp_path / "out", "--strategies", "fewshot-random")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args, "--oracle", "capture", "--task", "toy=topic labelling"]) == 0
    assert len(prompts) == 60
    assert all("for this task: topic labelling." in prompt for prompt in prompts)


def empty_dataset(tmp_path):
    data = tmp_path / "toy.jsonl"
    data.write_text("", encoding="utf-8")
    return ["prepare", *base_args(data, tmp_path / "out")]


def whole_dataset_as_test_split(tmp_path):
    return ["prepare", *base_args(write_toy(tmp_path), tmp_path / "out", "--test-size", "240")]


def edit_frozen_row(out, name, row, **fields):
    """Set ``fields`` in row ``row`` of the frozen split ``name`` and write the
    split's new sha256 into its manifest."""
    frozen = out / "data" / "toy"
    lines = (frozen / name).read_text(encoding="utf-8").splitlines(keepends=True)
    lines[row] = json.dumps({**json.loads(lines[row]), **fields}) + "\n"
    (frozen / name).write_text("".join(lines), encoding="utf-8")
    manifest = json.loads((frozen / "manifest.json").read_text(encoding="utf-8"))
    manifest["sha256"][name] = file_sha256(frozen / name)
    (frozen / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def frozen_label_outside_the_space(tmp_path):
    args = base_args(write_toy(tmp_path), tmp_path / "out", "--strategies", "base")
    assert main(["prepare", *args]) == 0
    edit_frozen_row(tmp_path / "out", "test.jsonl", 0, label="zulu")
    return ["run", *args]


def frozen_pool_label_outside_the_space(tmp_path):
    # few-shot cells sample the pool only: no test label and no classifier sees it
    args = base_args(write_toy(tmp_path), tmp_path / "out",
                     "--strategies", "fewshot-random,fewshot-sparse")
    assert main(["prepare", *args]) == 0
    edit_frozen_row(tmp_path / "out", "pool.jsonl", 0, id="odd-one", label="zzz-unknown")
    return ["run", *args]


def calibration_part_empty(tmp_path):
    # a 2-item subsample leaves int(0.2 * 2 + 0.5) = 0 items for calibration
    args = base_args(write_toy(tmp_path), tmp_path / "out")
    assert main(["prepare", *args]) == 0
    return ["run", *args, "--sizes", "2", "--strategies", "cicle"]


def config_without_datasets(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"datasets": []}), encoding="utf-8")
    return ["run", "--config", str(config)]


def dataset_with_format_xml(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"datasets": [{"name": "toy", "path": str(write_toy(tmp_path)),
                                                "fmt": "xml"}]}), encoding="utf-8")
    return ["prepare", "--config", str(config), "--output", str(tmp_path / "out")]


def second_row(fields):
    """A prepare over the toy dataset whose second row is ``{fields}``."""
    def setup(tmp_path):
        data = write_toy(tmp_path)
        lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = "{%s}\n" % fields
        data.write_text("".join(lines), encoding="utf-8")
        return ["prepare", *base_args(data, tmp_path / "out")]
    return setup


def datasets_not_a_list(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"datasets": {"name": "toy", "path": "toy.jsonl"}}),
                      encoding="utf-8")
    return ["run", "--config", str(config)]


@pytest.mark.parametrize("setup,needle", [
    (empty_dataset, "toy.jsonl: empty dataset"),
    (whole_dataset_as_test_split, "no items left for the pool after the test split"),
    (frozen_label_outside_the_space, "has label outside the label space"),
    (frozen_pool_label_outside_the_space,
     "frozen pool item 'odd-one' has label outside the label space"),
    (calibration_part_empty,
     "1 failed cell(s): toy/2: cell split produced an empty train or calibration part"),
    (datasets_not_a_list, ".datasets must be a list"),
    (config_without_datasets, "at least one dataset is required"),
    (dataset_with_format_xml, "unknown keys: fmt"),
    (second_row('"id": "r", "text": "t", "labels": 5'), "toy.jsonl:2: labels must be a list"),
    (second_row('"id": "r", "text": "t", "labels": "abc"'), "toy.jsonl:2: labels must be a list"),
    (second_row('"id": null, "text": "t", "label": "alpha"'), "toy.jsonl:2: empty id"),
    (second_row('"id": "", "text": "t", "label": "alpha"'), "toy.jsonl:2: empty id"),
    (second_row('"id": true, "text": "t", "label": "alpha"'),
     "toy.jsonl:2: id must be str or int"),
    (second_row('"id": "r", "text": 5, "label": "alpha"'), "toy.jsonl:2: text must be str"),
    (second_row('"id": "r", "text": "t", "label": {}'), "toy.jsonl:2: label must be str or int"),
    (second_row('"id": "r", "text": "t", "label": [null]'),
     "toy.jsonl:2: label must be str or int"),
], ids=["empty-dataset", "no-pool-left", "frozen-label-outside", "frozen-pool-label-outside",
        "calibration-part-empty", "datasets-not-a-list",
        "config-without-datasets", "dataset-format-xml", "row-labels-int", "row-labels-str",
        "row-id-null", "row-id-blank", "row-id-bool", "row-text-int", "row-label-object",
        "row-label-list-of-null"])
def test_a_data_error_exits_3_with_one_line(tmp_path, capsys, setup, needle):
    argv = setup(tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and needle in line
    assert not (tmp_path / "out" / "records").exists()  # no cell ran


@pytest.mark.parametrize("params", [
    {"default_accuracy": "high"},
    {"accuracy": [1]},
    {"seed": "x"},
    {"seed": True},
    {"rate": 0.5},
    {"accuracy": {"alpha": "high"}},
], ids=["default-accuracy-str", "accuracy-list", "seed-str", "seed-bool", "unknown-key",
        "accuracy-entry-str"])
def test_malformed_oracle_params_fail_before_any_cell(tmp_path, capsys, params):
    out = tmp_path / "out"
    args = base_args(write_toy(tmp_path), out, "--strategies", "base,cicle")
    assert main(["prepare", *args]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"llm": {"endpoint": "noisy", "oracle_params": params}}),
                      encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(config), *args]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and "oracle_params" in line
    assert not (out / "records").exists()


@pytest.mark.parametrize("section,body,needle", [
    ("llm", '{"endpoint": "http://127.0.0.1:9/v1", "timeout": 1e400, "max_retries": 0}',
     "got inf and 0.5"),
    ("llm", '{"endpoint": "http://127.0.0.1:9/v1", "timeout": 1e12, "max_retries": 0}',
     "got 1000000000000.0 and 0.5"),
], ids=["llm-timeout-inf", "llm-timeout-1e12"])
def test_an_unusable_number_in_a_config_fails_before_any_cell(tmp_path, capsys, section, body,
                                                               needle):
    # JSON text as written: Python's reader reads 1e400 as infinity
    out = tmp_path / "out"
    args = base_args(write_toy(tmp_path), out, "--strategies", "base,cicle")
    assert main(["prepare", *args]) == 0
    config = tmp_path / "config.json"
    config.write_text('{"%s": %s}' % (section, body), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(config), *args]) == 3
    [line] = error_lines(capsys)
    assert line.startswith(f"error: data: config ({config}).{section}: ") and needle in line
    assert not (out / "records").exists()


def test_config_not_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text("{nope", encoding="utf-8")
    rc = main(["run", "--config", str(bad)])
    assert rc == 3
    assert "not valid JSON" in error_lines(capsys)[0]


@pytest.mark.parametrize("section,key", [
    ("llm", "concurrency_limit"),
    ("top", "alpah"),
    ("template", "intro"),
    ("datasets", "fmtt"),
    ("top", "k"),  # a known key with a value of the wrong type
    # keys of removed settings
    ("top", "train"),
    ("top", "calib_fraction"),
    ("llm", "deterministic"),
    ("datasets", "fmt"),
])
def test_config_unknown_key_is_data_error(tmp_path, capsys, section, key):
    config_path = tmp_path / "config.json"
    value = "two" if key == "k" else 4
    dataset = {"name": "toy", "path": str(write_toy(tmp_path))}
    body = {"datasets": [dataset]}
    if section == "top":
        body[key] = value
    elif section == "datasets":
        dataset[key] = value
    elif section == "template":
        body[section] = {"task_intro": "{task}", "example_format": "{text} {label}",
                         "query_format": "{text}", "instruction": "", key: value}
    else:
        body[section] = {key: value}
    config_path.write_text(json.dumps(body), encoding="utf-8")
    rc = main(["run", "--config", str(config_path), "--output", str(tmp_path / "out")])
    assert rc == 3
    lines = error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith("error: data:") and key in lines[0]


@pytest.mark.parametrize("sections", [
    {"llm": None},
    {"llm": {}},
    {},
], ids=["null", "empty", "absent"])
def test_null_or_empty_sections_take_the_defaults(tmp_path, sections):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"datasets": [{"name": "toy", "path": "toy.jsonl"}],
                                       **sections}), encoding="utf-8")
    config = build_run_config(build_parser().parse_args(["run", "--config", str(config_path)]))
    assert config.llm == LlmConfig() and config.llm.endpoint == "perfect"


@pytest.mark.parametrize("removed,needle", [
    ({"embedding": {"endpoint": "http://127.0.0.1:9/embed"}}, "unknown keys: embedding"),
    ({"strategies": ["base", "fewshot-dense"]}, "unknown strategies: fewshot-dense"),
], ids=["embedding-section", "fewshot-dense"])
def test_a_config_naming_the_removed_dense_baseline_is_data_error(tmp_path, capsys, removed,
                                                                   needle):
    config_path = tmp_path / "config.json"
    dataset = {"name": "toy", "path": str(write_toy(tmp_path))}
    config_path.write_text(json.dumps({"datasets": [dataset], "output": str(tmp_path / "out"),
                                       **removed}), encoding="utf-8")
    assert main(["prepare", "--config", str(config_path)]) == 3
    [line] = error_lines(capsys)
    assert line.startswith(f"error: data: config ({config_path})") and needle in line
    assert not (tmp_path / "out").exists()


def test_changed_frozen_split_is_data_error(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "base")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    with (out / "data" / "toy" / "test.jsonl").open("a", encoding="utf-8") as fh:
        fh.write('{"id": "extra", "text": "one more row", "label": "alpha"}\n')
    capsys.readouterr()
    for command in ("run", "report"):
        assert main([command, *args]) == 3
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: data:")
        assert "test.jsonl" in lines[0] and "sha256" in lines[0]


@pytest.mark.parametrize("name,row", [("test.jsonl", 0), ("pool.jsonl", 1)],
                         ids=["test-id-in-pool", "pool-id-repeats"])
def test_a_repeated_frozen_id_is_data_error(tmp_path, capsys, name, row):
    # a row of a frozen split takes the id of the pool's first row
    out = tmp_path / "out"
    args = base_args(write_toy(tmp_path), out, "--strategies", "base,fewshot-random")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    pool = (out / "data" / "toy" / "pool.jsonl").read_text(encoding="utf-8")
    twin = json.loads(pool.splitlines()[0])["id"]
    edit_frozen_row(out, name, row, id=twin)
    capsys.readouterr()
    for command in ("run", "report"):
        assert main([command, *args]) == 3
        [line] = error_lines(capsys)
        assert line.startswith("error: data:") and f"duplicate id: {twin!r}" in line


def test_malformed_record_names_file_and_line(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "base")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    path = out / "records" / record_filename("toy", 80, 0, "base")
    for bad in ("[1, 2]", '{"item_id": "x", "strategy": "base", "gold_label": "g", '
                          '"final_label": 0}',
                '{"item_id": "x", "strategy": "base", "gold_label": 1e400, "final_label": 0}'):
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = bad
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # the manifest blesses the edit, so report decodes the file
        manifest_path = out / "run_manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["records"][path.name] = file_sha256(path)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", *args]) == 3
        [line] = error_lines(capsys)
        assert line.startswith("error: data:") and "toy_80_0_base.jsonl:4:" in line


def prepared_and_run(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "base,cicle")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    capsys.readouterr()
    return out, args, out / "records" / record_filename("toy", 80, 0, "cicle")


def cut_to(path, keep):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(keep(lines)), encoding="utf-8")


def truncate(lines):
    return lines[:-6]


def swap_first_two(lines):
    return lines[1:2] + lines[:1] + lines[2:]


@pytest.mark.parametrize("edit,then,needle", [
    (truncate, None, "does not match the sha256 in run_manifest.json"),
    (truncate, "rerun", None),
    (swap_first_two, "rerun", None),
    (truncate, "rehash", "holds 54 records; the frozen test set has 60"),
    (swap_first_two, "rehash", "not in frozen test order"),
], ids=["truncated", "truncated-then-reused", "reordered-then-reused",
        "truncated-then-rehashed", "reordered-then-rehashed"])
def test_report_rejects_an_edited_record_file(tmp_path, capsys, edit, then, needle):
    out, args, path = prepared_and_run(tmp_path, capsys)
    original = path.read_bytes()
    cut_to(path, edit)
    if then == "rerun":
        # the edited file no longer hashes to its manifest entry: run recomputes it
        assert main(["run", *args]) == 0
        assert path.read_bytes() == original
        assert main(["report", *args]) == 0
        return
    if then == "rehash":
        # the manifest blesses the edit, so only report's content checks catch it
        manifest_path = out / "run_manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["records"][path.name] = file_sha256(path)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["report", *args]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and path.name in line and needle in line
    assert not (out / "report" / "report.json").exists()


def edit_first_final_label(text):
    return re.sub(r'("final_label": ?)(\d+)', lambda m: m[1] + str((int(m[2]) + 1) % 4),
                  text, count=1)


STALE_EDITS = {
    "not-json": lambda text: "{nope",
    "empty": lambda text: "",
    "truncated": lambda text: "".join(truncate(text.splitlines(keepends=True))),
    "final-label-edited": edit_first_final_label,
}


@pytest.mark.parametrize("edit", STALE_EDITS)
def test_report_never_decodes_a_stale_record_file(tmp_path, capsys, monkeypatch, edit):
    # report judges a file's bytes by run's reuse rule before it decodes them, so
    # every edit the manifest does not bless gets one error, whatever it broke
    out, args, path = prepared_and_run(tmp_path, capsys)
    original = path.read_text(encoding="utf-8")
    edited = STALE_EDITS[edit](original)
    assert edited != original
    path.write_text(edited, encoding="utf-8")
    read_records = cli.read_records

    def refuse_the_stale_file(p):
        if Path(p) == path:
            raise AssertionError(f"report decoded the stale file {path.name}")
        return read_records(p)

    monkeypatch.setattr(cli, "read_records", refuse_the_stale_file)
    assert main(["report", *args]) == 3
    [line] = error_lines(capsys)
    assert line == f"error: data: {path.name} does not match the sha256 in run_manifest.json"


def test_report_rejects_a_file_the_manifest_does_not_list(tmp_path, capsys):
    out, args, path = prepared_and_run(tmp_path, capsys)
    manifest_path = out / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["records"][path.name]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["report", *args]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and f"{path.name} has no entry" in line
    manifest_path.unlink()
    assert main(["report", *args]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and "run_manifest.json not found" in line


def test_report_rejects_a_file_written_under_another_configuration(tmp_path, capsys):
    out, args, _ = prepared_and_run(tmp_path, capsys)
    assert main(["report", *args, "--alpha", "0.3"]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and "another configuration" in line
    assert record_filename("toy", 80, 0, "base") in line
    assert not (out / "report" / "report.json").exists()


def drop_manifest_entry(out, path, args):
    manifest_path = out / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["records"][path.name]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def edit_bytes(out, path, args):
    cut_to(path, truncate)


def rerun_at_another_alpha(out, path, args):
    assert main(["run", *args, "--alpha", "0.3"]) == 0


@pytest.mark.parametrize("make_stale,reason", [
    (drop_manifest_entry, "has no entry in run_manifest.json"),
    (edit_bytes, "does not match the sha256 in run_manifest.json"),
    (rerun_at_another_alpha, "was written under another configuration"),
], ids=["manifest-entry-deleted", "bytes-edited", "alpha-changed"])
def test_report_rejects_exactly_the_files_run_recomputes(tmp_path, capsys, caplog, make_stale,
                                                         reason):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "cicle")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    path = out / "records" / record_filename("toy", 80, 0, "cicle")
    original = path.read_bytes()
    make_stale(out, path, args)
    capsys.readouterr()
    assert main(["report", *args]) == 3
    assert error_lines(capsys) == [f"error: data: {path.name} {reason}"]
    caplog.clear()
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        assert main(["run", *args]) == 0
    assert [rec.message for rec in caplog.records] == [
        f"cell file {path.name} {reason}; recomputing it"]
    assert path.read_bytes() == original
    assert main(["report", *args]) == 0


def test_run_with_another_test_size_reuses_the_files(tmp_path, capsys, caplog, monkeypatch):
    # run reads the frozen split, so --test-size only matters to prepare
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "base,cicle")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    before = {p.name: p.read_bytes() for p in (out / "records").iterdir()}

    def no_writes(records, path):
        raise AssertionError(f"run rewrote {path}")

    monkeypatch.setattr(pipeline, "write_records", no_writes)
    other = [a if a != "60" else "50" for a in args]
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        assert main(["run", *other]) == 0
    assert not caplog.records
    assert {p.name: p.read_bytes() for p in (out / "records").iterdir()} == before
    assert sorted(before) == [record_filename("toy", 80, 0, s) for s in ("base", "cicle")]
    assert main(["report", *other]) == 0


def test_run_with_other_retry_settings_reuses_every_file(tmp_path, caplog, monkeypatch):
    # a call that still fails after its retries fails its (cell, strategy), which
    # writes no file, so timeout, max_retries and backoff are not keyed
    calls = []
    noisy = ORACLES["noisy"]

    def counting(prompt, meta, params):
        calls.append(prompt)
        return noisy(prompt, meta, params)

    monkeypatch.setitem(ORACLES, "counting", counting)
    out = tmp_path / "out"
    args = base_args(write_toy(tmp_path), out, "--oracle", "counting")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    assert calls
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
              for p in (out / "records").iterdir()}
    config = tmp_path / "retries.json"
    config.write_text(json.dumps({"llm": {"timeout": 5.0, "max_retries": 0, "backoff": 0.0}}),
                      encoding="utf-8")
    calls.clear()
    with caplog.at_level("INFO", logger="cicle.pipeline"):
        assert main(["run", *args, "--config", str(config)]) == 0
    assert calls == []
    assert sorted(rec.message for rec in caplog.records) == [
        f"cell file matches run_manifest.json, reusing: {name}" for name in sorted(before)]
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in (out / "records").iterdir()} == before
    assert sorted(before) == sorted(record_filename("toy", 80, 0, s) for s in STRATEGIES)


def test_runs_over_strategy_subsets_add_up_to_one_manifest(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    assert main(["prepare", *base_args(data, out)]) == 0
    for strategy in ("base", "cicle"):
        assert main(["run", *base_args(data, out, "--strategies", strategy)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["records"]) == ["toy_80_0_base.jsonl", "toy_80_0_cicle.jsonl"]
    assert main(["report", *base_args(data, out, "--strategies", "base,cicle")]) == 0


def test_runs_over_dataset_subsets_add_up_to_one_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    common = ["--output", str(out), "--sizes", "80", "--test-size", "60", "--strategies", "base"]
    dataset = {name: ["--dataset", f"{name}={write_toy(tmp_path, name=name)}"]
               for name in ("a", "b")}
    assert main(["prepare", *dataset["a"], *dataset["b"], *common]) == 0
    for name in ("a", "b"):
        assert main(["run", *dataset[name], *common]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["records"]) == ["a_80_0_base.jsonl", "b_80_0_base.jsonl"]
    assert manifest["datasets"] == {name: load_frozen(out / "data" / name)[3]["sha256"]
                                    for name in ("a", "b")}
    manifest["datasets"]["a"] = ["not", "a", "table"]
    (out / "run_manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", *dataset["b"], *common]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and "run_manifest.json datasets" in line


def test_failed_cell_fails_the_run_after_the_other_cells(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = ["--dataset", f"toy={data}", "--output", str(out), "--sizes", "2,100",
            "--test-size", "60", "--strategies", "base,cicle"]
    assert main(["prepare", *args]) == 0
    capsys.readouterr()
    assert main(["run", *args]) == 3
    captured = capsys.readouterr()
    assert "run complete" not in captured.out
    [line] = [l for l in captured.err.splitlines() if l.startswith("error:")]
    assert line.startswith("error: data: 1 failed cell(s): toy/2: cell split produced an empty")
    for strategy in ("base", "cicle"):
        assert (out / "records" / record_filename("toy", 100, 0, strategy)).exists()
        assert not (out / "records" / record_filename("toy", 2, 0, strategy)).exists()
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["records"]) == ["toy_100_0_base.jsonl", "toy_100_0_cicle.jsonl"]


def endpoint_args(tmp_path, url, sizes, strategies):
    """Flags for the toy corpus against ``url``, one attempt per call."""
    config = tmp_path / "llm.json"
    config.write_text(json.dumps({"llm": {"endpoint": url, "max_retries": 0}}), encoding="utf-8")
    return ["--dataset", f"toy={write_toy(tmp_path)}", "--output", str(tmp_path / "out"),
            "--sizes", sizes, "--test-size", "60", "--strategies", strategies,
            "--config", str(config)]


def test_transport_failure_in_a_cell_exits_4(tmp_path, capsys, caplog, serve):
    url = serve(scripted_chat_app([(500, ""), (200, "alpha")]))
    args = endpoint_args(tmp_path, url, "100", "base,cicle")
    records = tmp_path / "out" / "records"
    base, cicle = (record_filename("toy", 100, 0, s) for s in ("base", "cicle"))
    assert main(["prepare", *args]) == 0
    capsys.readouterr()
    assert main(["run", *args]) == 4
    assert error_lines(capsys) == ["error: transport: 1 failed cell(s): toy/100/cicle: "
                                   "completion endpoint failed after 1 attempts (server error 500)"]
    assert (records / base).exists() and not (records / cicle).exists()
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["records"]) == sorted(manifest["keys"]) == [base]

    assert main(["report", *args]) == 3
    assert error_lines(capsys) == [f"error: data: missing record files: {cicle}"]

    caplog.clear()
    with caplog.at_level("INFO", logger="cicle.pipeline"):
        assert main(["run", *args]) == 0
    assert [rec.message for rec in caplog.records if "reusing" in rec.message] == [
        f"cell file matches run_manifest.json, reusing: {base}"]
    assert (records / cicle).exists()


def test_a_serial_run_stops_each_cell_at_its_first_failed_call(tmp_path, capsys, serve):
    calls = []
    url = serve(scripted_chat_app([(500, "")], calls))
    args = endpoint_args(tmp_path, url, "80,120", "base,cicle,fewshot-random,fewshot-sparse")
    assert main(["prepare", *args]) == 0
    capsys.readouterr()
    assert main(["run", *args, "--jobs", "1"]) == 4
    [line] = error_lines(capsys)
    failed = re.findall(r"toy/\d+/[a-z-]+(?=: )", line)
    assert failed == [f"toy/{size}/{s}" for size in (80, 120)
                      for s in ("cicle", "fewshot-random", "fewshot-sparse")]
    assert len(calls) == len(failed)


def test_a_failed_run_does_not_depend_on_jobs(tmp_path, capsys, serve):
    url = serve(scripted_chat_app([(500, "")]))
    runs = {}
    for jobs in (1, 3):
        base = tmp_path / f"jobs{jobs}"
        base.mkdir()
        args = endpoint_args(base, url, "80,120", "base,cicle,fewshot-sparse")
        assert main(["prepare", *args]) == 0
        capsys.readouterr()
        assert main(["run", *args, "--jobs", str(jobs)]) == 4
        [line] = error_lines(capsys)
        files = {p.name: p.read_bytes() for p in (base / "out" / "records").glob("*.jsonl")}
        manifest = json.loads((base / "out" / "run_manifest.json").read_text(encoding="utf-8"))
        runs[jobs] = line, files, {t: manifest[t] for t in ("records", "keys", "datasets")}
    assert runs[1] == runs[3]
    line, files, tables = runs[1]
    assert line.startswith("error: transport: ")
    assert set(files) == set(tables["records"])
    assert {"toy_80_0_base.jsonl", "toy_120_0_base.jsonl"} <= set(files)


def drop_required(name, text):
    # a record file is JSONL: only its first record loses the field
    head, sep, tail = text.partition("\n") if name == "record" else (text, "", "")
    obj = json.loads(head)
    if name == "config":
        del obj["datasets"][0]["path"]
    else:
        del obj[{"frozen-manifest": "labels", "run-manifest": "records", "record": "final_label",
                 "template": "instruction"}[name]]
    return json.dumps(obj) + sep + tail


def sha256_list(name, text):
    return json.dumps({**json.loads(text), "sha256": []})


CORRUPTIONS = {
    "empty": lambda name, text: "",
    "not-json": lambda name, text: "{nope",
    "list": lambda name, text: "[]",
    "null": lambda name, text: "null",
    "missing-field": drop_required,
}
READ_BACK = ("frozen-manifest", "run-manifest", "record", "config", "template")


@pytest.mark.parametrize("name,corruption", [
    *((name, corruption) for name in READ_BACK for corruption in CORRUPTIONS),
    ("frozen-manifest", "sha256-list"),
])
def test_a_corrupt_file_read_back_fails_cleanly_naming_it(tmp_path, capsys, name, corruption):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    template = tmp_path / "template.json"
    template.write_text(json.dumps({"task_intro": "{task}", "example_format": "{text} {label}",
                                    "query_format": "{text}", "instruction": ""}),
                        encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"datasets": [{"name": "toy", "path": str(data)}],
                                  "output": str(out), "sizes": [80], "test_size": 60,
                                  "strategies": ["base"], "template": str(template)}),
                      encoding="utf-8")
    args = ["--config", str(config)]
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    path = {"frozen-manifest": out / "data" / "toy" / "manifest.json",
            "run-manifest": out / "run_manifest.json",
            "record": out / "records" / record_filename("toy", 80, 0, "base"),
            "config": config, "template": template}[name]
    original = path.read_text(encoding="utf-8")
    corrupt = {**CORRUPTIONS, "sha256-list": sha256_list}[corruption]
    path.write_text(corrupt(name, original), encoding="utf-8")
    capsys.readouterr()
    # a record file that no longer matches its manifest entry is recomputed by run
    commands = ("report",) if name == "record" else ("run", "report")
    for command in commands:
        assert main([command, *args]) == 3
        [line] = error_lines(capsys)
        assert line.startswith("error: data:")
        assert (path.name if name == "record" else str(path)) in line
    if name == "record":
        assert main(["run", *args]) == 0
        assert path.read_text(encoding="utf-8") == original


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(module, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", ["cicle", "cicle.cli"])
def test_python_dash_m_entry_points(module):
    helped = run_module(module, "--help")
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: cicle")
    assert "prepare" in helped.stdout and "report" in helped.stdout
    unknown = run_module(module, "frobnicate")
    assert unknown.returncode == 2
    assert "invalid choice" in unknown.stderr


def test_csv_dataset_roundtrip(tmp_path, capsys):
    items = make_items(240, n_classes=4, seed=0)
    path = tmp_path / "toy.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        import csv

        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for item in items:
            writer.writerow([item.text, item.label])
    out = tmp_path / "out"
    assert main(["prepare", "--dataset", f"toy={path}", "--output", str(out),
                 "--sizes", "80", "--test-size", "60"]) == 0
    assert "prepared toy: pool=180 test=60 classes=4" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_dataset_saved_with_a_byte_order_mark_prepares_the_same_splits(tmp_path, fmt):
    # Excel's "CSV UTF-8" starts the file with U+FEFF
    items = make_items(240, n_classes=4, seed=0, overlap=0.75)
    if fmt == "csv":
        text = "text,label\n" + "".join(f"{item.text},{item.label}\n" for item in items)
    else:
        text = write_toy(tmp_path).read_text(encoding="utf-8")
    frozen = []
    for bom in ("", "\ufeff"):
        path = tmp_path / f"bom{len(bom)}.{fmt}"
        path.write_text(bom + text, encoding="utf-8")
        out = tmp_path / f"out{len(bom)}"
        assert main(["prepare", "--dataset", f"toy={path}", "--output", str(out),
                     "--test-size", "60"]) == 0
        frozen.append([(out / "data" / "toy" / name).read_bytes()
                       for name in ("pool.jsonl", "test.jsonl", "manifest.json")])
    assert frozen[0] == frozen[1]


def test_a_config_saved_with_a_byte_order_mark_is_read(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text("\ufeff" + json.dumps({
        "datasets": [{"name": "toy", "path": str(write_toy(tmp_path))}],
        "output": str(tmp_path / "out"), "test_size": 60}), encoding="utf-8")
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert load_frozen(tmp_path / "out" / "data" / "toy")[3]["test_size"] == 60
