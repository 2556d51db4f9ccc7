"""The benchmark's tracer must find every name it wraps, and its copies of the
program's constants must match the program.

``perfbench/spans.py`` wraps cicle's functions by name, in the namespaces that
call them (mostly ``cicle.pipeline``). A name that stops being bound there
makes every traced benchmark run fail. This runs a small traced
prepare/run/report through ``perfbench/child.py`` and checks the tracer's own
accounting. ``perfbench/run.py`` keeps its own α, calibration share and
conformal rank, from which it derives every coverage floor it checks.
"""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from cicle import conformal, pipeline
from cicle.corpus import stratified_split, write_jsonl

from conftest import make_items

ROOT = Path(__file__).resolve().parents[1]


def test_traced_run_finds_every_wrapped_name(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(make_items(400, overlap=0.6), corpus)
    out = tmp_path / "out"
    args = ["--dataset", f"syn={corpus}", "--output", str(out), "--test-size", "100",
            "--sizes", "80,160", "--strategies", "base,fewshot-random,fewshot-sparse,cicle",
            "--oracle", "noisy", "--jobs", "2"]
    spec = {
        "src": str(ROOT / "src"),
        "steps": [{"name": name, "argv": [name, *args]} for name in ("prepare", "run", "report")],
        "trace": True,
        "spans": str(tmp_path / "spans.jsonl"),
        "result": str(tmp_path / "result.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = ROOT / "perfbench" / "child.py"
    proc = subprocess.run([sys.executable, "-B", str(child), str(spec_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert [step["exit"] for step in result["steps"]] == [0, 0, 0]
    accounting = result["accounting"]
    assert accounting["missing_wrappers"] == []
    assert accounting["run_layers_outside_run"] == []
    prompted = sum(json.loads(line)["prompt_stats"] is not None
                   for path in (out / "records").glob("*.jsonl")
                   for line in path.read_text(encoding="utf-8").splitlines())
    assert prompted > 0
    assert result["layers"]["llm_client.complete_calls"] == prompted


def test_the_benchmark_copies_of_program_constants_match_the_program(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    [alpha] = [f.default for f in dataclasses.fields(pipeline.RunConfig) if f.name == "alpha"]
    assert bench.ALPHA == alpha
    assert bench.CALIB_FRACTION == pipeline.CALIB_FRACTION
    for a in (0.01, 0.05, 0.1, 0.2, 0.5):
        for n in range(1, 2001):
            assert bench.quantile_rank(n, a) == conformal.quantile_rank(n, a), (n, a)
    sizes = sorted({size for w in bench.WORKLOADS.values() for size in w.sizes})
    for size in sizes:
        split = stratified_split(make_items(size, n_classes=6), pipeline.CALIB_FRACTION, 0)
        assert int(bench.CALIB_FRACTION * size + 0.5) == len(split.calibration), size
