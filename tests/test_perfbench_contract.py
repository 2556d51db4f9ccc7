"""The benchmark's tracer must find every name it wraps.

``perfbench/spans.py`` wraps cicle's functions by name, in the namespaces that
call them (mostly ``cicle.pipeline``). A name that stops being bound there
makes every traced benchmark run fail. This runs a small traced
prepare/run/report through ``perfbench/child.py`` and checks the tracer's own
accounting.
"""

import json
import subprocess
import sys
from pathlib import Path

from cicle.corpus import write_jsonl

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
