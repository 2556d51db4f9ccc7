"""Benchmark for the cicle toolkit: end-to-end cost of prepare -> run -> report.

    python3 perfbench/run.py --workload grid-oracle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
The benchmark generates its corpus from --seed, hands cicle only the JSONL
file, and drives the public CLI (``cicle.cli.main``) in child interpreters:

1. Set-up, repeated SETUP_REPEATS times into fresh directories: generate the
   corpus and ``prepare`` it. ``setup_s`` is the median.
2. Timed passes, repeated until --seconds have gone by (at least one): ``run``
   then ``report``. Each pass starts from a fresh output directory holding only
   the prepared data, because cicle reuses any record file it finds by name.
   Timing metrics are medians over the passes.
3. With --trace 1, one more pass runs with spans.Tracer installed and the
   per-layer metrics are printed instead of the end-to-end ones.

Every pass is checked: exit codes 0, expected files present, test_size records
per cell, no record with ``error`` set, the same digest of (item, strategy,
final label, conformal-set classes) in every pass and in the traced pass,
conformal coverage of each cicle cell at or above a beta-binomial lower bound
for 1-alpha, and LLM completions counted three ways (stub, records, tracer)
agreeing. The traced pass also checks every cicle record's conformal set
against the cell's calibrated threshold. The last stdout line is one JSON object; the exit code is 1 when a
check failed and 2 when the checkout holds no program to benchmark.

Workloads, their parameters and why each was chosen are in WORKLOADS below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from scipy.stats import betabinom

from gencorpus import CorpusParams, generate, write_jsonl
from spans import LAYER_UNITS

HERE = Path(__file__).resolve().parent
DATASET = "syn"
ALPHA = 0.05           # cicle's default miscoverage level; the runs do not override it
CALIB_FRACTION = 0.2   # cicle's default calibration share of a subsample
RUN_SEED = 0           # cicle's own --seed stays at its default; --seed drives the corpus
SETUP_REPEATS = 5
COVERAGE_TAIL = 1e-6   # chance that a correct conformal cell fails the coverage check
DEADLINE_S = 170       # a run ends, checks failed, before the 180 s a run may take


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusParams
    sizes: tuple[int, ...]
    strategies: tuple[str, ...]
    test_size: int
    jobs: int = 1
    stub: bool = False    # a chat-completions stub process instead of the noisy oracle


# Both corpora use the CorpusParams defaults: 6 classes, 2,000 shared and
# 2,000-per-class Zipf(0.8) tokens, 65% of each 12-30 token document from the
# shared vocabulary. Tuned so that the cicle bypass rate is about 0 at size
# 100, 0.5-0.8 at 500 and about 1 at 5,000: the gate sees every regime, and
# few-shot prompts stay long (about 330 tokens).
WORKLOADS = {w.name: w for w in (
    # The roadmap grid. CPU-bound in selection, vectorize, classifier and
    # prompting; the oracle costs almost nothing, and the spread of bypass
    # rates over the sizes tests the gate itself.
    Workload(
        name="grid-oracle",
        corpus=CorpusParams(n_docs=8000),
        sizes=(100, 500, 1000, 2000, 5000),
        strategies=("base", "fewshot-random", "fewshot-sparse", "cicle"),
        test_size=1000,
    ),
    # Round trips dominate: about 1,100 completions against a stub with a
    # 10 ms service time, two at a time; selection takes under a fifth of the
    # run. Sizes 1000 and 2000 rather than 100 and 500: with 20 or 100
    # calibration items the conformal threshold, and with it the bypass rate
    # and prompt sizes, moved by 15-40% from one corpus seed to the next.
    Workload(
        name="llm-http",
        corpus=CorpusParams(n_docs=3000),
        sizes=(1000, 2000),
        strategies=("cicle", "fewshot-sparse"),
        test_size=500,
        jobs=2,
        stub=True,
    ),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
    "llm_calls": "count", "llm_prompt_tokens": "tokens", "cicle_bypass_rate": "share",
    "prompt_reduction_pct": "%", "shot_reduction_pct": "%", "macro_f1_cicle": "score",
    "coverage_min_cicle": "share",
}


class CheckFailed(Exception):
    """An output of the program is wrong; the benchmark result is not valid."""


def quantile_rank(n: int, alpha: float) -> int:
    """ceil((n+1)(1-alpha)), the rank cicle's split conformal threshold uses."""
    v = (n + 1) * (1.0 - alpha)
    return math.ceil(v - v * 1e-12)


def coverage_floor(n_cal: int, n_test: int) -> float:
    """Lowest empirical coverage a valid split-conformal cell shows, but with
    probability COVERAGE_TAIL.

    Given its calibration set, a cell covers each test item with probability
    C ~ Beta(r, n_cal + 1 - r), r = ceil((n_cal+1)(1-alpha)) (Angelopoulos and
    Bates, arXiv 2107.07511, section 3.2), so the covered count over n_test
    items is beta-binomial. When r > n_cal the threshold saturates and every
    set holds every class.
    """
    r = quantile_rank(n_cal, ALPHA)
    if r > n_cal:
        return 1.0
    return float(betabinom.ppf(COVERAGE_TAIL, n_test, r, n_cal + 1 - r)) / n_test


def gate_problems(size: int, records: list[dict], q_hat: float) -> list[str]:
    """Check each cicle record against the split-conformal rule at threshold q_hat.

    The set must be every class c with 1 - p(c) <= q_hat, by descending
    probability with ties by class index, or the argmax singleton flagged
    forced_fallback when no class clears the threshold. A record is bypassed
    exactly when its set is a singleton, and then takes that class as label.
    """
    wrong = []
    for r in records:
        probs = r["base_probs"]
        order = sorted(range(len(probs)), key=lambda c: (-probs[c], c))
        kept = [c for c in order if 1.0 - probs[c] <= q_hat]
        expected = {"candidates": [[c, probs[c]] for c in kept or order[:1]],
                    "forced_fallback": not kept}
        singleton = len(expected["candidates"]) == 1
        if (r["conformal_set"] != expected or bool(r["bypassed"]) != singleton
                or (singleton and r["final_label"] != expected["candidates"][0][0])):
            wrong.append(r["item_id"])
    if not wrong:
        return []
    return [f"size {size}: {len(wrong)} cicle records break the conformal rule at "
            f"q_hat={q_hat!r} (first: {wrong[0]})"]


def record_path(out: Path, size: int, strategy: str) -> Path:
    return out / "records" / f"{DATASET}_{size}_{RUN_SEED}_{strategy}.jsonl"


def git_commit(root: Path) -> str:
    # only a checkout's own .git: git would otherwise search the parent directories
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Stub:
    """The chat-completions stub as a child process, stopped by close()."""

    def __init__(self, log: Path):
        self._log = log.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "listening":
            self.close()
            raise CheckFailed("the completion stub did not start")
        self.base = f"http://127.0.0.1:{int(line[1])}"
        self.endpoint = self.base + "/v1/chat/completions"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def served(self) -> int:
        with self._opener.open(self.base + "/stats", timeout=10) as resp:
            return int(json.load(resp)["requests"])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.deadline = time.monotonic() + DEADLINE_S
        self.root = root
        self.w = workload
        self.seed = seed
        self.work = work
        self.stub: Stub | None = None
        self.versions: dict = {}
        self.calls = 0

    # -- running cicle -----------------------------------------------------

    def cli_args(self, out: Path) -> list[str]:
        w = self.w
        args = ["--dataset", f"{DATASET}={self.work / 'corpus.jsonl'}", "--output", str(out),
                "--test-size", str(w.test_size), "--sizes", ",".join(map(str, w.sizes)),
                "--strategies", ",".join(w.strategies), "--jobs", str(w.jobs)]
        if self.stub is not None:
            return args + ["--llm-endpoint", self.stub.endpoint]
        return args + ["--oracle", "noisy"]

    def child(self, steps: list[tuple[str, Path]], trace: bool = False) -> dict:
        """Run cicle commands in a fresh interpreter; returns its result file."""
        self.calls += 1
        tag = f"child{self.calls}"
        spec = {
            "src": str(self.root / "src"),
            "steps": [{"name": name, "argv": [name] + self.cli_args(out)}
                      for name, out in steps],
            "trace": trace,
            "spans": str(self.work / f"{tag}.spans.jsonl"),
            "result": str(self.work / f"{tag}.result.json"),
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")
        env.pop("CICLE_API_KEY", None)
        with (self.work / f"{tag}.log").open("w") as log:
            try:
                code = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path)], cwd=self.root,
                    env=env, stdout=log, stderr=log,
                    timeout=max(1.0, self.deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                raise CheckFailed(f"{tag} ran past the {DEADLINE_S} s deadline") from None
        if code != 0:
            raise CheckFailed(f"benchmark child exited {code}; see {tag}.log")
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        self.versions = result["versions"]
        return result

    # -- set-up ------------------------------------------------------------

    def setup(self) -> tuple[list[float], Path]:
        times: list[float] = []
        for rep in range(SETUP_REPEATS):
            out = self.work / f"setup{rep}"
            start = time.perf_counter()
            write_jsonl(generate(self.w.corpus, self.seed), self.work / "corpus.jsonl")
            gen_s = time.perf_counter() - start
            done = self.child([("prepare", out)])["steps"]
            if [s["exit"] for s in done] != [0]:
                raise CheckFailed(f"set-up command failed: {done}")
            times.append(gen_s + done[0]["seconds"])
            if rep:
                shutil.rmtree(self.work / f"setup{rep - 1}")
        return times, out

    # -- one pass ----------------------------------------------------------

    def run_pass(self, prepared: Path, index: int, trace: bool = False) -> dict:
        out = self.work / f"pass{index}"
        shutil.copytree(prepared / "data", out / "data")
        stub_before = self.stub.served() if self.stub else 0
        steps = [("prepare", self.work / f"trace-prepare{index}")] if trace else []
        result = self.child(steps + [("run", out), ("report", out)], trace)
        stub_calls = self.stub.served() - stub_before if self.stub else None
        expected = len(self.w.sizes) * len(self.w.strategies) * self.w.test_size
        try:
            return self.evaluate(out, result, expected, stub_calls, trace)
        except (KeyError, TypeError, ValueError) as exc:
            return {"attempted": expected, "failed": expected,
                    "problems": [f"malformed output: {exc!r}"]}
        finally:
            shutil.rmtree(out)

    def evaluate(self, out: Path, result: dict, expected: int, stub_calls,
                 trace: bool) -> dict:
        w = self.w
        steps = {s["name"]: s for s in result["steps"]}
        codes = {name: s["exit"] for name, s in steps.items()}
        if codes.get("run") != 0 or codes.get("report") != 0:
            return {"attempted": expected, "failed": expected,
                    "problems": [f"cicle exit codes {codes}"]}
        problems = []
        failed = 0
        digest = hashlib.sha256()
        n_records = prompted = tokens = bypassed = cicle_records = 0
        coverage = {}
        q_hats = result["accounting"]["q_hat"] if trace else {}
        for size in w.sizes:
            for strategy in w.strategies:
                path = record_path(out, size, strategy)
                if not path.exists():
                    problems.append(f"missing {path.name}")
                    failed += w.test_size
                    continue
                records = [json.loads(line) for line in path.read_text("utf-8").splitlines()
                           if line.strip()]
                if len(records) != w.test_size:
                    problems.append(f"{path.name}: {len(records)} records, "
                                    f"expected {w.test_size}")
                failed += max(0, w.test_size - len(records))
                covered = 0
                for r in records:
                    cset = r.get("conformal_set")
                    classes = [c for c, _ in cset["candidates"]] if cset else None
                    digest.update(json.dumps([DATASET, size, strategy, r["item_id"],
                                              r["final_label"], classes]).encode())
                    if r.get("error"):
                        failed += 1
                    if r.get("prompt_stats") is not None:
                        prompted += 1
                        tokens += r["prompt_stats"]["token_count"]
                    if strategy == "cicle":
                        cicle_records += 1
                        bypassed += bool(r.get("bypassed"))
                        covered += r["gold_label"] in classes
                n_records += len(records)
                if strategy == "cicle" and records:
                    coverage[size] = covered / len(records)
                    if trace:
                        key = f"{DATASET}/{size}"
                        if key in q_hats:
                            problems += gate_problems(size, records, q_hats[key])
                        else:
                            problems.append(f"size {size}: the tracer saw no calibration")
        if failed:
            problems.append(f"{failed} records missing or with an error")

        report_dir = out / "report"
        for name in ("report.json", "cells.csv", "aggregates.csv", f"curve_{DATASET}.csv",
                     "reductions.csv"):
            if not (report_dir / name).is_file():
                problems.append(f"missing report/{name}")
        if not (out / "run_manifest.json").is_file():
            problems.append("missing run_manifest.json")
        try:
            report = json.loads((report_dir / "report.json").read_text("utf-8"))
            reductions = report["reductions"][DATASET]
            cicle_cells = [report["per_cell"][f"{DATASET}/{size}/cicle"] for size in w.sizes]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"report.json unreadable: {exc!r}")
            return {"attempted": expected, "failed": failed, "problems": problems}
        for size, cell in zip(w.sizes, cicle_cells):
            if cell["empirical_coverage"] != coverage.get(size):
                problems.append(f"size {size}: report coverage {cell['empirical_coverage']} "
                                f"differs from the records' {coverage.get(size)}")
            n_cal = int(CALIB_FRACTION * size + 0.5)
            floor = coverage_floor(n_cal, w.test_size)
            if coverage.get(size, 0.0) < floor:
                problems.append(f"size {size}: cicle coverage {coverage.get(size)} is below "
                                f"{floor:.4f}, the 1-alpha bound at n_cal={n_cal}")

        if stub_calls is not None and stub_calls != prompted:
            problems.append(f"stub served {stub_calls} completions, records show {prompted}")
        if trace:
            problems += self.trace_problems(result, prompted)

        return {
            "attempted": expected,
            "failed": failed,
            "problems": problems,
            "digest": digest.hexdigest(),
            "result": result,
            "metrics": {
                "wall_s": steps["run"]["seconds"] + steps["report"]["seconds"],
                "items_per_s": n_records / steps["run"]["seconds"],
                "peak_rss_mb": result["peak_rss_mb"],
                "llm_calls": prompted,
                "llm_prompt_tokens": tokens,
                "cicle_bypass_rate": bypassed / cicle_records,
                "prompt_reduction_pct": reductions["prompt_reduction_pct"],
                "shot_reduction_pct": reductions["shot_reduction_pct"],
                "macro_f1_cicle": statistics.fmean(c["macro_f1"] for c in cicle_cells),
                "coverage_min_cicle": min(c["empirical_coverage"] for c in cicle_cells),
            },
        }

    def trace_problems(self, result: dict, prompted: int) -> list[str]:
        layers, acct = result["layers"], result["accounting"]
        problems = []
        if acct["missing_wrappers"]:
            problems.append(f"trace wrappers found no target: {acct['missing_wrappers']}")
        if acct["run_layers_outside_run"]:
            problems.append(f"run-layer spans outside cli.run: {acct['run_layers_outside_run']}")
        if not math.isclose(acct["attributed_under_run_s"], acct["run_s"], rel_tol=1e-9,
                            abs_tol=1e-9):
            problems.append(f"self times under cli.run add up to "
                            f"{acct['attributed_under_run_s']}, not {acct['run_s']}")
        if layers["pipeline.cells_reused_share"] != 0.0:
            problems.append("run reused record files in a fresh output directory")
        if layers["llm_client.complete_calls"] != prompted:
            problems.append(f"tracer saw {layers['llm_client.complete_calls']} completions, "
                            f"records show {prompted}")
        return problems


def median_metrics(passes: list[dict]) -> dict[str, float]:
    return {name: statistics.median(p["metrics"][name] for p in passes)
            for name in passes[0]["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the cicle CLI end to end.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "cicle" / "cli.py").is_file():
        print(f"error: no cicle sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, workload, args.seed, work)
    nproc = len(os.sched_getaffinity(0))
    passes: list[dict] = []
    problems: list[str] = []
    traced = None
    try:
        if workload.stub:
            bench.stub = Stub(work / "stub.log")
        setup_times, prepared = bench.setup()
        began = time.perf_counter()
        while not passes or time.perf_counter() - began < args.seconds:
            passes.append(bench.run_pass(prepared, len(passes)))
        if args.trace:
            traced = bench.run_pass(prepared, len(passes), trace=True)
    except CheckFailed as exc:
        problems.append(str(exc))
    finally:
        if bench.stub is not None:
            bench.stub.close()

    everything = passes + ([traced] if traced else [])
    for i, p in enumerate(everything):
        problems += [f"pass {i}: {msg}" for msg in p["problems"]]
    digests = {p["digest"] for p in everything if "digest" in p}
    if len(digests) > 1:
        problems.append(f"record digests differ between passes: {sorted(digests)}")
    attempted = sum(p["attempted"] for p in everything) or 1
    failed = sum(p["failed"] for p in everything)
    complete = bool(passes) and all("metrics" in p for p in everything) and not problems

    print("machine " + json.dumps({"nproc": nproc, "commit": git_commit(root),
                                   **bench.versions}, sort_keys=True))
    if digests:
        print(f"digest {args.workload} seed={args.seed}: {' '.join(sorted(digests))}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    metrics: dict[str, dict] = {}
    if complete:
        values = median_metrics(passes)
        if args.trace:
            layers = dict(traced["result"]["layers"])
            untraced = values["wall_s"]
            traced_wall = traced["metrics"]["wall_s"]
            layers["trace.overhead_pct"] = 100.0 * (traced_wall - untraced) / untraced
            metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
            os.replace(work / f"child{bench.calls}.spans.jsonl",
                       work.parent / f"{workload.name}-{args.seed}.spans.jsonl")
        else:
            values["setup_s"] = statistics.median(setup_times)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        for i, p in enumerate(everything):
            steps = " ".join(f"{s['name']} {s['seconds']:.4f}" for s in p["result"]["steps"])
            print(f"pass {i}{' (traced)' if p is traced else ''}: {steps} s")
        print(f"{args.workload} seed={args.seed}: {len(passes)} timed passes, "
              f"set-up {' '.join(f'{t:.3f}' for t in setup_times)} s, "
              f"error_rate {failed / attempted:.6f}")
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": complete and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
