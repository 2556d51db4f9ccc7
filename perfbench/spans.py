"""In-memory span tracer for the traced benchmark run.

The tracer replaces cicle's public functions with timing wrappers, in the
namespace where each caller bound them at import: ``cicle.pipeline`` calls its
own ``select_sparse`` name, so wrapping ``cicle.selection.select_sparse`` alone
would record nothing. Nothing inside ``src/cicle`` changes.

A span is (name, start, end, parent, thread, item). A span opened on a thread
whose own stack is empty (a ``--jobs`` worker) takes as parent the span the
main thread is in at that moment. Spans of one test item share the item key
(dataset, size, strategy, item_id).

Self time is wall time shared out: at each instant, the innermost open spans
of the threads doing work (open spans with no open child) split the time
equally. With one thread this is the usual duration minus child time; with
worker threads the self times of all spans under a root still add up to the
root's duration.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# Per-layer spans inside the ``run`` command whose self times are reported;
# with trace.unattributed_s they add up to cli.run_s.
RUN_LAYERS = {
    "selection.select_sparse_s": "selection.select_sparse",
    "selection.select_random_s": "selection.select_random",
    "vectorize.fit_tfidf_s": "vectorize.fit_tfidf",
    "vectorize.transform_s": "vectorize.transform",
    "vectorize.transform_many_s": "vectorize.transform_many",
    "vectorize.stack_s": "vectorize.stack",
    "classifier.train_s": "classifier.train",
    "classifier.predict_proba_s": "classifier.predict_proba",
    "conformal.calibrate_s": "conformal.calibrate",
    "conformal.predict_set_s": "conformal.predict_set",
    "prompting.build_prompt_s": "prompting.build_prompt",
    "llm_client.complete_s": "llm_client.complete",
    "pipeline.build_cell_s": "pipeline.build_cell",
    "pipeline.classify_s": "pipeline.classify",
    "pipeline.write_records_s": "pipeline.write_records",
    "pipeline.read_records_s": "pipeline.read_records",
    "corpus.load_frozen_s": "corpus.load_frozen",
    "corpus.sample_s": "corpus.sample",
    "corpus.file_sha256_s": "corpus.file_sha256",
}

REPORT_LAYERS = {
    "evalreport.read_records_s": "evalreport.read_records",
    "evalreport.build_report_s": "evalreport.build_report",
    "evalreport.emit_report_s": "evalreport.emit_report",
}

# Unit of every per-layer metric, in the order the traced run prints them.
LAYER_UNITS = {
    "selection.select_sparse_s": "s", "selection.select_sparse_calls": "count",
    "selection.select_random_s": "s", "selection.select_random_calls": "count",
    "selection.pool_items_scanned": "count",
    "vectorize.fit_tfidf_s": "s", "vectorize.transform_s": "s",
    "vectorize.transform_calls": "count", "vectorize.transform_many_s": "s",
    "vectorize.stack_s": "s",
    "classifier.train_s": "s", "classifier.lbfgs_iters": "count",
    "classifier.converged_share": "share", "classifier.predict_proba_s": "s",
    "classifier.predict_proba_calls": "count",
    "conformal.calibrate_s": "s", "conformal.predict_set_s": "s",
    "conformal.predict_set_calls": "count", "conformal.set_size_mean": "classes",
    "conformal.singleton_share": "share",
    "prompting.build_prompt_s": "s", "prompting.build_prompt_calls": "count",
    "prompting.tokens_mean": "tokens",
    "llm_client.complete_s": "s", "llm_client.complete_calls": "count",
    "llm_client.latency_p50_ms": "ms", "llm_client.latency_p99_ms": "ms",
    "llm_client.queue_wait_s": "s", "llm_client.attempts_per_call": "count",
    "llm_client.transport_errors": "count", "llm_client.in_flight_mean": "calls",
    "pipeline.build_cell_s": "s", "pipeline.classify_s": "s",
    "pipeline.write_records_s": "s", "pipeline.records_written": "count",
    "pipeline.read_records_s": "s", "pipeline.records_read": "count",
    "pipeline.cells_reused_share": "share",
    "corpus.load_frozen_s": "s", "corpus.sample_s": "s", "corpus.file_sha256_s": "s",
    "corpus.file_sha256_calls": "count",
    "evalreport.read_records_s": "s", "evalreport.build_report_s": "s",
    "evalreport.emit_report_s": "s",
    "cli.prepare_s": "s", "cli.run_s": "s", "cli.report_s": "s",
    "trace.unattributed_s": "s", "trace.overhead_pct": "%",
}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread, item]
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._counts: dict[str, float] = defaultdict(float)
        self._latencies: list[float] = []
        self._cell = {"dataset": None, "size": None}
        self.q_hats: dict[str, float] = {}  # "dataset/size" -> conformal threshold
        self.attributed: list[float] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self._counts[key] += value

    def open(self, name: str, item=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident(), item])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def root(self, name: str, fn, *args):
        idx = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def wrap(self, owner, attr: str, name: str | None, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named ``name``.

        ``before(args, kwargs)`` returns the span's item key (or None);
        ``after(args, kwargs, result)`` records counts. With ``name`` None the
        wrapper records counts only.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            item = before(args, kwargs) if before else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = self.open(name, item)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
            if after:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    # -- wiring ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced call site of the cicle package."""
        from cicle import classifier, cli, conformal, llm_client, pipeline

        def arg(args, kwargs, pos, key):
            return args[pos] if len(args) > pos else kwargs[key]

        def set_dataset(args, kwargs):
            self._cell["dataset"] = Path(arg(args, kwargs, 0, "dir_path")).name

        def set_size(args, kwargs):
            self._cell["size"] = int(arg(args, kwargs, 1, "n"))

        def item_key(strategy):
            def key(args, kwargs):
                s = strategy or arg(args, kwargs, 2, "strategy")
                return (self._cell["dataset"], self._cell["size"], s,
                        arg(args, kwargs, 1, "item").id)
            return key

        def scanned(args, kwargs, result):
            self.add("pool_items_scanned", len(arg(args, kwargs, 0, "pool")))

        def trained(args, kwargs, model):
            self.add("fits")
            self.add("converged", float(model.converged))

        def lbfgs(args, kwargs, result):
            self.add("lbfgs_iters", int(result.nit))

        def calibrated(args, kwargs, calibration):
            self.q_hats[f"{self._cell['dataset']}/{self._cell['size']}"] = calibration.q_hat

        def conformal_set(args, kwargs, cset):
            self.add("sets")
            self.add("set_size_sum", len(cset))
            self.add("singletons", float(len(cset) == 1))

        def prompt(args, kwargs, result):
            self.add("prompt_tokens", result[1].token_count)

        def written(args, kwargs, result):
            self.add("cells_written")
            self.add("records_written", len(arg(args, kwargs, 0, "records")))

        def reused(args, kwargs, records):
            self.add("cells_reused")
            self.add("records_read", len(records))

        p = pipeline
        self.wrap(p, "load_frozen", "corpus.load_frozen", before=set_dataset)
        self.wrap(p, "stratified_subsample", "corpus.sample", before=set_size)
        self.wrap(p, "file_sha256", "corpus.file_sha256")
        self.wrap(p, "build_cell", "pipeline.build_cell")
        self.wrap(p, "fit_tfidf", "vectorize.fit_tfidf")
        self.wrap(p, "transform", "vectorize.transform")
        self.wrap(p, "transform_many", "vectorize.transform_many")
        self.wrap(p, "stack", "vectorize.stack")
        self.wrap(p, "train", "classifier.train", after=trained)
        self.wrap(p, "predict_proba", "classifier.predict_proba")
        self.wrap(p, "calibrate", "conformal.calibrate", after=calibrated)
        self.wrap(p, "predict_set", "conformal.predict_set", after=conformal_set)
        self.wrap(p, "select_sparse", "selection.select_sparse", after=scanned)
        self.wrap(p, "select_random", "selection.select_random", after=scanned)
        self.wrap(p, "build_prompt", "prompting.build_prompt", after=prompt)
        self.wrap(p, "classify_base", "pipeline.classify", before=item_key("base"))
        self.wrap(p, "classify_fewshot", "pipeline.classify", before=item_key(None))
        self.wrap(p, "classify_cicle", "pipeline.classify", before=item_key("cicle"))
        self.wrap(p, "write_records", "pipeline.write_records", after=written)
        self.wrap(p, "read_records", "pipeline.read_records", after=reused)
        self.wrap(cli, "read_records", "evalreport.read_records")
        self.wrap(cli, "build_report", "evalreport.build_report")
        self.wrap(cli, "emit_report", "evalreport.emit_report")
        self.wrap(conformal, "predict_proba_many", "classifier.predict_proba")
        self.wrap(classifier, "minimize", None, after=lbfgs)
        self._wrap_complete(llm_client)

    def _wrap_complete(self, llm_client) -> None:
        cls = getattr(llm_client, "LlmClient", None)
        fn = getattr(cls, "complete", None)
        if fn is None:
            self.missing.append("cicle.llm_client.LlmClient.complete")
            return
        transport_error = llm_client.TransportError

        @functools.wraps(fn)
        def traced(client, *args, **kwargs):
            idx = self.open("llm_client.complete")
            start = time.perf_counter()
            try:
                resp = fn(client, *args, **kwargs)
            except transport_error as exc:
                self.add("transport_errors")
                self.add("attempts", getattr(exc, "attempts", 1) or 1)
                raise
            finally:
                outer = time.perf_counter() - start
                self.close(idx)
            self.add("attempts", resp.attempts)
            self.add("queue_wait_s", max(0.0, outer - resp.latency))
            with self._lock:
                self._latencies.append(resp.latency)
            return resp

        cls.complete = traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Wall time attributed to each span (see the module docstring)."""
        spans = self.spans
        events = []
        for i, span in enumerate(spans):
            events.append((span[1], 0, i))
            events.append((span[2], 1, i))
        events.sort()  # at equal times a span opens before any span closes
        attributed = [0.0] * len(spans)
        open_children = [0] * len(spans)
        is_open = [False] * len(spans)
        active: set[int] = set()
        prev = None
        for t, closing, i in events:
            if active:
                share = (t - prev) / len(active)
                for j in active:
                    attributed[j] += share
            prev = t
            parent = spans[i][3]
            if not closing:
                is_open[i] = True
                active.add(i)
                if parent is not None:
                    open_children[parent] += 1
                    active.discard(parent)
            else:
                is_open[i] = False
                active.discard(i)
                if parent is not None:
                    open_children[parent] -= 1
                    if open_children[parent] == 0 and is_open[parent]:
                        active.add(parent)
        return attributed

    def layer_metrics(self) -> tuple[dict[str, float], dict]:
        """Per-layer metrics, and the figures the benchmark checks them by."""
        spans = self.spans
        if any(span[2] is None for span in spans):
            raise RuntimeError("trace has spans that never closed")
        attributed = self.attributed = self.self_times()
        root = [0] * len(spans)
        for i, span in enumerate(spans):
            root[i] = i if span[3] is None else root[span[3]]
        self_by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        root_time: dict[str, float] = defaultdict(float)
        run_roots = set()
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            self_by_name[name] += attributed[i]
            calls[name] += 1
            inclusive[name] += end - start
            if parent is None:
                root_time[name] += end - start
                if name == "cli.run":
                    run_roots.add(i)
        run_names = set(RUN_LAYERS.values())
        under_run = [i for i in range(len(spans)) if root[i] in run_roots]
        run_self: dict[str, float] = defaultdict(float)
        for i in under_run:
            run_self[spans[i][0]] += attributed[i]
        run_s = root_time["cli.run"]
        named_self = sum(run_self[name] for name in run_names)
        stray = sorted({spans[i][0] for i in range(len(spans))
                        if root[i] not in run_roots and spans[i][0] in run_names})
        c = self._counts
        metrics = {key: run_self[name] for key, name in RUN_LAYERS.items()}
        metrics.update({
            "selection.select_sparse_calls": calls["selection.select_sparse"],
            "selection.select_random_calls": calls["selection.select_random"],
            "selection.pool_items_scanned": c["pool_items_scanned"],
            "vectorize.transform_calls": calls["vectorize.transform"],
            "classifier.lbfgs_iters": c["lbfgs_iters"],
            "classifier.converged_share": c["converged"] / c["fits"] if c["fits"] else 0.0,
            "classifier.predict_proba_calls": calls["classifier.predict_proba"],
            "conformal.predict_set_calls": calls["conformal.predict_set"],
            "conformal.set_size_mean": c["set_size_sum"] / c["sets"] if c["sets"] else 0.0,
            "conformal.singleton_share": c["singletons"] / c["sets"] if c["sets"] else 0.0,
            "prompting.build_prompt_calls": calls["prompting.build_prompt"],
            "prompting.tokens_mean": (c["prompt_tokens"] / calls["prompting.build_prompt"]
                                      if calls["prompting.build_prompt"] else 0.0),
            "llm_client.complete_calls": calls["llm_client.complete"],
            "llm_client.latency_p50_ms": 1000.0 * _percentile(self._latencies, 50),
            "llm_client.latency_p99_ms": 1000.0 * _percentile(self._latencies, 99),
            "llm_client.queue_wait_s": c["queue_wait_s"],
            "llm_client.attempts_per_call": (c["attempts"] / calls["llm_client.complete"]
                                             if calls["llm_client.complete"] else 0.0),
            "llm_client.transport_errors": c["transport_errors"],
            "llm_client.in_flight_mean": (inclusive["llm_client.complete"] / run_s
                                          if run_s else 0.0),
            "pipeline.records_written": c["records_written"],
            "pipeline.records_read": c["records_read"],
            "pipeline.cells_reused_share": (
                c["cells_reused"] / (c["cells_reused"] + c["cells_written"])
                if c["cells_reused"] + c["cells_written"] else 0.0),
            "corpus.file_sha256_calls": calls["corpus.file_sha256"],
            "cli.prepare_s": root_time["cli.prepare"],
            "cli.run_s": run_s,
            "cli.report_s": root_time["cli.report"],
            "trace.unattributed_s": run_s - named_self,
        })
        metrics.update({key: self_by_name[name] for key, name in REPORT_LAYERS.items()})
        accounting = {
            "run_s": run_s,
            "attributed_under_run_s": sum(attributed[i] for i in under_run),
            "run_layers_outside_run": stray,
            "spans": len(spans),
            "missing_wrappers": list(self.missing),
            "q_hat": dict(self.q_hats),
        }
        return metrics, accounting

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first span.

        Call after layer_metrics(), which computes the self times.
        """
        spans = self.spans
        attributed = self.attributed
        origin = min((s[1] for s in spans), default=0.0)
        items: list = [None] * len(spans)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, thread, item) in enumerate(spans):
                items[i] = item if item is not None or parent is None else items[parent]
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "thread": thread,
                    "start_s": start - origin, "end_s": end - origin,
                    "self_s": attributed[i],
                    "item": list(items[i]) if items[i] is not None else None,
                }) + "\n")
