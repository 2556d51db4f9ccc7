"""Run cicle CLI commands in a fresh interpreter and report how long each took.

    python3 perfbench/child.py SPEC.json

SPEC is a JSON object:

- ``src``: the directory that holds the ``cicle`` package;
- ``steps``: a list of ``{"name": "prepare"|"run"|"report", "argv": [...]}``,
  each passed to ``cicle.cli.main`` in order, stopping at the first non-zero
  exit code;
- ``trace``: when true, cicle's public functions are wrapped by
  ``spans.Tracer`` and each step becomes a root span named ``cli.<name>``;
- ``spans``: where the traced run writes its spans, one JSON line each;
- ``result``: where this writes step timings, peak RSS, library versions and,
  when traced, the per-layer metrics.

Each step is timed around the ``main`` call, so interpreter start-up and
imports are not part of any step.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import numpy
    import requests
    import scipy
    from cicle import cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    steps = []
    for step in spec["steps"]:
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(step["argv"])
        else:
            code = tracer.root(f"cli.{step['name']}", cli.main, step["argv"])
        steps.append({"name": step["name"], "exit": code,
                      "seconds": time.perf_counter() - start})
        if code != 0:
            break

    result = {
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "requests": requests.__version__},
    }
    if tracer is not None:
        result["layers"], result["accounting"] = tracer.layer_metrics()
        tracer.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
