"""Run one benchmark phase in a fresh process and write its measurements.

Usage: python3 worker.py SPEC.json

The spec names the phase, the `refnms` command line (or, for `setup`, the
files to load), whether to trace, and where to write the result, the
program's standard output and the spans. The timer wraps only the call into
the program: interpreter start-up and imports are outside it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REFERENCE_LOOPS = 300_000
REFERENCE_PRODUCTS = 180
REFERENCE_REPEATS = 3


def reference_seconds() -> float:
    """Duration of a fixed mix of interpreter and numpy work, GC off.

    Timed just before and after each phase in the same process, on the same
    CPU, it tracks how fast that CPU runs at that moment; run.py scales phase
    times by it.
    """
    enabled = gc.isenabled()
    gc.disable()
    rng = np.random.default_rng(0)
    a, v = rng.normal(size=(256, 256)), rng.normal(size=256)
    start = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_LOOPS):
        total += (i % 7) * 0.5
    for _ in range(REFERENCE_PRODUCTS):
        b = np.outer(v, v)
        b += a
        total += float(b @ v @ v)
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    # the reference and the phase must run on the same CPU: on a shared host
    # each CPU's speed drifts on its own
    os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, spec["src"])
    from refnms import cli, ingest, trainer

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    def setup() -> int:
        files = spec["setup_files"]
        ingest.load_detection_dump(files["detections"])
        ingest.load_expressions(files["expressions"])
        ingest.load_regions(files["regions"])
        ingest.load_embeddings(files["embeddings"])
        trainer.load_checkpoint(files["checkpoint"])
        return 0

    def command() -> int:
        if tracer is not None:
            return tracer.call("cli.main", cli.main, spec["argv"])
        return cli.main(spec["argv"])

    run = setup if spec["phase"] == "setup" else command
    before = [reference_seconds() for _ in range(REFERENCE_REPEATS)]
    with open(spec["log"], "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        start = time.perf_counter()
        rc = run()
        seconds = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = [reference_seconds() for _ in range(REFERENCE_REPEATS)]
    result = {
        "rc": rc,
        "seconds": seconds,
        "reference_s": statistics.median(before + after),
        "reference_pre_s": statistics.median(before),
        "reference_post_s": statistics.median(after),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        from spans import layer_metrics

        tracer.uninstall()
        tracer.write(spec["spans"])
        result["layers"] = layer_metrics(tracer, spec["phase"], spec["units"], spec["dump_boxes"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
