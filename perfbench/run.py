"""Benchmark of `refnms train`, `apply` and `eval-recall` on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth_small --seed 1 --seconds 36 --trace 0

`--workload all` runs the three in turn. Inputs are generated from `--seed`
under `.perfbench_work/<workload>/`. A run repeats whole rounds while another
round still fits in `--seconds`, and runs at least one. A round runs each
phase in a fresh worker process: `train`, `apply`, then `eval-recall` and the
set-up loaders twice each. Each end-to-end metric is the median over the
run's samples of its phase, with phase times scaled to a nominal CPU speed
(see REFERENCE_NOMINAL_S). After the rounds, the outputs are checked against
oracles computed apart from the program (see checks.py).

With `--trace 1` each round runs the phases once more with spans and counts
around each layer, and the run reports per-layer metrics plus the tracing
overhead of each phase. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170
NMS_IOU = 0.3
MIN_CONFIDENCE = 0.05
REAL_CASE_MIN_SCORE = 0.65
SETUP_REPEATS = 2
EVAL_REPEATS = 2
TRAIN_EPOCHS = 1
# Median duration of worker.reference_seconds on the machine the bounds were
# set on. Phase times are scaled by REFERENCE_NOMINAL_S / (reference timed
# in the same process just before and after the phase), which cancels most
# of the drift in CPU speed that a shared host shows over tens of seconds.
REFERENCE_NOMINAL_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("train_expr_per_s", "expr/s"),
    ("apply_expr_per_s", "expr/s"),
    ("eval_expr_per_s", "expr/s"),
    ("train_peak_rss_mb", "MB"),
    ("apply_peak_rss_mb", "MB"),
)

_LAYERS = {
    "setup": ("ingest.load_s", "ingest.boxes_per_s", "trainer.load_checkpoint_s"),
    "train": ("ingest.load_s", "ingest.boxes_per_s", "pseudo_gt.build_s", "model.forward_s",
              "autodiff.backward_s", "autodiff.ops_per_expr", "objectives.loss_s",
              "objectives.pairs_per_expr", "trainer.adam_s", "trainer.save_checkpoint_s",
              "gc.pause_s", "gc.gen2_collections"),
    "apply": ("ingest.load_s", "ingest.boxes_per_s", "trainer.load_checkpoint_s",
              "model.score_s", "nms.nms_s", "nms.boxes_in", "nms.boxes_kept",
              "geometry.iou_calls", "cli.apply_self_s", "gc.pause_s", "gc.gen2_collections"),
    "eval": ("ingest.load_s", "ingest.boxes_per_s", "trainer.load_checkpoint_s",
             "pseudo_gt.build_s", "model.score_s", "nms.nms_s", "nms.boxes_in",
             "nms.boxes_kept", "geometry.iou_calls", "evaluation.recall_self_s",
             "gc.pause_s", "gc.gen2_collections"),
}


def _unit(name: str) -> str:
    for suffix, unit in (("_per_s", "boxes/s"), ("_s", "s"), ("ops_per_expr", "ops/expr"),
                         ("pairs_per_expr", "pairs/expr"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


PER_LAYER = tuple(
    (f"{phase}.{name}", _unit(name))
    for phase, names in _LAYERS.items()
    for name in names + ("trace_overhead_pct",)
)


@dataclass(frozen=True)
class Workload:
    """Input make-up and the options of the three `refnms` commands of one workload.

    With `method` ref_nms, hits recounted from `apply` (top `top_n`) must equal
    eval's at budget `top_n`; with baseline_conf the NMS oracle checks eval.
    """

    name: str
    train: tuple[str, ...]  # loss and model options of `train`
    top_n: int
    cross_class: bool  # NMS across classes in `apply` and `eval-recall`
    apply_split: str | None
    method: str  # `eval-recall --method`
    eval_budgets: str
    paper_claim: bool = False  # ref_nms beats the baseline by 10 points there

    def make_inputs(self, out_dir: Path, seed: int) -> inputs.Inputs:
        if self.name == "synth_small":
            return inputs.synth(out_dir, seed, images=250, boxes_per_image=20)
        if self.name == "paper_scale":
            small = inputs.synth(out_dir / "small", seed, images=3, boxes_per_image=100,
                                 expressions_per_image=1, val_fraction=0.6)
            return inputs.lift(small, out_dir, seed)
        return inputs.crowded(out_dir, seed, train_images=3, val_images=2,
                              boxes_per_image=1000, expressions_per_image=2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth_small", ("--loss", "xe", "--hidden-size", "16", "--batch-size", "2"),
                 5, False, None, "ref_nms", "5,10,20,real_case", paper_claim=True),
        Workload("paper_scale", ("--loss", "xe", "--hidden-size", "256"),
                 5, False, None, "ref_nms", "5,10,real_case"),
        Workload("crowded", ("--loss", "rank", "--hidden-size", "8"),
                 300, True, "val", "baseline_conf", "10,50,100,300,real_case"),
    )
}


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, root: Path, work: Path, dump_boxes: int):
        self.root = root
        self.work = work
        self.dump_boxes = dump_boxes
        self.count = 0
        self.failed = 0
        self.per_phase: dict[str, int] = {}
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.env["PYTHONHASHSEED"] = "0"
        self.cpus = sorted(os.sched_getaffinity(0))

    def run(self, phase: str, *, argv=(), setup_files=None, trace=False, units=1) -> dict | None:
        self.count += 1
        # successive samples of one phase alternate between the CPUs
        sample = self.per_phase[phase] = self.per_phase.get(phase, -1) + 1
        stem = self.work / f"{self.count:03d}-{phase}{'-traced' if trace else ''}"
        spec = {
            "src": str(self.root / "src"), "phase": phase, "argv": list(argv),
            "setup_files": setup_files, "trace": trace, "units": units,
            "dump_boxes": self.dump_boxes,
            "cpu": self.cpus[sample % len(self.cpus)],
            "log": f"{stem}.log", "result": f"{stem}.json", "spans": f"{stem}.spans.jsonl",
        }
        Path(f"{stem}.spec.json").write_text(json.dumps(spec), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), f"{stem}.spec.json"],
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=WORKER_TIMEOUT_S, check=False,
            )
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            proc, stderr = None, f"timed out after {WORKER_TIMEOUT_S} s"
        result = None
        if proc is not None and proc.returncode == 0:
            result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        if result is None or result["rc"] != 0:
            self.failed += 1
            print(f"perfbench: {phase} failed: {stderr.strip()[-2000:]}", file=sys.stderr)
            return None
        result["log"] = Path(spec["log"]).read_text(encoding="utf-8")
        return result


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_workload(wl: Workload, root: Path, seed: int, seconds: float, trace: bool):
    work = root / ".perfbench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = wl.make_inputs(work / "data", seed)
    expressions = checks.read_expressions(data.expressions)
    train_units = sum(e.split == "train" for e in expressions) * TRAIN_EPOCHS
    n_apply = sum(wl.apply_split in (None, e.split) for e in expressions)
    n_eval = sum(e.split == "val" for e in expressions)

    ckpt, proposals, report = work / "model.ckpt", work / "proposals.tsv", work / "recall.csv"
    cross_class = ("--cross-class",) if wl.cross_class else ()
    train_argv = ("train", *data.common_args(), "--epochs", str(TRAIN_EPOCHS),
                  "--seed", str(seed), "--out", str(ckpt), *wl.train)
    apply_argv = ("apply", "--detections", str(data.detections),
                  "--expressions", str(data.expressions), "--checkpoint", str(ckpt),
                  "--out", str(proposals), "--top-n", str(wl.top_n), *cross_class,
                  *(("--split", wl.apply_split) if wl.apply_split else ()))
    eval_argv = ("eval-recall", *data.common_args(), "--split", "val",
                 "--budgets", wl.eval_budgets, "--out", str(report), "--method", wl.method,
                 *cross_class, *(("--checkpoint", str(ckpt)) if wl.method == "ref_nms" else ()))
    setup_files = {k: str(v) for k, v in vars(data).items()} | {"checkpoint": str(ckpt)}

    dump = checks.read_dump_boxes(data.detections)
    runner = Runner(root, work, sum(len(image.confidences) for image in dump.values()))
    samples: dict[str, list] = {}
    digests: set[tuple[str, str, str]] = set()
    train_log = ""

    def round_of_phases(traced: bool) -> None:
        nonlocal train_log

        def keep(key: str, result: dict | None) -> dict | None:
            if result is not None:
                samples.setdefault(key + ("/traced" if traced else ""), []).append(result)
            return result

        result = keep("train", runner.run("train", argv=train_argv, trace=traced,
                                          units=train_units))
        if result is not None:
            train_log = result["log"]
        keep("apply", runner.run("apply", argv=apply_argv, trace=traced))
        for _ in range(EVAL_REPEATS):
            keep("eval", runner.run("eval", argv=eval_argv, trace=traced))
        for _ in range(SETUP_REPEATS):
            keep("setup", runner.run("setup", setup_files=setup_files, trace=traced))
        if all(p.exists() for p in (ckpt, proposals, report)):
            digests.add((_digest(ckpt), _digest(proposals), _digest(report)))

    start = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        round_of_phases(False)
        if trace:
            round_of_phases(True)
        rounds += 1
        now = time.monotonic()
        if now - start + (now - round_start) > seconds:
            break

    problems = check_outputs(wl, data, expressions, dump, ckpt, proposals, report, train_log,
                             runner, work)
    if len(digests) > 1:
        problems.append(f"outputs differ between rounds of the same seed ({len(digests)} variants)")
    keys = [f"{phase}/traced" for phase in _LAYERS] if trace else []
    problems += [f"no successful {key} phase" for key in [*_LAYERS, *keys] if not samples.get(key)]
    for p in problems:
        print(f"perfbench: {wl.name}: check failed: {p}", file=sys.stderr)

    def seconds_of(key: str, scaled: bool = True) -> list[float]:
        """Phase seconds of each sample, scaled to nominal CPU speed or not."""
        return [s["seconds"] * (REFERENCE_NOMINAL_S / s["reference_s"] if scaled else 1.0)
                for s in samples.get(key, [])]

    # A phase without a successful sample has no metrics; `correct` is then false.
    metrics, raw = {}, {}
    if trace:
        for phase, names in _LAYERS.items():
            traced = samples.get(f"{phase}/traced", [])
            if not traced:
                continue
            for name in names:
                metrics[f"{phase}.{name}"] = statistics.median(s["layers"][name] for s in traced)
            if samples.get(phase):
                metrics[f"{phase}.trace_overhead_pct"] = 100.0 * (
                    statistics.median(seconds_of(f"{phase}/traced"))
                    / statistics.median(seconds_of(phase)) - 1.0)
        unit_of = dict(PER_LAYER)
    else:
        sizes = {"train": train_units, "apply": n_apply, "eval": n_eval}
        for scaled, out in ((True, metrics), (False, raw)):
            for phase, n in sizes.items():
                if samples.get(phase):
                    out[f"{phase}_expr_per_s"] = statistics.median(
                        n / sec for sec in seconds_of(phase, scaled))
            for phase in ("train", "apply"):
                if samples.get(phase):
                    out[f"{phase}_peak_rss_mb"] = statistics.median(
                        s["peak_rss_mb"] for s in samples[phase])
            if samples.get("setup"):
                out["setup_s"] = statistics.median(seconds_of("setup", scaled))
        unit_of = dict(END_TO_END)
    for name, value in metrics.items():
        unscaled = f"  (unscaled {raw[name]:.4f})" if name in raw else ""
        print(f"{wl.name:12s} {name:34s} {value:14.4f} {unit_of[name]}{unscaled}")
    # The reference runs just before and just after each phase; a median ratio
    # far from 1 would mean the phase's leftovers slow the reference down.
    drift = {key: statistics.median(s["reference_post_s"] / s["reference_pre_s"] for s in ss)
             for key, ss in samples.items()}
    if drift:
        print(f"{wl.name:12s} reference after/before phase: "
              + ", ".join(f"{key} {ratio:.3f}" for key, ratio in drift.items()))
    print(f"{wl.name:12s} rounds {rounds}, operations attempted {runner.count}, "
          f"failed {runner.failed}, checks {'passed' if not problems else 'FAILED'}")
    return (not problems, runner.count, runner.failed,
            {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()})


def check_outputs(wl: Workload, data: inputs.Inputs, expressions, dump, ckpt: Path,
                  proposals: Path, report: Path, train_log: str, runner: Runner,
                  work: Path) -> list[str]:
    if not (ckpt.exists() and proposals.exists() and report.exists()):
        return ["a phase left no output"]
    regions = checks.read_regions(data.regions)
    val = [e for e in expressions if e.split == "val"]
    applied = checks.read_apply(proposals)
    rows = checks.read_report(report)
    problems = checks.check_losses_finite(checks.read_losses(train_log))
    problems += checks.check_apply_properties(applied, nms_iou=NMS_IOU,
                                              cross_class=wl.cross_class, top_n=wl.top_n)
    oracle_options = dict(min_confidence=MIN_CONFIDENCE, nms_iou=NMS_IOU,
                          cross_class=wl.cross_class)
    budgets = wl.eval_budgets.split(",")
    baseline = checks.baseline_recounts(val, dump, regions, budgets,
                                        real_case_min_score=REAL_CASE_MIN_SCORE, **oracle_options)
    if wl.method == "ref_nms":
        b = str(wl.top_n)
        problems += checks.check_recount_matches(checks.recount_apply(applied, val, regions),
                                                 rows[b], "apply recount vs eval-recall")
        gain = 100.0 * (int(rows[b]["referent_hits"]) - baseline[b][0]) / len(val)
        if wl.paper_claim and gain < 10.0:
            problems.append(f"ref_nms referent recall at budget {b} beats the baseline "
                            f"by {gain:.2f} points, not 10")
    else:
        # eval runs the confidence baseline: recount it and check the keep sets
        for b in budgets:
            problems += checks.check_recount_matches(baseline[b], rows[b], "oracle NMS vs eval-recall")
        keep_file = work / "baseline-keep.tsv"
        if runner.run("check", argv=("apply", "--detections", str(data.detections),
                                     "--expressions", str(data.expressions), "--baseline",
                                     "--cross-class", "--split", "val", "--out", str(keep_file))):
            problems += checks.check_baseline_oracle(checks.read_apply(keep_file), val, dump,
                                                     **oracle_options)
        else:
            problems.append("apply --baseline failed")
    return problems


def machine_facts() -> str:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 has no mode="dicts"
        blas = {}
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas.get('name', '?')} {blas.get('version', '?')} with {BLAS_THREADS} thread(s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "refnms" / "cli.py").is_file():
        print("perfbench: run from the root of a refnms checkout (src/refnms is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    print(f"perfbench: {machine_facts()}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, m = run_workload(WORKLOADS[name], root, args.seed, args.seconds,
                                     bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
