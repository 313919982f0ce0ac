"""Spans and counts around the public functions of each `refnms` layer.

The tracer wraps functions from outside the program: it replaces a function
in every loaded `refnms` module namespace that binds it, so calls through
`from .x import f` bindings are seen as well. Spans (name, start, end,
parent) stay in memory until the traced phase ends. A layer's self time is
its spans' durations minus those of their direct child spans.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter, defaultdict

# Wrapped in spans named "<module>.<function>".
SPANNED = {
    "ingest": ("load_detection_dump", "load_expressions", "load_regions", "load_embeddings"),
    "trainer": ("load_checkpoint", "save_checkpoint", "adam_step", "build_training_set"),
    "evaluation": ("build_eval_set", "recall_curve"),
    "model": ("relatedness_forward", "score_boxes"),
    "autodiff": ("backward",),
    "objectives": ("assign_labels", "binary_xe", "sample_pairs", "ranking_loss"),
    "nms": ("per_class_nms",),
}

# Functions of refnms.autodiff that build no graph node.
NOT_OPS = frozenset({"backward", "zero_gradients", "init_gru_params", "grad_check"})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._gc_start = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Wrap the traced functions; `refnms.cli` must be imported already."""
        for module_name, names in SPANNED.items():
            module = sys.modules[f"refnms.{module_name}"]
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:  # a layer function that is gone reports zero
                    _rebind(fn, self._spanned(f"{module_name}.{name}", fn))
        autodiff = sys.modules["refnms.autodiff"]
        for name, fn in list(vars(autodiff).items()):
            if (callable(fn) and not isinstance(fn, type) and not name.startswith("_")
                    and getattr(fn, "__module__", None) == autodiff.__name__
                    and name not in NOT_OPS):
                _rebind(fn, self._counted("autodiff.ops", fn))
        iou = sys.modules["refnms.geometry"].iou
        _rebind(iou, self._counted("geometry.iou_calls", iou))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _spanned(self, name: str, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "ingest.load_detection_dump":
                counts["ingest.dump_loads"] += 1
            elif name == "nms.per_class_nms":
                counts["nms.boxes_in"] += len(args[0])
                counts["nms.boxes_kept"] += len(result)
            elif name == "objectives.sample_pairs":
                counts["objectives.pairs"] += len(result)
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.counts["gc.pause_ns"] += int((time.perf_counter() - self._gc_start) * 1e9)
        self.counts["gc.gen2_collections"] += info["generation"] == 2

    def seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds, self seconds) per span name."""
        child = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "refnms" or module_name.startswith("refnms."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def layer_metrics(tracer: Tracer, phase: str, units: int, dump_boxes: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase; `units` is training expressions
    times epochs for the train phase, `dump_boxes` the records in the dump."""
    total, own = tracer.seconds()
    c = tracer.counts
    dump_s = total["ingest.load_detection_dump"]
    out = {
        "ingest.load_s": sum(v for k, v in total.items() if k.startswith("ingest.")),
        "ingest.boxes_per_s": c["ingest.dump_loads"] * dump_boxes / dump_s if dump_s else 0.0,
        "trainer.load_checkpoint_s": total["trainer.load_checkpoint"],
        "gc.pause_s": c["gc.pause_ns"] / 1e9,
        "gc.gen2_collections": c["gc.gen2_collections"],
    }
    if phase == "setup":
        del out["gc.pause_s"], out["gc.gen2_collections"]
    if phase in ("train", "eval"):
        out["pseudo_gt.build_s"] = total["trainer.build_training_set"] + total["evaluation.build_eval_set"]
    if phase == "train":
        del out["trainer.load_checkpoint_s"]
        out.update({
            "model.forward_s": total["model.relatedness_forward"],
            "autodiff.backward_s": total["autodiff.backward"],
            "autodiff.ops_per_expr": c["autodiff.ops"] / units,
            "objectives.loss_s": sum(v for k, v in total.items() if k.startswith("objectives.")),
            "objectives.pairs_per_expr": c["objectives.pairs"] / units,
            "trainer.adam_s": total["trainer.adam_step"],
            "trainer.save_checkpoint_s": total["trainer.save_checkpoint"],
        })
    if phase in ("apply", "eval"):
        out.update({
            "model.score_s": total["model.score_boxes"],
            "nms.nms_s": total["nms.per_class_nms"],
            "nms.boxes_in": c["nms.boxes_in"],
            "nms.boxes_kept": c["nms.boxes_kept"],
            "geometry.iou_calls": c["geometry.iou_calls"],
        })
    if phase == "apply":
        out["cli.apply_self_s"] = own["cli.main"]
    if phase == "eval":
        out["evaluation.recall_self_s"] = own["evaluation.recall_curve"]
    return out
