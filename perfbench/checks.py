"""Correctness checks computed apart from the program.

Everything here reads the documented text formats with its own parsers and
recomputes results with numpy: IoU, greedy NMS with index tie-break, proposal
budgets and recall counts. Nothing imports `refnms`. Each check returns a list
of problems; an empty list means the check passed.

IoU is evaluated with the same float64 operations as the program's scalar
formula (min, max, +, - and * are exact-commutative, so operand order does
not matter), so the values agree bit for bit and keep sets can be compared
exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HIT_IOU = 0.5  # a proposal hits a target when IoU is strictly above this


@dataclass(frozen=True)
class Proposal:
    box: tuple[float, float, float, float]
    category_id: int
    confidence: float
    relatedness: float
    fused: float


@dataclass(frozen=True)
class Expression:
    expression_id: str
    image_id: str
    split: str
    referent: tuple[float, float, float, float]
    tokens: tuple[str, ...]
    tags: tuple[str, ...]


@dataclass(frozen=True)
class ImageBoxes:
    boxes: np.ndarray        # (n, 4) float64, file order
    category_ids: np.ndarray  # (n,) int
    confidences: np.ndarray  # (n,) float64


def _box(text: str) -> tuple[float, float, float, float]:
    x1, y1, x2, y2 = (float(v) for v in text.split())
    return (x1, y1, x2, y2)


def read_dump_boxes(path) -> dict[str, ImageBoxes]:
    """Boxes, categories and confidences of a detection dump; features skipped."""
    rows: dict[str, list[tuple]] = {}
    with Path(path).open(encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            image_id, box, cat, _name, conf, _features = line.split("\t", 5)
            rows.setdefault(image_id, []).append((_box(box), int(cat), float(conf)))
    return {
        image_id: ImageBoxes(
            np.array([r[0] for r in recs], dtype=np.float64).reshape(-1, 4),
            np.array([r[1] for r in recs], dtype=np.int64),
            np.array([r[2] for r in recs], dtype=np.float64),
        )
        for image_id, recs in rows.items()
    }


def read_expressions(path) -> list[Expression]:
    out = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            tags = tuple(fields[5].split()) if len(fields) > 5 else ()
            out.append(
                Expression(fields[0], fields[1], fields[2], _box(fields[3]),
                           tuple(t.lower() for t in fields[4].split()), tags)
            )
    return out


def read_regions(path) -> dict[str, list[tuple[tuple[float, float, float, float], str]]]:
    by_image: dict[str, list] = {}
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            _rid, image_id, box, category = line.rstrip("\n").split("\t")
            by_image.setdefault(image_id, []).append((_box(box), category))
    return by_image


def read_apply(path) -> dict[str, list[Proposal]]:
    """`apply` output grouped by expression, in file order."""
    out: dict[str, list[Proposal]] = {}
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            eid, box, cat, conf, rel, fused = line.rstrip("\n").split("\t")
            out.setdefault(eid, []).append(
                Proposal(_box(box), int(cat), float(conf), float(rel), float(fused))
            )
    return out


def read_report(path) -> dict[str, dict[str, str]]:
    """Recall CSV rows keyed by budget label."""
    with Path(path).open(encoding="utf-8", newline="") as fh:
        return {row["budget"]: row for row in csv.DictReader(fh)}


def read_losses(log_text: str) -> list[float]:
    return [
        float(line.split("loss=")[1].split()[0])
        for line in log_text.splitlines()
        if line.startswith("epoch ") and "loss=" in line
    ]


def iou_one_to_many(a, boxes: np.ndarray) -> np.ndarray:
    """IoU of box `a` against each row of `boxes`, in [0, 1]."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[2], boxes[:, 2]) - np.maximum(a[0], boxes[:, 0])
    ih = np.minimum(a[3], boxes[:, 3]) - np.maximum(a[1], boxes[:, 1])
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    union = area_a + area_b - inter
    out = np.zeros(len(boxes))
    ok = (iw > 0.0) & (ih > 0.0) & (union > 0.0)
    out[ok] = inter[ok] / union[ok]
    return out


def _by_score(scores: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """`indices` ordered by descending score, ties by ascending index."""
    return indices[np.lexsort((indices, -scores[indices]))]


def greedy_nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> list[int]:
    """Greedy NMS; suppresses IoU strictly above the threshold. Keep order."""
    order = _by_score(scores, np.arange(len(scores)))
    kept = []
    while order.size:
        best = order[0]
        kept.append(int(best))
        rest = order[1:]
        order = rest[iou_one_to_many(boxes[best], boxes[rest]) <= iou_threshold]
    return kept


def nms_keep(image: ImageBoxes, scores: np.ndarray, *, min_confidence: float,
             iou_threshold: float, cross_class: bool) -> np.ndarray:
    """Indices (into the image's boxes) kept by confidence filter + NMS.

    Ordered by descending score, ties by ascending index, like the program's
    merged per-class output.
    """
    survivors = np.flatnonzero(image.confidences >= min_confidence)
    groups = [survivors] if cross_class else [
        survivors[image.category_ids[survivors] == c]
        for c in np.unique(image.category_ids[survivors])
    ]
    kept = [g[k] for g in groups for k in greedy_nms(image.boxes[g], scores[g], iou_threshold)]
    return _by_score(scores, np.array(kept, dtype=np.int64))


def select_budget(kept: np.ndarray, scores: np.ndarray, budget: str,
                  real_case_min_score: float) -> np.ndarray:
    if budget == "real_case":
        return kept[scores[kept] >= real_case_min_score]
    return kept[: int(budget)]


def pseudo_boxes(expr: Expression, regions) -> list[tuple]:
    """Regions whose category name is a noun of the expression.

    Exact for the benchmark's inputs: their embedding tables give every
    category word its own orthonormal vector, so cosine similarity is 1 for
    the same word and 0 otherwise.
    """
    nouns = {t for t, tag in zip(expr.tokens, expr.tags) if tag.upper() in ("NOUN", "PROPN")}
    return [box for box, category in regions if category in nouns]


def count_hits(kept_boxes: np.ndarray, expr: Expression, regions) -> tuple[int, int, int]:
    """(referent hit 0/1, contextual matched, contextual total) for one expression."""
    kept_boxes = np.asarray(kept_boxes, dtype=np.float64).reshape(-1, 4)

    def hit(target) -> bool:
        return bool(np.any(iou_one_to_many(target, kept_boxes) > HIT_IOU))

    targets = pseudo_boxes(expr, regions)
    return int(hit(expr.referent)), sum(hit(t) for t in targets), len(targets)


# -- checks -------------------------------------------------------------------


def check_apply_properties(proposals: dict[str, list[Proposal]], *, nms_iou: float,
                           cross_class: bool, top_n: int) -> list[str]:
    """fused == relatedness * confidence, relatedness in (0, 1), no kept pair
    of one class (any class with cross-class NMS) above the NMS threshold, and
    at most `top_n` boxes per expression."""
    problems = []
    for eid, kept in proposals.items():
        if len(kept) > top_n:
            problems.append(f"{eid}: {len(kept)} proposals above --top-n {top_n}")
        for p in kept:
            if p.fused != p.relatedness * p.confidence:
                problems.append(f"{eid}: fused {p.fused!r} != {p.relatedness!r} * {p.confidence!r}")
            if not 0.0 < p.relatedness < 1.0:
                problems.append(f"{eid}: relatedness {p.relatedness!r} outside (0, 1)")
        boxes = np.array([p.box for p in kept]).reshape(-1, 4)
        cats = np.array([p.category_id for p in kept])
        for i in range(len(kept) - 1):
            rest = np.arange(i + 1, len(kept))
            if not cross_class:
                rest = rest[cats[rest] == cats[i]]
            overlap = iou_one_to_many(boxes[i], boxes[rest])
            if np.any(overlap > nms_iou):
                problems.append(f"{eid}: kept boxes overlap at IoU {overlap.max():.4f} > {nms_iou}")
    return problems[:20]


def check_losses_finite(losses: list[float]) -> list[str]:
    if not losses:
        return ["no epoch losses in the train log"]
    return [f"non-finite loss {v!r}" for v in losses if not math.isfinite(v)]


def check_recount_matches(recount: tuple[int, int, int], row: dict[str, str],
                          what: str) -> list[str]:
    hits, matched, total = recount
    got = (int(row["referent_hits"]), int(row["contextual_matched"]),
           int(row["contextual_total"]))
    if got != (hits, matched, total):
        return [f"{what} budget {row['budget']}: report has referent/contextual "
                f"{got}, recount gives {(hits, matched, total)}"]
    return []


def recount_apply(proposals: dict[str, list[Proposal]], expressions: list[Expression],
                  regions_by_image) -> tuple[int, int, int]:
    """Referent hits and contextual matches of `apply` output over `expressions`."""
    totals = np.zeros(3, dtype=np.int64)
    for expr in expressions:
        boxes = np.array([p.box for p in proposals.get(expr.expression_id, [])])
        totals += count_hits(boxes, expr, regions_by_image.get(expr.image_id, []))
    return tuple(int(v) for v in totals)


def check_baseline_oracle(program: dict[str, list[Proposal]], expressions: list[Expression],
                          dump: dict[str, ImageBoxes], *, min_confidence: float,
                          nms_iou: float, cross_class: bool) -> list[str]:
    """The program's full confidence-criterion keep lists equal the oracle's."""
    problems = []
    for expr in expressions:
        image = dump[expr.image_id]
        keep = nms_keep(image, image.confidences, min_confidence=min_confidence,
                        iou_threshold=nms_iou, cross_class=cross_class)
        want = [(tuple(image.boxes[i].tolist()), int(image.category_ids[i]), float(image.confidences[i]))
                for i in keep]
        got = [(p.box, p.category_id, p.confidence)
               for p in program.get(expr.expression_id, [])]
        if got != want:
            problems.append(f"{expr.expression_id}: program keeps {len(got)} boxes, "
                            f"oracle keeps {len(want)} (or they differ)")
    return problems[:20]


def baseline_recounts(expressions: list[Expression], dump: dict[str, ImageBoxes],
                      regions_by_image, budgets: list[str], *, min_confidence: float,
                      nms_iou: float, cross_class: bool,
                      real_case_min_score: float) -> dict[str, tuple[int, int, int]]:
    """Oracle recall counts of the confidence baseline, per budget label."""
    totals = {b: np.zeros(3, dtype=np.int64) for b in budgets}
    for expr in expressions:
        image = dump[expr.image_id]
        keep = nms_keep(image, image.confidences, min_confidence=min_confidence,
                        iou_threshold=nms_iou, cross_class=cross_class)
        regions = regions_by_image.get(expr.image_id, [])
        for b in budgets:
            chosen = select_budget(keep, image.confidences, b, real_case_min_score)
            totals[b] += count_hits(image.boxes[chosen], expr, regions)
    return {b: tuple(int(v) for v in t) for b, t in totals.items()}
