"""Recall of the referent and of contextual pseudo ground truths.

For every expression the retained proposals are checked against the
annotated referent box (hit above 0.5 IoU) and against the pseudo
ground-truth regions (region-side many-to-one matching). Results aggregate
per proposal budget into a CSV-serializable report.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .geometry import Box, hits
from .ingest import (
    EmbeddingTable,
    ExpressionRecord,
    GroundTruthRegion,
    ImageDetections,
    Vocabulary,
    encode_tokens,
)
from .model import ModelParameters
from .nms import NmsConfig, ProposalBudget, baseline_pipeline, ref_nms_pipeline, select_proposals
from .pseudo_gt import generate_pseudo_gt, pseudo_region_boxes

METHODS = ("baseline_conf", "ref_nms")

REPORT_COLUMNS = (
    "split",
    "method",
    "budget",
    "referent_recall",
    "referent_hits",
    "referent_total",
    "contextual_recall",
    "contextual_matched",
    "contextual_total",
)


@dataclass(frozen=True)
class RecallRow:
    referent_hits: int
    referent_total: int
    contextual_matched: int
    contextual_total: int

    def __post_init__(self) -> None:
        if self.referent_hits > self.referent_total:
            raise ValueError("referent hits exceed total")
        if self.contextual_matched > self.contextual_total:
            raise ValueError("contextual matches exceed total")

    @property
    def referent_recall(self) -> float:
        """Percentage in [0, 100]; 0.0 for an empty denominator."""
        if self.referent_total == 0:
            return 0.0
        return 100.0 * self.referent_hits / self.referent_total

    @property
    def contextual_recall(self) -> float:
        if self.contextual_total == 0:
            return 0.0
        return 100.0 * self.contextual_matched / self.contextual_total


@dataclass
class RecallReport:
    """Rows keyed by (split, method, budget label), in insertion order."""

    rows: dict[tuple[str, str, str], RecallRow] = field(default_factory=dict)


def referent_hit(proposals: Iterable[Box], referent: Box) -> bool:
    """True when any proposal overlaps the referent above 0.5 IoU."""
    return any(hits(p, referent) for p in proposals)


def contextual_recall(proposals: Iterable[Box], pseudo_regions: Sequence[Box]) -> tuple[int, int]:
    """(matched, total) over the pseudo regions.

    Matching is region-side many-to-one: one proposal may satisfy several
    regions, and each region counts at most once.
    """
    proposals = list(proposals)
    matched = 0
    for region in pseudo_regions:
        if any(hits(p, region) for p in proposals):
            matched += 1
    return matched, len(pseudo_regions)


@dataclass(frozen=True, eq=False)
class EvalExample:
    """One expression with everything its evaluation needs."""

    expression_id: str
    split: str
    detections: ImageDetections
    referent: Box
    pseudo_boxes: tuple[Box, ...]
    token_indices: tuple[int, ...] | None = None


def build_eval_set(
    expressions: Sequence[ExpressionRecord],
    detections_by_image: Mapping[str, ImageDetections],
    regions_by_image: Mapping[str, Sequence[GroundTruthRegion]],
    table: EmbeddingTable,
    similarity_threshold: float = 0.4,
    vocab: Vocabulary | None = None,
) -> list[EvalExample]:
    """Assemble evaluation examples; token indices only when a vocab is given."""
    examples = []
    for expr in expressions:
        regions = regions_by_image.get(expr.image_id, ())
        pseudo = generate_pseudo_gt(expr, regions, table, similarity_threshold)
        detections = detections_by_image.get(
            expr.image_id, ImageDetections(expr.image_id, ())
        )
        indices = tuple(encode_tokens(expr.tokens, vocab)) if vocab is not None else None
        examples.append(
            EvalExample(
                expression_id=expr.expression_id,
                split=expr.split,
                detections=detections,
                referent=expr.referent_box,
                pseudo_boxes=tuple(pseudo_region_boxes(pseudo, regions)),
                token_indices=indices,
            )
        )
    return examples


def budget_label(budget) -> str:
    return "real_case" if budget == "real_case" else str(int(budget))


def recall_curve(
    examples: Sequence[EvalExample],
    method: str,
    budgets: Sequence,
    *,
    nms_cfg: NmsConfig = NmsConfig(),
    min_confidence: float = 0.05,
    real_case_min_score: float = 0.65,
    params: ModelParameters | None = None,
    report: RecallReport | None = None,
) -> RecallReport:
    """Aggregate referent and contextual recall per proposal budget.

    Budgets are integers (top-N selection) or the string "real_case"
    (selection by score threshold `real_case_min_score`). NMS runs once per
    expression, or once per image for the expression-agnostic baseline;
    budgets only re-slice the keep list. Expressions without any
    pseudo region are excluded from the contextual denominator.
    """
    if not examples:
        raise ValueError("recall_curve: empty example list")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got '{method}'")
    splits = {ex.split for ex in examples}
    if len(splits) != 1:
        raise ValueError(f"recall_curve: examples span several splits {sorted(splits)}")
    split = splits.pop()
    criterion = "confidence" if method == "baseline_conf" else "fused"
    baseline_keeps: dict[ImageDetections, list] = {}
    kept_lists = []
    for ex in examples:
        if method == "baseline_conf":
            # the confidence baseline ignores the expression: NMS once per image
            if ex.detections not in baseline_keeps:
                baseline_keeps[ex.detections] = baseline_pipeline(
                    ex.detections, min_confidence, nms_cfg
                )
            kept = baseline_keeps[ex.detections]
        else:
            if params is None:
                raise ValueError("recall_curve: ref_nms needs trained parameters")
            if ex.token_indices is None:
                raise ValueError(
                    f"recall_curve: example {ex.expression_id} lacks token indices"
                )
            kept = ref_nms_pipeline(
                ex.detections, ex.token_indices, params, min_confidence, nms_cfg
            )
        kept_lists.append(kept)
    if report is None:
        report = RecallReport()
    for budget in budgets:
        if budget == "real_case":
            selector = ProposalBudget.threshold(real_case_min_score)
        else:
            selector = ProposalBudget.top_n(int(budget))
        ref_hits = ctx_matched = ctx_total = 0
        for ex, kept in zip(examples, kept_lists):
            boxes = [p.box for p in select_proposals(kept, selector, criterion)]
            if referent_hit(boxes, ex.referent):
                ref_hits += 1
            if ex.pseudo_boxes:
                matched, total = contextual_recall(boxes, ex.pseudo_boxes)
                ctx_matched += matched
                ctx_total += total
        report.rows[(split, method, budget_label(budget))] = RecallRow(
            ref_hits, len(examples), ctx_matched, ctx_total
        )
    return report


def write_report(report: RecallReport, path) -> None:
    """CSV with one row per (split, method, budget); percentages to 2 decimals."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for (split, method, budget), row in report.rows.items():
            writer.writerow(
                (
                    split,
                    method,
                    budget,
                    f"{row.referent_recall:.2f}",
                    row.referent_hits,
                    row.referent_total,
                    f"{row.contextual_recall:.2f}",
                    row.contextual_matched,
                    row.contextual_total,
                )
            )
