"""The example set, and recall of the referent and of contextual pseudo
ground truths.

`build_eval_set` assembles one `EvalExample` per expression; training reads
the same examples. Each example's targets, the referent box then its pseudo
ground-truth regions' boxes, are checked against the retained proposals (hit
above 0.5 IoU, region-side many-to-one matching) in one IoU matrix. Results
aggregate per proposal budget into rows keyed by (split, method, budget).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .geometry import box_array, pairwise_iou
from .ingest import (
    EmbeddingTable,
    ExpressionRecord,
    GroundTruthRegion,
    ImageDetections,
    Vocabulary,
    encode_tokens,
)
from .model import DEFAULT_MIN_CONFIDENCE, ModelParameters
from .nms import NmsConfig, ProposalBudget, keep_lists
from .pseudo_gt import DEFAULT_SIMILARITY_THRESHOLD, generate_pseudo_gt, memoized_similarity

# a proposal hits a target when their IoU is strictly above this
HIT_IOU = 0.5

# the `real_case` budget keeps the proposals whose score reaches this
DEFAULT_REAL_CASE_MIN_SCORE = 0.65

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


def first_hits(proposals: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each row of `targets`, the position of the first row of `proposals`
    that hits it (IoU above `HIT_IOU`), or ``len(proposals)`` when none does."""
    hit = pairwise_iou(proposals, targets) > HIT_IOU
    # a row of hits after the last proposal stands for "none"
    return np.vstack([hit, np.ones((1, len(targets)), dtype=bool)]).argmax(axis=0)


@dataclass(frozen=True, eq=False)
class EvalExample:
    """One expression with everything its evaluation and its training need.

    `targets` is a read-only (1 + m, 4) array: the referent box, then the m
    pseudo ground-truth regions' boxes. Training reads these examples too:
    its foreground is `targets`, and it needs ``token_indices``.
    """

    expression_id: str
    split: str
    detections: ImageDetections
    targets: np.ndarray
    token_indices: tuple[int, ...] | None = None


def build_eval_set(
    expressions: Sequence[ExpressionRecord],
    detections_by_image: Mapping[str, ImageDetections],
    regions_by_image: Mapping[str, Sequence[GroundTruthRegion]],
    table: EmbeddingTable,
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
    vocab: Vocabulary | None = None,
) -> list[EvalExample]:
    """Assemble the examples of `eval-recall` and of training; token indices
    only when a vocab is given."""
    examples = []
    similarity = memoized_similarity(table)
    for expr in expressions:
        regions = regions_by_image.get(expr.image_id, ())
        matched = generate_pseudo_gt(expr, regions, table, similarity_threshold, similarity)
        targets = box_array([expr.referent_box, *(r.box for r in matched)])
        targets.setflags(write=False)
        detections = detections_by_image.get(expr.image_id)
        if detections is None:
            detections = ImageDetections.empty(expr.image_id)
        indices = tuple(encode_tokens(expr.tokens, vocab)) if vocab is not None else None
        examples.append(
            EvalExample(
                expression_id=expr.expression_id,
                split=expr.split,
                detections=detections,
                targets=targets,
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
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    real_case_min_score: float = DEFAULT_REAL_CASE_MIN_SCORE,
    params: ModelParameters | None = None,
) -> dict[tuple[str, str, str], RecallRow]:
    """Aggregate referent and contextual recall per proposal budget.

    Budgets are integers (top-N selection) or the string "real_case"
    (selection by score threshold `real_case_min_score`). Each expression's
    keep list comes from `nms.keep_lists`: the model's relatedness for
    ref_nms, relatedness 1.0 for the baseline. NMS stops once the list is
    long enough for every budget (the largest top-N and the score floor
    together); budgets only re-slice it.
    Rows are keyed by (split, method, budget label), in budget order.
    Expressions without any pseudo region are excluded from the contextual
    denominator.
    """
    if not examples:
        raise ValueError("recall_curve: empty example list")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got '{method}'")
    splits = {ex.split for ex in examples}
    if len(splits) != 1:
        raise ValueError(f"recall_curve: examples span several splits {sorted(splits)}")
    split = splits.pop()
    relatedness: ModelParameters | float = 1.0
    if method == "ref_nms":
        if params is None:
            raise ValueError("recall_curve: ref_nms needs trained parameters")
        for ex in examples:
            if ex.token_indices is None:
                raise ValueError(f"recall_curve: example {ex.expression_id} lacks token indices")
        relatedness = params
    selectors = [
        ProposalBudget.threshold(real_case_min_score) if budget == "real_case"
        else ProposalBudget.top_n(int(budget))
        for budget in budgets
    ]
    kept_lists = keep_lists(
        ((ex.detections, ex.token_indices) for ex in examples),
        relatedness, min_confidence, nms_cfg, ProposalBudget.covering(selectors),
    )
    found_at = []
    for ex, kept in zip(examples, kept_lists):
        # a budget keeps a prefix of the keep list: target j is found within
        # the first k proposals exactly when first[j] < k
        first = first_hits(ex.detections.boxes[kept.rows], ex.targets).tolist()
        found_at.append((kept.scores, first[0], first[1:]))
    rows = {}
    for budget, selector in zip(budgets, selectors):
        ref_hits = ctx_matched = ctx_total = 0
        for scores, referent_at, pseudo_at in found_at:
            k = selector.count(scores)
            ref_hits += referent_at < k
            ctx_matched += sum(at < k for at in pseudo_at)
            ctx_total += len(pseudo_at)
        rows[(split, method, budget_label(budget))] = RecallRow(
            ref_hits, len(examples), ctx_matched, ctx_total
        )
    return rows


def write_report(rows: Mapping[tuple[str, str, str], RecallRow], path) -> None:
    """CSV with one row per (split, method, budget); percentages to 2 decimals."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for (split, method, budget), row in rows.items():
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
