"""Greedy NMS with a pluggable suppression criterion, plus proposal budgets.

The baseline pipeline suppresses on detection confidence alone; the
expression-aware pipeline suppresses on the fused relatedness-times-
confidence score. Both share the same greedy procedure, per-class by
default, with deterministic index tie-breaking; it runs as one vectorised
pass per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geometry import Box, box_array, pairwise_iou
from .ingest import ImageDetections
from .model import (
    DEFAULT_MIN_CONFIDENCE,
    ModelParameters,
    ScoredProposal,
    score_boxes,
)

CRITERIA = ("confidence", "fused")


@dataclass(frozen=True)
class NmsConfig:
    iou_threshold: float = 0.3
    per_class: bool = True
    criterion: str = "confidence"

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold must lie in (0, 1), got {self.iou_threshold}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got '{self.criterion}'")


@dataclass(frozen=True)
class ProposalBudget:
    """Either keep the best `n` proposals or all above a score floor."""

    n: int | None = None
    min_score: float | None = None

    def __post_init__(self) -> None:
        if (self.n is None) == (self.min_score is None):
            raise ValueError("exactly one of n / min_score must be set")
        if self.n is not None and self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")

    @classmethod
    def top_n(cls, n: int) -> "ProposalBudget":
        return cls(n=n)

    @classmethod
    def threshold(cls, min_score: float) -> "ProposalBudget":
        return cls(min_score=min_score)


def criterion_score(p: ScoredProposal, criterion: str) -> float:
    if criterion == "confidence":
        return p.confidence
    if criterion == "fused":
        return p.fused
    raise ValueError(f"unknown criterion '{criterion}'")


# Rows of boxes whose IoUs one step computes: a (32, n) block stays small at
# n = 1000 boxes, and still amortises numpy's per-call cost on small images.
_BLOCK_ROWS = 32


def _greedy_keep(
    boxes: np.ndarray,
    scores: np.ndarray,
    categories: np.ndarray | None,
    iou_threshold: float,
) -> list[int]:
    """Indices of the rows of `boxes` kept by one greedy pass, in visit order.

    Rows are visited in descending score with ties broken by ascending row
    index; each kept row suppresses every later row overlapping it with IoU
    strictly above `iou_threshold` (and, given `categories`, of its own
    category). IoUs are computed for a block of rows still alive at a time,
    against the rows from the block on, so no n x n matrix is ever built.
    """
    order = np.argsort(-scores, kind="stable")
    boxes = boxes[order]
    if categories is not None:
        categories = categories[order]
    n = len(order)
    position = np.arange(n)
    alive = np.ones(n, dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        rows = start + np.flatnonzero(alive[start : start + _BLOCK_ROWS])
        survives = pairwise_iou(boxes[rows], boxes[start:]) <= iou_threshold
        survives |= position[start:] <= rows[:, None]
        if categories is not None:
            survives |= categories[rows, None] != categories[start:]
        for r, i in enumerate(rows.tolist()):
            if alive[i]:
                alive[start:] &= survives[r]
    return order[alive].tolist()


def greedy_nms(items: Sequence[tuple[Box, float]], iou_threshold: float) -> list[int]:
    """Indices kept by greedy suppression, in keep order.

    Boxes are visited in descending score with ties broken by ascending input
    index; each kept box suppresses every remaining box overlapping it with
    IoU strictly above `iou_threshold`.
    """
    scores = np.array([score for _, score in items], dtype=np.float64)
    return _greedy_keep(box_array([box for box, _ in items]), scores, None, iou_threshold)


def per_class_nms(proposals: Sequence[ScoredProposal], cfg: NmsConfig) -> list[ScoredProposal]:
    """Run greedy NMS per category (or one pool) on the configured criterion.

    One pass serves every category: a box only suppresses boxes of its own
    category. The output is ordered by descending criterion score, ties
    broken by ascending position in the input.
    """
    scores = np.array([criterion_score(p, cfg.criterion) for p in proposals], dtype=np.float64)
    categories = None
    if cfg.per_class:
        codes: dict[object, int] = {}
        categories = np.array(
            [codes.setdefault(p.category_id, len(codes)) for p in proposals], dtype=np.intp
        )
    kept = _greedy_keep(
        box_array([p.box for p in proposals]), scores, categories, cfg.iou_threshold
    )
    return [proposals[i] for i in kept]


def select_proposals(
    kept: Sequence[ScoredProposal],
    budget: ProposalBudget,
    criterion: str = "fused",
) -> list[ScoredProposal]:
    """Apply a proposal budget to an NMS keep list."""
    if budget.n is not None:
        ranked = sorted(
            range(len(kept)), key=lambda i: (-criterion_score(kept[i], criterion), i)
        )
        return [kept[i] for i in ranked[: budget.n]]
    return [p for p in kept if criterion_score(p, criterion) >= budget.min_score]


def constant_relatedness_proposals(
    image: ImageDetections,
    relatedness: float,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
) -> list[ScoredProposal]:
    """Confidence-filtered proposals with a constant relatedness stub."""
    return [
        ScoredProposal(
            r.box, r.category_id, r.confidence, relatedness, relatedness * r.confidence
        )
        for r in image.records
        if r.confidence >= min_confidence
    ]


def fused_keep(
    proposals: Sequence[ScoredProposal], nms_cfg: NmsConfig, budget: ProposalBudget | None = None
) -> list[ScoredProposal]:
    """NMS on the fused score, then the optional budget."""
    kept = per_class_nms(proposals, replace(nms_cfg, criterion="fused"))
    if budget is None:
        return kept
    return select_proposals(kept, budget, "fused")


def ref_nms_pipeline(
    image: ImageDetections,
    indices: Sequence[int],
    params: ModelParameters,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    nms_cfg: NmsConfig = NmsConfig(),
    budget: ProposalBudget | None = None,
) -> list[ScoredProposal]:
    """Expression-aware pipeline: score, suppress on the fused score, budget."""
    return fused_keep(score_boxes(image, indices, params, min_confidence), nms_cfg, budget)


def baseline_pipeline(
    image: ImageDetections,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    nms_cfg: NmsConfig = NmsConfig(),
    budget: ProposalBudget | None = None,
) -> list[ScoredProposal]:
    """Expression-agnostic pipeline: suppress and budget on confidence alone.

    Proposals carry relatedness 1.0 so the fused score degenerates to the
    confidence; the same confidence filter as the expression-aware pipeline
    keeps the two comparable.
    """
    proposals = constant_relatedness_proposals(image, 1.0, min_confidence)
    kept = per_class_nms(proposals, replace(nms_cfg, criterion="confidence"))
    if budget is None:
        return kept
    return select_proposals(kept, budget, "confidence")
