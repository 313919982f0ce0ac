"""Greedy NMS on a fused score, proposal budgets, the one proposal pipeline
and the one loop that gives each expression its keep list.

Every method suppresses on the fused score, relatedness times detection
confidence. The expression-aware method takes relatedness from the model
(`model.score_expressions`); the confidence baseline gives every box
relatedness 1.0, so its fused score is its confidence. NMS is greedy,
per-class by default, with deterministic index tie-breaking, and runs as one
vectorised pass per call. Detections are referred to by their row in the
image's columns throughout. `keep_lists` serves `apply` and `eval-recall`
alike: they differ only in what they do with each keep list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import pairwise_iou
from .ingest import ImageDetections
from .model import DEFAULT_MIN_CONFIDENCE, ModelParameters, score_expressions, survivors


@dataclass(frozen=True)
class NmsConfig:
    iou_threshold: float = 0.3
    per_class: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold must lie in (0, 1), got {self.iou_threshold}")


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

    def count(self, scores: np.ndarray) -> int:
        """How many leading entries of a keep list with these `scores` the budget keeps.

        A keep list is ordered by descending score, so both the best `n` and
        every score at or above the floor are a prefix of it.
        """
        if self.n is not None:
            return min(self.n, len(scores))
        return int(np.count_nonzero(scores >= self.min_score))


@dataclass(frozen=True)
class KeepList:
    """The detections kept for one expression, best first.

    ``rows`` index the image's columns; ``scores`` are their fused scores
    (descending, ties in ascending row order) and ``relatedness`` their
    relatedness, so ``scores == relatedness * confidences[rows]``.
    """

    rows: np.ndarray
    scores: np.ndarray
    relatedness: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


# Rows of boxes whose IoUs one step computes: a (32, n) block stays small at
# n = 1000 boxes, and still amortises numpy's per-call cost on small images.
_BLOCK_ROWS = 32


def per_class_nms(
    boxes: np.ndarray, scores: np.ndarray, category_ids: np.ndarray, cfg: NmsConfig
) -> np.ndarray:
    """Rows of `boxes` (n, 4) kept by greedy NMS on `scores`, in visit order.

    Rows are visited in descending score with ties broken by ascending row;
    each kept row suppresses every later row overlapping it with IoU
    strictly above ``cfg.iou_threshold`` and, with ``cfg.per_class``, of its
    own `category_ids`. One pass serves every category. IoUs are computed
    for a block of rows still alive at a time, against the rows from the
    block on, so no n x n matrix is ever built.
    """
    order = np.argsort(-scores, kind="stable")
    boxes = boxes[order]
    categories = category_ids[order] if cfg.per_class else None
    n = len(order)
    position = np.arange(n)
    alive = np.ones(n, dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        rows = start + np.flatnonzero(alive[start : start + _BLOCK_ROWS])
        survives = pairwise_iou(boxes[rows], boxes[start:]) <= cfg.iou_threshold
        survives |= position[start:] <= rows[:, None]
        if categories is not None:
            survives |= categories[rows, None] != categories[start:]
        for r, i in enumerate(rows.tolist()):
            if alive[i]:
                alive[start:] &= survives[r]
    return order[alive]


def select_proposals(kept: KeepList, budget: ProposalBudget) -> KeepList:
    """Apply a proposal budget to a keep list: a prefix of it."""
    k = budget.count(kept.scores)
    return KeepList(kept.rows[:k], kept.scores[:k], kept.relatedness[:k])


def proposal_pipeline(
    image: ImageDetections,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    nms_cfg: NmsConfig = NmsConfig(),
    budget: ProposalBudget | None = None,
    *,
    relatedness: float | np.ndarray = 1.0,
) -> KeepList:
    """Confidence filter, relatedness, NMS on the fused score, then the budget.

    `relatedness` is one value per surviving row (`model.survivors`), such as
    the model's scores for an expression, or one constant for every box; the
    default 1.0 makes the fused score the confidence, which is the
    expression-agnostic baseline.
    """
    rows = survivors(image, min_confidence)
    related = np.asarray(relatedness, dtype=np.float64)
    if related.ndim == 0:
        related = np.full(len(rows), float(related))
    elif related.shape != rows.shape:
        raise ValueError(f"proposal_pipeline: {related.shape} relatedness for {len(rows)} boxes")
    fused = related * image.confidences[rows]
    kept = per_class_nms(image.boxes[rows], fused, image.category_ids[rows], nms_cfg)
    keep = KeepList(rows[kept], fused[kept], related[kept])
    return keep if budget is None else select_proposals(keep, budget)


def keep_lists(
    expressions: Iterable[tuple[ImageDetections, Sequence[int] | None]],
    relatedness: ModelParameters | float,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    nms_cfg: NmsConfig = NmsConfig(),
) -> Iterator[KeepList]:
    """The unbudgeted `proposal_pipeline` keep list of each (image, token
    indices) expression, in the order given.

    With model parameters, the model scores the expressions in passes
    (`model.score_expressions`). A constant relatedness, such as the
    baseline's 1.0, ignores the expression and its token indices: NMS runs
    once per distinct image object and its keep list is reused.
    """
    if isinstance(relatedness, ModelParameters):
        expressions = list(expressions)  # score_expressions reads a whole pass ahead
        scores = score_expressions(expressions, relatedness, min_confidence)
        for (image, _), related in zip(expressions, scores):
            yield proposal_pipeline(image, min_confidence, nms_cfg, relatedness=related)
        return
    by_image: dict[ImageDetections, KeepList] = {}
    for image, _ in expressions:
        if image not in by_image:
            by_image[image] = proposal_pipeline(
                image, min_confidence, nms_cfg, relatedness=relatedness
            )
        yield by_image[image]
