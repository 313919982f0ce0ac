"""Greedy NMS on a fused score, proposal budgets, the one proposal pipeline
and the one loop that gives each expression its keep list.

Every method suppresses on the fused score, relatedness times detection
confidence. The expression-aware method takes relatedness from the model
(`model.score_expressions`); the confidence baseline gives every box
relatedness 1.0, so its fused score is its confidence. NMS is greedy,
per-class by default, with deterministic index tie-breaking. Detections are
referred to by their row in the image's columns throughout. `keep_lists`
serves `apply` and `eval-recall` alike: they differ only in what they do
with each keep list.

The confidence filter ignores the expression, so every expression of an
image has the same survivors and the same relation "row i suppresses row j";
only the visiting order differs. `keep_lists` therefore takes a window of
consecutive expressions at a time. An image whose survivors fit in one
`_BLOCK_ROWS` block has its suppression relation computed once per window,
and one greedy walk decides all such expressions of the window together. A
larger image gets a blocked pass per expression, which never builds its
n x n matrix. Both stop where the `ProposalBudget` they are given ends: it
is a prefix of the keep list, and greedy NMS's first k kept rows depend only
on the rows visited before them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .geometry import pairwise_iou
from .ingest import ImageDetections
from .model import (
    DEFAULT_MIN_CONFIDENCE,
    PASS_FLOATS,
    ModelParameters,
    score_expressions,
    survivors,
)


@dataclass(frozen=True)
class NmsConfig:
    iou_threshold: float = 0.3
    per_class: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold must lie in (0, 1), got {self.iou_threshold}")


@dataclass(frozen=True)
class ProposalBudget:
    """The first `n` rows of a keep list and every row whose fused score is
    at least `min_score`.

    A keep list is ordered by descending score, so that is always a prefix
    of it, and NMS stops where the prefix ends. `top_n` and `threshold` set
    one of the two; the default keeps the whole list.
    """

    n: int = 0
    min_score: float = -math.inf

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if math.isnan(self.min_score):
            raise ValueError("min_score must not be NaN")

    @classmethod
    def top_n(cls, n: int) -> "ProposalBudget":
        return cls(n, math.inf)

    @classmethod
    def threshold(cls, min_score: float) -> "ProposalBudget":
        return cls(0, min_score)

    @classmethod
    def covering(cls, budgets: Sequence["ProposalBudget"]) -> "ProposalBudget":
        """The shortest budget whose prefix holds every one of `budgets`'
        prefixes: the largest `n` and the lowest floor."""
        return cls(
            max((b.n for b in budgets), default=0),
            min((b.min_score for b in budgets), default=math.inf),
        )

    def count(self, scores: np.ndarray) -> int:
        """How many leading entries of a keep list with these `scores` the budget keeps."""
        return max(min(self.n, len(scores)), int(np.count_nonzero(scores >= self.min_score)))


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
# An image of at most this many survivors is also small enough for the
# window walk, whose IoU call builds its whole (n, n) matrix.
_BLOCK_ROWS = 32


def per_class_nms(
    boxes: np.ndarray,
    scores: np.ndarray,
    category_ids: np.ndarray,
    cfg: NmsConfig,
    budget: ProposalBudget = ProposalBudget(),
    *,
    sizes: np.ndarray | None = None,
    images: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy NMS on `scores`: the kept entries, as flat indices into `scores`.

    Rows are visited in descending score with ties broken by ascending row;
    each kept row suppresses every later row overlapping it with IoU
    strictly above ``cfg.iou_threshold`` and, with ``cfg.per_class``, of its
    own `category_ids`. One pass serves every category. The walk ends where
    `budget`'s prefix does.

    One image: `boxes` (n, 4), `scores` (n,) and `category_ids` (n,). The
    result is the kept rows in visit order. IoUs are computed for a block of
    rows still alive at a time, against the rows from the block on, so no
    n x n matrix is ever built.

    A window of images of at most `_BLOCK_ROWS` rows each: `boxes` and
    `category_ids` hold ``sizes[i]`` rows of image i, one image after
    another, and row e of `scores` (E, width) scores the rows of image
    ``images[e]`` (its entries past that image's size are ignored). Each
    image's suppression relation is computed once, for a stack of images per
    IoU call, and one walk decides every row of `scores`. The result is
    ``e * width + row`` for each kept row, expression by expression, each in
    visit order.
    """
    if sizes is None:
        return _blocked_nms(boxes, scores, category_ids, cfg, budget)
    return _window_nms(boxes, scores, category_ids, cfg, budget, sizes, images)


def _blocked_nms(
    boxes, scores, category_ids, cfg: NmsConfig, budget: ProposalBudget
) -> np.ndarray:
    order = np.argsort(-scores, kind="stable")
    boxes = boxes[order]
    categories = category_ids[order] if cfg.per_class else None
    n = len(order)
    floor_visits = np.count_nonzero(scores >= budget.min_score)
    position = np.arange(n)
    alive = np.ones(n, dtype=bool)
    kept = 0
    for start in range(0, n, _BLOCK_ROWS):
        if kept >= budget.n and start >= floor_visits:
            alive[start:] = False
            break
        rows = start + np.flatnonzero(alive[start : start + _BLOCK_ROWS])
        survives = pairwise_iou(boxes[rows], boxes[start:]) <= cfg.iou_threshold
        survives |= position[start:] <= rows[:, None]
        if categories is not None:
            survives |= categories[rows, None] != categories[start:]
        for r, i in enumerate(rows.tolist()):
            if alive[i]:
                if kept >= budget.n and i >= floor_visits:
                    alive[i:] = False
                    break
                alive[start:] &= survives[r]
                kept += 1
    return order[alive]


def _window_nms(
    boxes, scores, category_ids, cfg: NmsConfig, budget: ProposalBudget, sizes, images
):
    width = scores.shape[1]
    real = np.arange(width) < sizes[:, None]
    padded = np.zeros((len(sizes), width, 4))
    padded[real] = boxes
    # row i suppresses row j of its image; padding is never alive, so it
    # neither suppresses nor is kept. IoUs are computed for a stack of
    # images at a time, each stack within PASS_FLOATS floats, so a window's
    # float temporaries stay small beside its boolean relation.
    suppresses = np.empty((len(sizes), width, width), dtype=bool)
    stack = max(1, PASS_FLOATS // (width * width))
    for first in range(0, len(sizes), stack):
        part = padded[first : first + stack]
        suppresses[first : first + stack] = pairwise_iou(part, part) > cfg.iou_threshold
    if cfg.per_class:
        categories = np.zeros(real.shape, dtype=np.int64)
        categories[real] = category_ids
        suppresses &= categories[:, :, None] == categories[:, None, :]
    alive = real[images]
    scores = np.where(alive, scores, -np.inf)
    order = np.argsort(-scores, axis=1, kind="stable")
    floor_visits = np.count_nonzero(scores >= budget.min_score, axis=1)
    expression = np.arange(len(scores))
    kept = np.zeros(alive.shape, dtype=bool)  # by visit step
    count = np.zeros(len(scores), dtype=np.intp)
    for step in range(width):
        going = (count < budget.n) | (step < floor_visits)
        if not going.any():
            break
        row = order[:, step]
        keep = going & alive[expression, row]
        kept[:, step] = keep
        count += keep
        alive &= ~(suppresses[images, row] & keep[:, None])
    expression, step = np.nonzero(kept)
    return expression * width + order[expression, step]


def proposal_pipeline(
    image: ImageDetections,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    nms_cfg: NmsConfig = NmsConfig(),
    budget: ProposalBudget = ProposalBudget(),
    *,
    relatedness: float | np.ndarray = 1.0,
) -> KeepList:
    """Confidence filter, relatedness, then NMS on the fused score up to the end
    of `budget`'s prefix.

    `relatedness` is one value per surviving row (`model.survivors`), such as
    the model's scores for an expression, or one constant for every box; the
    default 1.0 makes the fused score the confidence, which is the
    expression-agnostic baseline.
    """
    (keep,) = _keep_lists_of([_pool(image, min_confidence, relatedness)], nms_cfg, budget)
    return keep


def keep_lists(
    expressions: Iterable[tuple[ImageDetections, Sequence[int] | None]],
    relatedness: ModelParameters | float,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    nms_cfg: NmsConfig = NmsConfig(),
    budget: ProposalBudget = ProposalBudget(),
) -> Iterator[KeepList]:
    """The `proposal_pipeline` keep list of each (image, token indices)
    expression, in the order given, each cut to `budget`'s prefix: NMS stops there.

    With model parameters, the model scores the expressions in passes
    (`model.score_expressions`). A constant relatedness, such as the
    baseline's 1.0, ignores the expression and its token indices: NMS runs
    once per distinct image object and its keep list is reused.
    """
    if isinstance(relatedness, ModelParameters):
        expressions = list(expressions)  # score_expressions reads a whole pass ahead
        scores = score_expressions(expressions, relatedness, min_confidence)
        pools = (
            _pool(image, min_confidence, related)
            for (image, _), related in zip(expressions, scores)
        )
        yield from _keep_lists_of(pools, nms_cfg, budget)
        return
    images = [image for image, _ in expressions]
    distinct = dict.fromkeys(images)
    pools = (_pool(image, min_confidence, relatedness) for image in distinct)
    by_image = dict(zip(distinct, _keep_lists_of(pools, nms_cfg, budget)))
    for image in images:
        yield by_image[image]


class _Pool(NamedTuple):
    """One expression's survivors (rows of its image), their relatedness and
    their fused score."""

    image: ImageDetections
    rows: np.ndarray
    related: np.ndarray
    fused: np.ndarray


def _pool(image: ImageDetections, min_confidence: float, relatedness: float | np.ndarray):
    rows = survivors(image, min_confidence)
    related = np.asarray(relatedness, dtype=np.float64)
    if related.ndim == 0:
        related = np.full(len(rows), float(related))
    elif related.shape != rows.shape:
        raise ValueError(f"proposal_pipeline: {related.shape} relatedness for {len(rows)} boxes")
    return _Pool(image, rows, related, related * image.confidences[rows])


def _keep_lists_of(pools, nms_cfg: NmsConfig, budget: ProposalBudget):
    """The keep list of each `_pool`, NMS run a window of consecutive pools
    at a time: pools times the widest survivor count stay within `PASS_FLOATS`."""
    window: list = []
    width = 0
    for pool in pools:
        n = len(pool.rows)
        if window and (len(window) + 1) * max(width, n) > PASS_FLOATS:
            yield from _window_keep_lists(window, nms_cfg, budget)
            window, width = [], 0
        window.append(pool)
        width = max(width, n)
    if window:
        yield from _window_keep_lists(window, nms_cfg, budget)


def _window_keep_lists(window, nms_cfg: NmsConfig, budget: ProposalBudget) -> list[KeepList]:
    """One walk for the pools whose image fits one block, a blocked pass for
    each larger one, and no NMS call for a pool without survivors."""
    kept = [np.zeros(0, dtype=np.intp)] * len(window)  # positions in each pool's survivors
    small = [e for e, pool in enumerate(window) if 0 < len(pool.rows) <= _BLOCK_ROWS]
    if small:
        rows_of = {window[e].image: window[e].rows for e in small}  # distinct images, in order
        index = {image: i for i, image in enumerate(rows_of)}
        width = max(len(rows) for rows in rows_of.values())
        scores = np.zeros((len(small), width))
        for s, e in enumerate(small):
            scores[s, : len(window[e].fused)] = window[e].fused
        flat = per_class_nms(
            np.concatenate([image.boxes[rows] for image, rows in rows_of.items()]),
            scores,
            np.concatenate([image.category_ids[rows] for image, rows in rows_of.items()]),
            nms_cfg,
            budget,
            sizes=np.array([len(rows) for rows in rows_of.values()]),
            images=np.array([index[window[e].image] for e in small]),
        )
        which, position = np.divmod(flat, width)
        pieces = np.split(position, np.searchsorted(which, np.arange(1, len(small))))
        for e, piece in zip(small, pieces):
            kept[e] = piece
    for e, (image, rows, _, fused) in enumerate(window):
        if len(rows) > _BLOCK_ROWS:
            kept[e] = per_class_nms(
                image.boxes[rows], fused, image.category_ids[rows], nms_cfg, budget
            )
    return [
        KeepList(pool.rows[k], pool.fused[k], pool.related[k]) for pool, k in zip(window, kept)
    ]
