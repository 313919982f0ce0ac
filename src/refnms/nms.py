"""Greedy NMS on a fused score, proposal budgets, the one proposal pipeline
and the one loop that gives each expression its keep list.

Every method suppresses on the fused score, relatedness times detection
confidence. The expression-aware method takes relatedness from the model
(`model.score_boxes`); the confidence baseline gives every box relatedness
1.0, so its fused score is its confidence. NMS is greedy, per-class by
default, with deterministic index tie-breaking. Detections are referred to
by their row in the image's columns throughout. `keep_lists` serves `apply`
and `eval-recall` alike: they differ only in what they do with each keep
list.

The confidence filter ignores the expression, so every expression of an
image has the same survivors and the same relation "row i suppresses row j";
only the visiting order differs. `keep_lists` therefore groups a window of
consecutive expressions by image once (`model.Window`). One
`model.score_boxes` call scores it as one (expressions, widest survivor
count) matrix, and `proposal_pipeline` passes that matrix, or a constant,
times the confidences to one `per_class_nms` call. That call builds one
sparse relation over every row of the window's images (`_relation`), from a
sweep over (image, x1) that never builds an n x n matrix, and each
expression walks its image's rows of it once, greedily, stopping where its
`ProposalBudget` ends: that is a prefix of the keep list, and greedy NMS's
first k kept rows depend only on the rows visited before them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import paired_iou
from .ingest import ImageDetections
from .model import (
    DEFAULT_MIN_CONFIDENCE,
    PASS_FLOATS,
    ModelParameters,
    Window,
    score_boxes,
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
    result is the kept rows in visit order.

    A window of images: `boxes` and `category_ids` hold ``sizes[i]`` rows of
    image i, one image after another, and row e of `scores` (E, width)
    scores the rows of image ``images[e]`` (its entries past that image's
    size are ignored). The result is ``e * width + row`` for each kept row,
    expression by expression, each in visit order. One `_relation` call
    gives the suppression relation of every image of the window, however
    many expressions read it, and each expression walks its image's rows.
    """
    if sizes is None:
        sizes, images, scores = np.array([len(scores)]), np.zeros(1, dtype=np.intp), scores[None]
    width = scores.shape[1]
    starts = np.cumsum(sizes) - sizes
    relation = _relation(
        boxes, np.repeat(np.arange(len(sizes)), sizes),
        category_ids if cfg.per_class else None, cfg.iou_threshold,
    )
    scores = np.where(np.arange(width) < sizes[images, None], scores, -np.inf)
    # each expression's image's rows in visit order, then its padding
    orders = np.argsort(-scores, axis=1, kind="stable") + starts[images, None]
    floor_visits = np.count_nonzero(scores >= budget.min_score, axis=1)
    kept, counts = [], []
    for order, size, floor in zip(orders.tolist(), sizes[images].tolist(), floor_visits.tolist()):
        walk = _walk(relation, order[:size], floor, budget.n)
        kept += walk
        counts.append(len(walk))
    offsets = np.arange(len(images)) * width - starts[images]  # window row -> flat index
    return np.array(kept, dtype=np.intp) + np.repeat(offsets, counts)


def _relation(boxes, images, categories, iou_threshold: float) -> tuple[list[int], np.ndarray]:
    """Which rows suppress which, as a symmetric CSR (indptr, neighbours):
    row i suppresses row j, and j suppresses i, iff
    ``neighbours[indptr[i]:indptr[i + 1]]`` holds j.

    `images` gives each row's image. A pair suppresses when both rows are
    of one image, its IoU is strictly above `iou_threshold` and, given
    `categories`, both rows are of one category. A sweep over (image, x1)
    finds the pairs that can overlap: in that order, row p's candidates are
    the rows after it of its own image that start left of its right edge,
    and one `searchsorted` over the keys ``image + 1j * x1`` (numpy orders
    complex numbers by real part, then imaginary part) finds where they
    end. They are taken at most `PASS_FLOATS` pairs at a time, pairs apart
    in y or category are dropped, and `paired_iou` decides the rest,
    bit-equal to `pairwise_iou`.
    """
    n = len(boxes)
    keys = images + 1j * boxes[:, 0]
    by_x = np.argsort(keys, kind="stable").astype(np.int32)
    keys, boxes = keys[by_x], boxes[by_x]
    x1, y1, x2, y2 = boxes.T.copy()
    past = np.searchsorted(keys, keys.real + 1j * x2, side="left")  # past row p's candidates
    counts = np.maximum(past - np.arange(1, n + 1), 0)
    ends = np.cumsum(counts)  # row p's candidates are pairs ends[p] - counts[p] to ends[p]
    starts = ends - counts
    if categories is not None:
        categories = categories[by_x]
    total = int(ends[-1]) if n else 0
    pairs = [np.zeros((2, 0), dtype=np.int32)]
    for first in range(0, total, PASS_FLOATS):
        last = min(first + PASS_FLOATS, total)
        lo = int(np.searchsorted(ends, first, side="right"))
        hi = int(np.searchsorted(ends, last - 1, side="right")) + 1
        take = counts[lo:hi].copy()  # the chunk's pairs of rows lo to hi
        take[0] -= first - starts[lo]
        take[-1] -= ends[hi - 1] - last
        p = np.repeat(np.arange(lo, hi), take)
        q = np.arange(first + 1, last + 1) + (p - starts[p])
        near = (y1[q] < np.repeat(y2[lo:hi], take)) & (np.repeat(y1[lo:hi], take) < y2[q])
        if categories is not None:
            near &= categories[q] == np.repeat(categories[lo:hi], take)
        near = np.flatnonzero(near)
        p, q = p[near], q[near]
        suppresses = paired_iou(boxes[p], boxes[q]) > iou_threshold
        pairs.append(by_x[np.stack([p[suppresses], q[suppresses]])])
    i, j = np.concatenate(pairs, axis=1)
    source, target = np.concatenate([i, j]), np.concatenate([j, i])
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(source, minlength=n), out=indptr[1:])
    return indptr.tolist(), target[np.argsort(source, kind="stable")]


def _walk(relation: tuple[list[int], np.ndarray], order: list[int], floor_visits: int, n: int):
    """Greedy NMS over `_relation`'s `relation`, visiting the rows of `order`:
    the kept rows, in visit order. It stops before keeping another row once
    `n` rows are kept and `floor_visits` rows visited."""
    indptr, neighbours = relation
    alive = bytearray(b"\x01") * (len(indptr) - 1)
    kept = []
    for step, row in enumerate(order):
        if alive[row]:
            if len(kept) >= n and step >= floor_visits:
                break
            kept.append(row)
            first, last = indptr[row], indptr[row + 1]
            if first != last:
                for other in neighbours[first:last].tolist():
                    alive[other] = 0
    return kept


def keep_lists(
    expressions: Iterable[tuple[ImageDetections, Sequence[int] | None]],
    relatedness: ModelParameters | float,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
    nms_cfg: NmsConfig = NmsConfig(),
    budget: ProposalBudget = ProposalBudget(),
) -> Iterator[KeepList]:
    """The `proposal_pipeline` keep list of each (image, token indices)
    expression, in the order given, each cut to `budget`'s prefix: NMS stops there.

    One loop takes a window of expressions at a time (`_windows`), each
    grouped by image once. With model parameters, one `model.score_boxes`
    call scores the window as one matrix, which goes into NMS as it is. A
    constant relatedness, such as the baseline's 1.0, ignores the expression
    and its token indices: NMS runs once per distinct image of the window,
    and that image's expressions share its keep list.
    """
    for window in _windows(expressions, min_confidence):
        if isinstance(relatedness, ModelParameters):
            yield from proposal_pipeline(window, score_boxes(window, relatedness), nms_cfg, budget)
        else:
            kept = proposal_pipeline(window, relatedness, nms_cfg, budget)
            yield from (kept[i] for i in window.image_of.tolist())


def _windows(expressions, min_confidence: float) -> Iterator[Window]:
    """The (image, token indices) expressions in consecutive `Window`s. A
    window is cut between runs of consecutive expressions of one image,
    where its expressions times its widest survivor count would pass
    `PASS_FLOATS`; a run is never split, so a run over the bound alone is a
    window of its own."""
    window, width = [], 0  # the window's expressions so far, its widest survivor count
    for image, run in groupby(expressions, key=lambda expression: expression[0]):
        run = list(run)
        size = len(survivors(image, min_confidence))
        if window and (len(window) + len(run)) * max(width, size) > PASS_FLOATS:
            yield Window.of(window, min_confidence)
            window, width = [], 0
        window += run
        width = max(width, size)
    if window:
        yield Window.of(window, min_confidence)


def proposal_pipeline(window: Window, related: float | np.ndarray,
                      nms_cfg: NmsConfig = NmsConfig(),
                      budget: ProposalBudget = ProposalBudget()) -> list[KeepList]:
    """Relatedness, then NMS on the fused score up to the end of `budget`'s
    prefix, over `window`'s survivors: the keep lists of one `per_class_nms`
    call over its images.

    `related` is the (expressions, ``window.width``) relatedness matrix of
    `model.score_boxes`, giving one keep list per expression, or one
    constant for every box, giving one per distinct image; 1.0 makes the
    fused score the confidence, which is the expression-agnostic baseline.
    """
    if np.ndim(related) and np.shape(related) != (len(window.image_of), window.width):
        raise ValueError(f"proposal_pipeline: {np.shape(related)} relatedness for "
                         f"{len(window.image_of)} expressions of {window.width} boxes")
    images = list(zip(window.images, window.rows))
    width = window.width
    confidences = np.zeros((len(images), width))
    for confidence, (image, rows) in zip(confidences, images):
        confidence[: len(rows)] = image.confidences[rows]
    owners = window.image_of if np.ndim(related) else np.arange(len(images))
    related = np.broadcast_to(related, (len(owners), width))
    fused = related * confidences[owners]
    flat = per_class_nms(
        np.concatenate([image.boxes[rows] for image, rows in images]),
        fused,
        np.concatenate([image.category_ids[rows] for image, rows in images]),
        nms_cfg,
        budget,
        sizes=np.array([len(rows) for rows in window.rows]),
        images=owners,
    )
    which, position = np.divmod(flat, width)
    pieces = np.split(position, np.searchsorted(which, np.arange(1, len(owners))))
    return [
        KeepList(window.rows[i][k], fused[e, k], related[e, k])
        for e, (i, k) in enumerate(zip(owners.tolist(), pieces))
    ]
