"""Training objectives.

Survivor boxes are labeled by their best overlap against the foreground
(referent plus pseudo ground truths): overlap above 0.5 makes a positive.
Binary cross-entropy trains the scores directly; the margin ranking loss
instead compares positives against hard negatives sampled from strictly
lower overlap bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .geometry import pairwise_iou

# Bin edges for overlap quantization: bin k collects overlaps in
# (0.5 + 0.1*(k-1), 0.5 + 0.1*k], i.e. ceil(max(0, overlap - 0.5) / 0.1).
OVERLAP_BIN_EDGES = (0.5, 0.6, 0.7, 0.8, 0.9)

LOG_CLAMP = 1e-7


def overlap_bin(max_overlap: float) -> int:
    """Quantize an overlap in [0, 1] into bins {0..5}.

    Counting edges strictly below the value evaluates the ceiling form
    exactly in real arithmetic while staying robust to binary-float artifacts
    such as (0.8 - 0.5) / 0.1 > 3.
    """
    b = 0
    for edge in OVERLAP_BIN_EDGES:
        if max_overlap > edge:
            b += 1
    return b


@dataclass(frozen=True)
class RankingConfig:
    margin: float = 0.1
    max_negatives: int = 100

    def __post_init__(self) -> None:
        if self.margin <= 0.0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if self.max_negatives < 1:
            raise ValueError(f"max_negatives must be >= 1, got {self.max_negatives}")


def assign_labels(boxes: np.ndarray, foreground: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The best IoU of each row of `boxes` (n, 4) against the rows of
    `foreground` (m, 4), 0 without foreground, and its overlap bin, as two
    (n,) arrays. A box is positive exactly when its overlap exceeds 0.5
    (strictly), that is when its bin is nonzero.
    """
    overlaps = pairwise_iou(boxes, foreground).max(axis=1, initial=0.0)
    # `overlap_bin` for every box: the number of edges strictly below it
    bins = (overlaps[:, None] > np.array(OVERLAP_BIN_EDGES)).sum(axis=1)
    return overlaps, bins


def binary_xe(scores: Node, labels, weights=None) -> Node:
    """Mean binary cross-entropy of predicted scores against 0/1 labels.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs. With
    `weights`, one per score, the loss is the weighted sum of the per-score
    terms instead of their mean.
    """
    target = np.asarray(labels, dtype=np.float64)
    if scores.value.ndim != 1 or scores.value.size == 0:
        raise ValueError(f"binary_xe: need a non-empty score vector, got shape {scores.value.shape}")
    if target.shape != scores.value.shape:
        raise ValueError(f"binary_xe: {target.shape} labels for {scores.value.shape} scores")
    p = ad.clamp(scores, LOG_CLAMP, 1.0 - LOG_CLAMP)
    ones = ad.constant(np.ones_like(target))
    pos_term = ad.mul(ad.constant(target), ad.log(p))
    neg_term = ad.mul(ad.constant(1.0 - target), ad.log(ad.sub(ones, p)))
    return ad.mul(_reduce(ad.add(pos_term, neg_term), weights), ad.constant(-1.0))


def _reduce(terms: Node, weights) -> Node:
    """The mean of `terms`, or their sum weighted by `weights`."""
    if weights is None:
        return ad.mean(terms)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != terms.value.shape:
        raise ValueError(f"{weights.shape} weights for {terms.value.shape} loss terms")
    return ad.sum(ad.mul(terms, ad.constant(weights)))


def segment_weights(offsets: np.ndarray) -> np.ndarray:
    """Per-item weights that make a weighted sum the mean over segments of
    each segment's mean; segment b holds items ``offsets[b]:offsets[b + 1]``
    and must not be empty."""
    counts = np.diff(offsets)
    return np.repeat(1.0 / (len(counts) * counts), counts)


def sample_pairs(
    bins: np.ndarray,
    predicted: np.ndarray,
    cfg: RankingConfig = RankingConfig(),
) -> list[tuple[int, int]]:
    """Hard-negative pairs (negative_index, positive_index) from each box's
    overlap bin and predicted score.

    Positives are all boxes with a nonzero bin (overlap > 0.5), in index
    order. For each positive, candidate negatives come from the union of
    strictly lower bins, ranked by descending predicted score (ties broken by
    ascending index) and truncated to ``cfg.max_negatives``. Strict bin order
    guarantees overlap(negative) < overlap(positive) for every pair.
    """
    bins = np.asarray(bins, dtype=np.intp)
    predicted = np.asarray(predicted, dtype=np.float64)
    if bins.ndim != 1 or predicted.shape != bins.shape:
        raise ValueError(f"sample_pairs: {predicted.shape} scores for {bins.shape} bins")
    # every box once, by descending score, ties by ascending index
    ranked = np.argsort(-predicted, kind="stable")
    pools: dict[int, list[int]] = {}
    pairs: list[tuple[int, int]] = []
    for pos in np.flatnonzero(bins).tolist():
        b = int(bins[pos])
        if b not in pools:
            pools[b] = ranked[bins[ranked] < b][: cfg.max_negatives].tolist()
        pairs.extend((i, pos) for i in pools[b])
    return pairs


def ranking_loss(
    pairs: Sequence[tuple[int, int]],
    scores: Node,
    cfg: RankingConfig = RankingConfig(),
    weights=None,
) -> Node:
    """Mean hinge max(0, score_neg - score_pos + margin) over sampled pairs;
    with `weights`, one per pair, their weighted sum.

    An empty pair list yields a constant zero node that is disconnected from
    the graph, so no gradient flows; callers can detect the case by checking
    the pair list itself.
    """
    if not pairs:
        return ad.constant(0.0)
    neg = ad.take(scores, [i for i, _ in pairs])
    pos = ad.take(scores, [j for _, j in pairs])
    margin = ad.constant(np.full(len(pairs), cfg.margin))
    return _reduce(ad.relu(ad.add(ad.sub(neg, pos), margin)), weights)
