"""Axis-aligned bounding-box arithmetic: IoU of two boxes, of every pair of
rows of two box arrays (or stacks of them), and of boxes pair by pair."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: (x1, y1) top-left corner, (x2, y2) bottom-right corner.

    Coordinates are continuous; zero-width or zero-height boxes are legal
    (area 0), inverted corners are not.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"inverted box corners: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes, in [0, 1].

    Returns 0.0 when the boxes are disjoint or the union has zero area
    (degenerate boxes).
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_array(boxes: Sequence[Box]) -> np.ndarray:
    """(n, 4) float64 array of (x1, y1, x2, y2) rows."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., k, m) IoUs between the rows of two `box_array`s, (k, 4) and
    (m, 4), or of two stacks of them, (..., k, 4) and (..., m, 4).

    Performs `iou`'s float operations in its order, so every value is
    bit-equal to `iou` on the same pair of boxes.
    """
    return paired_iou(a[..., :, None, :], b[..., None, :, :])


def paired_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoUs of the boxes of `a` and `b` pair by pair: (..., 4) arrays that
    broadcast against each other give (...) IoUs.

    Performs `iou`'s float operations in its order, so every value is
    bit-equal to `iou` on the same pair of boxes, in either order. Each
    area is computed once per box of the unbroadcast arrays.
    """
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    union = (area_a + area_b) - inter
    overlapping = (iw > 0.0) & (ih > 0.0) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlapping)
