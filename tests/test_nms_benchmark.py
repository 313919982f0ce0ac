"""Micro-benchmark of cross-class NMS on detector-sized pools of boxes.

Times `per_class_nms` alone, on seeded random boxes of 16-64 px spread over a
640 x 480 image, the make-up of a crowded detector output. Run
`python -m pytest tests/test_nms_benchmark.py --benchmark-enable --benchmark-only`
for the timing table; a plain test run checks the keep list once per size.
"""

import numpy as np
import pytest

from refnms.geometry import pairwise_iou
from refnms.nms import NmsConfig, per_class_nms


def detector_like_pool(n, seed):
    """(boxes, confidences, category_ids) of `n` detector-like boxes."""
    rng = np.random.default_rng(seed)
    boxes, confidences, categories = [], [], []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 576), rng.uniform(0, 416)
        w, h = rng.uniform(16, 64, size=2)
        confidences.append(float(rng.uniform(0.05, 0.95)))
        categories.append(int(rng.integers(16)))
        boxes.append((x1, y1, x1 + w, y1 + h))
    return np.array(boxes), np.array(confidences), np.array(categories)


@pytest.mark.parametrize("n", [300, 1000])
def test_cross_class_nms_speed(benchmark, n):
    cfg = NmsConfig(per_class=False)
    boxes, confidences, categories = detector_like_pool(n, seed=n)
    kept = benchmark(per_class_nms, boxes, confidences, categories, cfg)
    assert 0 < len(kept) < n
    overlaps = pairwise_iou(boxes[kept], boxes[kept])
    np.fill_diagonal(overlaps, 0.0)
    assert overlaps.max() <= cfg.iou_threshold
