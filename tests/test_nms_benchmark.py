"""Micro-benchmark of cross-class NMS on detector-sized pools of boxes.

Times `per_class_nms` alone, on seeded random boxes of 16-64 px spread over a
640 x 480 image, the make-up of a crowded detector output. Run
`python -m pytest tests/test_nms_benchmark.py --benchmark-only` for the
timing table; a plain test run checks the keep list once per size.
"""

import numpy as np
import pytest

from refnms.geometry import Box, box_array, pairwise_iou
from refnms.model import ScoredProposal
from refnms.nms import NmsConfig, per_class_nms


def detector_like_proposals(n, seed):
    rng = np.random.default_rng(seed)
    proposals = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 576), rng.uniform(0, 416)
        w, h = rng.uniform(16, 64, size=2)
        confidence = float(rng.uniform(0.05, 0.95))
        proposals.append(
            ScoredProposal(Box(x1, y1, x1 + w, y1 + h), int(rng.integers(16)), confidence, 1.0,
                           confidence)
        )
    return proposals


@pytest.mark.parametrize("n", [300, 1000])
def test_cross_class_nms_speed(benchmark, n):
    cfg = NmsConfig(per_class=False)
    kept = benchmark(per_class_nms, detector_like_proposals(n, seed=n), cfg)
    assert 0 < len(kept) < n
    boxes = box_array([p.box for p in kept])
    overlaps = pairwise_iou(boxes, boxes)
    np.fill_diagonal(overlaps, 0.0)
    assert overlaps.max() <= cfg.iou_threshold
