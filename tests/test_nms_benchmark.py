"""Micro-benchmarks of NMS: cross-class NMS on detector-sized pools of
boxes, and `keep_lists` on many small images and on a few crowded ones.

The first times `per_class_nms` alone, on seeded random boxes of 16-64 px
spread over a 640 x 480 image, the make-up of a crowded detector output. The
second times `keep_lists` with a small model (scoring included) on 250
images of 20 such boxes with 2 expressions each, the shape of the
`synth_small` workload, with `apply --top-n 5`'s budget and without one. The
third times `keep_lists` on 4 images of 1,000 such boxes with 2 or 7
expressions each (RefCOCO has about 7 per image) and a top-300 budget; its
model has 2-d features and words, so that scoring stays small beside NMS.
Run `python -m pytest tests/test_nms_benchmark.py --benchmark-enable --benchmark-only`
for the timing table; a plain test run checks the keep lists once per case,
against `per_class_nms` run on each expression alone.
"""

from unittest import mock

import numpy as np
import pytest

import refnms.nms as nms_module
from refnms import model
from refnms.geometry import pairwise_iou
from refnms.ingest import ImageDetections
from refnms.model import ModelConfig, Window, init_parameters, score_boxes, survivors
from refnms.nms import NmsConfig, ProposalBudget, keep_lists, per_class_nms


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


def detector_like_expressions(images, boxes, expressions_per_image, feature_dim, seed=0):
    """(image, token indices) expressions over detector-like images, each
    image's expressions one after another."""
    rng = np.random.default_rng(seed)
    expressions = []
    for i in range(images):
        pool, confidences, categories = detector_like_pool(boxes, seed=seed + i)
        image = ImageDetections(f"img{i}", pool, confidences, categories,
                                rng.normal(size=(boxes, feature_dim)))
        expressions += [(image, rng.integers(1, 20, size=4).tolist())
                        for _ in range(expressions_per_image)]
    return expressions


def check_against_each_expression_alone(expressions, params, cfg, kept, top_n):
    related = score_boxes(Window.of(expressions, 0.05), params)
    for (image, _), relatedness, got in zip(expressions, related, kept):
        rows = survivors(image, 0.05)
        fused = relatedness[: len(rows)] * image.confidences[rows]
        whole = rows[per_class_nms(image.boxes[rows], fused, image.category_ids[rows], cfg)]
        assert got.rows.tolist() == whole[:top_n].tolist()


@pytest.mark.parametrize("top_n", [5, None])
def test_keep_lists_speed_on_small_images(benchmark, top_n):
    cfg = NmsConfig()
    params = init_parameters(ModelConfig(vocab_size=20, feature_dim=8, hidden_size=16), 0)
    expressions = detector_like_expressions(250, 20, 2, feature_dim=8)
    budget = ProposalBudget() if top_n is None else ProposalBudget.top_n(top_n)
    kept = benchmark(lambda: list(keep_lists(expressions, params, nms_cfg=cfg, budget=budget)))
    check_against_each_expression_alone(expressions, params, cfg, kept, top_n)


@pytest.mark.parametrize("expressions_per_image", [2, 7])
def test_keep_lists_speed_on_crowded_images(benchmark, expressions_per_image):
    cfg = NmsConfig()
    params = init_parameters(
        ModelConfig(vocab_size=20, feature_dim=2, embed_dim=2, hidden_size=1), 0
    )
    expressions = detector_like_expressions(4, 1000, expressions_per_image, feature_dim=2)
    budget = ProposalBudget.top_n(300)
    kept = benchmark(lambda: list(keep_lists(expressions, params, nms_cfg=cfg, budget=budget)))
    assert all(len(keep) == 300 for keep in kept)
    check_against_each_expression_alone(expressions, params, cfg, kept, 300)


@pytest.mark.parametrize("expressions_per_image, relations", [(2, 1), (7, 4), (9, 4)])
def test_each_crowded_image_gets_its_relation_once_per_window(expressions_per_image, relations):
    # one relation per window, and windows are cut between images and never
    # split one: the 8 expressions of 2 per image fit one window, and 7 or 9
    # expressions of 1,000 survivors, within PASS_FLOATS or over it, go to
    # one window of their own; the box side sees each image's survivors once
    params = init_parameters(
        ModelConfig(vocab_size=20, feature_dim=2, embed_dim=2, hidden_size=1), 0
    )
    expressions = detector_like_expressions(4, 1000, expressions_per_image, feature_dim=2)
    with mock.patch.object(nms_module, "_relation", wraps=nms_module._relation) as relation, \
            mock.patch.object(model, "_box_side", wraps=model._box_side) as box_side:
        kept = list(keep_lists(expressions, params, budget=ProposalBudget.top_n(300)))
    assert relation.call_count == relations
    assert sum(len(call.args[0]) for call in box_side.call_args_list) == 4000
    check_against_each_expression_alone(expressions, params, NmsConfig(), kept, 300)
