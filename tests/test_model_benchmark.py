"""Micro-benchmark of the relatedness model: one forward and backward pass.

Times `relatedness_forward` plus `backward` of the summed scores for one
expression, at the acceptance scale (D=8, hidden 16, 20 boxes) and at paper
scale (D=2048, 300-d embeddings, hidden 256, 100 boxes). Run
`python -m pytest tests/test_model_benchmark.py --benchmark-enable --benchmark-only`
for the timing table; a plain test run makes one pass per scale and checks
that every parameter received a finite gradient.
"""

import numpy as np
import pytest

from refnms import autodiff as ad
from refnms.geometry import Box
from refnms.ingest import DetectionRecord, ImageDetections
from refnms.model import ModelConfig, init_parameters, relatedness_forward

SCALES = {
    "acceptance": (ModelConfig(vocab_size=40, feature_dim=8, embed_dim=8, hidden_size=16), 20),
    "paper": (ModelConfig(vocab_size=40, feature_dim=2048, embed_dim=300, hidden_size=256), 100),
}


def image_of(n_boxes, feature_dim, rng):
    records = []
    for _ in range(n_boxes):
        x1, y1 = rng.uniform(0, 500, size=2)
        records.append(
            DetectionRecord(Box(x1, y1, x1 + 40.0, y1 + 60.0), int(rng.integers(8)), "obj",
                            float(rng.uniform(0.1, 1.0)), rng.normal(size=feature_dim))
        )
    return ImageDetections("img", tuple(records))


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_forward_backward_speed(benchmark, scale):
    cfg, n_boxes = SCALES[scale]
    rng = np.random.default_rng(5)
    params = init_parameters(cfg, seed=5)
    image = image_of(n_boxes, cfg.feature_dim, rng)
    indices = [int(i) for i in rng.integers(1, cfg.vocab_size, size=8)]

    def step():
        params.zero_gradients()
        _, scores = relatedness_forward(image, indices, params, min_confidence=0.0)
        ad.backward(ad.sum(scores))
        return scores

    scores = benchmark(step)
    assert scores.value.shape == (n_boxes,)
    for name, node in params.named_parameters().items():
        assert node.grad is not None and np.all(np.isfinite(node.grad)), name
