"""Micro-benchmarks of the relatedness model.

`test_forward_backward_speed` times `relatedness_forward` plus `backward` of
the summed scores for one expression, at the acceptance scale (D=8, hidden
16, 20 boxes) and at paper scale (D=2048, 300-d embeddings, hidden 256, 100
boxes); `test_encoder_forward_backward_speed` times the expression encoder
alone on the same 8 tokens. `test_scoring_speed` scores 500 expressions of
the acceptance scale (synth_small's `apply`) in passes with `score_boxes`
on one `Window`, and one by one through the per-expression oracle.
`test_scoring_speed_on_one_paper_scale_image` scores 7 expressions of one
100-box image at paper scale (RefCOCO has about 7 expressions per image), all
together, where the box side runs once, and each alone, where it runs 7
times; the 7 have distinct token sequences or one repeated.
`test_one_box_side_per_image_speeds_paper_scale_scoring` requires the first
to take at most half the time of the second. Run
`python -m pytest tests/test_model_benchmark.py --benchmark-enable --benchmark-only`
for the timing table; a plain test run makes one pass per scale and checks
that every parameter received a finite gradient.
"""

import time

import numpy as np
import pytest

import oracles
from oracles import image_of_rows
from refnms import autodiff as ad
from refnms.geometry import Box
from refnms.model import (
    ModelConfig,
    Window,
    encode_expressions,
    init_parameters,
    make_batch,
    relatedness_forward,
    score_boxes,
)

SCALES = {
    "acceptance": (ModelConfig(vocab_size=40, feature_dim=8, embed_dim=8, hidden_size=16), 20),
    "paper": (ModelConfig(vocab_size=40, feature_dim=2048, embed_dim=300, hidden_size=256), 100),
}


def image_of(n_boxes, feature_dim, rng):
    records = []
    for _ in range(n_boxes):
        x1, y1 = rng.uniform(0, 500, size=2)
        records.append(
            (Box(x1, y1, x1 + 40.0, y1 + 60.0), int(rng.integers(8)),
             float(rng.uniform(0.1, 1.0)), rng.normal(size=feature_dim))
        )
    return image_of_rows("img", records)


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_forward_backward_speed(benchmark, scale):
    cfg, n_boxes = SCALES[scale]
    rng = np.random.default_rng(5)
    params = init_parameters(cfg, seed=5)
    image = image_of(n_boxes, cfg.feature_dim, rng)
    indices = [int(i) for i in rng.integers(1, cfg.vocab_size, size=8)]
    window = Window.of([(image, indices)], 0.0)

    def step():
        params.zero_gradients()
        scores = relatedness_forward(window, params)
        ad.backward(ad.sum(scores))
        return scores

    scores = benchmark(step)
    assert scores.value.shape == (n_boxes,)
    for name, node in params.named_parameters().items():
        assert node.grad is not None and np.all(np.isfinite(node.grad)), name


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_encoder_forward_backward_speed(benchmark, scale):
    cfg, _ = SCALES[scale]
    rng = np.random.default_rng(5)
    params = init_parameters(cfg, seed=5)
    batch = make_batch([rng.integers(1, cfg.vocab_size, size=8).tolist()])
    coefficients = ad.constant(rng.normal(size=(8, cfg.word_feature_dim)))

    def step():
        params.zero_gradients()
        words = encode_expressions(batch, params)
        ad.backward(ad.sum(ad.mul(words, coefficients)))
        return words

    words = benchmark(step)
    assert words.value.shape == (8, cfg.word_feature_dim)
    for name, node in params.named_parameters().items():
        if name != "embeddings" and not name.startswith("gru_"):
            continue
        assert node.grad is not None and np.all(np.isfinite(node.grad)), name


@pytest.mark.parametrize("mode", ["passes", "oracle"])
def test_scoring_speed(benchmark, mode):
    cfg, n_boxes = SCALES["acceptance"]
    rng = np.random.default_rng(6)
    params = init_parameters(cfg, seed=6)
    images = [image_of(n_boxes, cfg.feature_dim, rng) for _ in range(250)]
    expressions = [
        (image, rng.integers(1, cfg.vocab_size, size=int(rng.integers(2, 9))).tolist())
        for image in images for _ in range(2)
    ]

    def score():
        if mode == "passes":
            return list(score_boxes(Window.of(expressions, 0.05), params))
        return [oracles.score_boxes(image, indices, params)[1] for image, indices in expressions]

    scores = benchmark(score)
    assert [len(s) for s in scores] == [n_boxes] * len(expressions)


def paper_scale_image_expressions(texts):
    """Paper-scale parameters and 7 expressions of one 100-box image, with
    distinct token sequences or one sequence 7 times."""
    cfg, n_boxes = SCALES["paper"]
    rng = np.random.default_rng(7)
    params = init_parameters(cfg, seed=7)
    image = image_of(n_boxes, cfg.feature_dim, rng)
    indices = [rng.integers(1, cfg.vocab_size, size=8).tolist() for _ in range(7)]
    if texts == "repeated":
        indices = indices[:1] * 7
    return params, [(image, each) for each in indices]


def score_together_and_alone(params, expressions):
    return (
        lambda: score_boxes(Window.of(expressions, 0.05), params),
        lambda: [score_boxes(Window.of([expression], 0.05), params)[0]
                 for expression in expressions],
    )


@pytest.mark.parametrize("texts", ["distinct", "repeated"])
@pytest.mark.parametrize("mode", ["together", "alone"])
def test_scoring_speed_on_one_paper_scale_image(benchmark, mode, texts):
    params, expressions = paper_scale_image_expressions(texts)
    together, alone = score_together_and_alone(params, expressions)
    scores = benchmark(together if mode == "together" else alone)
    assert [len(s) for s in scores] == [100] * 7


@pytest.mark.parametrize("texts", ["distinct", "repeated"])
def test_one_box_side_per_image_speeds_paper_scale_scoring(texts):
    # ROADMAP item 4a: at least 2x at 7 expressions per image, best of 5
    params, expressions = paper_scale_image_expressions(texts)
    best, scores = {}, {}
    for name, score in zip(("together", "alone"), score_together_and_alone(params, expressions)):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            scores[name] = score()
            times.append(time.perf_counter() - start)
        best[name] = min(times)
    for together, alone in zip(scores["together"], scores["alone"]):
        np.testing.assert_array_equal(together, alone)
    assert best["alone"] >= 2.0 * best["together"], best
