"""Micro-benchmarks of training: one Adam step over the flat parameter
store, and one steady-state training step at paper scale.

`test_adam_step_speed` times `adam_step` on a full set of gradients at the
acceptance scale (D=8, hidden 16) and at paper scale (D=2048, 300-d
embeddings, hidden 256). `test_paper_scale_training_step_speed` times one
minibatch of training at paper dimensions with a 2,000-word vocabulary:
forward and loss (`minibatch_loss`), backward and the Adam step, on 8
expressions of 100 boxes each, over 8 distinct images or over 2 shared
ones (real data has about 7 expressions per image). Run
`python -m pytest tests/test_trainer_benchmark.py --benchmark-enable --benchmark-only`
for the timing table; a plain test run makes one step per case and checks
that every parameter moved (and, for the training step, that the loss is
finite).
"""

import numpy as np
import pytest

from refnms import autodiff as ad
from refnms.evaluation import EvalExample
from refnms.ingest import ImageDetections
from refnms.model import ModelConfig, init_parameters
from refnms.trainer import TrainConfig, adam_step, init_optimizer_state, minibatch_loss

SCALES = {
    "acceptance": ModelConfig(vocab_size=40, feature_dim=8, embed_dim=8, hidden_size=16),
    "paper": ModelConfig(vocab_size=40, feature_dim=2048, embed_dim=300, hidden_size=256),
}


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_adam_step_speed(benchmark, scale):
    params = init_parameters(SCALES[scale], seed=5)
    before = params.values.copy()
    state = init_optimizer_state(params)
    params.zero_gradients()
    params.grads[...] = np.random.default_rng(5).normal(size=params.grads.size)
    benchmark(adam_step, params, state, TrainConfig())
    assert state.step >= 1
    for name, node in params.named_parameters().items():
        assert np.all(np.isfinite(node.value)), name
    assert np.all(params.values != before)


def paper_scale_minibatch(config, expressions, images, boxes, seed):
    """`expressions` training examples over `images` images of `boxes`
    detector-like boxes each, with random features and 3-12 random words;
    example e is of image e % `images`, and its referent is one of that
    image's boxes."""
    rng = np.random.default_rng(seed)
    pools, examples = [], []
    for e in range(expressions):
        if e < images:
            corners = rng.uniform(0, 576, size=(boxes, 2))
            pool = np.hstack([corners, corners + rng.uniform(16, 64, size=(boxes, 2))])
            pools.append((pool, ImageDetections(
                f"img{e}", pool, rng.uniform(0.1, 0.95, size=boxes), rng.integers(16, size=boxes),
                rng.normal(size=(boxes, config.feature_dim)),
            )))
        pool, image = pools[e % images]
        words = rng.integers(2, config.vocab_size, size=int(rng.integers(3, 13)))
        examples.append(EvalExample(f"e{e}", "train", image, pool[e % boxes][None],
                                    tuple(words.tolist())))
    return examples


@pytest.mark.parametrize("images", [8, 2], ids=["distinct", "shared"])
def test_paper_scale_training_step_speed(benchmark, images):
    config = ModelConfig(vocab_size=2000, feature_dim=2048, embed_dim=300, hidden_size=256)
    params = init_parameters(config, seed=6)
    state = init_optimizer_state(params)
    cfg = TrainConfig()
    examples = paper_scale_minibatch(config, cfg.batch_size, images, 100, seed=6)
    before = {name: node.value.copy() for name, node in params.named_parameters().items()}

    def step():
        loss = minibatch_loss(examples, params, cfg).loss
        params.zero_gradients()
        ad.backward(loss)
        adam_step(params, state, cfg)
        return loss.value

    loss = benchmark(step)
    assert np.all(np.isfinite(loss))
    for name, node in params.named_parameters().items():
        assert np.any(node.value != before[name]), f"{name} did not move"
