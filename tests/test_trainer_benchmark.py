"""Micro-benchmark of the optimizer: one Adam step over the flat parameter store.

`test_adam_step_speed` times `adam_step` on a full set of gradients at the
acceptance scale (D=8, hidden 16) and at paper scale (D=2048, 300-d
embeddings, hidden 256). Run
`python -m pytest tests/test_trainer_benchmark.py --benchmark-enable --benchmark-only`
for the timing table; a plain test run makes one step per scale and checks
that every parameter moved.
"""

import numpy as np
import pytest

from refnms.model import ModelConfig, init_parameters
from refnms.trainer import TrainConfig, adam_step, init_optimizer_state

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
