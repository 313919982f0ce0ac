"""Adam updates, the training loop's determinism, and checkpoint round trips."""

import copy
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from oracles import eval_example, image_of_rows
from refnms import autodiff as ad
from refnms import model, trainer
from refnms.autodiff import Node
from refnms.geometry import Box, box_array
from refnms.ingest import (
    DataFormatError,
    EmbeddingTable,
    ExpressionRecord,
    GroundTruthRegion,
    PAD_TOKEN,
    UNK_TOKEN,
    ImageDetections,
    build_vocabulary,
    encode_tokens,
    vocabulary_from_words,
)
from refnms.model import ModelConfig, flat_views, init_parameters
from refnms.objectives import assign_labels, binary_xe, ranking_loss, sample_pairs
from refnms.evaluation import EvalExample, build_eval_set
from refnms.trainer import (
    TrainConfig,
    adam_step,
    init_optimizer_state,
    load_checkpoint,
    save_checkpoint,
    train,
    train_epoch,
)

FEATURE_DIM = 4


def tiny_model(seed=0, vocab_size=8, hidden=2):
    cfg = ModelConfig(vocab_size=vocab_size, feature_dim=FEATURE_DIM, embed_dim=3, hidden_size=hidden)
    return init_parameters(cfg, seed)


def toy_dataset(rng, n_expressions=6, boxes_per_image=5):
    """Learnable micro-task: features are 2-category one-hots plus noise."""
    examples = []
    for e in range(n_expressions):
        category = e % 2
        records = []
        target = None
        for b in range(boxes_per_image):
            x1 = 30.0 * b
            box = Box(x1, 0.0, x1 + 20.0, 20.0)
            cat = b % 2
            feature = np.zeros(FEATURE_DIM)
            feature[cat] = 1.0
            feature += rng.normal(0, 0.05, size=FEATURE_DIM)
            records.append((box, cat, float(rng.uniform(0.2, 0.9)), feature))
            if cat == category and target is None:
                target = box
        examples.append(
            EvalExample(
                expression_id=f"e{e}",
                split="train",
                detections=image_of_rows(f"img{e}", records),
                targets=box_array([target]),
                token_indices=(2 + category,),
            )
        )
    return examples


# Adam ------------------------------------------------------------------------------


def test_zero_gradient_leaves_parameters_unchanged():
    params = tiny_model()
    named = params.named_parameters()
    before = {n: node.value.copy() for n, node in named.items()}
    state = init_optimizer_state(params)
    params.zero_gradients()
    adam_step(params, state, TrainConfig())
    assert state.step == 1
    for n, node in named.items():
        np.testing.assert_array_equal(node.value, before[n])


def test_first_step_magnitude_is_the_learning_rate():
    # bias correction makes both moment estimates equal the gradient, so the
    # very first update is lr * g / (|g| + eps)
    params = tiny_model()
    state = init_optimizer_state(params)
    before = params["embeddings"].value.copy()
    params.zero_gradients()
    params["embeddings"].grad[...] = 1.0
    cfg = TrainConfig()
    adam_step(params, state, cfg)
    delta = before - params["embeddings"].value
    np.testing.assert_allclose(delta, cfg.lr_rest, rtol=1e-6)


def test_learning_rate_groups(monkeypatch):
    # the embeddings come first in the flat store and get embedding_lr (lr_rest when unset),
    # every float after them lr_rest; a first step with unit gradients moves each float by its rate
    count = tiny_model()["embeddings"].value.size
    monkeypatch.setattr(trainer, "ADAM_CHUNK", 7)  # a chunk straddles the boundary
    assert count % 7
    for cfg, embedding_lr in (
        (TrainConfig(lr_rest=5e-3), 5e-3),
        (TrainConfig(embedding_lr=2e-3, lr_rest=5e-3), 2e-3),
    ):
        params = tiny_model()
        before = params.values.copy()
        params.grads[...] = 1.0
        adam_step(params, init_optimizer_state(params), cfg)
        delta = before - params.values
        np.testing.assert_allclose(delta[:count], embedding_lr, rtol=1e-6)
        np.testing.assert_allclose(delta[count:], cfg.lr_rest, rtol=1e-6)


def test_non_finite_gradient_aborts_with_parameter_name():
    params = tiny_model()
    state = init_optimizer_state(params)
    params.zero_gradients()
    params["fc_r.b"].grad[...] = np.nan
    with pytest.raises(FloatingPointError, match="fc_r.b"):
        adam_step(params, state, TrainConfig())


def test_embedding_lr_override_can_freeze_embeddings():
    params = tiny_model()
    named = params.named_parameters()
    state = init_optimizer_state(params)
    before = params["embeddings"].value.copy()
    for node in named.values():
        node.grad[...] = 1.0
    adam_step(params, state, TrainConfig(embedding_lr=0.0))
    np.testing.assert_array_equal(params["embeddings"].value, before)
    # everything else moved
    assert not np.array_equal(params["fc_r.w"].value, tiny_model()["fc_r.w"].value)


def reference_adam_step(named, m, v, step, cfg):
    """The per-parameter Adam update that the flat store replaced: the oracle.

    `m` and `v` map each name to its own moment array; a parameter whose
    ``grad`` is ``None`` counts as zero gradient. Returns the new step count.
    """
    step += 1
    bc1 = 1.0 - cfg.beta1**step
    bc2 = 1.0 - cfg.beta2**step
    size = max(node.value.size for node in named.values())
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name, node in named.items():
        g = node.grad if node.grad is not None else np.zeros_like(node.value)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        a = scratch_a[: g.size].reshape(g.shape)
        b = scratch_b[: g.size].reshape(g.shape)
        m[name] *= cfg.beta1
        m[name] += np.multiply(1.0 - cfg.beta1, g, out=a)
        v[name] *= cfg.beta2
        v[name] += np.multiply(np.multiply(1.0 - cfg.beta2, g, out=a), g, out=a)
        lr = cfg.lr_rest
        if name == "embeddings" and cfg.embedding_lr is not None:
            lr = cfg.embedding_lr
        update = np.multiply(lr, np.divide(m[name], bc1, out=a), out=a)
        denominator = np.add(np.sqrt(np.divide(v[name], bc2, out=b), out=b), cfg.eps, out=b)
        node.value -= np.divide(update, denominator, out=a)
    return step


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("key", ["lr_rest", "eps", "margin", "embedding_lr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite_floats(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        TrainConfig(**{key: value})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("beta1", 1.0, r"beta1 must lie in \[0, 1\)"),
        ("beta1", -0.1, r"beta1 must lie in \[0, 1\)"),
        ("beta2", 1.0, r"beta2 must lie in \[0, 1\)"),
        ("eps", 0.0, "eps must be > 0"),
        ("min_confidence", 1.5, r"min_confidence must lie in \[0, 1\]"),
        ("similarity_threshold", -1.5, r"similarity_threshold must lie in \[-1, 1\]"),
        ("embedding_lr", -1e-3, "embedding_lr must be >= 0"),
    ],
)
def test_train_config_rejects_out_of_range_values(key, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{key: value})


def test_train_config_accepts_the_ends_of_its_ranges():
    # a zero embedding rate still freezes the embeddings
    TrainConfig(beta1=0.0, beta2=0.0, min_confidence=1.0, similarity_threshold=-1.0,
                embedding_lr=0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    chunk=st.integers(1, 70),
    hidden=st.integers(1, 3),
    steps=st.integers(1, 4),
    embedding_lr=st.sampled_from([None, 0.0, 2e-2]),
    silent=st.integers(0, 25),
    seed=st.integers(0, 2**16),
)
def test_flat_adam_is_bit_equal_to_the_per_parameter_reference(
    chunk, hidden, steps, embedding_lr, silent, seed
):
    # chunks of 1 to 70 floats cut every run of a 75-to-235-float store
    # at many points; parameter `silent` gets no gradient on any step
    rng = np.random.default_rng(seed)
    params = tiny_model(seed=seed % 7, hidden=hidden)
    named = params.named_parameters()
    silent_name = list(named)[silent]
    reference = {name: Node(node.value.copy()) for name, node in named.items()}
    ref_m = {name: np.zeros(node.value.shape) for name, node in named.items()}
    ref_v = {name: np.zeros(node.value.shape) for name, node in named.items()}
    ref_step = 0
    state = init_optimizer_state(params)
    cfg = TrainConfig(embedding_lr=embedding_lr, lr_rest=1e-2)
    for _ in range(steps):
        params.zero_gradients()
        for name, node in named.items():
            if name == silent_name:
                reference[name].grad = None
                continue
            node.grad[...] = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=node.value.shape)
            reference[name].grad = node.grad.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer, "ADAM_CHUNK", chunk)
            adam_step(params, state, cfg)
        ref_step = reference_adam_step(reference, ref_m, ref_v, ref_step, cfg)
    assert state.step == ref_step == steps
    m_views = flat_views(state.m, params.config)
    v_views = flat_views(state.v, params.config)
    for name, node in named.items():
        assert same_bits(node.value, reference[name].value), name
        assert same_bits(m_views[name], ref_m[name]), name
        assert same_bits(v_views[name], ref_v[name]), name


def test_a_gradient_that_is_not_its_flat_view_is_an_error():
    params = tiny_model()
    state = init_optimizer_state(params)
    params.zero_gradients()
    params["fc_r.w"].grad = np.ones_like(params["fc_r.w"].value)
    with pytest.raises(ValueError, match="fc_r.w"):
        adam_step(params, state, TrainConfig())


def assert_views_of_the_flat_store(params, state):
    """Every value, grad and Adam moment sits at its offset in its flat buffer."""
    config = params.config
    for buffer in (params.values, params.grads, state.m, state.v):
        assert buffer.shape == params.values.shape and buffer.flags.c_contiguous
    for (name, node), value, grad in zip(
        params.named_parameters().items(),
        flat_views(params.values, config).values(),
        flat_views(params.grads, config).values(),
    ):
        for array, view in ((node.value, value), (node.grad, grad)):
            assert array.shape == view.shape, name
            assert array.ctypes.data == view.ctypes.data, name
            assert np.shares_memory(array, view), name


def test_every_array_is_a_view_of_its_flat_buffer(tmp_path):
    params = tiny_model(seed=15)
    state = init_optimizer_state(params)
    assert_views_of_the_flat_store(params, state)
    params.zero_gradients()
    assert_views_of_the_flat_store(params, state)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, TrainConfig(), vocab_for(params))
    loaded, loaded_state, _, _ = load_checkpoint(path)
    assert_views_of_the_flat_store(loaded, loaded_state)
    count = loaded.values.size
    base = loaded.values.base
    assert loaded_state.m.base is base and loaded_state.v.base is base
    assert loaded_state.m.ctypes.data == loaded.values.ctypes.data + 8 * count
    assert loaded_state.v.ctypes.data == loaded.values.ctypes.data + 16 * count
    loaded.zero_gradients()
    assert_views_of_the_flat_store(loaded, loaded_state)


# training loop -----------------------------------------------------------------------


def test_empty_dataset_is_an_error():
    params = tiny_model()
    with pytest.raises(ValueError):
        train([], params, init_optimizer_state(params), TrainConfig())


def test_all_skipped_is_an_error():
    params = tiny_model()
    example = eval_example(
        "e0", "train", ImageDetections.empty("img", FEATURE_DIM), Box(0, 0, 10, 10), (), (1,)
    )
    with pytest.raises(ValueError, match="usable"):
        train_epoch([example], params, init_optimizer_state(params), TrainConfig(), 0)


def test_skipped_expressions_are_counted():
    rng = np.random.default_rng(70)
    dataset = toy_dataset(rng, n_expressions=4)
    dataset.append(
        eval_example(
            "empty", "train", ImageDetections.empty("none", FEATURE_DIM), Box(0, 0, 1, 1), (),
            (1,),
        )
    )
    params = tiny_model()
    metrics = train_epoch(dataset, params, init_optimizer_state(params), TrainConfig(), 0)
    assert metrics.expressions_skipped == 1
    assert metrics.expressions_used == 4


def test_loss_decreases_over_fifty_steps():
    rng = np.random.default_rng(71)
    dataset = toy_dataset(rng, n_expressions=8)
    params = tiny_model(seed=5)
    cfg = TrainConfig(batch_size=8, epochs=50, seed=3)
    history = train(dataset, params, init_optimizer_state(params), cfg)
    assert len(history) == 50
    assert history[-1].mean_loss < history[0].mean_loss


def test_ranking_loss_training_also_decreases():
    rng = np.random.default_rng(72)
    dataset = toy_dataset(rng, n_expressions=8)
    params = tiny_model(seed=6)
    cfg = TrainConfig(loss_kind="ranking", batch_size=8, epochs=30, seed=3)
    history = train(dataset, params, init_optimizer_state(params), cfg)
    assert history[-1].mean_loss < history[0].mean_loss


def test_frozen_embeddings_still_converge():
    # table-initialized embeddings (orthogonal, as in the synthetic task)
    # frozen at learning rate zero: the rest of the model still fits the data
    rng = np.random.default_rng(73)
    dataset = toy_dataset(rng, n_expressions=8)
    params = tiny_model(seed=7, hidden=3)
    params["embeddings"].value[2] = np.array([1.0, 0.0, 0.0])
    params["embeddings"].value[3] = np.array([0.0, 1.0, 0.0])
    cfg = TrainConfig(batch_size=2, epochs=40, seed=4, embedding_lr=0.0)
    emb_before = params["embeddings"].value.copy()
    history = train(dataset, params, init_optimizer_state(params), cfg)
    np.testing.assert_array_equal(params["embeddings"].value, emb_before)
    assert history[-1].mean_loss < 0.6 * history[0].mean_loss


def test_same_seed_gives_identical_parameters_and_trajectory():
    rng = np.random.default_rng(74)
    dataset = toy_dataset(rng)
    cfg = TrainConfig(batch_size=3, epochs=3, seed=11)
    results = []
    for _ in range(2):
        params = tiny_model(seed=2)
        state = init_optimizer_state(params)
        history = train(dataset, params, state, cfg)
        results.append((params, [m.mean_loss for m in history]))
    (p1, losses1), (p2, losses2) = results
    assert losses1 == losses2
    for (name, a), b in zip(p1.named_parameters().items(), p2.named_parameters().values()):
        np.testing.assert_array_equal(a.value, b.value, err_msg=name)


def test_pipeline_gradients_on_a_two_expression_batch():
    rng = np.random.default_rng(75)
    dataset = toy_dataset(rng, n_expressions=2, boxes_per_image=3)
    params = tiny_model(seed=8)
    cfg = TrainConfig(min_confidence=0.0)

    def loss():
        return trainer.minibatch_loss(dataset, params, cfg).loss

    inputs = list(params.named_parameters().values())
    assert ad.grad_check(loss, inputs) < 1e-4


def oracle_minibatch_loss(examples, params, cfg):
    """The mean of per-expression losses, one oracle graph per expression."""
    losses = []
    for ex in examples:
        survivors, scores = oracles.relatedness_forward(
            ex.detections, ex.token_indices, params, cfg.min_confidence
        )
        if scores is None:
            continue
        bins = assign_labels(ex.detections.boxes[survivors], ex.targets)[1]
        if cfg.loss_kind == "binary_xe":
            losses.append(binary_xe(scores, bins > 0))
        else:
            rank_cfg = cfg.ranking_config()
            pairs = sample_pairs(bins, scores.value, rank_cfg)
            losses.append(ranking_loss(pairs, scores, rank_cfg))
    return ad.mean(ad.concat([ad.reshape(l, (1,)) for l in losses])) if losses else None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_expressions=st.integers(1, 5),
    boxes_per_image=st.integers(2, 6),
    lengths=st.lists(st.integers(1, 5), min_size=5, max_size=5),
    loss_kind=st.sampled_from(["binary_xe", "ranking"]),
    min_confidence=st.sampled_from([0.0, 0.5, 0.95]),
    images=st.integers(1, 5),
    texts=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_minibatch_loss_matches_the_per_expression_oracle(
    n_expressions, boxes_per_image, lengths, loss_kind, min_confidence, images, texts, seed
):
    # one batched graph vs. one oracle graph per expression, both losses,
    # expressions without survivors or without ranking pairs included;
    # expression e takes image e % images and token sequence e % texts, so
    # expressions share one image object and repeat a sequence when those
    # are fewer than the expressions
    rng = np.random.default_rng(seed)
    toys = toy_dataset(rng, n_expressions=n_expressions, boxes_per_image=boxes_per_image)
    sequences = [tuple(rng.integers(1, 8, size=length).tolist()) for length in lengths]
    dataset = [
        dataclasses.replace(ex, detections=toys[e % images].detections,
                            token_indices=sequences[e % texts])
        for e, ex in enumerate(toys)
    ]
    params = tiny_model(seed=seed)
    for node in params.named_parameters().values():
        node.value += 0.3 * rng.normal(size=node.value.shape)
    cfg = TrainConfig(loss_kind=loss_kind, min_confidence=min_confidence, margin=0.5)
    params.zero_gradients()
    step = trainer.minibatch_loss(dataset, params, cfg)
    reference = oracle_minibatch_loss(dataset, params, cfg)
    if reference is None:
        assert step.loss is None and step.skipped == n_expressions
        return
    ad.backward(step.loss)
    grads = params.grads.copy()
    params.zero_gradients()
    ad.backward(reference)
    assert abs(step.loss.value.item() - reference.value.item()) <= 1e-12
    views = dict(zip(params.named_parameters(), flat_views(grads, params.config).values()))
    for name, node in params.named_parameters().items():
        ref = node.grad
        assert np.linalg.norm(views[name] - ref) <= 1e-10 * np.linalg.norm(ref), name


def test_a_minibatch_runs_the_box_side_once_per_image(monkeypatch):
    # 8 expressions over 2 images: one box-side call on the two images'
    # survivor rows, not one block per expression
    rng = np.random.default_rng(77)
    toys = toy_dataset(rng, n_expressions=8)
    dataset = [dataclasses.replace(ex, detections=toys[e % 2].detections)
               for e, ex in enumerate(toys)]
    cfg = TrainConfig(min_confidence=0.3)
    real, calls = model._box_side, []

    def box_side(features, params):
        calls.append(features)
        return real(features, params)

    monkeypatch.setattr(model, "_box_side", box_side)
    step = trainer.minibatch_loss(dataset, tiny_model(seed=9), cfg)
    rows = [model.survivors(toys[i].detections, cfg.min_confidence) for i in (0, 1)]
    assert step.used == 8 and all(len(r) for r in rows)
    (features,) = calls
    np.testing.assert_array_equal(
        features, np.concatenate([toys[i].detections.features[r] for i, r in zip((0, 1), rows)])
    )


# checkpoints --------------------------------------------------------------------------


def vocab_for(params):
    corpus = [
        ExpressionRecord(
            "e", "i", tuple(f"w{k}" for k in range(params.config.vocab_size - 2)) * 2,
            None, Box(0, 0, 1, 1), "train",
        )
    ]
    return build_vocabulary(corpus, max_len=10)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    params = tiny_model(seed=12)
    state = init_optimizer_state(params)
    state.step = 17
    state.m += 0.25
    cfg = TrainConfig(seed=12)
    vocab = vocab_for(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, cfg, vocab, epochs_completed=3)
    loaded_params, loaded_state, loaded_vocab, header = load_checkpoint(path)
    for (name, a), b in zip(
        params.named_parameters().items(), loaded_params.named_parameters().values()
    ):
        np.testing.assert_array_equal(a.value, b.value, err_msg=name)
    assert loaded_state.step == 17
    np.testing.assert_array_equal(state.m, loaded_state.m)
    np.testing.assert_array_equal(state.v, loaded_state.v)
    assert loaded_vocab.word_to_index == vocab.word_to_index
    assert header["epochs_completed"] == 3
    assert header["format_version"] == 3
    assert [entry["name"] for entry in header["arrays"]][:26] == list(params.named_parameters())
    # identical save -> identical bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, params, state, cfg, vocab, epochs_completed=3)
    assert path.read_bytes() == path2.read_bytes()


@st.composite
def checkpoint_contents(draw):
    """A small model, Adam state and vocabulary, every float drawn bit by bit."""
    words = draw(st.lists(st.text("abcxyz", min_size=1, max_size=4), unique=True, max_size=5))
    vocab = vocabulary_from_words([PAD_TOKEN, UNK_TOKEN, *words], draw(st.integers(1, 12)))
    dims = st.integers(1, 3)
    params = init_parameters(
        ModelConfig(len(vocab), draw(dims), embed_dim=draw(dims), hidden_size=draw(dims)), 0
    )
    state = init_optimizer_state(params)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for buffer in (params.values, state.m, state.v):
        buffer[...] = draw(hnp.arrays(np.float64, buffer.shape, elements=finite))
    state.step = draw(st.integers(0, 2**40))
    return params, state, vocab, draw(st.integers(0, 1000))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(checkpoint_contents())
def test_save_then_load_checkpoint_is_bit_equal(contents):
    params, state, vocab, epochs = contents
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, params, state, TrainConfig(), vocab, epochs_completed=epochs)
        loaded, loaded_state, loaded_vocab, header = load_checkpoint(path)
    assert loaded.config == params.config
    for orig, back in ((params.values, loaded.values), (state.m, loaded_state.m),
                       (state.v, loaded_state.v)):
        assert orig.tobytes() == back.tobytes()
    assert loaded_state.step == state.step
    assert loaded_vocab.words_by_index() == vocab.words_by_index()
    assert loaded_vocab.max_sentence_length == vocab.max_sentence_length
    assert header["epochs_completed"] == epochs


def test_a_parameter_table_entry_needs_no_other_edit(tmp_path, monkeypatch):
    # one more entry in the table reaches the store, the gradient views, the
    # checkpoint and Adam, and draws after every other weight
    plain = tiny_model(seed=4)
    table = model.parameter_table
    monkeypatch.setattr(
        model, "parameter_table", lambda config: {**table(config), "extra.w": ((2, 3), 0.5)}
    )
    params = tiny_model(seed=4)
    named = params.named_parameters()
    assert list(named) == [*plain.named_parameters(), "extra.w"]
    np.testing.assert_array_equal(params.values[: plain.values.size], plain.values)
    extra = named["extra.w"].value
    assert extra.shape == (2, 3) and np.all(extra != 0.0) and np.all(np.abs(extra) <= 0.5)
    assert named["extra.w"].grad is params.grad_views["extra.w"]

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, init_optimizer_state(params), TrainConfig(), vocab_for(params))
    loaded, state, _, header = load_checkpoint(path)
    names = [entry["name"] for entry in header["arrays"]]
    assert [n for n in names if n.endswith("extra.w")] == ["extra.w", "adam.m.extra.w",
                                                           "adam.v.extra.w"]
    np.testing.assert_array_equal(loaded["extra.w"].value, extra)

    loaded.zero_gradients()
    loaded["extra.w"].grad[...] = 1.0
    cfg = TrainConfig(lr_rest=0.01)
    adam_step(loaded, state, cfg)
    # a first Adam step with a unit gradient moves each float by lr / (1 + eps)
    np.testing.assert_allclose(extra - loaded["extra.w"].value, cfg.lr_rest / (1 + cfg.eps))
    np.testing.assert_array_equal(loaded.values[: plain.values.size], plain.values)


def test_checkpoint_rejects_wrong_feature_dimension(tmp_path):
    params = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, init_optimizer_state(params), TrainConfig(), vocab_for(params))
    wrong = ModelConfig(
        vocab_size=params.config.vocab_size,
        feature_dim=FEATURE_DIM + 1,
        embed_dim=3,
        hidden_size=2,
    )
    with pytest.raises(DataFormatError):
        load_checkpoint(path, expected_config=wrong)


def test_checkpoint_detects_corruption(tmp_path):
    params = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, init_optimizer_state(params), TrainConfig(), vocab_for(params))
    raw = path.read_bytes()
    (tmp_path / "bad_magic.ckpt").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(tmp_path / "bad_magic.ckpt")
    (tmp_path / "truncated.ckpt").write_bytes(raw[:-16])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(tmp_path / "truncated.ckpt")
    (tmp_path / "trailing.ckpt").write_bytes(raw + b"\0" * 3)
    with pytest.raises(DataFormatError, match="3 trailing"):
        load_checkpoint(tmp_path / "trailing.ckpt")


def test_checkpoint_loads_into_one_writable_buffer_and_saves_back_identically(tmp_path):
    params = tiny_model(seed=13)
    state = init_optimizer_state(params)
    state.m += 0.5
    state.v += 0.125
    cfg, vocab = TrainConfig(seed=13), vocab_for(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, cfg, vocab)
    loaded, loaded_state, _, _ = load_checkpoint(path)
    arrays = [p.value for p in loaded.named_parameters().values()]
    arrays += [loaded_state.m, loaded_state.v]
    assert len({id(a.base) for a in arrays}) == 1
    assert all(a.flags.writeable and a.flags.aligned for a in arrays)
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, loaded, loaded_state, cfg, vocab)
    assert again.read_bytes() == path.read_bytes()


def test_failed_save_leaves_the_previous_checkpoint_intact(tmp_path):
    params = tiny_model(seed=14)
    state = init_optimizer_state(params)
    cfg, vocab = TrainConfig(seed=14), vocab_for(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, cfg, vocab)
    before = path.read_bytes()
    # the parameters are written first; the last Adam block cannot be converted
    state.v = np.full(state.v.shape, "x")
    params["embeddings"].value += 1.0
    with pytest.raises(ValueError):
        save_checkpoint(path, params, state, cfg, vocab)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_parameters_only_load_skips_the_moments_but_checks_the_whole_file(tmp_path):
    params = tiny_model(seed=16)
    state = init_optimizer_state(params)
    state.m += 0.5
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, TrainConfig(), vocab_for(params))
    loaded, loaded_state, vocab, _ = load_checkpoint(path, with_optimizer=False)
    assert loaded_state is None
    assert same_bits(loaded.values, params.values)
    assert loaded.values.base.size == params.values.size
    assert vocab.word_to_index == vocab_for(params).word_to_index
    raw = path.read_bytes()
    (tmp_path / "truncated.ckpt").write_bytes(raw[:-8])
    with pytest.raises(DataFormatError, match="truncated payload"):
        load_checkpoint(tmp_path / "truncated.ckpt", with_optimizer=False)
    (tmp_path / "trailing.ckpt").write_bytes(raw + b"\0" * 8)
    with pytest.raises(DataFormatError, match="8 trailing"):
        load_checkpoint(tmp_path / "trailing.ckpt", with_optimizer=False)


def rewrite_header(path, edit):
    """Rewrite a checkpoint's JSON header in place with `edit(header)`."""
    raw = path.read_bytes()
    magic_end = raw.index(b"\n") + 1
    header_end = raw.index(b"\n", magic_end) + 1
    header = edit(json.loads(raw[magic_end:header_end]))
    path.write_bytes(raw[:magic_end] + json.dumps(header).encode() + b"\n" + raw[header_end:])


DROP = object()


def edited(*keys, value=DROP):
    """A header edit that sets the field at `keys` to `value`, or drops it."""

    def edit(header):
        target = header
        for key in keys[:-1]:
            target = target[key]
        if value is DROP:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        return header

    return edit


MALFORMED_HEADERS = [
    (lambda header: [header], "not a JSON object"),
    (edited("model_config", value=[1, 2]), "'model_config' must be an object"),
    (edited("model_config", "hidden_size"), "'model_config.hidden_size'"),
    (edited("model_config", "embed_dim", value=3.0), "'model_config.embed_dim'"),
    (edited("model_config", "vocab_size", value=0), "vocab_size must be >= 1"),
    (edited("model_config", "feature_dim", value=True), "'model_config.feature_dim'"),
    (edited("arrays", value={}), "'arrays' must be a list"),
    (edited("arrays", 2, value="w"), "'arrays[2]' must be an object"),
    (edited("arrays", 1, "name"), "'arrays[1].name'"),
    (edited("arrays", 0, "shape", value=[8, "3"]), "'arrays[0].shape'"),
    (edited("arrays", 0, "shape", value=[-8, 3]), "'arrays[0].shape'"),
    (edited("vocab", "words", value="a b"), "'vocab.words' must be a list"),
    (edited("vocab", "words", value=["<pad>", 1]), "'vocab.words' must hold"),
    (edited("vocab", "max_sentence_length"), "'vocab.max_sentence_length'"),
    (edited("vocab", "max_sentence_length", value=0), "'vocab.max_sentence_length' must be >= 1"),
    (edited("vocab", "max_sentence_length", value=-1), "'vocab.max_sentence_length' must be >= 1"),
    (edited("optimizer_step", value="3"), "'optimizer_step' must be an integer"),
    (edited("optimizer_step", value=-1), "'optimizer_step' must be >= 0"),
    (lambda header: {**header, "arrays": header["arrays"][::-1]}, "order save_checkpoint writes"),
    (lambda header: {**header, "arrays": header["arrays"][:-1]}, "lists 77 arrays, expected 78"),
    (edited("arrays", 0, "shape", value=[8, 4]), "shape mismatch for 'embeddings'"),
    (edited("vocab", "words", value=["<pad>", "unk"]), "word list has 2 words"),
    (edited("vocab", "words", 1, value="<unk>"), "word list: vocabulary word list must start"),
]


@pytest.mark.parametrize(
    "edit, names", MALFORMED_HEADERS, ids=[names for _, names in MALFORMED_HEADERS]
)
def test_checkpoint_header_structure_is_validated(tmp_path, edit, names):
    params = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, init_optimizer_state(params), TrainConfig(), vocab_for(params))
    rewrite_header(path, edit)
    with pytest.raises(DataFormatError) as excinfo:
        load_checkpoint(path)
    assert str(path) in str(excinfo.value)
    assert names in str(excinfo.value)


def test_resume_reproduces_the_uninterrupted_run(tmp_path):
    rng = np.random.default_rng(76)
    dataset = toy_dataset(rng)
    cfg = TrainConfig(batch_size=3, epochs=4, seed=21)

    straight = tiny_model(seed=3)
    straight_state = init_optimizer_state(straight)
    train(dataset, straight, straight_state, cfg)

    # run the first two epochs, checkpoint, reload, finish
    half_cfg = TrainConfig(batch_size=3, epochs=2, seed=21)
    resumed = tiny_model(seed=3)
    resumed_state = init_optimizer_state(resumed)
    train(dataset, resumed, resumed_state, half_cfg)
    path = tmp_path / "half.ckpt"
    vocab = vocab_for(resumed)
    save_checkpoint(path, resumed, resumed_state, cfg, vocab, epochs_completed=2)
    reloaded, reloaded_state, _, header = load_checkpoint(path)
    train(dataset, reloaded, reloaded_state, cfg, start_epoch=header["epochs_completed"])

    for (name, a), b in zip(
        straight.named_parameters().items(), reloaded.named_parameters().values()
    ):
        np.testing.assert_array_equal(a.value, b.value, err_msg=name)


def test_build_training_set_precomputes_foreground():
    # training reads build_eval_set's examples: the referent and the matched
    # "cat" region are positives, the unmatched "dog" region a negative
    table = EmbeddingTable(2, {"cat": np.array([1.0, 0.0]), "dog": np.array([0.0, 1.0])})
    expr = ExpressionRecord(
        "e1", "img1", ("the", "cat"), ("DET", "NOUN"), Box(0, 0, 10, 10), "train"
    )
    regions = {
        "img1": [
            GroundTruthRegion("r1", "img1", Box(20, 20, 30, 30), "cat"),
            GroundTruthRegion("r2", "img1", Box(40, 40, 50, 50), "dog"),
        ]
    }
    records = [
        (box, 0, 0.9, np.zeros(FEATURE_DIM))
        for box in (Box(0, 0, 10, 10), Box(20, 20, 30, 30), Box(40, 40, 50, 50))
    ]
    detections = {"img1": image_of_rows("img1", records)}
    vocab = build_vocabulary([expr, expr], max_len=10)
    (example,) = build_eval_set([expr], detections, regions, table, 0.4, vocab)
    assert example.targets.tolist() == [[0, 0, 10, 10], [20, 20, 30, 30]]
    assert example.token_indices == tuple(encode_tokens(expr.tokens, vocab))
    params = tiny_model(vocab_size=len(vocab))
    step = trainer.minibatch_loss([example], params, TrainConfig())
    assert (step.used, step.positives, step.negatives) == (1, 2, 1)
