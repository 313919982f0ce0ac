"""Adam updates, the training loop's determinism, and checkpoint round trips."""

import copy

import numpy as np
import pytest

from refnms import autodiff as ad
from refnms.autodiff import Node
from refnms.geometry import Box
from refnms.ingest import (
    DataFormatError,
    DetectionRecord,
    EmbeddingTable,
    ExpressionRecord,
    GroundTruthRegion,
    ImageDetections,
    build_vocabulary,
    encode_tokens,
)
from refnms.model import ModelConfig, init_parameters, relatedness_forward
from refnms.objectives import assign_labels, binary_xe
from refnms.trainer import (
    OptimizerState,
    TrainConfig,
    TrainingExample,
    adam_step,
    build_training_set,
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
            records.append(DetectionRecord(box, cat, f"c{cat}", float(rng.uniform(0.2, 0.9)), feature))
            if cat == category and target is None:
                target = box
        examples.append(
            TrainingExample(
                expression_id=f"e{e}",
                token_indices=(2 + category,),
                detections=ImageDetections(f"img{e}", tuple(records)),
                foreground=(target,),
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
    adam_step(named, state, TrainConfig())
    assert state.step == 1
    for n, node in named.items():
        np.testing.assert_array_equal(node.value, before[n])


def test_first_step_magnitude_is_the_learning_rate():
    # bias correction makes both moment estimates equal the gradient, so the
    # very first update is lr * g / (|g| + eps)
    params = tiny_model()
    named = {"embeddings": params.embeddings}
    state = OptimizerState(
        m={"embeddings": np.zeros_like(params.embeddings.value)},
        v={"embeddings": np.zeros_like(params.embeddings.value)},
    )
    before = params.embeddings.value.copy()
    params.embeddings.grad = np.ones_like(before)
    cfg = TrainConfig()
    adam_step(named, state, cfg)
    delta = before - params.embeddings.value
    np.testing.assert_allclose(delta, cfg.lr_rest, rtol=1e-6)


def test_learning_rate_groups():
    params = tiny_model()
    named = params.named_parameters()
    state = init_optimizer_state(params)
    before_head = params.feature_projection.value.copy()
    before_rest = params.fc_r_w.value.copy()
    for node in named.values():
        node.grad = np.ones_like(node.value)
    cfg = TrainConfig()
    adam_step(named, state, cfg)
    head_delta = np.abs(before_head - params.feature_projection.value).mean()
    rest_delta = np.abs(before_rest - params.fc_r_w.value).mean()
    assert head_delta / rest_delta == pytest.approx(cfg.lr_head / cfg.lr_rest, rel=1e-6)


def test_non_finite_gradient_aborts_with_parameter_name():
    params = tiny_model()
    named = params.named_parameters()
    state = init_optimizer_state(params)
    params.zero_gradients()
    params.fc_r_b.grad = np.array([np.nan])
    with pytest.raises(FloatingPointError, match="fc_r.b"):
        adam_step(named, state, TrainConfig())


def test_embedding_lr_override_can_freeze_embeddings():
    params = tiny_model()
    named = params.named_parameters()
    state = init_optimizer_state(params)
    before = params.embeddings.value.copy()
    for node in named.values():
        node.grad = np.ones_like(node.value)
    adam_step(named, state, TrainConfig(embedding_lr=0.0))
    np.testing.assert_array_equal(params.embeddings.value, before)
    # everything else moved
    assert not np.array_equal(params.fc_r_w.value, tiny_model().fc_r_w.value)


# training loop -----------------------------------------------------------------------


def test_empty_dataset_is_an_error():
    params = tiny_model()
    with pytest.raises(ValueError):
        train([], params, init_optimizer_state(params), TrainConfig())


def test_all_skipped_is_an_error():
    params = tiny_model()
    example = TrainingExample(
        "e0", (1,), ImageDetections("img", ()), (Box(0, 0, 10, 10),)
    )
    with pytest.raises(ValueError, match="usable"):
        train_epoch([example], params, init_optimizer_state(params), TrainConfig(), 0)


def test_skipped_expressions_are_counted():
    rng = np.random.default_rng(70)
    dataset = toy_dataset(rng, n_expressions=4)
    dataset.append(
        TrainingExample("empty", (1,), ImageDetections("none", ()), (Box(0, 0, 1, 1),))
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
    params.embeddings.value[2] = np.array([1.0, 0.0, 0.0])
    params.embeddings.value[3] = np.array([0.0, 1.0, 0.0])
    cfg = TrainConfig(batch_size=2, epochs=40, seed=4, embedding_lr=0.0)
    emb_before = params.embeddings.value.copy()
    history = train(dataset, params, init_optimizer_state(params), cfg)
    np.testing.assert_array_equal(params.embeddings.value, emb_before)
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

    def loss():
        losses = []
        for ex in dataset:
            survivors, scores = relatedness_forward(ex.detections, ex.token_indices, params, 0.0)
            labels = [lb.label for lb in assign_labels([r.box for r in survivors], ex.foreground)]
            losses.append(binary_xe(scores, labels))
        return ad.mean(ad.concat([ad.reshape(l, (1,)) for l in losses]))

    inputs = list(params.named_parameters().values())
    assert ad.grad_check(loss, inputs) < 1e-4


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
    for name in state.m:
        state.m[name] += 0.25
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
    for name in state.m:
        np.testing.assert_array_equal(state.m[name], loaded_state.m[name])
        np.testing.assert_array_equal(state.v[name], loaded_state.v[name])
    assert loaded_vocab.word_to_index == vocab.word_to_index
    assert header["epochs_completed"] == 3
    # identical save -> identical bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, params, state, cfg, vocab, epochs_completed=3)
    assert path.read_bytes() == path2.read_bytes()


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
    for name in state.m:
        state.m[name] += 0.5
        state.v[name] += 0.125
    cfg, vocab = TrainConfig(seed=13), vocab_for(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, cfg, vocab)
    loaded, loaded_state, _, _ = load_checkpoint(path)
    arrays = [p.value for p in loaded.named_parameters().values()]
    arrays += list(loaded_state.m.values()) + list(loaded_state.v.values())
    assert len({id(a.base) for a in arrays}) == 1
    assert all(a.flags.writeable and a.flags.aligned for a in arrays)
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, loaded, loaded_state, cfg, vocab)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_hash_mismatch_warns(tmp_path):
    params = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, init_optimizer_state(params), TrainConfig(seed=1), vocab_for(params))
    other = TrainConfig(seed=2)
    with pytest.warns(UserWarning, match="hash"):
        load_checkpoint(path, expected_hash=other.config_hash())


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
    record = DetectionRecord(Box(0, 0, 10, 10), 0, "cat", 0.9, np.zeros(2))
    detections = {"img1": ImageDetections("img1", (record,))}
    vocab = build_vocabulary([expr, expr], max_len=10)
    (example,) = build_training_set([expr], detections, regions, table, vocab, 0.4)
    assert example.foreground == (Box(0, 0, 10, 10), Box(20, 20, 30, 30))
    assert example.token_indices == tuple(encode_tokens(expr.tokens, vocab))
