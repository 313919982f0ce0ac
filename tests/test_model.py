"""Relatedness model: expression encoding, attention, fusion head, scoring."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    encode_expression,
    forward,
    image_of_rows,
    init_gru_params,
    relatedness_forward,
    score_boxes,
    with_swapped_directions,
)
from refnms import autodiff as ad
from refnms import model
from refnms.autodiff import grad_check
from refnms.geometry import Box
from refnms.ingest import (
    PAD_TOKEN,
    UNK_TOKEN,
    EmbeddingTable,
    ImageDetections,
    encode_tokens,
    vocabulary_from_words,
)
from refnms.model import (
    PASS_FLOATS,
    ModelConfig,
    Window,
    init_parameters,
    make_batch,
    parameter_shapes,
    survivors,
)
import refnms.nms as nms_module
from refnms.nms import keep_lists, proposal_pipeline
from refnms.trainer import TrainConfig, init_optimizer_state, load_checkpoint, save_checkpoint


def tiny_config(**overrides):
    base = dict(vocab_size=9, feature_dim=3, embed_dim=4, hidden_size=3)
    base.update(overrides)
    return ModelConfig(**base)


def random_image(rng, n_boxes, feature_dim, confidences=None):
    records = []
    for k in range(n_boxes):
        x1, y1 = rng.uniform(0, 50, size=2)
        w, h = rng.uniform(10, 40, size=2)
        conf = confidences[k] if confidences is not None else float(rng.uniform(0.1, 1.0))
        records.append(
            (
                Box(x1, y1, x1 + w, y1 + h),
                int(rng.integers(0, 3)),
                conf,
                rng.normal(size=feature_dim),
            )
        )
    return image_of_rows("img", records, feature_dim)


def image_with(features):
    """An image of `features` rows whose every box survives any confidence floor."""
    n = len(features)
    return ImageDetections("img", np.tile([0.0, 0.0, 10.0, 10.0], (n, 1)), np.ones(n),
                           np.zeros(n, dtype=int), features)


def window_of(expressions):
    """The `Window` of (token indices, features) expressions, each on an image of its own."""
    return Window.of([(image_with(features), tokens) for tokens, features in expressions], 0.0)


def zero_out(*nodes):
    for node in nodes:
        node.value = np.zeros_like(node.value)


# expression encoding -----------------------------------------------------------


def test_single_token_output_shape():
    params = init_parameters(tiny_config(), seed=0)
    words = encode_expression([3], params)
    assert words.value.shape == (1, 2 * params.config.hidden_size)


def test_word_feature_dim_is_twice_hidden():
    cfg = ModelConfig(vocab_size=10, feature_dim=4, embed_dim=300, hidden_size=256)
    assert cfg.word_feature_dim == 512


def test_zero_gru_params_make_all_word_features_equal():
    # zero gates wipe the input contribution, so states depend only on the
    # step count; from the zero initial state every feature is zero
    params = init_parameters(tiny_config(), seed=1)
    for group in (params.gru("gru_fwd"), params.gru("gru_bwd")):
        zero_out(*group.nodes().values())
    words = encode_expression([2, 5, 2, 7], params).value
    for row in words[1:]:
        np.testing.assert_allclose(row, words[0], atol=1e-15)


def test_reversed_tokens_with_swapped_directions_mirror_features():
    # feeding the reversed sequence to the direction-swapped model reproduces
    # the rows in reverse order with the two halves of each feature exchanged
    params = init_parameters(tiny_config(), seed=5)
    indices = [1, 4, 2, 7]
    h = params.config.hidden_size
    original = encode_expression(indices, params).value
    mirrored = encode_expression(list(reversed(indices)), with_swapped_directions(params)).value
    expected = np.concatenate([original[::-1, h:], original[::-1, :h]], axis=1)
    np.testing.assert_allclose(mirrored, expected, atol=1e-12)


def test_encode_rejects_empty_sequence():
    params = init_parameters(tiny_config(), seed=0)
    with pytest.raises(ValueError):
        encode_expression([], params)


def test_init_is_deterministic():
    a = init_parameters(tiny_config(), seed=3)
    b = init_parameters(tiny_config(), seed=3)
    for (name, na), nb in zip(a.named_parameters().items(), b.named_parameters().values()):
        np.testing.assert_array_equal(na.value, nb.value, err_msg=name)


def test_parameter_shapes_match_initialized_parameters(tmp_path):
    # the store, the gradient views and the checkpoint header all follow the table, in order
    cfg = ModelConfig(vocab_size=7, feature_dim=5, embed_dim=4, hidden_size=3)
    params = init_parameters(cfg, seed=0)
    table = [(name, shape) for name, (shape, _) in model.parameter_table(cfg).items()]
    assert list(parameter_shapes(cfg).items()) == table
    assert [(n, p.value.shape) for n, p in params.named_parameters().items()] == table
    assert [(n, view.shape) for n, view in params.grad_views.items()] == table
    path = tmp_path / "model.ckpt"
    vocab = vocabulary_from_words([PAD_TOKEN, UNK_TOKEN, *"abcde"], max_len=4)
    save_checkpoint(path, params, init_optimizer_state(params), TrainConfig(), vocab)
    header = load_checkpoint(path)[3]
    stored = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    assert stored == table + [(f"adam.{m}.{n}", shape) for m in "mv" for n, shape in table]


def test_init_keeps_the_draws_of_the_model_with_box_conditioned_attention():
    # the draw order of checkpoint-v1 models, whose attention also had mlp_a
    # and a (2q,) fc_s.w: every weight kept since gets the same values
    cfg = ModelConfig(vocab_size=7, feature_dim=5, embed_dim=4, hidden_size=3)
    d, q = cfg.feature_dim, cfg.word_feature_dim
    rng = np.random.default_rng(12)
    rng.uniform(-0.1, 0.1, size=(cfg.vocab_size, cfg.embed_dim))
    for _ in range(2):
        init_gru_params(cfg.embed_dim, cfg.hidden_size, rng)
    draws = {
        name: rng.uniform(-1.0 / np.sqrt(fan), 1.0 / np.sqrt(fan), size=shape)
        for name, shape, fan in [
            ("mlp_a.w1", (q, d), d), ("mlp_a.w2", (q, q), q), ("fc_s.w", (2 * q,), 2 * q),
            ("mlp_b.w1", (q, d), d), ("mlp_b.w2", (q, q), q), ("fc_r.w", (1, q), q),
        ]
    }
    draws["fc_s.w"] = draws["fc_s.w"][q:].reshape(1, q)
    named = init_parameters(cfg, seed=12).named_parameters()
    for name in ("fc_s.w", "mlp_b.w1", "mlp_b.w2", "fc_r.w"):
        np.testing.assert_array_equal(named[name].value, draws[name], err_msg=name)


# sha256 of the checkpoint-v2 flat store of `init_parameters(cfg, seed=12)` with the
# block of its identity feature projection, (5, 5) after the GRUs, cut out
V2_STORE_WITHOUT_PROJECTION = "0497ed96dc613871da17db0a93f4046fbdc0abc6642ad925929ed5ec2158f88c"


def test_init_keeps_every_checkpoint_v2_value_without_the_projection():
    # the projection's identity drew nothing, so deleting it moves no other draw
    cfg = ModelConfig(vocab_size=7, feature_dim=5, embed_dim=4, hidden_size=3)
    params = init_parameters(cfg, seed=12)
    assert "feature_projection" not in params.named_parameters()
    assert hashlib.sha256(params.values.tobytes()).hexdigest() == V2_STORE_WITHOUT_PROJECTION


def test_init_uses_embedding_table_and_zero_pad_row():
    from refnms.ingest import ExpressionRecord, build_vocabulary

    corpus = [
        ExpressionRecord("e", "i", ("cat", "cat", "dog", "dog"), None, Box(0, 0, 1, 1), "train")
    ]
    vocab = build_vocabulary(corpus, max_len=10)
    table = EmbeddingTable(4, {"cat": np.array([9.0, 8.0, 7.0, 6.0])})
    cfg = ModelConfig(vocab_size=len(vocab), feature_dim=3, embed_dim=4, hidden_size=2)
    params = init_parameters(cfg, seed=0, table=table, vocab=vocab)
    np.testing.assert_array_equal(params["embeddings"].value[0], 0.0)
    np.testing.assert_array_equal(
        params["embeddings"].value[vocab.word_to_index["cat"]], [9.0, 8.0, 7.0, 6.0]
    )
    # "dog" is not in the table: random init, bounded away from the table row
    assert np.all(np.abs(params["embeddings"].value[vocab.word_to_index["dog"]]) <= 0.1)


# attention ----------------------------------------------------------------------


def test_attend_singleton_word():
    params = init_parameters(tiny_config(), seed=2)
    words = encode_expression([4], params)
    stages = forward(np.array([[0.3, -0.2, 0.5]]), words, params)
    np.testing.assert_allclose(stages["weights"].value, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(stages["attended"].value, words.value, atol=1e-15)


def test_attend_zero_logit_head_is_uniform_mean():
    params = init_parameters(tiny_config(), seed=2)
    zero_out(params["fc_s.w"])
    words = encode_expression([1, 2, 3], params)
    stages = forward(np.array([[0.3, -0.2, 0.5]]), words, params)
    np.testing.assert_allclose(stages["weights"].value, 1.0 / 3.0, atol=1e-12)
    np.testing.assert_allclose(
        stages["attended"].value[0], words.value.mean(axis=0), atol=1e-12
    )


def test_attend_softmax_arithmetic():
    # logits (ln 3, 0) -> weights (0.75, 0.25)
    cfg = ModelConfig(vocab_size=4, feature_dim=2, embed_dim=2, hidden_size=1)
    params = init_parameters(cfg, seed=0)
    params["fc_s.w"].value = np.array([[np.log(3.0), 0.0]])
    words = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    stages = forward(np.zeros((1, 2)), words, params)
    np.testing.assert_allclose(stages["weights"].value, [[0.75, 0.25]], atol=1e-12)
    np.testing.assert_allclose(stages["attended"].value, [[0.75, 0.25]], atol=1e-12)


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(41)
    params = init_parameters(tiny_config(), seed=7)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        words = encode_expression([int(i) for i in rng.integers(1, 9, size=n)], params)
        weights = forward(rng.normal(size=(1, 3)), words, params)["weights"]
        assert abs(weights.value.sum() - 1.0) < 1e-9


# fusion head --------------------------------------------------------------------


def test_relate_zero_head_gives_half():
    params = init_parameters(tiny_config(), seed=3)
    zero_out(params["fc_r.w"], params["fc_r.b"])
    words = encode_expression([1, 2], params)
    stages = forward(np.array([[0.5, 0.5, 0.5]]), words, params)
    assert stages["logit"].value[0, 0] == 0.0
    assert stages["score"].value[0] == pytest.approx(0.5, abs=1e-15)


def test_relate_hand_computed_instance():
    # gate (3,4) normalized against attended (1,1): joint (0.6, 0.8);
    # head weights (1,1) give logit 1.4 and sigmoid(1.4)
    cfg = ModelConfig(vocab_size=4, feature_dim=2, embed_dim=2, hidden_size=1)
    params = init_parameters(cfg, seed=0)
    zero_out(params["mlp_b.w1"], params["mlp_b.b1"], params["mlp_b.w2"])
    params["mlp_b.b2"].value = np.array([3.0, 4.0])
    params["fc_r.w"].value = np.array([[1.0, 1.0]])
    params["fc_r.b"].value = np.zeros(1)
    # a single word is attended with weight 1, so attended is that word, (1, 1)
    stages = forward(np.zeros((1, 2)), ad.constant(np.array([[1.0, 1.0]])), params)
    np.testing.assert_array_equal(stages["attended"].value, [[1.0, 1.0]])
    assert stages["logit"].value[0, 0] == pytest.approx(1.4, abs=1e-9)
    score = stages["score"].value[0]
    assert score == pytest.approx(1.0 / (1.0 + np.exp(-1.4)), abs=1e-9)
    assert score == pytest.approx(0.80218, abs=1e-5)


def test_relatedness_always_strictly_inside_unit_interval():
    rng = np.random.default_rng(42)
    params = init_parameters(tiny_config(), seed=9)
    words = encode_expression([1, 5, 3], params)
    scores = forward(rng.normal(scale=3.0, size=(30, 3)), words, params)["score"].value
    assert np.all((0.0 < scores) & (scores < 1.0))


def test_trace_invariants():
    rng = np.random.default_rng(43)
    params = init_parameters(tiny_config(), seed=11)
    params["mlp_b.b2"].value += 0.5  # keep the pre-norm vector comfortably nonzero
    words = encode_expression([2, 6, 4, 1], params)
    stages = forward(rng.normal(size=(10, 3)), words, params)
    # one attention row and one summary for the expression, shared by every box
    (weights,) = stages["weights"].value
    (attended,) = stages["attended"].value
    assert abs(weights.sum() - 1.0) < 1e-9
    rows = list(zip(*(stages[k].value for k in ("gate", "joint", "score"))))
    assert len(rows) == 10
    for gate, joint, score in rows:
        pre_norm = gate * attended
        if np.linalg.norm(pre_norm) > 0.05:
            assert abs(np.linalg.norm(joint) - 1.0) < 1e-9
        assert 0.0 < score < 1.0


# scoring ------------------------------------------------------------------------


def test_score_boxes_empty_when_all_below_confidence_floor():
    rng = np.random.default_rng(44)
    params = init_parameters(tiny_config(), seed=0)
    image = random_image(rng, 3, 3, confidences=[0.01, 0.02, 0.04])
    rows, relatedness = score_boxes(image, [1, 2], params, min_confidence=0.05)
    assert rows.tolist() == [] and relatedness.tolist() == []


def test_score_boxes_confidence_floor_is_inclusive():
    rng = np.random.default_rng(45)
    params = init_parameters(tiny_config(), seed=0)
    image = random_image(rng, 3, 3, confidences=[0.04, 0.05, 0.9])
    rows, _ = score_boxes(image, [1, 2], params, min_confidence=0.05)
    assert image.confidences[rows].tolist() == [0.05, 0.9]


def test_score_is_exactly_relatedness_times_confidence():
    rng = np.random.default_rng(46)
    params = init_parameters(tiny_config(), seed=1)
    image = random_image(rng, 5, 3)
    window = Window.of([(image, [1, 4, 2])], 0.05)
    (kept,) = proposal_pipeline(window, model.score_boxes(window, params))
    for fused, r, confidence in zip(
        kept.scores.tolist(), kept.relatedness.tolist(), image.confidences[kept.rows].tolist()
    ):
        assert fused == r * confidence
        assert fused <= min(r, confidence)


def test_scores_preserve_input_order_and_permute_with_it():
    rng = np.random.default_rng(47)
    params = init_parameters(tiny_config(), seed=2)
    image = random_image(rng, 6, 3)
    indices = [1, 3]
    rows, scored = score_boxes(image, indices, params)
    assert rows.tolist() == list(range(len(image)))
    perm = rng.permutation(6)
    shuffled = ImageDetections(
        "img", image.boxes[perm], image.confidences[perm], image.category_ids[perm],
        image.features[perm],
    )
    _, scored_shuffled = score_boxes(shuffled, indices, params)
    for j, i in enumerate(perm):
        assert scored_shuffled[j] == scored[i]


def test_full_model_gradients_match_finite_differences():
    rng = np.random.default_rng(48)
    params = init_parameters(
        ModelConfig(vocab_size=7, feature_dim=4, embed_dim=3, hidden_size=2), seed=4
    )
    image = random_image(rng, 3, 4)
    indices = [1, 3, 2, 5]

    def loss():
        _, scores = relatedness_forward(image, indices, params, min_confidence=0.0)
        return ad.sum(scores)

    inputs = list(params.named_parameters().values())
    assert grad_check(loss, inputs) < 1e-4


# batched forward vs. a per-box reference -----------------------------------------


def removed_parameters(config, rng):
    """Random values for the box side of the attention that the model no longer
    has: `mlp_a`, the key half of `fc_s.w` and the bias `fc_s.b`."""
    d, q = config.feature_dim, config.word_feature_dim
    shapes = {
        "mlp_a.w1": (q, d), "mlp_a.b1": (q,), "mlp_a.w2": (q, q), "mlp_a.b2": (q,),
        "fc_s.w[:q]": (q,), "fc_s.b": (1,),
    }
    return {name: ad.Node(0.5 * rng.normal(size=shape)) for name, shape in shapes.items()}


def reference_scores(features, words, params, removed):
    """The per-box forward with box-conditioned attention logits, as the
    checkpoint-v1 model had them (less its feature projection): one graph per
    box, vectors instead of row batches. `removed` holds the parameters of the
    box side of the attention."""
    q = params.config.word_feature_dim
    n_words = words.value.shape[0]
    fc_s_w = ad.concat([removed["fc_s.w[:q]"], ad.reshape(params["fc_s.w"], (q,))])

    def mlp(p, prefix, x):
        hidden = ad.relu(ad.add(oracles.matmul(p[f"{prefix}.w1"], x), p[f"{prefix}.b1"]))
        return ad.add(oracles.matmul(p[f"{prefix}.w2"], hidden), p[f"{prefix}.b2"])

    scores = []
    for feature in features:
        v = ad.constant(feature)
        key = oracles.broadcast_to(ad.reshape(mlp(removed, "mlp_a", v), (1, q)), (n_words, q))
        paired = ad.concat([key, words], axis=1)
        logits = ad.add(
            oracles.matmul(paired, fc_s_w), oracles.broadcast_to(removed["fc_s.b"], (n_words,))
        )
        attended = oracles.matmul(oracles.softmax(logits, axis=0), words)
        joint = ad.l2_normalize(ad.mul(mlp(params, "mlp_b", v), attended))
        logit = ad.add(oracles.matmul(params["fc_r.w"], joint), params["fc_r.b"])
        scores.append(ad.sigmoid(logit))
    return ad.concat(scores)


# the box term and the bias of the reference's attention logit are the same
# for every word, so the softmax cancels them: they get a true gradient of zero
ZERO_GRADIENT = ("mlp_a.w1", "mlp_a.b1", "mlp_a.w2", "mlp_a.b2", "fc_s.w[:q]", "fc_s.b")


def gradients(score_fn, features, indices, params, coefficients):
    params.zero_gradients()
    scores = score_fn(features, encode_expression(indices, params), params)
    ad.backward(ad.sum(ad.mul(scores, ad.constant(coefficients))))
    return scores.value, {n: p.grad for n, p in params.named_parameters().items()}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_boxes=st.integers(1, 12),
    n_words=st.integers(1, 5),
    feature_dim=st.integers(1, 6),
    hidden_size=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_batched_forward_matches_the_per_box_reference(
    n_boxes, n_words, feature_dim, hidden_size, seed
):
    # the reference is the model with box-conditioned attention logits: with any
    # values for that branch, it scores and trains exactly like the model without it
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=7, feature_dim=feature_dim, embed_dim=3, hidden_size=hidden_size)
    params = init_parameters(cfg, seed=seed)
    for node in params.named_parameters().values():
        node.value += 0.5 * rng.normal(size=node.value.shape)
    removed = removed_parameters(cfg, rng)
    features = rng.normal(scale=2.0, size=(n_boxes, feature_dim))
    indices = [int(i) for i in rng.integers(1, 7, size=n_words)]
    coefficients = rng.normal(size=n_boxes)

    def batched(features, words, params):
        return forward(features, words, params)["score"]

    def reference(features, words, params):
        return reference_scores(features, words, params, removed)

    scores, grads = gradients(batched, features, indices, params, coefficients)
    ref_scores, ref_grads = gradients(reference, features, indices, params, coefficients)
    np.testing.assert_allclose(scores, ref_scores, rtol=0.0, atol=1e-12)
    for name, ref in ref_grads.items():
        assert np.linalg.norm(grads[name] - ref) <= 1e-10 * np.linalg.norm(ref), name
    for name in ZERO_GRADIENT:
        assert np.abs(removed[name].grad).max() < 1e-12, name


def graph_size(node):
    seen = {id(node)}
    stack = [node]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_graph_size_does_not_grow_with_the_number_of_boxes():
    rng = np.random.default_rng(49)
    params = init_parameters(tiny_config(), seed=6)
    sizes = set()
    for n_boxes in (1, 2, 40):
        window = window_of([(tokens, rng.normal(size=(n_boxes, 3))) for tokens in ([1, 4, 2], [3])])
        scores = model.relatedness_forward(window, params)
        assert scores.value.shape == (2 * n_boxes,)
        sizes.add(graph_size(scores))
    assert len(sizes) == 1


def test_graph_size_does_not_grow_with_the_number_of_tokens():
    rng = np.random.default_rng(50)
    features = rng.normal(size=(4, 3))
    params = init_parameters(tiny_config(), seed=6)
    sizes = set()
    for n_tokens in (1, 2, 12):
        indices = [int(i) for i in rng.integers(1, 9, size=n_tokens)]
        scores = model.relatedness_forward(window_of([(indices, features)]), params)
        sizes.add(graph_size(scores))
    assert len(sizes) == 1


def test_graph_size_does_not_grow_with_the_number_of_expressions():
    rng = np.random.default_rng(51)
    params = init_parameters(tiny_config(), seed=6)
    sizes = set()
    for size in (1, 2, 9):
        window = window_of([([1, 2], rng.normal(size=(3, 3))) for _ in range(size)])
        sizes.add(graph_size(model.relatedness_forward(window, params)))
    assert len(sizes) == 1


# one batch of expressions vs. the per-expression oracle ---------------------------


def random_expressions(rng, cfg, lengths, box_counts):
    """(token indices, (n, feature_dim) features) for each length and box count."""
    return [
        ([int(i) for i in rng.integers(1, cfg.vocab_size, size=length)],
         rng.normal(scale=2.0, size=(boxes, cfg.feature_dim)))
        for length, boxes in zip(lengths, box_counts)
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    shape=st.integers(1, 4).flatmap(
        lambda size: st.tuples(
            st.lists(st.integers(1, 6), min_size=size, max_size=size),
            st.lists(st.integers(0, 6), min_size=size, max_size=size),
            st.lists(st.integers(0, size - 1), min_size=size, max_size=size),
        )
    ),
    feature_dim=st.integers(1, 5),
    hidden_size=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_batch_matches_the_per_expression_oracle(shape, feature_dim, hidden_size, seed):
    # B expressions of any lengths (1 and all-equal included) and box counts
    # (0 included), sharing images and token sequences or not, in one forward:
    # scores within 1e-12 and gradients within 1e-10 relative of one oracle
    # graph per expression
    lengths, box_counts, owners = shape
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=7, feature_dim=feature_dim, embed_dim=3, hidden_size=hidden_size)
    params = init_parameters(cfg, seed=seed)
    for node in params.named_parameters().values():
        node.value += 0.5 * rng.normal(size=node.value.shape)
    drawn = random_expressions(rng, cfg, lengths, box_counts)
    images = [image_with(features) for _, features in drawn]
    # expression b takes the image of expression owners[b] and, when those
    # two are of one length, its tokens too
    expressions = [
        (images[o], drawn[o][0] if lengths[o] == lengths[b] else drawn[b][0])
        for b, o in enumerate(owners)
    ]
    window = Window.of(expressions, 0.0)
    if not any(len(image.boxes) for image, _ in expressions):
        with pytest.raises(ValueError, match="no token sequences"):
            model.relatedness_forward(window, params)
        return
    coefficients = rng.normal(size=sum(len(image.boxes) for image, _ in expressions))

    params.zero_gradients()
    scores = model.relatedness_forward(window, params)
    ad.backward(ad.sum(ad.mul(scores, ad.constant(coefficients))))
    grads = {n: p.grad.copy() for n, p in params.named_parameters().items()}

    params.zero_gradients()
    reference = [
        oracles.forward(image.features, encode_expression(indices, params), params)["score"]
        for image, indices in expressions if len(image.boxes)
    ]
    ad.backward(ad.sum(ad.mul(ad.concat(reference), ad.constant(coefficients))))
    np.testing.assert_allclose(
        scores.value, np.concatenate([r.value for r in reference]), rtol=0.0, atol=1e-12
    )
    for name, node in params.named_parameters().items():
        ref = node.grad
        assert np.linalg.norm(grads[name] - ref) <= 1e-10 * np.linalg.norm(ref), name


def test_batched_gradients_match_finite_differences():
    rng = np.random.default_rng(52)
    cfg = ModelConfig(vocab_size=7, feature_dim=4, embed_dim=3, hidden_size=2)
    params = init_parameters(cfg, seed=4)
    params["mlp_b.b2"].value += 0.5  # keep the pre-norm vectors comfortably nonzero
    window = window_of(random_expressions(rng, cfg, (4, 1, 2), (3, 2, 1)))

    def loss():
        return ad.sum(model.relatedness_forward(window, params))

    inputs = list(params.named_parameters().values())
    assert grad_check(loss, inputs) < 1e-4


COMPOSITION_CONFIGS = {
    "tiny": ModelConfig(vocab_size=9, feature_dim=3, embed_dim=4, hidden_size=3),
    "acceptance": ModelConfig(vocab_size=40, feature_dim=8, embed_dim=8, hidden_size=16),
    # 16-wide word features, where BLAS's one-output kernel rounds rows by position
    "narrow": ModelConfig(vocab_size=20, feature_dim=5, embed_dim=6, hidden_size=8),
    # inner dimensions of 32 and more, where BLAS has a small-matrix kernel
    "wide": ModelConfig(vocab_size=40, feature_dim=40, embed_dim=33, hidden_size=20),
}


@pytest.mark.parametrize("name", sorted(COMPOSITION_CONFIGS))
def test_scores_do_not_depend_on_the_other_expressions_of_a_pass(name):
    # bit-equal alone (B = 1, one box included) and in any company, so that
    # `apply` and `eval-recall` agree though they batch different expressions
    cfg = COMPOSITION_CONFIGS[name]
    rng = np.random.default_rng(53)
    params = init_parameters(cfg, seed=1)
    expressions = random_expressions(
        rng, cfg, rng.integers(1, 11, size=24), [1, 2] + list(rng.integers(1, 30, size=22))
    )
    images = [image_with(features) for _, features in expressions]
    alone = [model.relatedness_forward(Window.of([(image, tokens)], 0.0), params).value
             for image, (tokens, _) in zip(images, expressions)]
    for k in range(20):
        # every other window repeats expressions: shared images and sequences
        pick = rng.choice(len(expressions), size=int(rng.integers(2, 13)), replace=bool(k % 2))
        window = Window.of([(images[i], expressions[i][0]) for i in pick], 0.0)
        ends = np.cumsum([len(images[i].boxes) for i in pick])
        together = np.split(model.relatedness_forward(window, params).value, ends[:-1])
        for i, scores in zip(pick.tolist(), together):
            np.testing.assert_array_equal(scores, alone[i])


# Scores every expression alone and all of them in shared passes, repeated
# expressions and token sequences among them, and prints how many
# expressions' scores differ. q = 100 outputs and 100-d features
# fill a pass with up to PASS_FLOATS / 100 = 81 box rows, where OpenBLAS
# splits the products' rows between two threads.
TWO_THREAD_COMPOSITION = """
import numpy as np
from refnms.ingest import ImageDetections
from refnms.model import ModelConfig, Window, init_parameters, score_boxes

cfg = ModelConfig(vocab_size=50, feature_dim=100, embed_dim=100, hidden_size=50)
params = init_parameters(cfg, seed=1)
rng = np.random.default_rng(55)
expressions = []
for i in range(60):
    n = int(rng.integers(1, 41))
    image = ImageDetections(f"img{i}", np.tile([0.0, 0.0, 10.0, 10.0], (n, 1)), np.full(n, 0.9),
                            np.zeros(n, dtype=int), rng.normal(size=(n, 100)))
    expressions.append((image, rng.integers(1, 50, size=int(rng.integers(1, 11))).tolist()))
# repeats: whole expressions, and other images' token sequences
expressions += [expressions[i] for i in rng.integers(0, 60, size=20)]
expressions += [(expressions[i][0], expressions[j][1]) for i, j in rng.integers(60, size=(20, 2))]


def scored(expressions):
    window = Window.of(expressions, 0.05)
    return [row[:n] for row, n in zip(score_boxes(window, params), window.sizes[window.image_of])]


together = scored(expressions)
alone = [scored([expression])[0] for expression in expressions]
print(sum(not np.array_equal(a, t) for a, t in zip(alone, together)))
"""


def test_scores_do_not_depend_on_the_other_expressions_under_two_blas_threads():
    # composition independence must not rest on the caller's BLAS thread count
    src = str(Path(model.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", TWO_THREAD_COMPOSITION], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


# `keep_lists`' window scoring vs. each expression scored alone -------------------

WINDOW_VOCABULARY = [PAD_TOKEN, UNK_TOKEN, "red", "dog", "cat"]
WINDOW_OOV = ["blue", "cow"]
WINDOW_MODELS = [
    init_parameters(ModelConfig(vocab_size=5, feature_dim=3, embed_dim=4, hidden_size=3), 1),
    # inner dimensions of 32 and more, where BLAS has a small-matrix kernel
    init_parameters(ModelConfig(vocab_size=5, feature_dim=40, embed_dim=33, hidden_size=20), 1),
]


@st.composite
def window_cases(draw):
    """Images of boxes apart from each other, so that NMS keeps every
    survivor, and (image, word tokens) expressions over them. Each drawn
    expression may come back as the same words, as its words up to the
    sentence limit plus one more, or with each unknown word swapped for
    another: token-index sequences equal to its own. Confidence 0 falls below
    the confidence filter, so images without survivors occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    params = draw(st.sampled_from(WINDOW_MODELS))
    images = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 12))
        confidences = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n))
        boxes = [(20.0 * k, 0.0, 20.0 * k + 10.0, 10.0) for k in range(n)]
        images.append(ImageDetections(f"img{i}", np.reshape(boxes, (n, 4)), confidences,
                                      np.zeros(n, dtype=int),
                                      rng.normal(size=(n, params.config.feature_dim))))
    limit = draw(st.integers(1, 4))
    words = st.lists(st.sampled_from(WINDOW_VOCABULARY[2:] + WINDOW_OOV), min_size=1, max_size=5)
    image_index = st.integers(0, len(images) - 1)
    drawn = draw(st.lists(st.tuples(image_index, words), min_size=1, max_size=8))
    expressions = []
    for image, tokens in drawn:
        expressions.append((image, tokens))
        variant = draw(st.sampled_from(["none", "same", "truncated", "unknown"]))
        other_image = draw(st.integers(0, len(images) - 1))
        if variant == "same":
            expressions.append((other_image, tokens))
        elif variant == "truncated":
            expressions.append((other_image, tokens[:limit] + ["dog"]))
        elif variant == "unknown":
            swap = dict(zip(WINDOW_OOV, WINDOW_OOV[::-1]))
            expressions.append((other_image, [swap.get(word, word) for word in tokens]))
    if draw(st.booleans()):  # each image's expressions one after another
        expressions.sort(key=lambda expression: expression[0])
    return params, [(images[i], tokens) for i, tokens in expressions], limit


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(window_cases(), st.sampled_from([8192, 24, 1]))
def test_window_scoring_is_bit_equal_to_each_expression_alone(case, pass_floats):
    # small bounds give each run of one image's expressions a window of its
    # own and cut each side of the model into passes of one or a few items
    params, expressions, limit = case
    vocab = vocabulary_from_words(WINDOW_VOCABULARY, limit)
    indexed = [(image, encode_tokens(tokens, vocab)) for image, tokens in expressions]
    with mock.patch.object(model, "PASS_FLOATS", pass_floats), \
            mock.patch.object(nms_module, "PASS_FLOATS", pass_floats):
        kept = list(keep_lists(iter(indexed), params))
    assert len(kept) == len(indexed)
    for (image, indices), keep in zip(indexed, kept):
        rows = survivors(image, 0.05)
        assert sorted(keep.rows.tolist()) == rows.tolist()
        if rows.size:
            alone = model.relatedness_forward(Window.of([(image, indices)], 0.05), params)
            position = np.searchsorted(rows, keep.rows)
            np.testing.assert_array_equal(keep.relatedness, alone.value[position])


def test_make_batch_pads_at_the_end_and_reverses_within_each_length():
    tokens = [[3, 1, 4], [5], [2, 6]]
    batch = make_batch(tokens)
    assert batch.tokens.T.tolist() == [[3, 1, 4], [5, 0, 0], [2, 6, 0]]
    assert batch.reversed_tokens.T.tolist() == [[4, 1, 3], [5, 0, 0], [6, 2, 0]]
    assert batch.lengths.tolist() == [3, 1, 2]
    # the window's forward scores expression 0's two boxes, then expression
    # 2's one (segments 0, 0, 2), and encodes only those two sequences
    rng = np.random.default_rng(56)
    params = init_parameters(tiny_config(), seed=2)
    images = [image_with(rng.normal(size=(n, 3))) for n in (2, 0, 1)]
    window = Window.of(zip(images, tokens), 0.0)
    assert window.sizes[window.image_of].tolist() == [2, 0, 1]
    texts, text_of = window.texts()
    assert texts == [(3, 1, 4), (2, 6)] and text_of.tolist() == [0, 0, 1]
    stages = model.forward(window, params)
    assert stages["weights"].value.shape == (3, 2)
    alone = [model.relatedness_forward(Window.of([(images[e], tokens[e])], 0.0), params).value
             for e in (0, 2)]
    np.testing.assert_array_equal(stages["score"].value, np.concatenate(alone))
    with pytest.raises(ValueError, match="empty token sequence"):
        make_batch([[1], []])


def test_score_boxes_scores_survivors_in_bounded_passes(monkeypatch):
    # the text side once per distinct token sequence, the box side once per
    # distinct image, the joint once per expression; each pass's widest array
    # within PASS_FLOATS unless the pass holds one sequence, image or expression
    rng = np.random.default_rng(54)
    params = init_parameters(tiny_config(), seed=3)
    q = params.config.word_feature_dim
    images = [
        random_image(rng, n, 3, confidences=list(rng.uniform(0.0, 0.1, size=n)))
        for n in [0, 3000] + list(rng.integers(0, 800, size=24))
    ]
    texts = [[int(i) for i in rng.integers(1, 9, size=n)] for n in rng.integers(1, 21, size=150)]
    expressions = [
        (image, texts[int(rng.integers(len(texts)))])
        for image in images for _ in range(int(rng.integers(1, 12)))
    ]
    expressions.insert(3, (images[1], [int(i) for i in rng.integers(1, 9, size=1500)]))
    rows_of = {image: survivors(image, 0.05) for image in images}
    busy = [(image, indices) for image, indices in expressions if rows_of[image].size]
    one_image_rows = {len(rows) for rows in rows_of.values()}
    passes = {"text": [], "box": [], "joint": []}  # (items or rows, floats) of each pass

    def recording(name, function, measure):
        def record(*args):
            result = function(*args)
            passes[name].append(measure(*args, result))
            return result
        monkeypatch.setattr(model, function.__name__, record)

    recording("text", model._text_side,
              lambda batch, _, out: (len(batch.lengths), out["words"].value.size))
    recording("box", model._box_side,
              lambda features, _, out: (len(features), max(features.size, out.value.size)))
    recording("joint", model._relate, lambda gate, *_: (len(gate.value), gate.value.size))
    window = Window.of(expressions, 0.05)
    scored = model.score_boxes(window, params)
    assert max(floats for _, floats in passes["text"]) == 1500 * q > PASS_FLOATS
    assert max(items for items, _ in passes["text"]) > 1
    assert all(floats <= PASS_FLOATS or items == 1 for items, floats in passes["text"])
    assert sum(items for items, _ in passes["text"]) == len({tuple(t) for _, t in busy})
    for name in ("box", "joint"):
        assert len(passes[name]) > 1 and max(f for _, f in passes[name]) > PASS_FLOATS, name
        assert all(f <= PASS_FLOATS or rows in one_image_rows for rows, f in passes[name]), name
    assert sum(rows for rows, _ in passes["box"]) == sum(len(rows) for rows in rows_of.values())
    assert sum(rows for rows, _ in passes["joint"]) == sum(len(rows_of[i]) for i, _ in busy)
    for (image, indices), row, n in zip(expressions, scored, window.sizes[window.image_of]):
        # the confidence floor is inclusive; an image without survivors scores nothing
        rows, reference = score_boxes(image, indices, params, min_confidence=0.05)
        np.testing.assert_allclose(row[:n], reference, rtol=0.0, atol=1e-12)
        assert not row[n:].any()
