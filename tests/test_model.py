"""Relatedness model: expression encoding, attention, fusion head, scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refnms import autodiff as ad
from refnms.autodiff import grad_check
from refnms.geometry import Box
from refnms.ingest import DetectionRecord, EmbeddingTable, ImageDetections
from refnms.model import (
    ModelConfig,
    encode_expression,
    forward,
    init_parameters,
    parameter_shapes,
    relatedness_forward,
    score_boxes,
)


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
            DetectionRecord(
                Box(x1, y1, x1 + w, y1 + h),
                int(rng.integers(0, 3)),
                "obj",
                conf,
                rng.normal(size=feature_dim),
            )
        )
    return ImageDetections("img", tuple(records))


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
    for group in (params.gru_fwd, params.gru_bwd):
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
    mirrored = encode_expression(list(reversed(indices)), params.with_swapped_directions()).value
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


def test_parameter_shapes_match_initialized_parameters():
    cfg = ModelConfig(vocab_size=7, feature_dim=5, embed_dim=4, hidden_size=3)
    named = init_parameters(cfg, seed=0).named_parameters()
    assert list(parameter_shapes(cfg).items()) == [(n, p.value.shape) for n, p in named.items()]


def test_init_uses_embedding_table_and_zero_pad_row():
    from refnms.ingest import ExpressionRecord, build_vocabulary

    corpus = [
        ExpressionRecord("e", "i", ("cat", "cat", "dog", "dog"), None, Box(0, 0, 1, 1), "train")
    ]
    vocab = build_vocabulary(corpus, max_len=10)
    table = EmbeddingTable(4, {"cat": np.array([9.0, 8.0, 7.0, 6.0])})
    cfg = ModelConfig(vocab_size=len(vocab), feature_dim=3, embed_dim=4, hidden_size=2)
    params = init_parameters(cfg, seed=0, table=table, vocab=vocab)
    np.testing.assert_array_equal(params.embeddings.value[0], 0.0)
    np.testing.assert_array_equal(
        params.embeddings.value[vocab.word_to_index["cat"]], [9.0, 8.0, 7.0, 6.0]
    )
    # "dog" is not in the table: random init, bounded away from the table row
    assert np.all(np.abs(params.embeddings.value[vocab.word_to_index["dog"]]) <= 0.1)


# attention ----------------------------------------------------------------------


def test_attend_singleton_word():
    params = init_parameters(tiny_config(), seed=2)
    words = encode_expression([4], params)
    stages = forward(np.array([[0.3, -0.2, 0.5]]), words, params)
    np.testing.assert_allclose(stages["weights"].value, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(stages["attended"].value, words.value, atol=1e-15)


def test_attend_zero_logit_head_is_uniform_mean():
    params = init_parameters(tiny_config(), seed=2)
    zero_out(params.fc_s_w, params.fc_s_b)
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
    zero_out(*params.mlp_a.nodes().values())
    params.fc_s_w.value = np.array([0.0, 0.0, np.log(3.0), 0.0])
    params.fc_s_b.value = np.zeros(1)
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
    zero_out(params.fc_r_w, params.fc_r_b)
    words = encode_expression([1, 2], params)
    stages = forward(np.array([[0.5, 0.5, 0.5]]), words, params)
    assert stages["logit"].value[0, 0] == 0.0
    assert stages["score"].value[0] == pytest.approx(0.5, abs=1e-15)


def test_relate_hand_computed_instance():
    # gate (3,4) normalized against attended (1,1): joint (0.6, 0.8);
    # head weights (1,1) give logit 1.4 and sigmoid(1.4)
    cfg = ModelConfig(vocab_size=4, feature_dim=2, embed_dim=2, hidden_size=1)
    params = init_parameters(cfg, seed=0)
    zero_out(params.mlp_b.w1, params.mlp_b.b1, params.mlp_b.w2)
    params.mlp_b.b2.value = np.array([3.0, 4.0])
    params.fc_r_w.value = np.array([[1.0, 1.0]])
    params.fc_r_b.value = np.zeros(1)
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
    params.mlp_b.b2.value += 0.5  # keep the pre-norm vector comfortably nonzero
    words = encode_expression([2, 6, 4, 1], params)
    stages = forward(rng.normal(size=(10, 3)), words, params)
    rows = zip(*(stages[k].value for k in ("weights", "gate", "attended", "joint", "score")))
    for weights, gate, attended, joint, score in rows:
        assert abs(weights.sum() - 1.0) < 1e-9
        pre_norm = gate * attended
        if np.linalg.norm(pre_norm) > 0.05:
            assert abs(np.linalg.norm(joint) - 1.0) < 1e-9
        assert 0.0 < score < 1.0


# scoring ------------------------------------------------------------------------


def test_score_boxes_empty_when_all_below_confidence_floor():
    rng = np.random.default_rng(44)
    params = init_parameters(tiny_config(), seed=0)
    image = random_image(rng, 3, 3, confidences=[0.01, 0.02, 0.04])
    assert score_boxes(image, [1, 2], params, min_confidence=0.05) == []


def test_score_boxes_confidence_floor_is_inclusive():
    rng = np.random.default_rng(45)
    params = init_parameters(tiny_config(), seed=0)
    image = random_image(rng, 3, 3, confidences=[0.04, 0.05, 0.9])
    kept = score_boxes(image, [1, 2], params, min_confidence=0.05)
    assert [p.confidence for p in kept] == [0.05, 0.9]


def test_score_is_exactly_relatedness_times_confidence():
    rng = np.random.default_rng(46)
    params = init_parameters(tiny_config(), seed=1)
    image = random_image(rng, 5, 3)
    for p in score_boxes(image, [1, 4, 2], params):
        assert p.fused == p.relatedness * p.confidence
        assert p.fused <= min(p.relatedness, p.confidence)


def test_scores_preserve_input_order_and_permute_with_it():
    rng = np.random.default_rng(47)
    params = init_parameters(tiny_config(), seed=2)
    image = random_image(rng, 6, 3)
    indices = [1, 3]
    scored = score_boxes(image, indices, params)
    assert [p.box for p in scored] == [r.box for r in image.records]
    perm = rng.permutation(6)
    shuffled = ImageDetections("img", tuple(image.records[i] for i in perm))
    scored_shuffled = score_boxes(shuffled, indices, params)
    for j, i in enumerate(perm):
        assert scored_shuffled[j].relatedness == scored[i].relatedness


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


def reference_scores(features, words, params):
    """The per-box forward: one graph per box, vectors instead of row batches."""
    q = params.config.word_feature_dim
    n_words = words.value.shape[0]

    def mlp(p, x):
        return ad.add(ad.matmul(p.w2, ad.relu(ad.add(ad.matmul(p.w1, x), p.b1))), p.b2)

    scores = []
    for feature in features:
        v = ad.matmul(params.feature_projection, ad.constant(feature))
        key = ad.broadcast_to(ad.reshape(mlp(params.mlp_a, v), (1, q)), (n_words, q))
        paired = ad.concat([key, words], axis=1)
        logits = ad.add(
            ad.matmul(paired, params.fc_s_w), ad.broadcast_to(params.fc_s_b, (n_words,))
        )
        attended = ad.matmul(ad.softmax(logits, axis=0), words)
        joint = ad.l2_normalize(ad.mul(mlp(params.mlp_b, v), attended))
        scores.append(ad.sigmoid(ad.add(ad.matmul(params.fc_r_w, joint), params.fc_r_b)))
    return ad.concat(scores)


# the box term and the bias of the attention logit are the same for every
# word, so the softmax cancels them: these parameters get a true gradient of zero
ZERO_GRADIENT = ("mlp_a.w1", "mlp_a.b1", "mlp_a.w2", "mlp_a.b2", "fc_s.b")


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
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=7, feature_dim=feature_dim, embed_dim=3, hidden_size=hidden_size)
    params = init_parameters(cfg, seed=seed)
    for node in params.named_parameters().values():
        node.value += 0.5 * rng.normal(size=node.value.shape)
    features = rng.normal(scale=2.0, size=(n_boxes, feature_dim))
    indices = [int(i) for i in rng.integers(1, 7, size=n_words)]
    coefficients = rng.normal(size=n_boxes)

    def batched(features, words, params):
        return forward(features, words, params)["score"]

    scores, grads = gradients(batched, features, indices, params, coefficients)
    ref_scores, ref_grads = gradients(reference_scores, features, indices, params, coefficients)
    np.testing.assert_allclose(scores, ref_scores, rtol=0.0, atol=1e-12)
    for name, ref in ref_grads.items():
        if name in ZERO_GRADIENT:
            assert np.abs(grads[name]).max() < 1e-12, name
            assert np.abs(ref).max() < 1e-12, name
        else:
            assert np.linalg.norm(grads[name] - ref) <= 1e-10 * np.linalg.norm(ref), name


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
        image = random_image(rng, n_boxes, 3)
        _, scores = relatedness_forward(image, [1, 4, 2], params, min_confidence=0.0)
        assert scores.value.shape == (n_boxes,)
        sizes.add(graph_size(scores))
    assert len(sizes) == 1
