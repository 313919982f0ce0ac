"""The relatedness model.

A bi-directional GRU encodes the expression into one feature per word. One
attention over the words per expression sums them into a summary; the
paper's box-conditioned attention is not modelled (a box term added to
logits that the softmax normalizes over words would cancel). Each
detection's region feature is projected and gated, and the fused
(element-wise, L2-normalized) combination of gate and summary is mapped to a
relatedness probability. The final suppression criterion is the product of
relatedness and detection confidence. All surviving boxes of an image go
through one forward pass, as the rows of 2-D arrays, so the graph's size
does not grow with their number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GruParams, Node, init_gru_params
from .ingest import DataFormatError, EmbeddingTable, ImageDetections, PAD_TOKEN, Vocabulary

DEFAULT_MIN_CONFIDENCE = 0.05


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    feature_dim: int
    embed_dim: int = 300
    hidden_size: int = 256

    def __post_init__(self) -> None:
        for name in ("vocab_size", "feature_dim", "embed_dim", "hidden_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def word_feature_dim(self) -> int:
        # both GRU directions concatenated
        return 2 * self.hidden_size


@dataclass
class MlpParams:
    """Two-layer perceptron with a ReLU between the layers."""

    w1: Node
    b1: Node
    w2: Node
    b2: Node

    def nodes(self) -> dict[str, Node]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ModelParameters:
    """Every trainable array of the relatedness model, in one flat store.

    Each parameter's ``value`` is a view of the flat float64 buffer ``values``
    and its ``grad`` a view of the flat buffer ``grads``, both laid out in
    `named_parameters` order with the shapes of `parameter_shapes`. Values
    and gradients must therefore be written in place. ``grads`` comes from
    ``np.zeros``, whose pages the OS maps only when they are written, so a
    model that only scores boxes never makes its gradient memory resident.
    """

    config: ModelConfig
    embeddings: Node            # (vocab, embed)
    gru_fwd: GruParams
    gru_bwd: GruParams
    feature_projection: Node    # (feature, feature); stands in for detector-head fine-tuning
    fc_s_w: Node                # attention logit head over words, (1, word_feature_dim)
    mlp_b: MlpParams            # box side of the fusion, feature -> word_feature_dim
    fc_r_w: Node                # relatedness logit head, (1, word_feature_dim)
    fc_r_b: Node                # (1,)
    values: np.ndarray = field(repr=False, compare=False)
    grads: np.ndarray = field(init=False, repr=False, compare=False)
    grad_views: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.grads = np.zeros(self.values.size)
        self.grad_views = flat_views(self.grads, self.config)
        self._point_gradients()

    def named_parameters(self) -> dict[str, Node]:
        named: dict[str, Node] = {"embeddings": self.embeddings}
        for prefix, group in (("gru_fwd", self.gru_fwd), ("gru_bwd", self.gru_bwd)):
            for name, node in group.nodes().items():
                named[f"{prefix}.{name}"] = node
        named["feature_projection"] = self.feature_projection
        named["fc_s.w"] = self.fc_s_w
        for name, node in self.mlp_b.nodes().items():
            named[f"mlp_b.{name}"] = node
        named["fc_r.w"] = self.fc_r_w
        named["fc_r.b"] = self.fc_r_b
        return named

    def _point_gradients(self) -> None:
        for node, view in zip(self.named_parameters().values(), self.grad_views.values()):
            node.grad = view

    def zero_gradients(self) -> None:
        """Zero the flat gradient buffer and point every ``grad`` at its view."""
        self.grads.fill(0.0)
        self._point_gradients()


def init_parameters(
    config: ModelConfig,
    seed: int,
    table: EmbeddingTable | None = None,
    vocab: Vocabulary | None = None,
) -> ModelParameters:
    """Seeded parameter initialization, written into a new flat store.

    Word embeddings start uniform(-0.1, 0.1) and are overwritten with table
    vectors for vocabulary words found there; the padding row is zero. The
    feature projection starts as the identity. Weights are drawn in
    `named_parameters` order; biases start at zero.
    """
    if table is not None and vocab is not None and table.dimension != config.embed_dim:
        raise DataFormatError(
            f"embedding table dimension {table.dimension} != model embed_dim {config.embed_dim}"
        )
    rng = np.random.default_rng(seed)
    values = np.zeros(parameter_count(config))
    views = flat_views(values, config)
    emb = views["embeddings"]
    emb[...] = rng.uniform(-0.1, 0.1, size=emb.shape)
    emb[0] = 0.0
    if table is not None and vocab is not None:
        for word, idx in vocab.word_to_index.items():
            if word == PAD_TOKEN:
                continue
            vec = table.get(word)
            if vec is not None:
                emb[idx] = vec
    for prefix in ("gru_fwd", "gru_bwd"):
        gru = init_gru_params(config.embed_dim, config.hidden_size, rng)
        for name, node in gru.nodes().items():
            views[f"{prefix}.{name}"][...] = node.value
    np.fill_diagonal(views["feature_projection"], 1.0)
    d, q = config.feature_dim, config.word_feature_dim
    # skip the draws of the removed box side of the attention (mlp_a, key half of fc_s.w) and keep
    # fc_s.w's bound: kept weights get their checkpoint-v1 values, so outputs stay comparable
    rng.bit_generator.advance(q * d + q * q + q)
    bounds = {
        "fc_s.w": 1.0 / np.sqrt(2 * q),
        "mlp_b.w1": 1.0 / np.sqrt(d),
        "mlp_b.w2": 1.0 / np.sqrt(q),
        "fc_r.w": 1.0 / np.sqrt(q),
    }
    for name, bound in bounds.items():
        views[name][...] = rng.uniform(-bound, bound, size=views[name].shape)
    return parameters_from_flat(config, values)


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter, by name, in `named_parameters` order."""
    d, e, h, q = config.feature_dim, config.embed_dim, config.hidden_size, config.word_feature_dim
    gru: dict[str, tuple[int, ...]] = {}
    for gate in "zrh":
        gru.update({f"w_{gate}": (h, e), f"u_{gate}": (h, h), f"b_{gate}": (h,)})
    mlp = {"w1": (q, d), "b1": (q,), "w2": (q, q), "b2": (q,)}
    return {
        "embeddings": (config.vocab_size, e),
        **{f"gru_fwd.{k}": s for k, s in gru.items()},
        **{f"gru_bwd.{k}": s for k, s in gru.items()},
        "feature_projection": (d, d),
        "fc_s.w": (1, q),
        **{f"mlp_b.{k}": s for k, s in mlp.items()},
        "fc_r.w": (1, q),
        "fc_r.b": (1,),
    }


def parameter_count(config: ModelConfig) -> int:
    """The number of floats in the flat parameter store."""
    return sum(math.prod(shape) for shape in parameter_shapes(config).values())


def flat_views(buffer: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    """Every parameter's view of a flat buffer, by name, in `named_parameters` order."""
    views, start = {}, 0
    for name, shape in parameter_shapes(config).items():
        stop = start + math.prod(shape)
        views[name] = buffer[start:stop].reshape(shape)
        start = stop
    if start != buffer.size:
        raise ValueError(f"flat buffer holds {buffer.size} floats, the parameters {start}")
    return views


def parameters_from_flat(config: ModelConfig, values: np.ndarray) -> ModelParameters:
    """Parameters whose values are views of `values`, a flat float64 buffer."""
    nodes = {name: Node(view) for name, view in flat_views(values, config).items()}

    def group(cls, prefix: str):
        return cls(**{f.name: nodes[f"{prefix}.{f.name}"] for f in fields(cls)})

    return ModelParameters(
        config=config,
        embeddings=nodes["embeddings"],
        gru_fwd=group(GruParams, "gru_fwd"),
        gru_bwd=group(GruParams, "gru_bwd"),
        feature_projection=nodes["feature_projection"],
        fc_s_w=nodes["fc_s.w"],
        mlp_b=group(MlpParams, "mlp_b"),
        fc_r_w=nodes["fc_r.w"],
        fc_r_b=nodes["fc_r.b"],
        values=values,
    )


def encode_expression(indices: Sequence[int], params: ModelParameters) -> Node:
    """Word features for a token-index sequence, shape (n_words, 2 * hidden).

    Row j concatenates the forward GRU state after tokens [0..j] and the
    backward GRU state after tokens [n-1..j].
    """
    if len(indices) == 0:
        raise ValueError("encode_expression: empty token sequence")
    tokens = ad.take(params.embeddings, indices)
    backwards = np.arange(len(indices) - 1, -1, -1)
    fwd_states = ad.gru_sequence(tokens, params.gru_fwd)
    bwd_states = ad.gru_sequence(ad.take(tokens, backwards), params.gru_bwd)
    return ad.concat([fwd_states, ad.take(bwd_states, backwards)], axis=1)


def forward(features: np.ndarray, words: Node, params: ModelParameters) -> dict[str, Node]:
    """Score the boxes whose region features are the rows of `features`.

    One pass for all n boxes against the (n_words, q) word features, with one
    attention row per expression, not conditioned on the box as in the paper.
    Returns every stage by name: ``projected`` (n, feature_dim); ``logits`` and
    ``weights`` (1, n_words); ``attended`` (1, q); ``gate`` and ``joint``
    (n, q); ``logit`` (n, 1); ``score`` (n,), the relatedness probabilities.
    """
    n, q = features.shape[0], params.config.word_feature_dim
    v = ad.linear(features, params.feature_projection)
    b = params.mlp_b
    gate = ad.linear(ad.relu(ad.linear(v, b.w1, b.b1)), b.w2, b.b2)
    logits = ad.reshape(ad.linear(words, params.fc_s_w), (1, words.value.shape[0]))
    weights = ad.softmax(logits, axis=1)
    attended = ad.matmul(weights, words)
    joint = ad.l2_normalize(ad.mul(gate, ad.broadcast_to(attended, (n, q))), axis=1)
    logit = ad.linear(joint, params.fc_r_w, params.fc_r_b)
    return {
        "projected": v, "logits": logits, "weights": weights, "attended": attended,
        "gate": gate, "joint": joint, "logit": logit,
        "score": ad.sigmoid(ad.reshape(logit, (n,))),
    }


def relatedness_forward(
    image: ImageDetections,
    indices: Sequence[int],
    params: ModelParameters,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
) -> tuple[np.ndarray, Node | None]:
    """Score every detection with confidence >= `min_confidence`.

    Returns the surviving rows of the image (ascending) and their relatedness
    scores as one graph node of shape (n_survivors,), or ``None`` when
    nothing survives the confidence filter.
    """
    survivors = np.flatnonzero(image.confidences >= min_confidence)
    if survivors.size == 0:
        return survivors, None
    words = encode_expression(indices, params)
    return survivors, forward(image.features[survivors], words, params)["score"]


def score_boxes(
    image: ImageDetections,
    indices: Sequence[int],
    params: ModelParameters,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
) -> tuple[np.ndarray, np.ndarray]:
    """The surviving rows of an image and their relatedness to one expression."""
    survivors, score_node = relatedness_forward(image, indices, params, min_confidence)
    if score_node is None:
        return survivors, np.zeros(0)
    return survivors, score_node.value
