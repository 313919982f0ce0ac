"""The relatedness model.

A bi-directional GRU encodes the expression into one feature per word. Each
detection's region feature is projected, attends over the word features to
build an expression summary, and the fused (element-wise, L2-normalized)
combination of box and summary is mapped to a relatedness probability. The
final suppression criterion is the product of relatedness and detection
confidence. All surviving boxes of an image go through one forward pass, as
the rows of 2-D arrays, so the graph's size does not grow with their number.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GruParams, Node, gru_cell, init_gru_params
from .geometry import Box
from .ingest import (
    DataFormatError,
    DetectionRecord,
    EmbeddingTable,
    ImageDetections,
    PAD_TOKEN,
    Vocabulary,
)

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
    """Every trainable array of the relatedness model."""

    config: ModelConfig
    embeddings: Node            # (vocab, embed)
    gru_fwd: GruParams
    gru_bwd: GruParams
    feature_projection: Node    # (feature, feature); stands in for detector-head fine-tuning
    mlp_a: MlpParams            # box side of the attention, feature -> word_feature_dim
    fc_s_w: Node                # attention logit head, (2 * word_feature_dim,)
    fc_s_b: Node                # (1,)
    mlp_b: MlpParams            # box side of the fusion, feature -> word_feature_dim
    fc_r_w: Node                # relatedness logit head, (1, word_feature_dim)
    fc_r_b: Node                # (1,)

    def named_parameters(self) -> dict[str, Node]:
        named: dict[str, Node] = {"embeddings": self.embeddings}
        for prefix, group in (("gru_fwd", self.gru_fwd), ("gru_bwd", self.gru_bwd)):
            for name, node in group.nodes().items():
                named[f"{prefix}.{name}"] = node
        named["feature_projection"] = self.feature_projection
        for name, node in self.mlp_a.nodes().items():
            named[f"mlp_a.{name}"] = node
        named["fc_s.w"] = self.fc_s_w
        named["fc_s.b"] = self.fc_s_b
        for name, node in self.mlp_b.nodes().items():
            named[f"mlp_b.{name}"] = node
        named["fc_r.w"] = self.fc_r_w
        named["fc_r.b"] = self.fc_r_b
        return named

    def zero_gradients(self) -> None:
        ad.zero_gradients(self.named_parameters().values())

    def with_swapped_directions(self) -> "ModelParameters":
        return replace(self, gru_fwd=self.gru_bwd, gru_bwd=self.gru_fwd)


def _init_mlp(in_dim: int, out_dim: int, rng: np.random.Generator) -> MlpParams:
    k1 = 1.0 / np.sqrt(in_dim)
    k2 = 1.0 / np.sqrt(out_dim)
    return MlpParams(
        w1=Node(rng.uniform(-k1, k1, size=(out_dim, in_dim))),
        b1=Node(np.zeros(out_dim)),
        w2=Node(rng.uniform(-k2, k2, size=(out_dim, out_dim))),
        b2=Node(np.zeros(out_dim)),
    )


def init_parameters(
    config: ModelConfig,
    seed: int,
    table: EmbeddingTable | None = None,
    vocab: Vocabulary | None = None,
) -> ModelParameters:
    """Seeded parameter initialization.

    Word embeddings start uniform(-0.1, 0.1) and are overwritten with table
    vectors for vocabulary words found there; the padding row is zero. The
    feature projection starts as the identity.
    """
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-0.1, 0.1, size=(config.vocab_size, config.embed_dim))
    emb[0] = 0.0
    if table is not None and vocab is not None:
        if table.dimension != config.embed_dim:
            raise DataFormatError(
                f"embedding table dimension {table.dimension} != model embed_dim {config.embed_dim}"
            )
        for word, idx in vocab.word_to_index.items():
            if word == PAD_TOKEN:
                continue
            vec = table.get(word)
            if vec is not None:
                emb[idx] = vec
    q = config.word_feature_dim
    ks = 1.0 / np.sqrt(2 * q)
    kr = 1.0 / np.sqrt(q)
    return ModelParameters(
        config=config,
        embeddings=Node(emb),
        gru_fwd=init_gru_params(config.embed_dim, config.hidden_size, rng),
        gru_bwd=init_gru_params(config.embed_dim, config.hidden_size, rng),
        feature_projection=Node(np.eye(config.feature_dim)),
        mlp_a=_init_mlp(config.feature_dim, q, rng),
        fc_s_w=Node(rng.uniform(-ks, ks, size=2 * q)),
        fc_s_b=Node(np.zeros(1)),
        mlp_b=_init_mlp(config.feature_dim, q, rng),
        fc_r_w=Node(rng.uniform(-kr, kr, size=(1, q))),
        fc_r_b=Node(np.zeros(1)),
    )


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
        **{f"mlp_a.{k}": s for k, s in mlp.items()},
        "fc_s.w": (2 * q,),
        "fc_s.b": (1,),
        **{f"mlp_b.{k}": s for k, s in mlp.items()},
        "fc_r.w": (1, q),
        "fc_r.b": (1,),
    }


def parameters_from_arrays(config: ModelConfig, arrays: Mapping[str, np.ndarray]) -> ModelParameters:
    """Rebuild parameters from named arrays, validating names and shapes.

    Each parameter node holds its float64 array itself, not a copy.
    """
    shapes = parameter_shapes(config)
    if set(arrays) != set(shapes):
        missing = sorted(set(shapes) - set(arrays))
        extra = sorted(set(arrays) - set(shapes))
        raise DataFormatError(f"parameter set mismatch: missing {missing}, unexpected {extra}")
    nodes: dict[str, Node] = {}
    for name, shape in shapes.items():
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != shape:
            raise DataFormatError(
                f"shape mismatch for '{name}': stored {arr.shape}, expected {shape}"
            )
        nodes[name] = Node(arr)

    def group(cls, prefix: str):
        return cls(**{f.name: nodes[f"{prefix}.{f.name}"] for f in fields(cls)})

    return ModelParameters(
        config=config,
        embeddings=nodes["embeddings"],
        gru_fwd=group(GruParams, "gru_fwd"),
        gru_bwd=group(GruParams, "gru_bwd"),
        feature_projection=nodes["feature_projection"],
        mlp_a=group(MlpParams, "mlp_a"),
        fc_s_w=nodes["fc_s.w"],
        fc_s_b=nodes["fc_s.b"],
        mlp_b=group(MlpParams, "mlp_b"),
        fc_r_w=nodes["fc_r.w"],
        fc_r_b=nodes["fc_r.b"],
    )


@dataclass(frozen=True)
class ScoredProposal:
    """A detection with its relatedness and fused suppression score."""

    box: Box
    category_id: int
    confidence: float
    relatedness: float
    fused: float


def encode_expression(indices: Sequence[int], params: ModelParameters) -> Node:
    """Word features for a token-index sequence, shape (n_words, 2 * hidden).

    Row j concatenates the forward GRU state after tokens [0..j] and the
    backward GRU state after tokens [n-1..j].
    """
    if len(indices) == 0:
        raise ValueError("encode_expression: empty token sequence")
    cfg = params.config
    tokens = [
        ad.reshape(ad.take(params.embeddings, [i]), (cfg.embed_dim,)) for i in indices
    ]
    start = ad.constant(np.zeros(cfg.hidden_size))
    fwd_states = []
    h = start
    for x in tokens:
        h = gru_cell(x, h, params.gru_fwd)
        fwd_states.append(h)
    bwd_states: list[Node] = []
    h = start
    for x in reversed(tokens):
        h = gru_cell(x, h, params.gru_bwd)
        bwd_states.append(h)
    bwd_states.reverse()
    return ad.stack([ad.concat([f, b]) for f, b in zip(fwd_states, bwd_states)])


def forward(features: np.ndarray, words: Node, params: ModelParameters) -> dict[str, Node]:
    """Score the boxes whose region features are the rows of `features`.

    One pass for all n boxes against the (n_words, q) word features. Returns
    every stage by name, boxes along axis 0: ``projected`` (n, feature_dim);
    ``key``, ``gate``, ``attended`` and ``joint`` (n, q); ``logits`` and
    ``weights`` (n, n_words), each row a softmax over the words; ``logit``
    (n, 1); ``score`` (n,), the relatedness probabilities.
    """
    q = params.config.word_feature_dim
    n, n_words = features.shape[0], words.value.shape[0]
    v = ad.linear(ad.constant(features), params.feature_projection)
    a, b = params.mlp_a, params.mlp_b
    key = ad.linear(ad.relu(ad.linear(v, a.w1, a.b1)), a.w2, a.b2)
    gate = ad.linear(ad.relu(ad.linear(v, b.w1, b.b1)), b.w2, b.b2)
    # fc_s scores the pair [key_i; word_j] as key_i . w[:q] + word_j . w[q:] + b
    halves = ad.reshape(params.fc_s_w, (2, q))
    box_term = ad.linear(key, ad.take(halves, [0]))
    word_term = ad.linear(words, ad.take(halves, [1]), params.fc_s_b)
    logits = ad.add(
        ad.broadcast_to(box_term, (n, n_words)),
        ad.broadcast_to(ad.reshape(word_term, (1, n_words)), (n, n_words)),
    )
    weights = ad.softmax(logits, axis=1)
    attended = ad.matmul(weights, words)
    joint = ad.l2_normalize(ad.mul(gate, attended), axis=1)
    logit = ad.linear(joint, params.fc_r_w, params.fc_r_b)
    return {
        "projected": v, "key": key, "logits": logits, "weights": weights,
        "attended": attended, "gate": gate, "joint": joint, "logit": logit,
        "score": ad.sigmoid(ad.reshape(logit, (n,))),
    }


def relatedness_forward(
    image: ImageDetections,
    indices: Sequence[int],
    params: ModelParameters,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
) -> tuple[list[DetectionRecord], Node | None]:
    """Score every detection with confidence >= `min_confidence`.

    Returns the surviving records (input order) and their relatedness scores
    as one graph node of shape (n_survivors,), or ``None`` when nothing
    survives the confidence filter.
    """
    survivors = [r for r in image.records if r.confidence >= min_confidence]
    if not survivors:
        return [], None
    features = np.stack([r.feature for r in survivors])
    return survivors, forward(features, encode_expression(indices, params), params)["score"]


def score_boxes(
    image: ImageDetections,
    indices: Sequence[int],
    params: ModelParameters,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
) -> list[ScoredProposal]:
    """Confidence-filter and score an image's detections for one expression."""
    survivors, score_node = relatedness_forward(image, indices, params, min_confidence)
    if score_node is None:
        return []
    out = []
    for rec, r in zip(survivors, score_node.value):
        r = float(r)
        out.append(ScoredProposal(rec.box, rec.category_id, rec.confidence, r, r * rec.confidence))
    return out
