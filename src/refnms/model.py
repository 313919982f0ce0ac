"""The relatedness model.

A bi-directional GRU encodes the expression into one feature per word. One
attention over the words per expression sums them into a summary; the
paper's box-conditioned attention is not modelled (a box term added to
logits that the softmax normalizes over words would cancel). Each
detection's region feature is gated by a two-layer perceptron, and the fused
(element-wise, L2-normalized) combination of gate and summary is mapped to a
relatedness probability. The final suppression criterion is the product of
relatedness and detection confidence.

The model reads one input, a `Window`: expressions grouped by image once,
with each image's surviving boxes. The text side (embeddings, bi-GRU,
attention) reads only the tokens, so it runs once per distinct token-index
sequence: S sequences padded to (T, S) at their ends, one GRU call per
direction (the backward one on tokens reversed within each length) and a
masked softmax down (T, S). The box side (`mlp_b`'s gate) reads only the
image, so it runs once over each image's survivors. Each expression then
takes its image's gate rows and its sequence's summary by index into the
joint, logit and sigmoid. `forward` builds this as one graph for training
and tracing, whose size does not grow with the number of expressions,
tokens or boxes. `score_boxes` is the one scoring call: it runs the same
parts in bounded passes and returns one (expressions, widest survivor
count) matrix, which `nms.proposal_pipeline` takes as it is.

An expression's scores are bit-equal however its work is split or batched:
every product computes a row the same way whatever the rows beside it, and
sums over words add padded steps as exact zeros. That holds for a
one-thread BLAS: OpenBLAS splits a large product's rows between threads,
and a row's value then depends on where the split falls, so scoring pins
the bundled OpenBLAS to one thread. Gradients round differently where a
window repeats an image or a sequence: the shared rows' gradients are
summed before the weight products.

`parameter_table` is the one declaration of the parameters: each one's
name, shape and init bound, in the order of the flat store. The store's
views, `init_parameters`, the checkpoint's arrays and Adam all follow it,
and the forward reads each parameter by its table name.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GruParams, Node
from .ingest import DataFormatError, EmbeddingTable, ImageDetections, PAD_TOKEN, Vocabulary

DEFAULT_MIN_CONFIDENCE = 0.05

# Floats in the widest array of one scoring pass: a text pass's word
# features (longest sequence x sequences x word_feature_dim), a box pass's
# features or gate rows (boxes x max(feature_dim, word_feature_dim)), a joint
# pass's rows (boxes x word_feature_dim). An item wider than this gets a pass
# of its own. It bounds each array, not a pass's memory: a pass keeps every
# stage of `forward` alive until it ends, several arrays of up to this size
# (the GRU keeps five (T, B, hidden) arrays per direction), and a window's
# summaries, one row per distinct sequence, outlive its passes. A window's
# score matrix stays within it unless one image's run of expressions alone
# exceeds it, and NMS takes its candidate pairs in chunks of it.
PASS_FLOATS = 8192


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    feature_dim: int
    embed_dim: int = 300
    hidden_size: int = 256

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")

    @property
    def word_feature_dim(self) -> int:
        # both GRU directions concatenated
        return 2 * self.hidden_size


def parameter_table(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], float]]:
    """Every parameter of the model, by name, in store order: its shape and
    the bound b of its uniform(-b, b) initialization (0 for a bias, which
    starts at zero). The embeddings come first: `trainer.adam_step` relies
    on it.
    """
    d, e, h, q = config.feature_dim, config.embed_dim, config.hidden_size, config.word_feature_dim
    k = 1.0 / np.sqrt(h)
    gru: dict[str, tuple[tuple[int, ...], float]] = {}
    for gate in "zrh":  # w_* map the input, u_* the state
        gru.update({f"w_{gate}": ((h, e), k), f"u_{gate}": ((h, h), k), f"b_{gate}": ((h,), 0.0)})
    return {
        "embeddings": ((config.vocab_size, e), 0.1),
        **{f"gru_fwd.{name}": entry for name, entry in gru.items()},
        **{f"gru_bwd.{name}": entry for name, entry in gru.items()},
        "fc_s.w": ((1, q), 1.0 / np.sqrt(2 * q)),   # attention logit head over words
        "mlp_b.w1": ((q, d), 1.0 / np.sqrt(d)),     # box side of the fusion, feature -> q
        "mlp_b.b1": ((q,), 0.0),
        "mlp_b.w2": ((q, q), 1.0 / np.sqrt(q)),
        "mlp_b.b2": ((q,), 0.0),
        "fc_r.w": ((1, q), 1.0 / np.sqrt(q)),       # relatedness logit head
        "fc_r.b": ((1,), 0.0),
    }


class ModelParameters:
    """Every trainable array of the relatedness model, in one flat store.

    One graph node per `parameter_table` entry, read as ``params[name]``.
    Each node's ``value`` is a view of the flat float64 buffer ``values``
    and its ``grad`` the view of the same name in ``grad_views``, a view of
    the flat buffer ``grads``. Values and gradients must therefore be
    written in place. ``grads`` comes from ``np.zeros``, whose pages the OS
    maps only when they are written, so a model that only scores boxes
    never makes its gradient memory resident.
    """

    def __init__(self, config: ModelConfig, values: np.ndarray) -> None:
        self.config = config
        self.values = values
        self._nodes = {name: Node(view) for name, view in flat_views(values, config).items()}
        self.grads = np.zeros(values.size)
        self.grad_views = flat_views(self.grads, config)
        self._point_gradients()

    def __getitem__(self, name: str) -> Node:
        return self._nodes[name]

    def gru(self, prefix: str) -> GruParams:
        """The nodes of one GRU direction, ``"gru_fwd"`` or ``"gru_bwd"``."""
        return GruParams(**{f.name: self._nodes[f"{prefix}.{f.name}"] for f in fields(GruParams)})

    def named_parameters(self) -> dict[str, Node]:
        """Every parameter's node, by name, in `parameter_table` order."""
        return self._nodes

    def _point_gradients(self) -> None:
        for name, node in self._nodes.items():
            node.grad = self.grad_views[name]

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

    Weights are drawn uniform(-b, b) with the bounds of `parameter_table`,
    in its order; biases start at zero. Word embeddings are then
    overwritten with table vectors for vocabulary words found there; the
    padding row is zero.
    """
    if table is not None and vocab is not None and table.dimension != config.embed_dim:
        raise DataFormatError(
            f"embedding table dimension {table.dimension} != model embed_dim {config.embed_dim}"
        )
    rng = np.random.default_rng(seed)
    values = np.zeros(parameter_count(config))
    views = flat_views(values, config)
    d, q = config.feature_dim, config.word_feature_dim
    for name, (shape, bound) in parameter_table(config).items():
        if name == "fc_s.w":
            # skip the draws of the removed box side of the attention (mlp_a, key half of
            # fc_s.w): kept weights get their checkpoint-v1 values, so outputs stay comparable
            rng.bit_generator.advance(q * d + q * q + q)
        if bound:
            views[name][...] = rng.uniform(-bound, bound, size=shape)
    emb = views["embeddings"]
    emb[0] = 0.0
    if table is not None and vocab is not None:
        for word, idx in vocab.word_to_index.items():
            if word == PAD_TOKEN:
                continue
            vec = table.get(word)
            if vec is not None:
                emb[idx] = vec
    return ModelParameters(config, values)


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter, by name, in `parameter_table` order."""
    return {name: shape for name, (shape, _) in parameter_table(config).items()}


def parameter_count(config: ModelConfig) -> int:
    """The number of floats in the flat parameter store."""
    return sum(math.prod(shape) for shape in parameter_shapes(config).values())


def flat_views(buffer: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    """Every parameter's view of a flat buffer, by name, in `parameter_table` order."""
    views, start = {}, 0
    for name, shape in parameter_shapes(config).items():
        stop = start + math.prod(shape)
        views[name] = buffer[start:stop].reshape(shape)
        start = stop
    if start != buffer.size:
        raise ValueError(f"flat buffer holds {buffer.size} floats, the parameters {start}")
    return views


def survivors(image: ImageDetections, min_confidence: float) -> np.ndarray:
    """The rows of an image with confidence >= `min_confidence`, ascending."""
    return np.flatnonzero(image.confidences >= min_confidence)


@dataclass(frozen=True, eq=False)
class Window:
    """Expressions grouped by image once: the one input of the model.

    ``images`` are the distinct image objects in first-seen order and
    ``rows`` each one's `survivors`; expression e is of image
    ``images[image_of[e]]`` and has token indices ``tokens[e]`` (None for a
    relatedness that does not read them). `Window.of` builds one.
    """

    images: list[ImageDetections]
    rows: list[np.ndarray]
    image_of: np.ndarray
    tokens: list[Sequence[int] | None]

    @classmethod
    def of(cls, expressions: Iterable[tuple[ImageDetections, Sequence[int] | None]],
           min_confidence: float) -> Window:
        """The window of (image, token indices) expressions, in the order given."""
        expressions = list(expressions)
        index: dict[ImageDetections, int] = {}
        image_of = [index.setdefault(image, len(index)) for image, _ in expressions]
        return cls(list(index), [survivors(image, min_confidence) for image in index],
                   np.array(image_of, dtype=np.intp), [tokens for _, tokens in expressions])

    @property
    def sizes(self) -> np.ndarray:
        """Each image's survivor count."""
        return np.array([len(rows) for rows in self.rows], dtype=np.intp)

    @property
    def width(self) -> int:
        """The most survivors of any of its images."""
        return max(map(len, self.rows), default=0)

    def texts(self) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The distinct token-index sequences of the expressions with
        survivors, in first-seen order, and each expression's index among
        them (0 for one without survivors)."""
        index: dict[tuple[int, ...], int] = {}
        text_of = [index.setdefault(tuple(tokens), len(index)) if n else 0
                   for n, tokens in zip(self.sizes[self.image_of].tolist(), self.tokens)]
        return list(index), np.array(text_of, dtype=np.intp)

    def features(self, images: Sequence[int]) -> np.ndarray:
        """The (rows, D) region features of the survivors of `images`
        (indices into ``images``), image after image."""
        blocks = [self.images[i].features[self.rows[i]] for i in images]
        # one block is used as given: a pass of one wide image holds one copy
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


@dataclass(frozen=True, eq=False)
class ExpressionBatch:
    """B token-index sequences as padded arrays.

    ``tokens`` (T, B) holds sequence b in ``tokens[:lengths[b], b]`` and the
    padding index after it; ``reversed_tokens`` holds it in reverse order
    within the same length.
    """

    tokens: np.ndarray
    reversed_tokens: np.ndarray
    lengths: np.ndarray


def make_batch(token_lists: Sequence[Sequence[int]]) -> ExpressionBatch:
    """Batch token-index sequences."""
    if not token_lists:
        raise ValueError("make_batch: no token sequences")
    lengths = np.array([len(tokens) for tokens in token_lists], dtype=np.intp)
    if lengths.min() == 0:
        raise ValueError("make_batch: empty token sequence")
    tokens = np.zeros((lengths.max(), len(lengths)), dtype=np.intp)  # index 0 is PAD_TOKEN
    reversed_tokens = np.zeros_like(tokens)
    for b, indices in enumerate(token_lists):
        tokens[: lengths[b], b] = indices
        reversed_tokens[: lengths[b], b] = tokens[lengths[b] - 1 :: -1, b]
    return ExpressionBatch(tokens, reversed_tokens, lengths)


def encode_expressions(batch: ExpressionBatch, params: ModelParameters) -> Node:
    """Word features of every token position, (T * B, 2 * hidden), time-major.

    Row t * B + b concatenates the forward GRU state of expression b after
    its tokens [0..t] and the backward state after its tokens [n_b-1..t].
    Rows past an expression's length hold padding states.
    """
    steps, size = batch.tokens.shape
    embeddings = params["embeddings"]
    fwd = ad.gru_sequence(ad.take(embeddings, batch.tokens), params.gru("gru_fwd"))
    bwd = ad.gru_sequence(ad.take(embeddings, batch.reversed_tokens), params.gru("gru_bwd"))
    # the backward state of position t of expression b is step n_b - 1 - t of its run
    position = np.arange(steps)[:, None]
    back = np.where(position < batch.lengths, batch.lengths - 1 - position, position)
    rows = (steps * size, params.config.hidden_size)
    bwd_rows = (back * size + np.arange(size)).ravel()
    return ad.concat([ad.reshape(fwd, rows), ad.take(ad.reshape(bwd, rows), bwd_rows)], axis=1)


def forward(window: Window, params: ModelParameters) -> dict[str, Node]:
    """Score every survivor of every expression of `window`, as one graph.

    Returns every stage by name: from the S sequences of `Window.texts`,
    ``words`` (T * S, q), ``logits`` and ``weights`` (T, S), zero past each
    sequence's length, and ``attended`` (S, q); from the images' survivors,
    ``gate`` (their rows, q); from each expression's survivors in turn,
    ``joint`` (sum N, q), ``logit`` (sum N, 1) and ``score`` (sum N,), the
    relatedness. At least one expression must have a survivor.
    """
    sizes = window.sizes
    texts, text_of = window.texts()
    text = _text_side(make_batch(texts), params)
    gate = _box_side(window.features(np.flatnonzero(sizes)), params)
    used = np.flatnonzero(sizes[window.image_of])  # the expressions with survivors
    counts = sizes[window.image_of[used]]
    first = (np.cumsum(sizes) - sizes)[window.image_of[used]]  # their images' first gate rows
    rows = np.concatenate([np.arange(f, f + n) for f, n in zip(first.tolist(), counts.tolist())])
    summaries = ad.take(text["attended"], np.repeat(text_of[used], counts))
    return {**text, "gate": gate, **_relate(ad.take(gate, rows), summaries, params)}


def _text_side(batch: ExpressionBatch, params: ModelParameters) -> dict[str, Node]:
    """``words``, ``logits``, ``weights`` and ``attended`` of `forward`: the
    stages that read only the batch's tokens."""
    steps, size = batch.tokens.shape
    q = params.config.word_feature_dim
    words = encode_expressions(batch, params)
    logits = ad.reshape(ad.linear(words, params["fc_s.w"]), (steps, size))
    weights = ad.masked_softmax(logits, batch.lengths)
    attended = ad.weighted_sum(weights, ad.reshape(words, (steps, size, q)))
    return {"words": words, "logits": logits, "weights": weights, "attended": attended}


def _box_side(features: np.ndarray, params: ModelParameters) -> Node:
    """``gate`` of `forward`, (n, q), for the (n, D) region features of n boxes."""
    hidden = ad.relu(ad.linear(features, params["mlp_b.w1"], params["mlp_b.b1"]))
    return ad.linear(hidden, params["mlp_b.w2"], params["mlp_b.b2"])


def _relate(gate: Node, summaries: Node, params: ModelParameters) -> dict[str, Node]:
    """``joint``, ``logit`` and ``score`` of `forward`: each box's gate row
    against its expression's summary, both (n, q)."""
    joint = ad.l2_normalize(ad.mul(gate, summaries), axis=1)
    logit = ad.linear(joint, params["fc_r.w"], params["fc_r.b"])
    score = ad.sigmoid(ad.reshape(logit, (len(gate.value),)))
    return {"joint": joint, "logit": logit, "score": score}


def relatedness_forward(window: Window, params: ModelParameters) -> Node:
    """The training forward: `forward`'s ``score``, (sum N,), as one graph node."""
    return forward(window, params)["score"]


def score_boxes(window: Window, params: ModelParameters) -> np.ndarray:
    """The relatedness of each expression of `window` to its image's
    survivors, as one (expressions, ``window.width``) matrix: row e holds
    expression e's scores in the order of its image's ``rows`` and zeros
    past them. An expression whose image has no survivors costs no model
    work.

    The parts of `forward` run on its grouping, each in passes whose widest
    array stays within `PASS_FLOATS` floats: `_text_side`'s words, longest
    sequence times sequences times word_feature_dim (sequences go in
    ascending length); `_box_side`'s rows times max(feature_dim,
    word_feature_dim); `_relate`'s rows times word_feature_dim. A sequence,
    image or expression wider than that alone gets a pass of its own. One
    pass of gate rows is held at a time, and `_relate` runs over the
    expressions of that pass's images. Scores are bit-equal to `forward`'s.
    """
    q = params.config.word_feature_dim
    sizes = window.sizes
    counts = sizes[window.image_of]
    texts, text_of = window.texts()
    columns = np.arange(window.width)
    scores = np.zeros((len(counts), len(columns)))
    busy = np.flatnonzero(sizes)  # images with survivors
    with _one_blas_thread():
        summaries = _summaries(texts, params)
        for part in _passes(sizes[busy].tolist(), max(params.config.feature_dim, q)):
            images = busy[part]
            gate = _box_side(window.features(images), params).value
            gate_of = dict(zip(images.tolist(), np.split(gate, np.cumsum(sizes[images])[:-1])))
            members = np.flatnonzero(np.isin(window.image_of, images))
            for piece in _passes(counts[members].tolist(), q):
                chunk = members[piece]
                gate_rows = np.concatenate([gate_of[i] for i in window.image_of[chunk].tolist()])
                summary_rows = np.repeat(summaries[text_of[chunk]], counts[chunk], axis=0)
                related = _relate(ad.constant(gate_rows), ad.constant(summary_rows), params)
                block = np.zeros((len(chunk), len(columns)))
                block[columns < counts[chunk, None]] = related["score"].value
                scores[chunk] = block
    return scores


def _summaries(texts: list[tuple[int, ...]], params: ModelParameters) -> np.ndarray:
    """`_text_side`'s ``attended`` of each token-index sequence, (len(texts),
    word_feature_dim), in passes of sequences of ascending length."""
    order = sorted(range(len(texts)), key=lambda t: len(texts[t]))
    summaries = np.empty((len(texts), params.config.word_feature_dim))
    for part in _passes([len(texts[t]) for t in order], summaries.shape[1], padded=True):
        chosen = order[part]
        batch = make_batch([texts[t] for t in chosen])
        summaries[chosen] = _text_side(batch, params)["attended"].value
    return summaries


def _passes(sizes: Sequence[int], width: int, padded: bool = False) -> Iterator[slice]:
    """Consecutive items, `sizes[i]` rows each, in slices of at most
    `PASS_FLOATS` floats: their rows times `width`, or with `padded` their
    count times their largest size times `width`. An item over the bound
    alone gets a slice of its own."""
    first = total = largest = 0
    for i, size in enumerate(sizes):
        largest, total = max(largest, size), total + size
        floats = (i + 1 - first) * largest if padded else total
        if i > first and floats * width > PASS_FLOATS:
            yield slice(first, i)
            first, total, largest = i, size, size
    if len(sizes) > first:
        yield slice(first, len(sizes))


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy's wheel
    bundles, or None where numpy links another BLAS."""
    package = Path(np.__file__).parent
    for path in sorted([*(package.parent / "numpy.libs").glob("libscipy_openblas64_*"),
                        *(package / ".dylibs").glob("libscipy_openblas64_*")]):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the bundled OpenBLAS on one thread inside the block, then restore
    its thread count."""
    blas = _openblas_threads()
    threads = blas[0]() if blas else 1
    if threads == 1:
        yield
        return
    blas[1](1)
    try:
        yield
    finally:
        blas[1](threads)
