"""Training loop: Adam with one learning rate (the word embeddings may get
their own), epoch scheduling, and self-contained binary checkpoints.

Training reads the `evaluation.EvalExample`s that `build_eval_set` builds
with a vocabulary; an expression's foreground is the example's `targets`,
its referent followed by its pseudo ground-truth boxes. Shuffling is keyed
on (seed, epoch) so an interrupted run resumed from a checkpoint retraces
the uninterrupted one exactly.

Flat layout: the model's parameters live in one flat float64 buffer (see
`model.ModelParameters`), in the order and with the shapes of
`model.parameter_table`, and so do their gradients and Adam's `m` and `v`.
The embeddings come first in that order, so the learning rates form at most
two contiguous runs (embeddings, the rest), and an Adam step is a few
vectorised updates over slices instead of one per parameter. Nothing here
names a parameter other than the embeddings: a table entry reaches the
checkpoint and Adam with no edit to this module.

Checkpoint payload: three contiguous blocks of little-endian float64, the
parameters, then `m`, then `v`, each in the flat layout. The JSON header
lists every array's name and shape in that order; loading requires exactly
that order, and `apply` and `eval-recall` read only the first block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import CHECKPOINT_VERSION
from . import autodiff as ad
from .autodiff import Node
from .evaluation import EvalExample
from .ingest import DataFormatError, Vocabulary, vocabulary_from_words
from .model import (
    DEFAULT_MIN_CONFIDENCE,
    ModelConfig,
    ModelParameters,
    Window,
    parameter_count,
    parameter_shapes,
    relatedness_forward,
)
from .objectives import (
    RankingConfig,
    assign_labels,
    binary_xe,
    ranking_loss,
    sample_pairs,
    segment_weights,
)
from .pseudo_gt import DEFAULT_SIMILARITY_THRESHOLD

LOSS_KINDS = ("binary_xe", "ranking")

CHECKPOINT_MAGIC = b"RNMS1\n"

# floats per Adam update or finite check of a loaded payload; bounds their scratch memory
ADAM_CHUNK = 32768


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "binary_xe"
    batch_size: int = 8
    lr_rest: float = 5e-3           # every parameter (see embedding_lr)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 5
    seed: int = 0
    min_confidence: float = DEFAULT_MIN_CONFIDENCE  # confidence filter before scoring
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD  # pseudo ground-truth matching
    margin: float = RankingConfig.margin
    max_negatives: int = RankingConfig.max_negatives
    embedding_lr: float | None = None  # None -> lr_rest; 0.0 freezes embeddings

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got '{self.loss_kind}'")
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr_rest <= 0.0:
            raise ValueError(f"lr_rest must be > 0, got {self.lr_rest}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError(f"min_confidence must lie in [0, 1], got {self.min_confidence}")
        if not -1.0 <= self.similarity_threshold <= 1.0:
            raise ValueError(
                f"similarity_threshold must lie in [-1, 1], got {self.similarity_threshold}"
            )
        if self.embedding_lr is not None and self.embedding_lr < 0.0:
            raise ValueError(f"embedding_lr must be >= 0 (0 freezes), got {self.embedding_lr}")
        self.ranking_config()  # checks margin and max_negatives

    def ranking_config(self) -> RankingConfig:
        return RankingConfig(margin=self.margin, max_negatives=self.max_negatives)

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass
class OptimizerState:
    """Adam's first and second moments, each one flat buffer in the layout of
    the parameters' flat store, plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_optimizer_state(params: ModelParameters) -> OptimizerState:
    return OptimizerState(m=np.zeros(params.values.size), v=np.zeros(params.values.size))


def _check_gradient_views(params: ModelParameters) -> None:
    """Every parameter's ``grad`` must be its view of the flat gradient buffer."""
    for name, node in params.named_parameters().items():
        if node.grad is not params.grad_views[name]:
            raise ValueError(
                f"gradient of parameter '{name}' is not its view of the flat gradient "
                "buffer; zero_gradients() points it there, and gradients must be added in place"
            )


def adam_step(params: ModelParameters, state: OptimizerState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of the whole flat parameter store.

    The store is updated in chunks of `ADAM_CHUNK` floats through two
    chunk-sized scratch buffers, with the float operations of
    ``value -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``. The embeddings come
    first in the store, so the floats before their end get `embedding_lr`
    (when set) and the rest `lr_rest`. A parameter that got no gradient has
    a zero one. A non-finite gradient aborts with the offending parameter's
    name, before the chunk that holds it is updated.
    """
    _check_gradient_views(params)
    embedding_lr = cfg.lr_rest if cfg.embedding_lr is None else cfg.embedding_lr
    embedding_end = params["embeddings"].value.size
    state.step += 1
    bc1 = 1.0 - cfg.beta1**state.step
    bc2 = 1.0 - cfg.beta2**state.step
    total, chunk = params.values.size, ADAM_CHUNK
    scratch_a, scratch_b = np.empty(min(chunk, total)), np.empty(min(chunk, total))
    finite = np.empty(min(chunk, total), dtype=bool)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        g, m, v = params.grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
        a, b, ok = scratch_a[: hi - lo], scratch_b[: hi - lo], finite[: hi - lo]
        if not np.isfinite(g, out=ok).all():
            # earlier chunks were finite, so the first such parameter holds it
            name = next(n for n, view in params.grad_views.items() if not np.isfinite(view).all())
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=a)
        v *= cfg.beta2
        v += np.multiply(np.multiply(1.0 - cfg.beta2, g, out=a), g, out=a)
        np.divide(m, bc1, out=a)
        split = min(max(embedding_end - lo, 0), hi - lo)
        np.multiply(embedding_lr, a[:split], out=a[:split])
        np.multiply(cfg.lr_rest, a[split:], out=a[split:])
        denominator = np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), cfg.eps, out=b)
        params.values[lo:hi] -= np.divide(a, denominator, out=a)


@dataclass
class EpochMetrics:
    mean_loss: float
    expressions_used: int
    expressions_skipped: int
    positives: int
    negatives: int


@dataclass
class MinibatchLoss:
    """One minibatch's loss graph and its counts; ``loss`` is ``None`` when
    no expression of the minibatch has a survivor."""

    loss: Node | None
    used: int
    skipped: int
    positives: int
    negatives: int


def minibatch_loss(
    examples: Sequence[EvalExample], params: ModelParameters, cfg: TrainConfig
) -> MinibatchLoss:
    """The mean of the per-expression losses of a minibatch, as one graph.

    The minibatch is one `Window` through one forward; expressions without
    survivors are skipped. Each expression's loss is the mean over its
    boxes (binary cross-entropy) or over its sampled pairs (ranking, a
    constant 0 without pairs).
    """
    window = Window.of([(ex.detections, ex.token_indices) for ex in examples], cfg.min_confidence)
    used = [(ex, window.rows[i]) for ex, i in zip(examples, window.image_of.tolist())
            if len(window.rows[i])]
    skipped = len(examples) - len(used)
    if not used:
        return MinibatchLoss(None, 0, skipped, 0, 0)
    scores = relatedness_forward(window, params)
    offsets = np.cumsum([0] + [len(rows) for _, rows in used])
    bins = np.concatenate([
        assign_labels(ex.detections.boxes[rows], ex.targets)[1]
        for ex, rows in used
    ])
    if cfg.loss_kind == "binary_xe":
        loss = binary_xe(scores, bins > 0, segment_weights(offsets))
    else:
        rank_cfg = cfg.ranking_config()
        pairs, weights = [], []
        for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
            own = sample_pairs(bins[lo:hi], scores.value[lo:hi], rank_cfg)
            pairs.extend((i + lo, j + lo) for i, j in own)
            weights.extend([1.0 / (len(used) * len(own))] * len(own) if own else [])
        loss = ranking_loss(pairs, scores, rank_cfg, weights)
    positives = int(np.count_nonzero(bins))
    return MinibatchLoss(loss, len(used), skipped, positives, len(bins) - positives)


def train_epoch(
    dataset: Sequence[EvalExample],
    params: ModelParameters,
    opt_state: OptimizerState,
    cfg: TrainConfig,
    epoch_index: int,
) -> EpochMetrics:
    """One pass over the dataset: seeded shuffle, per-batch mean loss, Adam step.

    Expressions whose survivor set is empty are skipped and counted; an epoch
    in which nothing was usable is an error.
    """
    order = np.random.default_rng([cfg.seed, epoch_index]).permutation(len(dataset))
    loss_sum = 0.0
    used = skipped = positives = negatives = 0
    for start in range(0, len(order), cfg.batch_size):
        step = minibatch_loss([dataset[i] for i in order[start : start + cfg.batch_size]],
                              params, cfg)
        skipped += step.skipped
        if step.loss is None:
            continue
        params.zero_gradients()
        ad.backward(step.loss)
        adam_step(params, opt_state, cfg)
        loss_sum += float(step.loss.value.item()) * step.used
        used += step.used
        positives += step.positives
        negatives += step.negatives
    if used == 0:
        raise ValueError("train_epoch: no usable expressions (all survivor sets empty)")
    return EpochMetrics(loss_sum / used, used, skipped, positives, negatives)


def train(
    dataset: Sequence[EvalExample],
    params: ModelParameters,
    opt_state: OptimizerState,
    cfg: TrainConfig,
    start_epoch: int = 0,
    on_epoch: Callable[[int, EpochMetrics], None] | None = None,
) -> list[EpochMetrics]:
    """Epochs `start_epoch` to ``cfg.epochs - 1``: their metrics, each also
    passed to `on_epoch` with its epoch index as the epoch ends."""
    if not dataset:
        raise ValueError("train: empty dataset")
    history = []
    for epoch in range(start_epoch, cfg.epochs):
        history.append(train_epoch(dataset, params, opt_state, cfg, epoch))
        if on_epoch is not None:
            on_epoch(epoch, history[-1])
    return history


def resume_state(
    path, cfg: TrainConfig, config: ModelConfig, vocab: Vocabulary
) -> tuple[ModelParameters, OptimizerState, int]:
    """The parameters, Adam state and completed epochs of checkpoint `path`,
    to train on to ``cfg.epochs``.

    The checkpoint must hold model `config` and `vocab`, and have been
    written with `cfg` up to its epoch count: its config hash must be that
    of `cfg` with ``epochs`` set to the epochs it completed, which must be
    fewer than ``cfg.epochs``. Anything else is a `DataFormatError`.
    """
    params, opt_state, stored_vocab, header = load_checkpoint(path, expected_config=config)
    done = _header_field(path, header, "epochs_completed", int, "an integer")
    if not 1 <= done < cfg.epochs:
        raise DataFormatError(
            f"{path}: checkpoint completed {done} epochs; resuming needs 1 to {cfg.epochs - 1}"
        )
    if header.get("config_hash") != replace(cfg, epochs=done).config_hash():
        raise DataFormatError(
            f"{path}: checkpoint was trained with another training config than this run's"
        )
    if stored_vocab != vocab:
        raise DataFormatError(f"{path}: checkpoint vocabulary differs from this run's")
    return params, opt_state, done


def save_checkpoint(
    path,
    params: ModelParameters,
    opt_state: OptimizerState,
    cfg: TrainConfig,
    vocab: Vocabulary,
    epochs_completed: int = 0,
) -> None:
    """Write a self-contained checkpoint.

    Plain magic + JSON header + raw little-endian float64 payload. The
    payload is three contiguous blocks: the flat parameter store, then
    Adam's flat `m` and `v`; the header lists every array in that order. No
    timestamps or other ambient state, so identical inputs give identical
    bytes. The bytes go to a temporary file in the same directory that then
    replaces `path`, so a failed save leaves any previous checkpoint intact.
    """
    buffers = (params.values, opt_state.m, opt_state.v)
    if any(np.shape(buffer) != params.values.shape for buffer in buffers):
        raise ValueError("save_checkpoint: Adam moments do not match the parameter store")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": cfg.config_hash(),
        "model_config": asdict(params.config),
        "vocab": {
            "words": vocab.words_by_index(),
            "max_sentence_length": vocab.max_sentence_length,
        },
        "optimizer_step": opt_state.step,
        "epochs_completed": epochs_completed,
        "arrays": [
            {"name": name, "shape": list(shape)}
            for name, shape in _checkpoint_arrays(params.config)
        ],
    }
    path = Path(path)
    partial = path.with_name(f"{path.name}.partial")
    try:
        with partial.open("wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            for buffer in buffers:
                fh.write(np.ascontiguousarray(buffer, dtype="<f8").data)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _checkpoint_arrays(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every stored array, in payload order."""
    shapes = list(parameter_shapes(config).items())
    return (
        shapes
        + [(f"adam.m.{name}", shape) for name, shape in shapes]
        + [(f"adam.v.{name}", shape) for name, shape in shapes]
    )


def _header_field(path, container: dict, key: str, kind: type, what: str, where: str = ""):
    """`container[key]`, which must be a `kind`; a bool is not an int here."""
    if key not in container:
        raise DataFormatError(f"{path}: checkpoint header has no '{where}{key}'")
    value = container[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DataFormatError(f"{path}: checkpoint header '{where}{key}' must be {what}")
    return value


def _validate_header(path, header) -> ModelConfig:
    """Check the structure and types of every header field that loading reads.

    Returns the stored model configuration.
    """
    mc = _header_field(path, header, "model_config", dict, "an object")
    dims = {
        f.name: _header_field(path, mc, f.name, int, "an integer", "model_config.")
        for f in fields(ModelConfig)
    }
    try:
        config = ModelConfig(**dims)
    except ValueError as exc:
        raise DataFormatError(f"{path}: checkpoint header 'model_config': {exc}") from None
    for i, entry in enumerate(_header_field(path, header, "arrays", list, "a list")):
        if not isinstance(entry, dict):
            raise DataFormatError(f"{path}: checkpoint header 'arrays[{i}]' must be an object")
        _header_field(path, entry, "name", str, "a string", f"arrays[{i}].")
        shape = _header_field(path, entry, "shape", list, "a list", f"arrays[{i}].")
        if not all(type(d) is int and d >= 0 for d in shape):
            raise DataFormatError(
                f"{path}: checkpoint header 'arrays[{i}].shape' must hold non-negative integers"
            )
    vocab = _header_field(path, header, "vocab", dict, "an object")
    words = _header_field(path, vocab, "words", list, "a list", "vocab.")
    if not all(isinstance(w, str) for w in words):
        raise DataFormatError(f"{path}: checkpoint header 'vocab.words' must hold strings")
    if _header_field(path, vocab, "max_sentence_length", int, "an integer", "vocab.") < 1:
        raise DataFormatError(f"{path}: checkpoint header 'vocab.max_sentence_length' must be >= 1")
    if _header_field(path, header, "optimizer_step", int, "an integer") < 0:
        raise DataFormatError(f"{path}: checkpoint header 'optimizer_step' must be >= 0")
    return config


def _require_finite(path, payload: np.ndarray, arrays) -> None:
    """Name the first of `arrays` (name, shape), laid out in order in `payload`,
    that holds a non-finite value; checks `ADAM_CHUNK` floats at a time."""
    ends = np.cumsum([math.prod(shape) for _, shape in arrays])
    for lo in range(0, payload.size, ADAM_CHUNK):
        finite = np.isfinite(payload[lo : lo + ADAM_CHUNK])
        if not finite.all():
            name, _ = arrays[int(np.searchsorted(ends, lo + np.argmin(finite), side="right"))]
            raise DataFormatError(f"{path}: non-finite value in checkpoint array '{name}'")


def load_checkpoint(
    path,
    expected_config: ModelConfig | None = None,
    with_optimizer: bool = True,
) -> tuple[ModelParameters, OptimizerState | None, Vocabulary, dict]:
    """Read a checkpoint back.

    The header must list the arrays in the order `save_checkpoint` writes
    them, with the shapes of the stored model configuration, and the file
    must hold exactly their payload. With `expected_config`, stored model
    dimensions must match exactly. The payload is read once, into one buffer:
    the parameters' flat store and Adam's `m` and `v` are slices of it.
    Without `with_optimizer`, only the parameter block is read and the
    returned optimizer state is ``None``. Every value read must be finite.
    """
    with Path(path).open("rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a checkpoint (bad magic)")
        header_line = fh.readline()
        if not header_line.endswith(b"\n"):
            raise DataFormatError(f"{path}: truncated header")
        try:
            header = json.loads(header_line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: corrupt header ({exc})") from None
        if not isinstance(header, dict):
            raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported checkpoint version {header.get('format_version')} "
                f"(this build reads v{CHECKPOINT_VERSION}); retrain the model"
            )
        config = _validate_header(path, header)
        if expected_config is not None and config != expected_config:
            raise DataFormatError(
                f"{path}: checkpoint model config {header['model_config']} does not match "
                f"expected {expected_config}"
            )
        expected = _checkpoint_arrays(config)
        stored = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        for i, ((name, shape), (want_name, want_shape)) in enumerate(zip(stored, expected)):
            if name != want_name:
                raise DataFormatError(
                    f"{path}: checkpoint header 'arrays[{i}]' is '{name}', expected "
                    f"'{want_name}': arrays must be in the order save_checkpoint writes"
                )
            if shape != want_shape:
                raise DataFormatError(
                    f"{path}: shape mismatch for '{name}': stored {shape}, expected {want_shape}"
                )
        if len(stored) != len(expected):
            raise DataFormatError(
                f"{path}: checkpoint header lists {len(stored)} arrays, expected {len(expected)}"
            )
        count = parameter_count(config)
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload_bytes < 3 * count * 8:
            raise DataFormatError(
                f"{path}: truncated payload ({payload_bytes} bytes, expected {3 * count * 8})"
            )
        if payload_bytes > 3 * count * 8:
            raise DataFormatError(f"{path}: {payload_bytes - 3 * count * 8} trailing payload bytes")
        words = header["vocab"]["words"]
        if len(words) != config.vocab_size:
            raise DataFormatError(
                f"{path}: checkpoint word list has {len(words)} words, but "
                f"'model_config.vocab_size' is {config.vocab_size}"
            )
        try:
            vocab = vocabulary_from_words(words, header["vocab"]["max_sentence_length"])
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: checkpoint word list: {exc}") from None
        payload = np.fromfile(fh, dtype="<f8", count=3 * count if with_optimizer else count)
    _require_finite(path, payload, expected)
    params = ModelParameters(config, payload[:count])
    opt_state = None
    if with_optimizer:
        opt_state = OptimizerState(
            m=payload[count : 2 * count], v=payload[2 * count :], step=header["optimizer_step"]
        )
    return params, opt_state, vocab, header
