"""Training loop: Adam with two learning-rate groups, epoch scheduling,
and self-contained binary checkpoints.

The feature projection (the stand-in for detector-head fine-tuning) gets its
own learning rate; every other parameter uses the second rate. Shuffling is
keyed on (seed, epoch) so an interrupted run resumed from a checkpoint
retraces the uninterrupted one exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import CHECKPOINT_VERSION
from . import autodiff as ad
from .autodiff import Node
from .geometry import Box
from .ingest import (
    DataFormatError,
    EmbeddingTable,
    ExpressionRecord,
    GroundTruthRegion,
    ImageDetections,
    Vocabulary,
    encode_tokens,
    vocabulary_from_words,
)
from .model import ModelConfig, ModelParameters, parameters_from_arrays, relatedness_forward
from .objectives import RankingConfig, assign_labels, binary_xe, ranking_loss, sample_pairs
from .pseudo_gt import foreground_boxes, generate_pseudo_gt

LOSS_KINDS = ("binary_xe", "ranking")
HEAD_PARAMETERS = ("feature_projection",)

CHECKPOINT_MAGIC = b"RNMS1\n"


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "binary_xe"
    batch_size: int = 8
    lr_head: float = 4e-4           # feature-projection group
    lr_rest: float = 5e-3           # everything else
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 5
    seed: int = 0
    min_confidence: float = 0.05    # confidence filter before scoring
    similarity_threshold: float = 0.4  # pseudo ground-truth matching
    margin: float = 0.1
    max_negatives: int = 100
    embedding_lr: float | None = None  # None -> lr_rest; 0.0 freezes embeddings

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got '{self.loss_kind}'")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_head <= 0.0 or self.lr_rest <= 0.0:
            raise ValueError("learning rates must be > 0")

    def ranking_config(self) -> RankingConfig:
        return RankingConfig(margin=self.margin, max_negatives=self.max_negatives)

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass
class OptimizerState:
    """Adam first/second moments per parameter, plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_optimizer_state(params: ModelParameters) -> OptimizerState:
    named = params.named_parameters()
    return OptimizerState(
        m={name: np.zeros_like(node.value) for name, node in named.items()},
        v={name: np.zeros_like(node.value) for name, node in named.items()},
    )


def _learning_rate(name: str, cfg: TrainConfig) -> float:
    if name in HEAD_PARAMETERS:
        return cfg.lr_head
    if name == "embeddings" and cfg.embedding_lr is not None:
        return cfg.embedding_lr
    return cfg.lr_rest


def adam_step(named: Mapping[str, Node], state: OptimizerState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update over every named parameter.

    Parameters whose gradient was never materialized count as zero gradient.
    A non-finite gradient aborts with the offending parameter's name.
    """
    state.step += 1
    bc1 = 1.0 - cfg.beta1**state.step
    bc2 = 1.0 - cfg.beta2**state.step
    for name, node in named.items():
        g = node.grad if node.grad is not None else np.zeros_like(node.value)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        lr = _learning_rate(name, cfg)
        node.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


@dataclass(frozen=True)
class TrainingExample:
    expression_id: str
    token_indices: tuple[int, ...]
    detections: ImageDetections
    foreground: tuple[Box, ...]


def build_training_set(
    expressions: Sequence[ExpressionRecord],
    detections_by_image: Mapping[str, ImageDetections],
    regions_by_image: Mapping[str, Sequence[GroundTruthRegion]],
    table: EmbeddingTable,
    vocab: Vocabulary,
    similarity_threshold: float = 0.4,
) -> list[TrainingExample]:
    """Assemble training examples: token indices plus precomputed foreground."""
    examples = []
    for expr in expressions:
        regions = regions_by_image.get(expr.image_id, ())
        pseudo = generate_pseudo_gt(expr, regions, table, similarity_threshold)
        detections = detections_by_image.get(
            expr.image_id, ImageDetections(expr.image_id, ())
        )
        examples.append(
            TrainingExample(
                expression_id=expr.expression_id,
                token_indices=tuple(encode_tokens(expr.tokens, vocab)),
                detections=detections,
                foreground=tuple(foreground_boxes(expr, pseudo, regions)),
            )
        )
    return examples


@dataclass
class EpochMetrics:
    mean_loss: float
    expressions_used: int
    expressions_skipped: int
    positives: int
    negatives: int


def train_epoch(
    dataset: Sequence[TrainingExample],
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
    named = params.named_parameters()
    rank_cfg = cfg.ranking_config()
    loss_sum = 0.0
    used = skipped = positives = negatives = 0
    for start in range(0, len(order), cfg.batch_size):
        losses = []
        for di in order[start : start + cfg.batch_size]:
            ex = dataset[di]
            survivors, scores = relatedness_forward(
                ex.detections, ex.token_indices, params, cfg.min_confidence
            )
            if scores is None:
                skipped += 1
                continue
            labeled = assign_labels([r.box for r in survivors], ex.foreground)
            labels = [lb.label for lb in labeled]
            if cfg.loss_kind == "binary_xe":
                loss = binary_xe(scores, labels)
            else:
                pairs = sample_pairs(labeled, scores.value, rank_cfg)
                loss = ranking_loss(pairs, scores, rank_cfg)
            losses.append(loss)
            positives += int(np.sum(labels))
            negatives += len(labels) - int(np.sum(labels))
        if not losses:
            continue
        batch_loss = ad.mean(ad.concat([ad.reshape(l, (1,)) for l in losses]))
        params.zero_gradients()
        ad.backward(batch_loss)
        adam_step(named, opt_state, cfg)
        loss_sum += float(batch_loss.value.item()) * len(losses)
        used += len(losses)
    if used == 0:
        raise ValueError("train_epoch: no usable expressions (all survivor sets empty)")
    return EpochMetrics(loss_sum / used, used, skipped, positives, negatives)


def train(
    dataset: Sequence[TrainingExample],
    params: ModelParameters,
    opt_state: OptimizerState,
    cfg: TrainConfig,
    start_epoch: int = 0,
) -> list[EpochMetrics]:
    if not dataset:
        raise ValueError("train: empty dataset")
    return [
        train_epoch(dataset, params, opt_state, cfg, epoch)
        for epoch in range(start_epoch, cfg.epochs)
    ]


def save_checkpoint(
    path,
    params: ModelParameters,
    opt_state: OptimizerState,
    cfg: TrainConfig,
    vocab: Vocabulary,
    epochs_completed: int = 0,
) -> None:
    """Write a self-contained checkpoint.

    Plain magic + JSON header + raw little-endian float64 payload; no
    timestamps or other ambient state, so identical inputs give identical
    bytes.
    """
    named = params.named_parameters()
    arrays: list[tuple[str, np.ndarray]] = [(n, node.value) for n, node in named.items()]
    arrays += [(f"adam.m.{n}", opt_state.m[n]) for n in named]
    arrays += [(f"adam.v.{n}", opt_state.v[n]) for n in named]
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": cfg.config_hash(),
        "model_config": {
            "vocab_size": params.config.vocab_size,
            "feature_dim": params.config.feature_dim,
            "embed_dim": params.config.embed_dim,
            "hidden_size": params.config.hidden_size,
        },
        "vocab": {
            "words": vocab.words_by_index(),
            "max_sentence_length": vocab.max_sentence_length,
        },
        "optimizer_step": opt_state.step,
        "epochs_completed": epochs_completed,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(
    path,
    expected_config: ModelConfig | None = None,
    expected_hash: str | None = None,
) -> tuple[ModelParameters, OptimizerState, Vocabulary, dict]:
    """Read a checkpoint back; shape validation happens during reconstruction.

    With `expected_config`, stored model dimensions must match exactly. A
    config-hash mismatch against `expected_hash` only warns. The payload is
    read once: every parameter and Adam moment array is a view of it.
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
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported checkpoint version {header.get('format_version')}"
            )
        mc = header["model_config"]
        config = ModelConfig(
            vocab_size=mc["vocab_size"],
            feature_dim=mc["feature_dim"],
            embed_dim=mc["embed_dim"],
            hidden_size=mc["hidden_size"],
        )
        if expected_config is not None and config != expected_config:
            raise DataFormatError(
                f"{path}: checkpoint model config {mc} does not match expected {expected_config}"
            )
        if expected_hash is not None and header.get("config_hash") != expected_hash:
            warnings.warn(f"{path}: training-config hash differs from the expected one")
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        layout = []
        offset = 0
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            if (offset + count) * 8 > payload_bytes:
                raise DataFormatError(f"{path}: truncated payload at array '{entry['name']}'")
            layout.append((entry["name"], shape, offset, count))
            offset += count
        if offset * 8 != payload_bytes:
            raise DataFormatError(f"{path}: {payload_bytes - offset * 8} trailing payload bytes")
        payload = np.fromfile(fh, dtype="<f8", count=offset)
    arrays = {
        name: payload[start : start + count].reshape(shape)
        for name, shape, start, count in layout
    }
    param_arrays = {n: a for n, a in arrays.items() if not n.startswith("adam.")}
    params = parameters_from_arrays(config, param_arrays)
    named = params.named_parameters()
    try:
        opt_state = OptimizerState(
            m={n: arrays[f"adam.m.{n}"] for n in named},
            v={n: arrays[f"adam.v.{n}"] for n in named},
            step=int(header["optimizer_step"]),
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing optimizer array {exc}") from None
    vocab = vocabulary_from_words(
        header["vocab"]["words"], header["vocab"]["max_sentence_length"]
    )
    return params, opt_state, vocab, header
