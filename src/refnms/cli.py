"""Command-line interface.

One executable with subcommands covering synthetic data generation, pseudo
ground-truth emission, training, proposal dumping, recall evaluation, and
gradient verification. All randomness flows from --seed; read-only commands
are idempotent.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import CHECKPOINT_VERSION, DETECTION_DUMP_VERSION, __version__
from . import autodiff as ad
from .evaluation import DEFAULT_REAL_CASE_MIN_SCORE, build_eval_set, recall_curve, write_report
from .ingest import (
    DEFAULT_MAX_SENTENCE_LENGTH,
    SPLITS,
    DataFormatError,
    ImageDetections,
    build_vocabulary,
    encode_tokens,
    group_detections,
    group_regions,
    load_detection_dump,
    load_embeddings,
    load_expressions,
    load_regions,
    open_utf8,
)
from .model import DEFAULT_MIN_CONFIDENCE, ModelConfig, Window, init_parameters, relatedness_forward
from .nms import NmsConfig, ProposalBudget, keep_lists
from .objectives import assign_labels, binary_xe
from .synth import SynthConfig, generate_dataset
from .trainer import (
    TrainConfig,
    init_optimizer_state,
    load_checkpoint,
    resume_state,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_DATA = 4

EPILOG = """exit codes:
  0  success
  1  runtime failure (diagnostic on stderr)
  2  usage error (unknown flag, bad argument)
  3  missing input file
  4  data format or shape error
"""


def _int_at_least(lo: int):
    """An argparse type: an integer >= `lo`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {value}")
        return value

    return parse


def _finite_in(lo: float, hi: float, *, open_interval: bool = False):
    """An argparse type: a finite float in [lo, hi], or in (lo, hi) with `open_interval`."""
    bounds = f"{'(' if open_interval else '['}{lo:g}, {hi:g}"
    bounds += ")" if open_interval or math.isinf(hi) else "]"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got '{text}'") from None
        if not math.isfinite(value) or not (
            lo < value < hi if open_interval else lo <= value <= hi
        ):
            raise argparse.ArgumentTypeError(f"expected a finite value in {bounds}, got {text}")
        return value

    return parse


_positive_int = _int_at_least(1)
_count = _int_at_least(0)

_unit = _finite_in(0.0, 1.0)
_open_unit = _finite_in(0.0, 1.0, open_interval=True)
_cosine = _finite_in(-1.0, 1.0)
_non_negative = _finite_in(0.0, math.inf)
_positive = _finite_in(0.0, math.inf, open_interval=True)
_SPLITS = sorted(SPLITS)


def _budgets(text: str) -> list:
    """An argparse type: a comma list of distinct top-N sizes and/or 'real_case' (or 'real')."""
    budgets: list = []
    for part in text.split(","):
        part = part.strip()
        try:
            budget = "real_case" if part in ("real", "real_case") else _count(part)
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(
                f"bad budget '{part}' in '{text}': expected an integer >= 0 or 'real_case'"
            ) from None
        if budget in budgets:
            raise argparse.ArgumentTypeError(f"budget '{part}' repeated in '{text}'")
        budgets.append(budget)
    return budgets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refnms",
        description="Expression-aware detection proposal filtering.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"refnms {__version__} "
            f"(detection dump v{DETECTION_DUMP_VERSION}, checkpoint v{CHECKPOINT_VERSION})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset", epilog=EPILOG)
    p.add_argument("--out-dir", required=True, help="directory for the dataset files")
    p.add_argument("--images", type=_positive_int, default=SynthConfig.n_images)
    p.add_argument("--categories", type=_positive_int, default=SynthConfig.n_categories)
    p.add_argument("--boxes-per-image", type=_positive_int, default=SynthConfig.boxes_per_image)
    p.add_argument("--noise", type=_non_negative, default=SynthConfig.noise,
                   help="feature noise sigma")
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--expressions-per-image", type=_positive_int,
                   default=SynthConfig.expressions_per_image)
    p.add_argument("--val-fraction", type=_open_unit, default=SynthConfig.val_fraction)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("pseudo-gt", help="emit pseudo ground-truths per expression", epilog=EPILOG)
    p.add_argument("--expressions", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--similarity-threshold", type=_cosine, default=TrainConfig.similarity_threshold)
    p.add_argument("--split", choices=_SPLITS, default=None, help="restrict to one split")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pseudo_gt)

    p = sub.add_parser("train", help="train the relatedness model", epilog=EPILOG)
    p.add_argument("--detections", required=True)
    p.add_argument("--expressions", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--config", default=None, help="line-oriented `key = value` config file")
    p.add_argument("--loss", choices=("xe", "rank"), default=None)
    p.add_argument("--epochs", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch-size", type=_positive_int, default=None)
    p.add_argument("--hidden-size", type=_positive_int, default=None)
    p.add_argument("--max-sentence-length", type=_positive_int, default=None)
    p.add_argument("--min-confidence", type=_unit, default=None)
    p.add_argument("--similarity-threshold", type=_cosine, default=None)
    p.add_argument("--resume", default=None, metavar="CKPT",
                   help="continue the run that wrote CKPT, with the same settings, to --epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("apply", help="dump kept proposals per expression", epilog=EPILOG)
    p.add_argument("--detections", required=True)
    p.add_argument("--expressions", required=True)
    p.add_argument("--out", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--checkpoint", default=None, help="trained model (fused criterion)")
    mode.add_argument(
        "--stub-relatedness",
        type=_unit,
        default=None,
        help="bypass the model with a constant relatedness (fused criterion)",
    )
    mode.add_argument(
        "--baseline",
        action="store_true",
        help="confidence-criterion baseline (no model)",
    )
    p.add_argument("--split", choices=_SPLITS, default=None)
    p.add_argument("--min-confidence", type=_unit, default=DEFAULT_MIN_CONFIDENCE)
    p.add_argument("--nms-iou", type=_open_unit, default=NmsConfig.iou_threshold)
    p.add_argument("--cross-class", action="store_true", help="suppress across categories")
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--top-n", type=_count, default=None)
    budget.add_argument("--min-score", type=_unit, default=None)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("eval-recall", help="recall vs. proposal budget", epilog=EPILOG)
    p.add_argument("--detections", required=True)
    p.add_argument("--expressions", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", choices=_SPLITS, required=True)
    p.add_argument("--method", choices=("baseline_conf", "ref_nms"), required=True)
    p.add_argument("--budgets", type=_budgets, default="10,20,50,100,real_case",
                   help="comma list of top-N sizes and/or 'real_case'")
    p.add_argument("--checkpoint", default=None, help="required for ref_nms, refused otherwise")
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--similarity-threshold", type=_cosine, default=TrainConfig.similarity_threshold)
    p.add_argument("--min-confidence", type=_unit, default=DEFAULT_MIN_CONFIDENCE)
    p.add_argument("--nms-iou", type=_open_unit, default=NmsConfig.iou_threshold)
    p.add_argument("--cross-class", action="store_true")
    p.add_argument("--real-case-min-score", type=_unit, default=DEFAULT_REAL_CASE_MIN_SCORE)
    p.set_defaults(func=cmd_eval_recall)

    p = sub.add_parser("grad-check", help="finite-difference check of the model", epilog=EPILOG)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boxes", type=_positive_int, default=3)
    p.add_argument("--tokens", type=_positive_int, default=4)
    p.add_argument("--feature-dim", type=_positive_int, default=5)
    p.add_argument("--embed-dim", type=_positive_int, default=6)
    p.add_argument("--hidden-size", type=_positive_int, default=4)
    p.add_argument("--vocab-size", type=_positive_int, default=9)
    p.add_argument("--step", type=_open_unit, default=1e-5)
    p.add_argument("--tolerance", type=_positive, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    return parser


def cmd_synth_data(args) -> int:
    cfg = SynthConfig(
        n_images=args.images,
        n_categories=args.categories,
        boxes_per_image=args.boxes_per_image,
        noise=args.noise,
        seed=args.seed,
        expressions_per_image=args.expressions_per_image,
        val_fraction=args.val_fraction,
    )
    paths = generate_dataset(cfg, args.out_dir)
    for name in ("detections", "expressions", "regions", "embeddings"):
        print(f"{name}: {getattr(paths, name)}")
    return EXIT_OK


def cmd_pseudo_gt(args) -> int:
    from .pseudo_gt import generate_pseudo_gt, memoized_similarity

    expressions = load_expressions(args.expressions)
    if args.split:
        expressions = [e for e in expressions if e.split == args.split]
    regions_by_image = group_regions(load_regions(args.regions))
    table = load_embeddings(args.embeddings)
    similarity = memoized_similarity(table)
    lines = []
    for expr in expressions:
        matched = generate_pseudo_gt(
            expr, regions_by_image.get(expr.image_id, ()), table, args.similarity_threshold,
            similarity,
        )
        lines.append(f"{expr.expression_id}\t{','.join(sorted(r.region_id for r in matched))}")
    Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    print(f"wrote pseudo ground-truths for {len(lines)} expressions to {args.out}")
    return EXIT_OK


def _parse_config_file(path) -> dict[str, tuple[int, str]]:
    """Each `key = value` line of a config file, as key -> (line number, value).
    A key may appear once."""
    values: dict[str, tuple[int, str]] = {}
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected `key = value`, got '{raw}'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise DataFormatError(
                    f"{path}:{lineno}: duplicate key '{key}' (first on line {values[key][0]})"
                )
            values[key] = (lineno, value.strip())
    return values


_TRAIN_KEYS = {
    "loss_kind": str, "batch_size": int, "lr_rest": float,
    "beta1": float, "beta2": float, "eps": float, "epochs": int, "seed": int,
    "min_confidence": float, "similarity_threshold": float, "margin": float,
    "max_negatives": int, "embedding_lr": float,
}
_EXTRA_KEYS = {"hidden_size": _positive_int, "max_sentence_length": _positive_int}


def _resolve_train_settings(args) -> tuple[TrainConfig, int, int]:
    """defaults < config file < explicit flags."""
    settings: dict = {}
    extras = {"hidden_size": ModelConfig.hidden_size,
              "max_sentence_length": DEFAULT_MAX_SENTENCE_LENGTH}
    if args.config:
        for key, (lineno, raw) in _parse_config_file(args.config).items():
            convert = _TRAIN_KEYS.get(key) or _EXTRA_KEYS.get(key)
            if convert is None:
                raise DataFormatError(f"{args.config}:{lineno}: unknown config key '{key}'")
            try:
                value = convert(raw)
                if key in _TRAIN_KEYS:
                    TrainConfig(**{key: value})  # the checks of the config it will join
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise DataFormatError(
                    f"{args.config}:{lineno}: {key}: bad value '{raw}' ({exc})"
                ) from None
            (settings if key in _TRAIN_KEYS else extras)[key] = value
    if args.loss is not None:
        settings["loss_kind"] = {"xe": "binary_xe", "rank": "ranking"}[args.loss]
    for key in (
        "epochs", "seed", "batch_size", "min_confidence", "similarity_threshold",
        "hidden_size", "max_sentence_length",
    ):
        value = getattr(args, key)
        if value is not None:
            (settings if key in _TRAIN_KEYS else extras)[key] = value
    return TrainConfig(**settings), extras["hidden_size"], extras["max_sentence_length"]


def cmd_train(args) -> int:
    cfg, hidden_size, max_len = _resolve_train_settings(args)
    images, feature_dim = load_detection_dump(args.detections)
    expressions = [e for e in load_expressions(args.expressions) if e.split == "train"]
    if not expressions:
        raise ValueError("no training-split expressions found")
    vocab = build_vocabulary(expressions, max_len)
    table = load_embeddings(args.embeddings)
    regions_by_image = group_regions(load_regions(args.regions))
    dataset = build_eval_set(
        expressions, group_detections(images), regions_by_image, table,
        cfg.similarity_threshold, vocab,
    )
    model_cfg = ModelConfig(
        vocab_size=len(vocab),
        feature_dim=feature_dim,
        embed_dim=table.dimension,
        hidden_size=hidden_size,
    )
    start_epoch = 0
    if args.resume is not None:
        params, opt_state, start_epoch = resume_state(args.resume, cfg, model_cfg, vocab)
    else:
        params = init_parameters(model_cfg, cfg.seed, table, vocab)
        opt_state = init_optimizer_state(params)

    def report(epoch: int, metrics) -> None:
        print(
            f"epoch {epoch}: loss={metrics.mean_loss:.6f} used={metrics.expressions_used} "
            f"skipped={metrics.expressions_skipped} pos={metrics.positives} "
            f"neg={metrics.negatives}",
            flush=True,
        )

    train(dataset, params, opt_state, cfg, start_epoch, on_epoch=report)
    save_checkpoint(args.out, params, opt_state, cfg, vocab, epochs_completed=cfg.epochs)
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def _budget_from_flags(args) -> ProposalBudget:
    if args.top_n is not None:
        return ProposalBudget.top_n(args.top_n)
    if args.min_score is not None:
        return ProposalBudget.threshold(args.min_score)
    return ProposalBudget()


def _load_model(checkpoint, feature_dim: int, detections):
    """Parameters and vocabulary of `checkpoint`, which must score `feature_dim`-d features."""
    params, _, vocab, _ = load_checkpoint(checkpoint, with_optimizer=False)
    if params.config.feature_dim != feature_dim:
        raise DataFormatError(
            f"{detections}: detection features have dimension {feature_dim}, but checkpoint "
            f"{checkpoint} expects feature_dim {params.config.feature_dim}"
        )
    return params, vocab


def cmd_apply(args) -> int:
    images, feature_dim = load_detection_dump(args.detections)
    by_image = group_detections(images)
    expressions = load_expressions(args.expressions)
    if args.split:
        expressions = [e for e in expressions if e.split == args.split]
    nms_cfg = NmsConfig(iou_threshold=args.nms_iou, per_class=not args.cross_class)
    for expr in expressions:
        if expr.image_id not in by_image:
            by_image[expr.image_id] = ImageDetections.empty(expr.image_id, feature_dim)
    images = [by_image[expr.image_id] for expr in expressions]
    # the model's parameters, or without a model one constant relatedness for every box
    relatedness = 1.0 if args.baseline else args.stub_relatedness
    tokens = [None] * len(expressions)
    if args.checkpoint is not None:
        relatedness, vocab = _load_model(args.checkpoint, feature_dim, args.detections)
        tokens = [encode_tokens(expr.tokens, vocab) for expr in expressions]
    kept_lists = keep_lists(
        zip(images, tokens), relatedness, args.min_confidence, nms_cfg, _budget_from_flags(args)
    )
    lines = []
    for expr, image, kept in zip(expressions, images, kept_lists):
        for (x1, y1, x2, y2), category_id, confidence, related, fused in zip(
            image.boxes[kept.rows].tolist(), image.category_ids[kept.rows].tolist(),
            image.confidences[kept.rows].tolist(), kept.relatedness.tolist(),
            kept.scores.tolist(),
        ):
            lines.append(
                f"{expr.expression_id}\t{x1!r} {y1!r} {x2!r} {y2!r}\t{category_id}"
                f"\t{confidence!r}\t{related!r}\t{fused!r}"
            )
    Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    print(f"wrote {len(lines)} proposals to {args.out}")
    return EXIT_OK


def cmd_eval_recall(args) -> int:
    images, feature_dim = load_detection_dump(args.detections)
    expressions = [e for e in load_expressions(args.expressions) if e.split == args.split]
    if not expressions:
        raise ValueError(f"no expressions in split '{args.split}'")
    regions_by_image = group_regions(load_regions(args.regions))
    table = load_embeddings(args.embeddings)
    params = vocab = None
    if args.method == "ref_nms":
        params, vocab = _load_model(args.checkpoint, feature_dim, args.detections)
    examples = build_eval_set(
        expressions, group_detections(images), regions_by_image, table,
        args.similarity_threshold, vocab,
    )
    rows = recall_curve(
        examples,
        args.method,
        args.budgets,
        nms_cfg=NmsConfig(iou_threshold=args.nms_iou, per_class=not args.cross_class),
        min_confidence=args.min_confidence,
        real_case_min_score=args.real_case_min_score,
        params=params,
    )
    write_report(rows, args.out)
    for (split, method, budget), row in rows.items():
        print(
            f"{split} {method} budget={budget}: "
            f"referent {row.referent_recall:.2f}% ({row.referent_hits}/{row.referent_total}), "
            f"contextual {row.contextual_recall:.2f}% "
            f"({row.contextual_matched}/{row.contextual_total})"
        )
    return EXIT_OK


def cmd_grad_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    model_cfg = ModelConfig(
        vocab_size=args.vocab_size,
        feature_dim=args.feature_dim,
        embed_dim=args.embed_dim,
        hidden_size=args.hidden_size,
    )
    params = init_parameters(model_cfg, args.seed)
    boxes, category_ids, confidences, features = [], [], [], []
    for _ in range(args.boxes):
        x1, y1 = rng.uniform(0, 50, size=2)
        w, h = rng.uniform(10, 40, size=2)
        boxes.append((x1, y1, x1 + w, y1 + h))
        category_ids.append(int(rng.integers(3)))
        confidences.append(float(rng.uniform(0.1, 1.0)))
        features.append(rng.normal(size=args.feature_dim))
    image = ImageDetections("gradcheck", boxes, confidences, category_ids, features)
    indices = [int(i) for i in rng.integers(1, args.vocab_size, size=args.tokens)]
    window = Window.of([(image, indices)], 0.0)  # every box
    # first box as foreground guarantees mixed labels
    _, bins = assign_labels(image.boxes, image.boxes[:1])

    def loss() -> ad.Node:
        return binary_xe(relatedness_forward(window, params), bins > 0)

    worst = ad.grad_check(loss, list(params.named_parameters().values()), step=args.step)
    print(f"max relative error: {worst:.3e}")
    return EXIT_OK if worst < args.tolerance else EXIT_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval-recall":
        if args.method == "ref_nms" and args.checkpoint is None:
            parser.error("eval-recall: argument --checkpoint: required with --method ref_nms")
        if args.method != "ref_nms" and args.checkpoint is not None:
            parser.error(
                f"eval-recall: argument --checkpoint: not allowed with --method {args.method}"
            )
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"refnms: error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except DataFormatError as exc:
        print(f"refnms: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # single diagnostic line, nonzero exit
        print(f"refnms: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
