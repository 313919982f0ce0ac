"""Command-line interface.

One executable with subcommands covering synthetic data generation, pseudo
ground-truth emission, training, proposal dumping, recall evaluation, and
gradient verification. All randomness flows from --seed; read-only commands
are idempotent.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import CHECKPOINT_VERSION, DETECTION_DUMP_VERSION, __version__
from . import autodiff as ad
from .evaluation import build_eval_set, recall_curve, write_report
from .geometry import Box
from .ingest import (
    DataFormatError,
    DetectionRecord,
    ImageDetections,
    build_vocabulary,
    encode_tokens,
    group_detections,
    group_regions,
    load_detection_dump,
    load_embeddings,
    load_expressions,
    load_regions,
)
from .model import (
    ModelConfig,
    init_parameters,
    relatedness_forward,
)
from .nms import (
    NmsConfig,
    ProposalBudget,
    baseline_pipeline,
    constant_relatedness_proposals,
    fused_keep,
    ref_nms_pipeline,
)
from .objectives import assign_labels, binary_xe
from .synth import SynthConfig, generate_dataset
from .trainer import (
    TrainConfig,
    build_training_set,
    init_optimizer_state,
    load_checkpoint,
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


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
    p.add_argument("--images", type=_positive_int, default=250)
    p.add_argument("--categories", type=_positive_int, default=8)
    p.add_argument("--boxes-per-image", type=_positive_int, default=20)
    p.add_argument("--noise", type=float, default=0.1, help="feature noise sigma")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--expressions-per-image", type=_positive_int, default=2)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("pseudo-gt", help="emit pseudo ground-truths per expression", epilog=EPILOG)
    p.add_argument("--expressions", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--similarity-threshold", type=float, default=0.4)
    p.add_argument("--split", default=None, help="restrict to one split")
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
    p.add_argument("--min-confidence", type=float, default=None)
    p.add_argument("--similarity-threshold", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("apply", help="dump kept proposals per expression", epilog=EPILOG)
    p.add_argument("--detections", required=True)
    p.add_argument("--expressions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None, help="trained model (fused criterion)")
    p.add_argument(
        "--stub-relatedness",
        type=float,
        default=None,
        help="bypass the model with a constant relatedness (fused criterion)",
    )
    p.add_argument(
        "--baseline",
        action="store_true",
        help="confidence-criterion baseline (no model)",
    )
    p.add_argument("--split", default=None)
    p.add_argument("--min-confidence", type=float, default=0.05)
    p.add_argument("--nms-iou", type=float, default=0.3)
    p.add_argument("--cross-class", action="store_true", help="suppress across categories")
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--min-score", type=float, default=None)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("eval-recall", help="recall vs. proposal budget", epilog=EPILOG)
    p.add_argument("--detections", required=True)
    p.add_argument("--expressions", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--method", choices=("baseline_conf", "ref_nms"), required=True)
    p.add_argument("--budgets", default="10,20,50,100,real_case",
                   help="comma list of top-N sizes and/or 'real_case'")
    p.add_argument("--checkpoint", default=None, help="required for ref_nms")
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--similarity-threshold", type=float, default=0.4)
    p.add_argument("--min-confidence", type=float, default=0.05)
    p.add_argument("--nms-iou", type=float, default=0.3)
    p.add_argument("--cross-class", action="store_true")
    p.add_argument("--real-case-min-score", type=float, default=0.65)
    p.set_defaults(func=cmd_eval_recall)

    p = sub.add_parser("grad-check", help="finite-difference check of the model", epilog=EPILOG)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boxes", type=_positive_int, default=3)
    p.add_argument("--tokens", type=_positive_int, default=4)
    p.add_argument("--feature-dim", type=_positive_int, default=5)
    p.add_argument("--embed-dim", type=_positive_int, default=6)
    p.add_argument("--hidden-size", type=_positive_int, default=4)
    p.add_argument("--vocab-size", type=_positive_int, default=9)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
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
    from .pseudo_gt import generate_pseudo_gt

    expressions = load_expressions(args.expressions)
    if args.split:
        expressions = [e for e in expressions if e.split == args.split]
    regions_by_image = group_regions(load_regions(args.regions))
    table = load_embeddings(args.embeddings)
    lines = []
    for expr in expressions:
        pseudo = generate_pseudo_gt(
            expr, regions_by_image.get(expr.image_id, ()), table, args.similarity_threshold
        )
        lines.append(f"{expr.expression_id}\t{','.join(sorted(pseudo.region_ids))}")
    Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    print(f"wrote pseudo ground-truths for {len(lines)} expressions to {args.out}")
    return EXIT_OK


def _parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected `key = value`, got '{raw}'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_TRAIN_KEYS = {
    "loss_kind": str, "batch_size": int, "lr_head": float, "lr_rest": float,
    "beta1": float, "beta2": float, "eps": float, "epochs": int, "seed": int,
    "min_confidence": float, "similarity_threshold": float, "margin": float,
    "max_negatives": int, "embedding_lr": float,
}
_EXTRA_KEYS = {"hidden_size": int, "max_sentence_length": int}


def _resolve_train_settings(args) -> tuple[TrainConfig, int, int]:
    """defaults < config file < explicit flags."""
    settings: dict = {}
    extras = {"hidden_size": 256, "max_sentence_length": 10}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key in _TRAIN_KEYS:
                settings[key] = _TRAIN_KEYS[key](raw)
            elif key in _EXTRA_KEYS:
                extras[key] = _EXTRA_KEYS[key](raw)
            else:
                raise DataFormatError(f"{args.config}: unknown config key '{key}'")
    if args.loss is not None:
        settings["loss_kind"] = {"xe": "binary_xe", "rank": "ranking"}[args.loss]
    for flag, key in (
        ("epochs", "epochs"), ("seed", "seed"), ("batch_size", "batch_size"),
        ("min_confidence", "min_confidence"),
        ("similarity_threshold", "similarity_threshold"),
    ):
        value = getattr(args, flag)
        if value is not None:
            settings[key] = value
    if args.hidden_size is not None:
        extras["hidden_size"] = args.hidden_size
    if args.max_sentence_length is not None:
        extras["max_sentence_length"] = args.max_sentence_length
    return TrainConfig(**settings), extras["hidden_size"], extras["max_sentence_length"]


def cmd_train(args) -> int:
    cfg, hidden_size, max_len = _resolve_train_settings(args)
    dump = load_detection_dump(args.detections)
    expressions = [e for e in load_expressions(args.expressions) if e.split == "train"]
    if not expressions:
        raise ValueError("no training-split expressions found")
    vocab = build_vocabulary(expressions, max_len)
    table = load_embeddings(args.embeddings)
    regions_by_image = group_regions(load_regions(args.regions))
    dataset = build_training_set(
        expressions, group_detections(dump), regions_by_image, table, vocab,
        cfg.similarity_threshold,
    )
    model_cfg = ModelConfig(
        vocab_size=len(vocab),
        feature_dim=dump.feature_dim,
        embed_dim=table.dimension,
        hidden_size=hidden_size,
    )
    params = init_parameters(model_cfg, cfg.seed, table, vocab)
    opt_state = init_optimizer_state(params)
    history = train(dataset, params, opt_state, cfg)
    for i, metrics in enumerate(history):
        print(
            f"epoch {i}: loss={metrics.mean_loss:.6f} used={metrics.expressions_used} "
            f"skipped={metrics.expressions_skipped} pos={metrics.positives} "
            f"neg={metrics.negatives}"
        )
    save_checkpoint(args.out, params, opt_state, cfg, vocab, epochs_completed=cfg.epochs)
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def _budget_from_flags(args) -> ProposalBudget | None:
    if args.top_n is not None and args.min_score is not None:
        raise ValueError("--top-n and --min-score are mutually exclusive")
    if args.top_n is not None:
        return ProposalBudget.top_n(args.top_n)
    if args.min_score is not None:
        return ProposalBudget.threshold(args.min_score)
    return None


def _load_model(checkpoint, feature_dim: int, detections):
    """Parameters and vocabulary of `checkpoint`, which must score `feature_dim`-d features."""
    params, _, vocab, _ = load_checkpoint(checkpoint)
    if params.config.feature_dim != feature_dim:
        raise DataFormatError(
            f"{detections}: detection features have dimension {feature_dim}, but checkpoint "
            f"{checkpoint} expects feature_dim {params.config.feature_dim}"
        )
    return params, vocab


def cmd_apply(args) -> int:
    modes = sum((args.checkpoint is not None, args.stub_relatedness is not None, args.baseline))
    if modes != 1:
        raise ValueError("choose exactly one of --checkpoint, --stub-relatedness, --baseline")
    dump = load_detection_dump(args.detections)
    by_image = group_detections(dump)
    expressions = load_expressions(args.expressions)
    if args.split:
        expressions = [e for e in expressions if e.split == args.split]
    nms_cfg = NmsConfig(iou_threshold=args.nms_iou, per_class=not args.cross_class)
    budget = _budget_from_flags(args)
    params = vocab = None
    if args.checkpoint is not None:
        params, vocab = _load_model(args.checkpoint, dump.feature_dim, args.detections)
    lines = []
    baseline_keeps: dict[str, list] = {}
    for expr in expressions:
        image = by_image.get(expr.image_id, ImageDetections(expr.image_id, ()))
        if args.baseline:
            # the confidence baseline ignores the expression: NMS once per image
            if expr.image_id not in baseline_keeps:
                baseline_keeps[expr.image_id] = baseline_pipeline(
                    image, args.min_confidence, nms_cfg, budget
                )
            kept = baseline_keeps[expr.image_id]
        elif args.stub_relatedness is not None:
            proposals = constant_relatedness_proposals(
                image, args.stub_relatedness, args.min_confidence
            )
            kept = fused_keep(proposals, nms_cfg, budget)
        else:
            kept = ref_nms_pipeline(
                image, encode_tokens(expr.tokens, vocab), params, args.min_confidence,
                nms_cfg, budget,
            )
        for p in kept:
            box = " ".join(repr(float(v)) for v in (p.box.x1, p.box.y1, p.box.x2, p.box.y2))
            lines.append(
                f"{expr.expression_id}\t{box}\t{p.category_id}"
                f"\t{repr(float(p.confidence))}\t{repr(float(p.relatedness))}"
                f"\t{repr(float(p.fused))}"
            )
    Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    print(f"wrote {len(lines)} proposals to {args.out}")
    return EXIT_OK


def _parse_budgets(text: str) -> list:
    budgets: list = []
    for part in text.split(","):
        part = part.strip()
        if part in ("real", "real_case"):
            budgets.append("real_case")
        else:
            budgets.append(int(part))
    if not budgets:
        raise ValueError("empty budget list")
    return budgets


def cmd_eval_recall(args) -> int:
    dump = load_detection_dump(args.detections)
    expressions = [e for e in load_expressions(args.expressions) if e.split == args.split]
    if not expressions:
        raise ValueError(f"no expressions in split '{args.split}'")
    regions_by_image = group_regions(load_regions(args.regions))
    table = load_embeddings(args.embeddings)
    params = vocab = None
    if args.method == "ref_nms":
        if args.checkpoint is None:
            raise ValueError("--method ref_nms requires --checkpoint")
        params, vocab = _load_model(args.checkpoint, dump.feature_dim, args.detections)
    examples = build_eval_set(
        expressions, group_detections(dump), regions_by_image, table,
        args.similarity_threshold, vocab,
    )
    report = recall_curve(
        examples,
        args.method,
        _parse_budgets(args.budgets),
        nms_cfg=NmsConfig(iou_threshold=args.nms_iou, per_class=not args.cross_class),
        min_confidence=args.min_confidence,
        real_case_min_score=args.real_case_min_score,
        params=params,
    )
    write_report(report, args.out)
    for (split, method, budget), row in report.rows.items():
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
    records = []
    for _ in range(args.boxes):
        x1, y1 = rng.uniform(0, 50, size=2)
        w, h = rng.uniform(10, 40, size=2)
        records.append(
            DetectionRecord(
                Box(x1, y1, x1 + w, y1 + h),
                int(rng.integers(3)),
                "object",
                float(rng.uniform(0.1, 1.0)),
                rng.normal(size=args.feature_dim),
            )
        )
    image = ImageDetections("gradcheck", tuple(records))
    indices = [int(i) for i in rng.integers(1, args.vocab_size, size=args.tokens)]
    # first box as foreground guarantees mixed labels
    foreground = [records[0].box]
    labels = [
        lb.label for lb in assign_labels([r.box for r in records], foreground)
    ]

    def loss() -> ad.Node:
        _, scores = relatedness_forward(image, indices, params, min_confidence=0.0)
        return binary_xe(scores, labels)

    worst = ad.grad_check(loss, list(params.named_parameters().values()), step=args.step)
    print(f"max relative error: {worst:.3e}")
    return EXIT_OK if worst < args.tolerance else EXIT_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
