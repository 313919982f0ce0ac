"""Synthetic dataset generator for desk-scale end-to-end runs.

Each image holds a handful of non-overlapping objects with distinct
categories. Detections are of three kinds: one accurate box per object
(medium confidence), one jittered duplicate per object (low confidence, still
above 0.5 IoU), and high-confidence background distractors whose features
encode categories absent from the image. Expressions mention the referent's
category and up to two contextual categories of objects that are present.

Relatedness is learnable from features by construction: a detection's
feature is its category one-hot (plus noise), expressions only mention
categories of present objects, and exactly the boxes sitting on mentioned
objects overlap the foreground. The embedding table assigns orthogonal unit
vectors to the category words, so pseudo ground-truth matching is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Box, box_array, iou
from .ingest import (
    ExpressionRecord,
    ImageDetections,
    ImageRegions,
    write_detection_dump,
    write_expressions,
    write_regions,
)

DEFAULT_CATEGORY_NAMES = (
    "person", "dog", "cat", "car", "chair", "pizza", "bottle", "zebra",
    "kite", "bowl", "horse", "clock", "laptop", "bench", "truck", "sheep",
)


@dataclass(frozen=True)
class SynthConfig:
    n_images: int = 250
    n_categories: int = 8
    boxes_per_image: int = 20
    noise: float = 0.1
    seed: int = 7
    expressions_per_image: int = 2
    val_fraction: float = 0.2
    canvas_width: int = 640
    canvas_height: int = 480

    def __post_init__(self) -> None:
        for name in ("n_images", "n_categories", "boxes_per_image", "expressions_per_image"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_categories < 2:
            raise ValueError("need at least 2 categories (one must stay absent per image)")
        if self.noise < 0.0:
            raise ValueError("noise must be >= 0")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")

    def category_names(self) -> list[str]:
        names = list(DEFAULT_CATEGORY_NAMES[: self.n_categories])
        names += [f"thing{i}" for i in range(len(names), self.n_categories)]
        return names


@dataclass(frozen=True)
class SynthPaths:
    detections: Path
    expressions: Path
    regions: Path
    embeddings: Path


def _jitter(box: Box, rng: np.random.Generator, frac: float, canvas: tuple[int, int]) -> Box:
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    dx = rng.uniform(-frac, frac) * w
    dy = rng.uniform(-frac, frac) * h
    x1 = min(max(box.x1 + dx, 0.0), canvas[0] - 1.0)
    y1 = min(max(box.y1 + dy, 0.0), canvas[1] - 1.0)
    return Box(x1, y1, min(x1 + w, float(canvas[0])), min(y1 + h, float(canvas[1])))


def _sample_box(rng: np.random.Generator, canvas: tuple[int, int]) -> Box:
    w = rng.uniform(60.0, 160.0)
    h = rng.uniform(60.0, 160.0)
    x1 = rng.uniform(0.0, canvas[0] - w)
    y1 = rng.uniform(0.0, canvas[1] - h)
    return Box(x1, y1, x1 + w, y1 + h)


def _sample_clear_box(
    rng: np.random.Generator, canvas: tuple[int, int], others: list[Box], max_overlap: float
) -> Box:
    for _ in range(200):
        box = _sample_box(rng, canvas)
        if all(iou(box, o) <= max_overlap for o in others):
            return box
    return box  # crowded canvas; accept the last draw


def _feature(rng: np.random.Generator, category: int, cfg: SynthConfig) -> np.ndarray:
    f = np.zeros(cfg.n_categories)
    f[category] = 1.0
    if cfg.noise > 0.0:
        f = f + rng.normal(0.0, cfg.noise, size=cfg.n_categories)
    return f


def generate_dataset(cfg: SynthConfig, out_dir) -> SynthPaths:
    """Write the four dataset files; byte-identical for identical configs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    names = cfg.category_names()
    canvas = (cfg.canvas_width, cfg.canvas_height)
    n_train = round(cfg.n_images * (1.0 - cfg.val_fraction))

    images: list[ImageDetections] = []
    regions: list[ImageRegions] = []
    expressions: list[ExpressionRecord] = []
    for i in range(cfg.n_images):
        image_id = f"img{i:04d}"
        split = "train" if i < n_train else "val"
        max_objects = min(6, cfg.n_categories - 1, max(1, cfg.boxes_per_image // 2))
        n_objects = int(rng.integers(min(2, max_objects), max_objects + 1))
        cats = rng.choice(cfg.n_categories, size=n_objects, replace=False)
        object_boxes: list[Box] = []
        for k in range(n_objects):
            object_boxes.append(_sample_clear_box(rng, canvas, object_boxes, max_overlap=0.1))
        regions.append(
            ImageRegions(image_id, [f"{image_id}_r{k}" for k in range(n_objects)],
                         box_array(object_boxes), [names[c] for c in cats])
        )

        # (box, category, confidence, feature) per detection, drawn in this order
        detections: list[tuple[Box, int, float, np.ndarray]] = []
        for k, box in enumerate(object_boxes):
            accurate = _jitter(box, rng, 0.04, canvas)
            detections.append(
                (accurate, int(cats[k]), float(rng.uniform(0.3, 0.7)), _feature(rng, cats[k], cfg))
            )
        for k, box in enumerate(object_boxes):
            if len(detections) >= cfg.boxes_per_image:
                break
            duplicate = _jitter(box, rng, 0.17, canvas)
            detections.append(
                (duplicate, int(cats[k]), float(rng.uniform(0.05, 0.25)),
                 _feature(rng, cats[k], cfg))
            )
        absent = [c for c in range(cfg.n_categories) if c not in set(cats.tolist())]
        while len(detections) < cfg.boxes_per_image:
            cat = int(absent[rng.integers(len(absent))])
            box = _sample_clear_box(rng, canvas, object_boxes, max_overlap=0.25)
            detections.append((box, cat, float(rng.uniform(0.55, 0.98)), _feature(rng, cat, cfg)))
        shuffled = [detections[j] for j in rng.permutation(len(detections))]
        boxes, categories, confidences, features = zip(*shuffled)
        images.append(
            ImageDetections(
                image_id, box_array(boxes), confidences, categories, np.array(features),
            )
        )

        for e in range(cfg.expressions_per_image):
            referent = int(rng.integers(n_objects))
            n_ctx = int(rng.integers(0, min(2, n_objects - 1) + 1))
            others = [k for k in range(n_objects) if k != referent]
            ctx = [int(c) for c in rng.choice(others, size=n_ctx, replace=False)] if n_ctx else []
            tokens = ["the", names[cats[referent]]]
            tags = ["DET", "NOUN"]
            if len(ctx) >= 1:
                tokens += ["near", "the", names[cats[ctx[0]]]]
                tags += ["ADP", "DET", "NOUN"]
            if len(ctx) >= 2:
                tokens += ["and", "the", names[cats[ctx[1]]]]
                tags += ["CCONJ", "DET", "NOUN"]
            expressions.append(
                ExpressionRecord(
                    f"{image_id}_e{e}", image_id, tuple(tokens), tuple(tags),
                    object_boxes[referent], split,
                )
            )

    paths = SynthPaths(
        detections=out_dir / "detections.tsv",
        expressions=out_dir / "expressions.tsv",
        regions=out_dir / "regions.tsv",
        embeddings=out_dir / "embeddings.txt",
    )
    write_detection_dump(paths.detections, images, names, feature_dim=cfg.n_categories)
    write_expressions(paths.expressions, expressions)
    write_regions(paths.regions, regions)
    lines = []
    for c, name in enumerate(names):
        vec = ["1.0" if j == c else "0.0" for j in range(cfg.n_categories)]
        lines.append(name + " " + " ".join(vec))
    paths.embeddings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths
