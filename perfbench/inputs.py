"""Seeded inputs for the three workloads, written in the documented formats.

`synth_small` is the acceptance fixture from `refnms.synth`. `paper_scale`
lifts a `refnms.synth` dataset to paper dimensions with seeded random maps
whose columns are orthonormal, so distances, and therefore learnability and
exact pseudo ground-truth matching, carry over. `crowded` is generated here:
about a thousand small detector-like boxes per image over many categories.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import iou_one_to_many

PAPER_FEATURE_DIM = 2048
PAPER_EMBED_DIM = 300


@dataclass(frozen=True)
class Inputs:
    detections: Path
    expressions: Path
    regions: Path
    embeddings: Path

    def common_args(self) -> list[str]:
        return ["--detections", str(self.detections), "--expressions", str(self.expressions),
                "--regions", str(self.regions), "--embeddings", str(self.embeddings)]


def _paths(out_dir: Path) -> Inputs:
    out_dir.mkdir(parents=True, exist_ok=True)
    return Inputs(out_dir / "detections.tsv", out_dir / "expressions.tsv",
                  out_dir / "regions.tsv", out_dir / "embeddings.txt")


def _fmt(values) -> str:
    return " ".join(f"{v:.8g}" for v in values)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q


def synth(out_dir: Path, seed: int, *, images: int, boxes_per_image: int,
          expressions_per_image: int = 2, val_fraction: float = 0.2) -> Inputs:
    from refnms.synth import SynthConfig, generate_dataset

    cfg = SynthConfig(n_images=images, n_categories=8, boxes_per_image=boxes_per_image,
                      noise=0.1, seed=seed, expressions_per_image=expressions_per_image,
                      val_fraction=val_fraction)
    p = generate_dataset(cfg, out_dir)
    return Inputs(p.detections, p.expressions, p.regions, p.embeddings)


def lift(small: Inputs, out_dir: Path, seed: int) -> Inputs:
    """Rewrite features to PAPER_FEATURE_DIM and embeddings to PAPER_EMBED_DIM."""
    out = _paths(out_dir)
    rng = np.random.default_rng([seed, PAPER_FEATURE_DIM])
    lines = small.detections.read_text(encoding="utf-8").splitlines()
    small_dim = int(lines[0].rsplit("=", 1)[1])
    feature_map = _orthonormal_columns(rng, PAPER_FEATURE_DIM, small_dim)
    rows = [line.split("\t") for line in lines[1:]]
    feats = np.array([r[5].split() for r in rows], dtype=np.float64) @ feature_map.T
    body = ["\t".join(r[:5] + [_fmt(f)]) for r, f in zip(rows, feats)]
    out.detections.write_text(
        "\n".join([f"#refnms-dets v1 feature_dim={PAPER_FEATURE_DIM}"] + body) + "\n",
        encoding="utf-8")

    table = [line.split() for line in small.embeddings.read_text(encoding="utf-8").splitlines()]
    embed_map = _orthonormal_columns(rng, PAPER_EMBED_DIM, len(table[0]) - 1)
    vecs = np.array([t[1:] for t in table], dtype=np.float64) @ embed_map.T
    out.embeddings.write_text(
        "".join(f"{t[0]} {_fmt(v)}\n" for t, v in zip(table, vecs)), encoding="utf-8")
    out.expressions.write_bytes(small.expressions.read_bytes())
    out.regions.write_bytes(small.regions.read_bytes())
    return out


CROWDED_NAMES = (
    "person", "dog", "cat", "car", "chair", "pizza", "bottle", "zebra",
    "kite", "bowl", "horse", "clock", "laptop", "bench", "truck", "sheep",
)


def crowded(out_dir: Path, seed: int, *, train_images: int, val_images: int,
            boxes_per_image: int, expressions_per_image: int,
            canvas=(1000.0, 800.0), noise: float = 0.1) -> Inputs:
    """Images of a few annotated objects buried in small detector-like boxes.

    Each object has one accurate detection and three looser duplicates, all
    above 0.5 IoU, so the ranking loss finds positives in several overlap
    bins. Every expression names its referent and one other object, which
    keeps the number of positives, and so of mined pairs, the same from seed
    to seed. The rest are background boxes of 16-64 px with low, skewed
    confidences; about two thirds survive cross-class NMS at IoU 0.3.
    """
    out = _paths(out_dir)
    rng = np.random.default_rng([seed, boxes_per_image])
    n_cat = len(CROWDED_NAMES)
    width, height = canvas
    dets, exprs, regions = [f"#refnms-dets v1 feature_dim={n_cat}"], [], []

    def det_line(image_id: str, box, cat: int, conf: float) -> str:
        feature = np.eye(n_cat)[cat] + rng.normal(0.0, noise, size=n_cat)
        return "\t".join((image_id, _fmt(box), str(cat), CROWDED_NAMES[cat],
                          repr(conf), _fmt(feature)))

    for i in range(train_images + val_images):
        image_id = f"img{i:04d}"
        split = "train" if i < train_images else "val"
        cats = rng.choice(n_cat, size=4, replace=False)
        objects: list[np.ndarray] = []
        while len(objects) < len(cats):
            w, h = rng.uniform(80.0, 200.0, size=2)
            x1, y1 = rng.uniform(0.0, width - w), rng.uniform(0.0, height - h)
            box = np.array([x1, y1, x1 + w, y1 + h])
            if not objects or iou_one_to_many(box, np.array(objects)).max() <= 0.1:
                objects.append(box)
        lines = []
        for k, (box, cat) in enumerate(zip(objects, cats)):
            regions.append(f"{image_id}_r{k}\t{image_id}\t{_fmt(box)}\t{CROWDED_NAMES[cat]}")
            lines.append(det_line(image_id, _jitter(rng, box, 0.04), cat,
                                  float(rng.uniform(0.3, 0.7))))
            for _ in range(3):
                lines.append(det_line(image_id, _jitter(rng, box, 0.17), cat,
                                      float(rng.uniform(0.05, 0.3))))
        while len(lines) < boxes_per_image:
            w, h = rng.uniform(16.0, 64.0, size=2)
            x1, y1 = rng.uniform(0.0, width - w), rng.uniform(0.0, height - h)
            conf = 0.05 + 0.9 * float(rng.beta(0.8, 3.0))
            lines.append(det_line(image_id, (x1, y1, x1 + w, y1 + h),
                                  int(rng.integers(n_cat)), conf))
        dets += [lines[j] for j in rng.permutation(len(lines))]
        for e in range(expressions_per_image):
            ref, ctx = (int(k) for k in rng.choice(len(cats), size=2, replace=False))
            tokens = ("the", CROWDED_NAMES[cats[ref]], "near", "the", CROWDED_NAMES[cats[ctx]])
            exprs.append("\t".join((f"{image_id}_e{e}", image_id, split, _fmt(objects[ref]),
                                    " ".join(tokens), "DET NOUN ADP DET NOUN")))
    out.detections.write_text("\n".join(dets) + "\n", encoding="utf-8")
    out.expressions.write_text("\n".join(exprs) + "\n", encoding="utf-8")
    out.regions.write_text("\n".join(regions) + "\n", encoding="utf-8")
    out.embeddings.write_text(
        "".join(f"{name} {_fmt(np.eye(n_cat)[c])}\n" for c, name in enumerate(CROWDED_NAMES)),
        encoding="utf-8")
    return out


def _jitter(rng: np.random.Generator, box: np.ndarray, frac: float) -> tuple:
    w, h = box[2] - box[0], box[3] - box[1]
    x1 = box[0] + rng.uniform(-frac, frac) * w
    y1 = box[1] + rng.uniform(-frac, frac) * h
    return (x1, y1, x1 + w, y1 + h)

