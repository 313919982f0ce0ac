"""Synthetic dataset generator: determinism, structure, learnability hooks."""

import numpy as np
import pytest

from oracles import boxes_of, load_dump_by_line, regions_in
from refnms.geometry import iou
from refnms.ingest import (
    load_detection_dump,
    load_embeddings,
    load_expressions,
    load_regions,
)
from refnms.pseudo_gt import generate_pseudo_gt
from refnms.synth import SynthConfig, generate_dataset


def small_config(**overrides):
    base = dict(n_images=12, n_categories=5, boxes_per_image=8, noise=0.1, seed=7)
    base.update(overrides)
    return SynthConfig(**base)


def read_all(paths):
    return {
        "detections": paths.detections.read_bytes(),
        "expressions": paths.expressions.read_bytes(),
        "regions": paths.regions.read_bytes(),
        "embeddings": paths.embeddings.read_bytes(),
    }


def test_same_seed_gives_byte_identical_files(tmp_path):
    a = generate_dataset(small_config(), tmp_path / "a")
    b = generate_dataset(small_config(), tmp_path / "b")
    assert read_all(a) == read_all(b)


def test_different_seed_changes_the_data(tmp_path):
    a = generate_dataset(small_config(), tmp_path / "a")
    b = generate_dataset(small_config(seed=8), tmp_path / "b")
    assert a.detections.read_bytes() != b.detections.read_bytes()


def test_zero_noise_features_are_exact_one_hots(tmp_path):
    paths = generate_dataset(small_config(noise=0.0), tmp_path / "d")
    dump, _ = load_detection_dump(paths.detections)
    for image in dump:
        for category_id, feature in zip(image.category_ids, image.features):
            expected = np.zeros(5)
            expected[category_id] = 1.0
            np.testing.assert_array_equal(feature, expected)


def test_counts_and_splits(tmp_path):
    cfg = small_config(n_images=10, expressions_per_image=2, val_fraction=0.2)
    paths = generate_dataset(cfg, tmp_path / "d")
    dump, _ = load_detection_dump(paths.detections)
    assert len(dump) == 10
    assert all(len(img) == cfg.boxes_per_image for img in dump)
    expressions = load_expressions(paths.expressions)
    assert len(expressions) == 20
    assert sum(e.split == "train" for e in expressions) == 16
    assert sum(e.split == "val" for e in expressions) == 4


def test_every_referent_has_an_accurate_same_category_detection(tmp_path):
    paths = generate_dataset(small_config(n_images=20), tmp_path / "d")
    dump = {img.image_id: img for img in load_detection_dump(paths.detections)[0]}
    regions = {k: regions_in(v) for k, v in load_regions(paths.regions).items()}
    for expr in load_expressions(paths.expressions):
        candidates = [
            box for box in boxes_of(dump[expr.image_id]) if iou(box, expr.referent_box) > 0.5
        ]
        assert candidates, expr.expression_id
        # the referent's box is one of the annotated regions
        assert any(r.box == expr.referent_box for r in regions[expr.image_id])


def test_expressions_mention_only_present_categories(tmp_path):
    paths = generate_dataset(small_config(n_images=15), tmp_path / "d")
    regions = {k: regions_in(v) for k, v in load_regions(paths.regions).items()}
    for expr in load_expressions(paths.expressions):
        present = {r.category_name for r in regions[expr.image_id]}
        nouns = [t for t, tag in zip(expr.tokens, expr.pos_tags) if tag == "NOUN"]
        assert nouns
        assert set(nouns) <= present


def test_orthogonal_embeddings_make_pseudo_gt_exact(tmp_path):
    paths = generate_dataset(small_config(n_images=15), tmp_path / "d")
    table = load_embeddings(paths.embeddings)
    regions = load_regions(paths.regions)
    for expr in load_expressions(paths.expressions):
        image_regions = regions[expr.image_id]
        matched = generate_pseudo_gt(expr, image_regions, table, 0.4)
        nouns = {t for t, tag in zip(expr.tokens, expr.pos_tags) if tag == "NOUN"}
        expected = {r.region_id for r in regions_in(image_regions) if r.category_name in nouns}
        assert {image_regions.region_ids[row] for row in matched} == expected


def test_distractor_categories_are_absent_from_the_image(tmp_path):
    paths = generate_dataset(small_config(n_images=15, noise=0.0), tmp_path / "d")
    groups, _ = load_dump_by_line(paths.detections)  # the dump's lines with their names
    regions = {k: regions_in(v) for k, v in load_regions(paths.regions).items()}
    for image_id, records in groups:
        present = {r.category_name for r in regions[image_id]}
        object_boxes = [r.box for r in regions[image_id]]
        for box, _, category_name, _, _ in records:
            overlaps_object = any(iou(box, b) > 0.5 for b in object_boxes)
            if not overlaps_object and max(iou(box, b) for b in object_boxes) <= 0.25:
                assert category_name not in present


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_categories=1)
    with pytest.raises(ValueError):
        SynthConfig(noise=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(val_fraction=1.5)
