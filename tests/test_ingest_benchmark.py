"""Micro-benchmarks of the loaders: `load_detection_dump` at the benchmark's
three dump shapes, and `load_expressions` and `load_regions` at two shapes.

Dumps, images x boxes at feature dimension D: 250 x 20 at D=8 (the acceptance
fixture), 3 x 100 at D=2048 (paper scale) and 5 x 1,000 at D=16 (crowded).
Boxes and features are seeded random floats written with `repr`, the most
digits a dump can hold. Two cases per shape: a first load, which parses the
text and writes the sidecar (removed before each round), and a later load,
which reads the sidecar.

Expressions and regions files: 500 expressions and 1,000 regions over 250
images (`synth_small`'s inputs), and a tenth of RefCOCO, 14,200 expressions
and 14,000 regions over 2,000 images (RefCOCO holds 142,209 expressions over
19,994 images; Yu et al., ECCV 2016). Lines are written as `synth-data`
writes them, with seeded random boxes.

Run `python -m pytest tests/test_ingest_benchmark.py --benchmark-enable --benchmark-only`
for the timing table; a plain test run loads each file once per case and
checks its shape.
"""

import numpy as np
import pytest

from refnms.ingest import (
    ImageDetections,
    load_detection_dump,
    load_expressions,
    load_regions,
    sidecar_path,
    write_detection_dump,
)

# rounds per case: a paper-scale text parse takes about 0.1 s
ROUNDS = 15
SHAPES = {"acceptance": (250, 20, 8), "paper": (3, 100, 2048), "crowded": (5, 1000, 16)}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def dump(request, tmp_path_factory):
    n_images, n_boxes, dim = SHAPES[request.param]
    rng = np.random.default_rng(7)
    images = []
    for i in range(n_images):
        corners = rng.uniform(0, 600, size=(n_boxes, 2))
        boxes = np.hstack([corners, corners + rng.uniform(16, 64, size=(n_boxes, 2))])
        images.append(
            ImageDetections(
                f"img{i:04d}", boxes, rng.uniform(0.05, 1.0, size=n_boxes),
                rng.integers(0, 16, size=n_boxes), rng.normal(size=(n_boxes, dim)),
            )
        )
    path = tmp_path_factory.mktemp("dumps") / f"{request.param}.tsv"
    write_detection_dump(path, images, ["obj"] * 16)
    return path, SHAPES[request.param]


def timed_load(benchmark, path, setup):
    return benchmark.pedantic(load_detection_dump, (path,), setup=setup, rounds=ROUNDS)


def check_shape(loaded, shape):
    images, feature_dim = loaded
    n_images, n_boxes, dim = shape
    assert feature_dim == dim
    assert [len(image) for image in images] == [n_boxes] * n_images
    assert images[0].features.shape == (n_boxes, dim)


def test_load_detection_dump_speed(benchmark, dump):
    # the text parse: every round starts with no sidecar
    path, shape = dump
    check_shape(timed_load(benchmark, path, lambda: sidecar_path(path).unlink(missing_ok=True)),
                shape)


def test_load_detection_dump_from_sidecar_speed(benchmark, dump):
    path, shape = dump
    load_detection_dump(path)
    check_shape(timed_load(benchmark, path, lambda: None), shape)


# images, expressions and regions of each expressions and regions file
TEXT_SHAPES = {"synth_small": (250, 500, 1000), "refcoco_tenth": (2000, 14200, 14000)}
# (tokens, POS tags) of the expressions, in turn
PHRASES = (
    ("the dog near the car", "DET NOUN ADP DET NOUN"),
    ("the person", "DET NOUN"),
    ("the zebra near the kite and the bowl", "DET NOUN ADP DET NOUN CCONJ DET NOUN"),
)
CATEGORIES = ("person", "dog", "zebra", "traffic light")


def box_texts(rng, n):
    corners = rng.uniform(0, 600, size=(n, 2))
    boxes = np.hstack([corners, corners + rng.uniform(16, 64, size=(n, 2))])
    return [" ".join(map(repr, box)) for box in boxes.tolist()]


@pytest.fixture(scope="module", params=sorted(TEXT_SHAPES))
def text_files(request, tmp_path_factory):
    """(expressions path, regions path, shape): each file's lines spread over
    the images as evenly as they divide, an image's lines together."""
    n_images, n_expressions, n_regions = TEXT_SHAPES[request.param]
    rng = np.random.default_rng(11)
    root = tmp_path_factory.mktemp("text")
    expressions, regions = [], []
    for k, box in enumerate(box_texts(rng, n_expressions)):
        image = f"img{k * n_images // n_expressions:05d}"
        tokens, tags = PHRASES[k % len(PHRASES)]
        split = "val" if k % 5 == 0 else "train"
        expressions.append(f"{image}_e{k}\t{image}\t{split}\t{box}\t{tokens}\t{tags}\n")
    for k, box in enumerate(box_texts(rng, n_regions)):
        image = f"img{k * n_images // n_regions:05d}"
        regions.append(f"{image}_r{k}\t{image}\t{box}\t{CATEGORIES[k % len(CATEGORIES)]}\n")
    paths = root / "expressions.tsv", root / "regions.tsv"
    for path, lines in zip(paths, (expressions, regions)):
        path.write_text("".join(lines), encoding="utf-8")
    return (*paths, TEXT_SHAPES[request.param])


def test_load_expressions_speed(benchmark, text_files):
    path, _, (_, n_expressions, _) = text_files
    loaded = benchmark.pedantic(load_expressions, (path,), rounds=ROUNDS)
    assert len(loaded) == n_expressions


def test_load_regions_speed(benchmark, text_files):
    _, path, (n_images, _, n_regions) = text_files
    loaded = benchmark.pedantic(load_regions, (path,), rounds=ROUNDS)
    assert len(loaded) == n_images
    assert sum(len(image.region_ids) for image in loaded.values()) == n_regions
