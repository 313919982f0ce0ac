"""Micro-benchmark of `load_detection_dump` at the benchmark's three dump shapes.

Images x boxes at feature dimension D: 250 x 20 at D=8 (the acceptance
fixture), 3 x 100 at D=2048 (paper scale) and 5 x 1,000 at D=16 (crowded).
Boxes and features are seeded random floats written with `repr`, the most
digits a dump can hold. Two cases per shape: a first load, which parses the
text and writes the sidecar (removed before each round), and a later load,
which reads the sidecar. Run
`python -m pytest tests/test_ingest_benchmark.py --benchmark-enable --benchmark-only`
for the timing table; a plain test run loads each dump once per case and
checks its shape.
"""

import numpy as np
import pytest

from refnms.ingest import ImageDetections, load_detection_dump, sidecar_path, write_detection_dump

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
