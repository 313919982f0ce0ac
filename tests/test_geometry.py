"""Box arithmetic: IoU values, and the scalar hit-test and best-overlap references
in `oracles.py` that the recall harness and label assignment are pinned to."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hits, max_iou_against
from refnms.geometry import Box, box_array, iou, pairwise_iou


def random_box(rng):
    x1, y1 = rng.uniform(-50, 50, size=2)
    w, h = rng.uniform(0.5, 60, size=2)
    return Box(x1, y1, x1 + w, y1 + h)


def test_iou_identical_boxes():
    b = Box(0, 0, 10, 10)
    assert iou(b, b) == 1.0


def test_iou_disjoint_boxes():
    assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0


def test_iou_partial_overlap():
    # inter = 5 * 10 = 50, union = 100 + 100 - 50 = 150
    assert iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(50 / 150, abs=1e-12)


def test_iou_zero_area_box():
    flat = Box(1, 1, 1, 5)
    assert iou(flat, Box(0, 0, 3, 3)) == 0.0
    assert iou(flat, flat) == 0.0


def test_inverted_corners_rejected():
    with pytest.raises(ValueError):
        Box(5, 0, 0, 5)
    with pytest.raises(ValueError):
        Box(0, 5, 5, 0)


def test_hits_identical_boxes():
    b = Box(0, 0, 10, 10)
    assert hits(b, b) is True


def test_hits_is_strict_at_the_threshold():
    # inter = 50, union = 100 + 50 - 50 = 100 -> IoU exactly 0.5
    a = Box(0, 0, 10, 10)
    b = Box(0, 0, 10, 5)
    assert iou(a, b) == 0.5
    assert hits(a, b, threshold=0.5) is False


def test_hits_above_threshold():
    # inter = 60, union = 100 -> IoU 0.6
    a = Box(0, 0, 10, 10)
    b = Box(0, 0, 10, 6)
    assert iou(a, b) == pytest.approx(0.6, abs=1e-12)
    assert hits(a, b, threshold=0.5) is True


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2, 1.5])
def test_hits_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError):
        hits(Box(0, 0, 1, 1), Box(0, 0, 1, 1), threshold=threshold)


def test_max_iou_empty_targets():
    assert max_iou_against(Box(0, 0, 10, 10), []) == 0.0


def test_max_iou_candidate_among_targets():
    b = Box(0, 0, 10, 10)
    assert max_iou_against(b, [Box(40, 40, 50, 50), b]) == 1.0


def test_max_iou_takes_the_best_pair():
    candidate = Box(0, 0, 10, 10)
    targets = [Box(5, 0, 15, 10), Box(20, 20, 30, 30)]
    assert max_iou_against(candidate, targets) == pytest.approx(1 / 3, abs=1e-12)


def test_iou_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = random_box(rng), random_box(rng)
        assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-12)


def test_iou_of_box_with_itself_is_one():
    rng = np.random.default_rng(12)
    for _ in range(100):
        b = random_box(rng)
        assert iou(b, b) == pytest.approx(1.0, abs=1e-12)


def test_iou_translation_invariant():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = random_box(rng), random_box(rng)
        dx, dy = rng.uniform(-100, 100, size=2)
        a2 = Box(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
        b2 = Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
        assert iou(a, b) == pytest.approx(iou(a2, b2), abs=1e-9)


def test_max_iou_monotone_in_target_set():
    rng = np.random.default_rng(14)
    for _ in range(50):
        candidate = random_box(rng)
        targets = [random_box(rng) for _ in range(5)]
        base = max_iou_against(candidate, targets)
        extended = max_iou_against(candidate, targets + [random_box(rng)])
        assert extended >= base


@st.composite
def grid_boxes(draw, max_size=8):
    """Boxes on a small integer grid, where zero-area boxes, identical boxes
    and exact rational IoUs are common, mixed with arbitrary float boxes."""
    def one():
        if draw(st.booleans()):
            x1, y1 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
            return Box(x1, y1, x1 + draw(st.integers(0, 4)), y1 + draw(st.integers(0, 4)))
        coord = st.floats(-1e3, 1e3, allow_nan=False)
        x1, y1 = draw(coord), draw(coord)
        size = st.floats(0.0, 1e3, allow_nan=False)
        return Box(x1, y1, x1 + draw(size), y1 + draw(size))

    return [one() for _ in range(draw(st.integers(0, max_size)))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grid_boxes(), grid_boxes())
def test_pairwise_iou_is_bit_equal_to_iou(a, b):
    got = pairwise_iou(box_array(a), box_array(b))
    assert got.shape == (len(a), len(b))
    expected = np.array([[iou(p, q) for q in b] for p in a], dtype=np.float64).reshape(got.shape)
    assert got.tobytes() == expected.tobytes()
    # a stack of box arrays gives each pair of arrays its own matrix
    stacked = pairwise_iou(np.stack([box_array(a), box_array(a[::-1])]),
                           np.stack([box_array(b), box_array(b[::-1])]))
    assert stacked.tobytes() == np.stack([expected, expected[::-1, ::-1]]).tobytes()
