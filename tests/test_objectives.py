"""Label assignment, overlap quantization, both losses, pair sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from refnms import autodiff as ad
from refnms.autodiff import Node, backward
from refnms.geometry import Box, box_array
from oracles import LabeledBox
from refnms.objectives import (
    RankingConfig,
    assign_labels,
    binary_xe,
    overlap_bin,
    ranking_loss,
    sample_pairs,
)


def exact_bin(hundredths: int) -> int:
    """Ceiling formula evaluated in exact rational arithmetic."""
    rho = Fraction(hundredths, 100)
    return math.ceil(max(Fraction(0), rho - Fraction(1, 2)) / Fraction(1, 10))


def labeled(*overlaps):
    return [LabeledBox(i, rho, 1 if rho > 0.5 else 0, overlap_bin(rho)) for i, rho in enumerate(overlaps)]


def bins_of(*overlaps):
    return np.array([overlap_bin(rho) for rho in overlaps], dtype=np.intp)


# quantization -------------------------------------------------------------------


def test_overlap_bin_matches_exact_formula_on_the_full_grid():
    for i in range(101):
        assert overlap_bin(i / 100) == exact_bin(i), f"rho={i / 100}"


def test_overlap_bin_endpoints():
    assert overlap_bin(0.5) == 0
    assert overlap_bin(1.0) == 5


def test_overlap_bin_is_monotone():
    grid = [i / 100 for i in range(101)]
    bins = [overlap_bin(r) for r in grid]
    assert bins == sorted(bins)


# label assignment ---------------------------------------------------------------


def test_identical_box_is_a_full_overlap_positive():
    fg = Box(0, 0, 10, 10)
    overlaps, bins = assign_labels(box_array([fg]), box_array([fg, Box(50, 50, 60, 60)]))
    assert overlaps.tolist() == [1.0]
    assert bins.tolist() == [5]


def test_low_overlap_is_negative_bin_zero():
    # inter = 40, union = 160 -> IoU 0.25
    overlaps, bins = assign_labels(box_array([Box(0, 0, 10, 10)]), box_array([Box(6, 0, 16, 10)]))
    assert overlaps[0] == pytest.approx(0.25, abs=1e-12)
    assert bins.tolist() == [0]


def test_overlap_just_above_half_is_bin_one():
    # IoU = 55/145 would miss; construct IoU ~ 0.55 via nested boxes:
    # inner 10x5.5 against 10x10 -> inter 55, union 100 -> 0.55
    overlaps, bins = assign_labels(box_array([Box(0, 0, 10, 5.5)]), box_array([Box(0, 0, 10, 10)]))
    assert overlaps[0] == pytest.approx(0.55)
    assert bins.tolist() == [1]


HYPOTHESIS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def boxes(draw, max_size=10):
    """Grid boxes (zero areas, duplicates and overlaps exactly at the bin edges
    are common) mixed with arbitrary float boxes."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        if draw(st.booleans()):
            x1, y1 = draw(st.integers(0, 10)), draw(st.integers(0, 10))
            out.append(Box(x1, y1, x1 + draw(st.integers(0, 10)), y1 + draw(st.integers(0, 10))))
        else:
            x1, y1 = draw(st.floats(-50, 50)), draw(st.floats(-50, 50))
            out.append(Box(x1, y1, x1 + draw(st.floats(0, 60)), y1 + draw(st.floats(0, 60))))
    return out


@HYPOTHESIS
@given(boxes(), boxes(max_size=4))
def test_assign_labels_is_bit_equal_to_the_per_box_reference(candidates, foreground):
    overlaps, bins = assign_labels(box_array(candidates), box_array(foreground))
    assert overlaps.shape == bins.shape == (len(candidates),)
    for overlap, b, box in zip(overlaps.tolist(), bins.tolist(), candidates):
        rho = oracles.max_iou_against(box, foreground)
        assert (b > 0, b) == (rho > 0.5, overlap_bin(rho))
        assert overlap.hex() == rho.hex()


def test_label_consistency_with_bins():
    rng = np.random.default_rng(51)
    for _ in range(200):
        rho = float(rng.uniform(0, 1))
        b = overlap_bin(rho)
        assert (rho > 0.5) == (b >= 1)


# binary cross-entropy -------------------------------------------------------------


def test_binary_xe_half_prediction_of_positive():
    loss = binary_xe(Node(np.array([0.5])), [1])
    assert loss.value.item() == pytest.approx(-math.log(0.5), abs=1e-9)


def test_binary_xe_near_perfect_prediction():
    loss = binary_xe(Node(np.array([1.0 - 1e-7])), [1])
    assert loss.value.item() == pytest.approx(1e-7, rel=1e-3)


def test_binary_xe_two_element_batch():
    loss = binary_xe(Node(np.array([0.9, 0.1])), [1, 0])
    assert loss.value.item() == pytest.approx(-math.log(0.9), abs=1e-9)


def test_binary_xe_clamps_saturated_predictions():
    loss = binary_xe(Node(np.array([1.0])), [0])
    assert np.isfinite(loss.value.item())
    assert loss.value.item() == pytest.approx(-math.log(1e-7), rel=1e-6)


def test_binary_xe_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        binary_xe(Node(np.zeros(0)), [])
    with pytest.raises(ValueError):
        binary_xe(Node(np.array([0.5])), [1, 0])


def test_binary_xe_minimized_at_the_label():
    grid = np.linspace(0.01, 0.99, 99)
    for label in (0, 1):
        values = [binary_xe(Node(np.array([r])), [label]).value.item() for r in grid]
        best = grid[int(np.argmin(values))]
        assert best == pytest.approx(0.99 if label == 1 else 0.01)


def test_binary_xe_gradient_matches_finite_differences():
    rng = np.random.default_rng(52)
    scores = Node(rng.uniform(0.05, 0.95, size=6))
    labels = rng.integers(0, 2, size=6)

    def f():
        return binary_xe(scores, labels)

    assert ad.grad_check(f, [scores]) < 1e-4


# pair sampling ---------------------------------------------------------------------


def test_no_positives_means_no_pairs():
    bins = bins_of(0.1, 0.4, 0.5)
    assert sample_pairs(bins, np.array([0.9, 0.8, 0.7])) == []


@HYPOTHESIS
@given(
    st.lists(st.tuples(st.sampled_from([0.0, 0.3, 0.55, 0.62, 0.75, 0.85, 0.95, 1.0]),
                       st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])), max_size=24),
    st.integers(1, 6),
)
def test_sample_pairs_matches_the_per_positive_reference(boxes_and_scores, max_negatives):
    # few score levels, so most pools hold ties
    overlaps = [rho for rho, _ in boxes_and_scores]
    scores = np.array([score for _, score in boxes_and_scores])
    cfg = RankingConfig(max_negatives=max_negatives)
    expected = oracles.sample_pairs(labeled(*overlaps), scores, cfg)
    assert sample_pairs(bins_of(*overlaps), scores, cfg) == expected


def test_top_h_truncation_keeps_highest_scoring_negatives():
    bins = bins_of(1.0, 0.2, 0.3, 0.1)  # one positive (bin 5), three bin-0 negatives
    cfg = RankingConfig(margin=0.1, max_negatives=2)
    pairs = sample_pairs(bins, np.array([0.95, 0.9, 0.2, 0.5]), cfg)
    assert pairs == [(1, 0), (3, 0)]  # scores 0.9 and 0.5 beat 0.2


def test_equal_bins_are_not_eligible_negatives():
    # both boxes land in bin 1; neither may serve as the other's negative
    bins = bins_of(0.55, 0.52)
    assert sample_pairs(bins, np.array([0.5, 0.5])) == []


def test_ties_break_by_ascending_index():
    bins = bins_of(0.9, 0.2, 0.2, 0.2)
    cfg = RankingConfig(margin=0.1, max_negatives=2)
    pairs = sample_pairs(bins, np.array([0.9, 0.4, 0.4, 0.4]), cfg)
    assert pairs == [(1, 0), (2, 0)]


def test_every_pair_orders_overlaps_strictly():
    rng = np.random.default_rng(53)
    for _ in range(50):
        overlaps = rng.uniform(0, 1, size=12)
        bins = bins_of(*overlaps)
        scores = rng.uniform(0, 1, size=12)
        for neg, pos in sample_pairs(bins, scores, RankingConfig(0.1, 4)):
            assert overlaps[neg] < overlaps[pos]


def test_never_more_than_max_negatives_per_positive():
    rng = np.random.default_rng(54)
    overlaps = np.concatenate([rng.uniform(0, 0.5, size=30), [0.95]])
    bins = bins_of(*overlaps)
    scores = rng.uniform(0, 1, size=31)
    cfg = RankingConfig(margin=0.1, max_negatives=7)
    pairs = sample_pairs(bins, scores, cfg)
    per_positive: dict[int, int] = {}
    for _, pos in pairs:
        per_positive[pos] = per_positive.get(pos, 0) + 1
    assert all(v <= 7 for v in per_positive.values())
    assert per_positive == {30: 7}


# ranking loss ------------------------------------------------------------------------


def test_ranking_loss_single_active_hinge():
    scores = Node(np.array([0.9, 0.5]))
    loss = ranking_loss([(0, 1)], scores, RankingConfig(margin=0.1))
    assert loss.value.item() == pytest.approx(0.5, abs=1e-12)


def test_ranking_loss_inactive_hinge_is_zero():
    scores = Node(np.array([0.1, 0.9]))
    loss = ranking_loss([(0, 1)], scores, RankingConfig(margin=0.1))
    assert loss.value.item() == 0.0


def test_ranking_loss_averages_over_pairs():
    scores = Node(np.array([0.9, 0.5, 0.1]))
    loss = ranking_loss([(0, 1), (2, 1)], scores, RankingConfig(margin=0.1))
    assert loss.value.item() == pytest.approx(0.25, abs=1e-12)


def test_ranking_loss_empty_pairs_is_constant_zero_without_gradient():
    scores = Node(np.array([0.4, 0.6]))
    loss = ranking_loss([], scores, RankingConfig())
    assert loss.value.item() == 0.0
    backward(loss)
    assert scores.grad is None


def test_ranking_loss_equals_brute_force_recomputation():
    rng = np.random.default_rng(55)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        overlaps = rng.uniform(0, 1, size=n)
        predictions = rng.uniform(0, 1, size=n)
        bins = bins_of(*overlaps)
        cfg = RankingConfig(margin=0.1, max_negatives=5)
        pairs = sample_pairs(bins, predictions, cfg)
        loss = ranking_loss(pairs, Node(predictions), cfg)
        if not pairs:
            assert loss.value.item() == 0.0
            continue
        terms = [max(0.0, float(predictions[i] - predictions[j]) + cfg.margin) for i, j in pairs]
        assert loss.value.item() == float(np.mean(terms))


def test_ranking_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(56)
    scores = Node(rng.uniform(0.05, 0.95, size=8))
    overlaps = rng.uniform(0, 1, size=8)
    bins = bins_of(*overlaps)
    pairs = sample_pairs(bins, scores.value, RankingConfig(margin=0.37, max_negatives=4))
    if not pairs:
        pytest.skip("draw produced no pairs")

    def f():
        return ranking_loss(pairs, scores, RankingConfig(margin=0.37, max_negatives=4))

    assert ad.grad_check(f, [scores]) < 1e-4
