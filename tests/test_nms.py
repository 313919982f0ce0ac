"""Greedy NMS against an exhaustive reference, budgets, the pipeline and
the keep-list loop."""

import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import greedy_nms, image_of_rows
from refnms.geometry import Box, box_array, iou
from refnms.ingest import ImageDetections
import refnms.nms as nms_module
from refnms.model import ModelConfig, Window, init_parameters, score_boxes, survivors
from refnms.nms import (
    NmsConfig,
    ProposalBudget,
    keep_lists,
    per_class_nms,
    proposal_pipeline,
)


def reference_nms(items, iou_threshold):
    """Exhaustive restatement of the greedy procedure: repeated argmax scans
    over an alive set instead of pre-sorting."""
    alive = list(range(len(items)))
    kept = []
    while alive:
        best = alive[0]
        for j in alive[1:]:
            if items[j][1] > items[best][1] or (items[j][1] == items[best][1] and j < best):
                best = j
        kept.append(best)
        alive = [
            j for j in alive if j != best and iou(items[best][0], items[j][0]) <= iou_threshold
        ]
    return kept


def random_items(rng, n, coord_range=60.0):
    items = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, coord_range, size=2)
        w, h = rng.uniform(2, 40, size=2)
        items.append((Box(x1, y1, x1 + w, y1 + h), float(rng.uniform(0, 1))))
    return items


class Proposal(NamedTuple):
    box: Box
    category_id: int
    confidence: float
    relatedness: float
    fused: float


def proposal(box, category=0, confidence=0.5, relatedness=1.0):
    return Proposal(box, category, confidence, relatedness, relatedness * confidence)


def nms(proposals, cfg, criterion="fused"):
    """`per_class_nms` on the proposals' boxes and criterion scores; the kept proposals."""
    scores = [p.confidence if criterion == "confidence" else p.fused for p in proposals]
    kept = per_class_nms(
        box_array([p.box for p in proposals]),
        np.array(scores, dtype=np.float64),
        np.array([p.category_id for p in proposals], dtype=np.int64),
        cfg,
    )
    return [proposals[i] for i in kept.tolist()]


def kept_scores(pool, budget):
    """The fused scores `proposal_pipeline` keeps of `pool` under `budget`."""
    rows = [(p.box, p.category_id, p.confidence, (0.0,)) for p in pool]
    image = image_of_rows("img", rows, feature_dim=1)
    (kept,) = proposal_pipeline(Window.of([(image, None)], 0.0), 1.0, budget=budget)
    return kept.scores.tolist()


# greedy procedure ----------------------------------------------------------------


def test_single_box_is_kept():
    assert greedy_nms([(Box(0, 0, 10, 10), 0.7)], 0.3) == [0]


def test_duplicate_box_is_suppressed():
    b = Box(0, 0, 10, 10)
    assert greedy_nms([(b, 0.9), (b, 0.8)], 0.3) == [0]
    assert greedy_nms([(b, 0.8), (b, 0.9)], 0.3) == [1]


def test_suppression_chain_keeps_the_far_end():
    # A overlaps B, B overlaps C, A and C are disjoint: B falls to A, C survives
    a = Box(0, 0, 10, 10)
    b = Box(0, 5, 10, 15)       # IoU(a, b) = 50/150 = 1/3 > 0.3
    c = Box(0, 10, 10, 20)      # IoU(b, c) = 1/3, IoU(a, c) = 0
    assert iou(a, b) == pytest.approx(1 / 3)
    assert iou(b, c) == pytest.approx(1 / 3)
    assert iou(a, c) == 0.0
    items = [(a, 0.9), (b, 0.8), (c, 0.7)]
    assert greedy_nms(items, 0.3) == [0, 2]


def test_suppression_is_strict_at_the_iou_threshold():
    a = Box(0, 0, 10, 10)
    b = Box(0, 5, 10, 15)  # IoU exactly 1/3
    kept = greedy_nms([(a, 0.9), (b, 0.8)], 1 / 3)
    assert kept == [0, 1]


def test_score_ties_break_by_ascending_index():
    b1 = Box(0, 0, 10, 10)
    b2 = Box(100, 100, 110, 110)
    assert greedy_nms([(b1, 0.5), (b2, 0.5)], 0.3) == [0, 1]


def test_greedy_matches_reference_on_random_instances():
    rng = np.random.default_rng(60)
    for _ in range(100):
        n = int(rng.integers(1, 33))
        items = random_items(rng, n)
        threshold = float(rng.uniform(0.1, 0.9))
        assert greedy_nms(items, threshold) == reference_nms(items, threshold)


def test_kept_boxes_never_overlap_above_threshold():
    rng = np.random.default_rng(61)
    for _ in range(30):
        items = random_items(rng, 20)
        threshold = float(rng.uniform(0.2, 0.6))
        kept = greedy_nms(items, threshold)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert iou(items[a][0], items[b][0]) <= threshold


# per-class handling ----------------------------------------------------------------


def test_no_cross_class_suppression():
    b = Box(0, 0, 10, 10)
    proposals = [proposal(b, category=0, confidence=0.9), proposal(b, category=1, confidence=0.8)]
    kept = nms(proposals, NmsConfig(), "confidence")
    assert len(kept) == 2


def test_single_pool_suppresses_across_classes():
    b = Box(0, 0, 10, 10)
    proposals = [proposal(b, category=0, confidence=0.9), proposal(b, category=1, confidence=0.8)]
    kept = nms(proposals, NmsConfig(per_class=False), "confidence")
    assert len(kept) == 1
    assert kept[0].confidence == 0.9


def test_empty_input_gives_empty_output():
    assert nms([], NmsConfig()) == []
    assert per_class_nms(np.zeros((0, 4)), np.zeros(0), np.zeros(0), NmsConfig()).tolist() == []


def test_merged_output_sorted_by_criterion():
    proposals = [
        proposal(Box(0, 0, 10, 10), category=0, confidence=0.4),
        proposal(Box(20, 20, 30, 30), category=1, confidence=0.9),
        proposal(Box(40, 40, 50, 50), category=0, confidence=0.6),
    ]
    kept = nms(proposals, NmsConfig(), "confidence")
    assert [p.confidence for p in kept] == [0.9, 0.6, 0.4]


def reference_per_class_nms(proposals, cfg, criterion):
    """Slow restatement of `per_class_nms`: `reference_nms` on each category's
    pool, merged by descending criterion score, ties by input position."""
    def score(p):
        return p.confidence if criterion == "confidence" else p.fused

    groups = {}
    for i, p in enumerate(proposals):
        groups.setdefault(p.category_id if cfg.per_class else None, []).append(i)
    kept = []
    for indices in groups.values():
        items = [(proposals[i].box, score(proposals[i])) for i in indices]
        kept.extend(indices[k] for k in reference_nms(items, cfg.iou_threshold))
    kept.sort(key=lambda i: (-score(proposals[i]), i))
    return [proposals[i] for i in kept]


# Scores from a few levels and boxes on a 7 x 7 grid with sides 0-4: score
# ties, zero-area boxes, duplicates and IoUs exactly at the threshold (1/4,
# 1/3, 1/2 are IoUs of grid boxes) all occur.
LEVELS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
THRESHOLDS = st.sampled_from([0.2, 0.25, 1 / 3, 0.5, 2 / 3]) | st.floats(0.05, 0.95)


@st.composite
def grid_proposals(draw, max_size=24):
    proposals = []
    for _ in range(draw(st.integers(0, max_size))):
        x1, y1 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        box = Box(x1, y1, x1 + draw(st.integers(0, 4)), y1 + draw(st.integers(0, 4)))
        confidence, relatedness = draw(LEVELS), draw(LEVELS)
        proposals.append(
            Proposal(box, draw(st.integers(0, 2)), confidence, relatedness,
                     relatedness * confidence)
        )
    return proposals


HYPOTHESIS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@HYPOTHESIS
@given(grid_proposals(), THRESHOLDS, st.booleans(), st.sampled_from(["confidence", "fused"]))
def test_per_class_nms_matches_the_per_class_reference(proposals, threshold, per_class, criterion):
    cfg = NmsConfig(iou_threshold=threshold, per_class=per_class)
    got = nms(proposals, cfg, criterion)
    expected = reference_per_class_nms(proposals, cfg, criterion)
    assert [id(p) for p in got] == [id(p) for p in expected]


@HYPOTHESIS
@given(grid_proposals(), THRESHOLDS)
def test_greedy_nms_matches_the_reference_on_grid_boxes(proposals, threshold):
    items = [(p.box, p.fused) for p in proposals]
    assert greedy_nms(items, threshold) == reference_nms(items, threshold)


def worst_case_proposals(kind, rng):
    """Proposals for the sparse relation's worst cases: one cluster of 1,000
    near-identical boxes (every pair suppresses), boxes of zero width or
    height among ordinary ones, and boxes that share a few x1 values. Scores
    come from a few levels, so they tie too."""
    if kind == "one cluster":
        n = 1000
        corners = 100.0 + rng.uniform(0.0, 1e-3, size=(n, 2))
        sides = 50.0 + rng.uniform(0.0, 1e-3, size=(n, 2))
        boxes = np.hstack([corners, corners + sides])
    elif kind == "zero width or height":
        n = 300
        corners = rng.integers(0, 12, size=(n, 2)).astype(float)
        sides = rng.integers(1, 6, size=(n, 2)).astype(float)
        sides[: n // 3, 0] = 0.0
        sides[n // 3 : 2 * n // 3, 1] = 0.0
        boxes = np.hstack([corners, corners + sides])
    else:  # x1 ties
        n = 300
        x1 = rng.choice([0.0, 4.0, 8.0], size=n)
        y1 = rng.uniform(0, 30, size=n)
        boxes = np.stack([x1, y1, x1 + rng.integers(1, 9, size=n), y1 + rng.uniform(1, 10, size=n)],
                         axis=1)
    return [
        proposal(Box(*box), int(rng.integers(3)), float(confidence), float(related))
        for box, confidence, related in zip(
            boxes.tolist(), rng.choice([0.25, 0.5, 1.0], size=n), rng.choice([0.5, 1.0], size=n)
        )
    ]


@pytest.mark.parametrize("kind", ["one cluster", "zero width or height", "x1 ties"])
@pytest.mark.parametrize("per_class", [True, False])
def test_sparse_relation_matches_the_references_on_worst_cases(kind, per_class):
    proposals = worst_case_proposals(kind, np.random.default_rng(65))
    cfg = NmsConfig(iou_threshold=0.3, per_class=per_class)
    got = nms(proposals, cfg, "fused")
    assert [id(p) for p in got] == [id(p) for p in reference_per_class_nms(proposals, cfg, "fused")]
    if not per_class:
        position = {id(p): i for i, p in enumerate(proposals)}
        items = [(p.box, p.fused) for p in proposals]
        assert [position[id(p)] for p in got] == reference_nms(items, cfg.iou_threshold)
    if kind == "one cluster":
        indptr, _ = nms_module._relation(
            box_array([p.box for p in proposals]), np.zeros(len(proposals), dtype=np.intp), None,
            cfg.iou_threshold,
        )
        assert np.diff(indptr).tolist() == [len(proposals) - 1] * len(proposals)
        assert len(got) == (3 if per_class else 1)


@pytest.mark.parametrize("pass_floats", [8192, 1])
def test_images_of_one_window_never_suppress_each_other(pass_floats):
    # images a and b hold the same boxes and c repeats their x1 values, with
    # zero-width boxes among them; laid end to end in one window, x1 ties
    # cross each image boundary, and a's and b's equal boxes overlap at IoU 1
    square, wide, line = Box(0, 0, 10, 10), Box(0, 0, 20, 10), Box(5, 0, 5, 10)
    layouts = {
        "a": [square, square, wide, line, Box(10, 0, 20, 10)],
        "b": [line, square, wide, square],
        "c": [Box(0, 2, 10, 12), line, line, Box(5, 0, 15, 10)],
    }
    rng = np.random.default_rng(66)
    images = [
        image_of_rows(name, [(box, 0, float(c), (0.0,)) for box, c in
                             zip(boxes, rng.choice([0.5, 0.75, 1.0], size=len(boxes)))], 1)
        for name, boxes in layouts.items()
    ]
    window = Window.of([(image, None) for image in images for _ in range(2)], 0.05)
    rows = window.rows
    related = np.zeros((6, window.width))
    for e, i in enumerate(window.image_of.tolist()):
        related[e, : len(rows[i])] = rng.choice([0.25, 0.5, 1.0], size=len(rows[i]))
    with mock.patch.object(nms_module, "PASS_FLOATS", pass_floats), \
            mock.patch.object(nms_module, "_relation", wraps=nms_module._relation) as relation:
        got = proposal_pipeline(window, related)
        (call,) = relation.call_args_list  # one window, one relation for its three images
        indptr, neighbours = nms_module._relation(*call.args)
    of_row = call.args[1]
    assert of_row.tolist() == [0] * 5 + [1] * 4 + [2] * 4
    source = np.repeat(np.arange(len(of_row)), np.diff(indptr))
    assert len(source) > 0
    assert (of_row[source] == of_row[neighbours]).all()
    for i, scores, kept in zip(window.image_of.tolist(), related, got):
        (alone,) = proposal_pipeline(Window.of([(images[i], None)], 0.05),
                                     scores[None, : len(rows[i])])
        assert kept.rows.tolist() == alone.rows.tolist()
        assert kept.scores.tolist() == alone.scores.tolist()


# budgets ----------------------------------------------------------------------------


def test_top_n_larger_than_pool_keeps_everything():
    pool = [proposal(Box(i * 20, 0, i * 20 + 10, 10), confidence=0.5) for i in range(3)]
    assert len(kept_scores(pool, ProposalBudget.top_n(10))) == 3


def test_top_n_output_size():
    rng = np.random.default_rng(62)
    pool = [
        proposal(Box(i * 20.0, 0, i * 20.0 + 10, 10), confidence=float(rng.uniform(0, 1)))
        for i in range(7)
    ]
    for n in range(0, 10):
        assert len(kept_scores(pool, ProposalBudget.top_n(n))) == min(n, 7)


def test_threshold_budget_boundary_is_inclusive():
    pool = [
        proposal(Box(0, 0, 10, 10), confidence=0.7),
        proposal(Box(20, 0, 30, 10), confidence=0.66),
        proposal(Box(40, 0, 50, 10), confidence=0.6),
    ]
    assert kept_scores(pool, ProposalBudget.threshold(0.65)) == [0.7, 0.66]
    assert len(kept_scores(pool, ProposalBudget.threshold(0.6))) == 3


def test_budget_counts_the_union_of_its_two_prefixes():
    scores = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
    assert ProposalBudget().count(scores) == 5
    assert ProposalBudget().count(np.zeros(0)) == 0
    assert ProposalBudget(n=2, min_score=0.4).count(scores) == 3  # the floor reaches further
    assert ProposalBudget(n=4, min_score=0.6).count(scores) == 4  # n reaches further
    assert ProposalBudget(n=9, min_score=0.6).count(scores) == 5
    budgets = [ProposalBudget.top_n(2), ProposalBudget.threshold(0.4), ProposalBudget.top_n(1)]
    covering = ProposalBudget.covering(budgets)
    assert covering == ProposalBudget(n=2, min_score=0.4)
    for budget in budgets:
        assert budget.count(scores) <= covering.count(scores)
    assert ProposalBudget.covering([]).count(scores) == 0
    for n, min_score in ((-1, -math.inf), (0, math.nan), (3, math.nan)):
        with pytest.raises(ValueError):
            ProposalBudget(n, min_score)


# pipeline ----------------------------------------------------------------------------


def random_image(rng, n_boxes, feature_dim=4, n_classes=3):
    rows = []
    for _ in range(n_boxes):
        x1, y1 = rng.uniform(0, 60, size=2)
        w, h = rng.uniform(5, 40, size=2)
        rows.append(
            (
                Box(x1, y1, x1 + w, y1 + h),
                int(rng.integers(n_classes)),
                float(rng.uniform(0, 1)),
                rng.normal(size=feature_dim),
            )
        )
    return image_of_rows("img", rows, feature_dim)


def keep_signature(image, kept):
    return list(zip(map(tuple, image.boxes[kept.rows].tolist()), image.category_ids[kept.rows]))


def test_constant_relatedness_equals_confidence_baseline():
    rng = np.random.default_rng(63)
    for _ in range(50):
        image = random_image(rng, int(rng.integers(1, 24)))
        k = float(rng.uniform(0.05, 1.0))
        nms_cfg = NmsConfig(iou_threshold=float(rng.uniform(0.2, 0.7)))
        window = Window.of([(image, None)], 0.05)
        (fused,) = proposal_pipeline(window, k, nms_cfg)
        (base,) = proposal_pipeline(window, 1.0, nms_cfg)
        assert keep_signature(image, fused) == keep_signature(image, base)
        # and under a top-N budget
        (fused_b,) = proposal_pipeline(window, k, nms_cfg, ProposalBudget.top_n(5))
        (base_b,) = proposal_pipeline(window, 1.0, nms_cfg, ProposalBudget.top_n(5))
        assert keep_signature(image, fused_b) == keep_signature(image, base_b)


def test_zero_relatedness_loses_nms_to_related_duplicate():
    # same box twice: confidence favors the first, fused favors the second
    b = Box(0, 0, 10, 10)
    irrelevant = Proposal(b, 0, 0.9, 0.0, 0.0)
    relevant = Proposal(b, 0, 0.8, 1.0, 0.8)
    kept = nms([irrelevant, relevant], NmsConfig(), "fused")
    assert kept == [relevant]
    kept_conf = nms([irrelevant, relevant], NmsConfig(), "confidence")
    assert kept_conf == [irrelevant]


def test_ref_nms_pipeline_empty_image():
    params = init_parameters(ModelConfig(vocab_size=5, feature_dim=4, embed_dim=3, hidden_size=2), 0)
    window = Window.of([(ImageDetections.empty("img", 4), [1, 2])], 0.05)
    (out,) = proposal_pipeline(window, score_boxes(window, params))
    assert out.rows.tolist() == []


def test_ref_nms_pipeline_runs_end_to_end():
    rng = np.random.default_rng(64)
    params = init_parameters(ModelConfig(vocab_size=6, feature_dim=4, embed_dim=3, hidden_size=2), 1)
    image = random_image(rng, 12)
    window = Window.of([(image, [1, 3])], 0.05)
    (kept,) = proposal_pipeline(window, score_boxes(window, params), NmsConfig(),
                                ProposalBudget.top_n(5))
    assert len(kept) <= 5
    for fused, relatedness, confidence in zip(
        kept.scores.tolist(), kept.relatedness.tolist(), image.confidences[kept.rows].tolist()
    ):
        assert fused == relatedness * confidence
    fused_order = kept.scores.tolist()
    assert fused_order == sorted(fused_order, reverse=True)


def test_pipeline_takes_one_relatedness_row_per_expression_or_one_constant():
    rng = np.random.default_rng(65)
    image = random_image(rng, 6)
    window = Window.of([(image, None), (image, None)], 0.0)
    assert len(proposal_pipeline(window, 0.5)) == 1  # one keep list per distinct image
    assert len(proposal_pipeline(window, np.ones((2, 6)))) == 2
    for shape in ((6,), (1, 6), (2, 5), (2, 7)):
        with pytest.raises(ValueError, match="relatedness"):
            proposal_pipeline(window, np.ones(shape))


# keep lists ---------------------------------------------------------------------------

TINY_MODEL = init_parameters(
    ModelConfig(vocab_size=4, feature_dim=2, embed_dim=2, hidden_size=2), seed=2
)


def test_windows_are_cut_between_images_and_never_split_an_image():
    # runs of expressions of one image; PASS_FLOATS 12 holds 2 expressions of
    # 5 survivors, and b's run of 4 goes to a window of its own all the same
    a, b, c = (
        image_of_rows(name, [(Box(0, 0, 1, 1), 0, 0.5, ())] * n)
        for name, n in (("a", 3), ("b", 5), ("c", 0))
    )
    expressions = [(a, [1]), (a, [2]), (b, [1]), (b, [2]), (b, [3]), (b, [4]),
                   (c, [1]), (c, [2]), (c, [3]), (a, [3])]
    with mock.patch.object(nms_module, "PASS_FLOATS", 12):
        windows = list(nms_module._windows(iter(expressions), 0.05))
    cut = [[(window.images[i].image_id, indices) for i, (indices,) in
            zip(window.image_of.tolist(), window.tokens)] for window in windows]
    assert cut == [[("a", 1), ("a", 2)], [("b", 1), ("b", 2), ("b", 3), ("b", 4)],
                   [("c", 1), ("c", 2), ("c", 3), ("a", 3)]]
    assert [[len(rows) for rows in window.rows] for window in windows] == [[3], [5], [0, 3]]


@st.composite
def keep_list_cases(draw):
    """Expressions over a few grid-box images, and a relatedness for them.

    Images hold 0-6 or 30-40 rows. Confidence 0.0 falls below the
    confidence filter, and two feature rows make equal model scores, so
    empty images, images without survivors and score ties all occur.
    """
    images = []
    for i in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(draw(st.integers(0, 6) | st.integers(30, 40))):
            x1, y1 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
            box = Box(x1, y1, x1 + draw(st.integers(0, 4)), y1 + draw(st.integers(0, 4)))
            feature = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0)]))
            rows.append((box, draw(st.integers(0, 2)), draw(LEVELS), feature))
        images.append(image_of_rows(f"img{i}", rows, feature_dim=2))
    tokens = st.lists(st.integers(1, 3), min_size=1, max_size=3)
    expressions = draw(st.lists(st.tuples(st.sampled_from(images), tokens), max_size=8))
    relatedness = draw(st.just(TINY_MODEL) | LEVELS)
    return expressions, relatedness


BUDGETS = st.lists(
    st.builds(ProposalBudget.top_n, st.integers(0, 45))
    | st.builds(ProposalBudget.threshold, LEVELS | st.floats(0.0, 1.0)),
    max_size=3,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(keep_list_cases(), THRESHOLDS, st.booleans(), BUDGETS,
       st.sampled_from([8192, 60, 1]))
def test_keep_lists_match_the_per_class_reference(case, threshold, per_class, budgets, pass_floats):
    # `pass_floats` bounds a window's box scores and a chunk of the sparse
    # relation's candidate pairs: small limits give each run of one image's
    # expressions a window of its own and cut its candidates into chunks,
    # down to one pair per chunk.
    expressions, relatedness = case
    cfg = NmsConfig(iou_threshold=threshold, per_class=per_class)
    budget = ProposalBudget.covering(budgets) if budgets else ProposalBudget()
    with mock.patch.object(nms_module, "PASS_FLOATS", pass_floats):
        got = list(keep_lists(iter(expressions), relatedness, nms_cfg=cfg, budget=budget))
    if relatedness is TINY_MODEL:
        window = Window.of(expressions, 0.05)
        matrix = score_boxes(window, TINY_MODEL)
        related = [row[:n] for row, n in zip(matrix, window.sizes[window.image_of])]
    else:
        related = [np.full(len(survivors(image, 0.05)), relatedness) for image, _ in expressions]
    assert len(got) == len(expressions)
    for (image, _), relatedness_of_rows, kept in zip(expressions, related, got):
        rows = survivors(image, 0.05).tolist()
        proposals = [
            proposal(Box(*image.boxes[row]), int(image.category_ids[row]),
                     float(image.confidences[row]), float(r))
            for row, r in zip(rows, relatedness_of_rows.tolist())
        ]
        position = {id(p): i for i, p in enumerate(proposals)}
        expected = [position[id(p)] for p in reference_per_class_nms(proposals, cfg, "fused")]
        scores = [proposals[i].fused for i in expected]
        # the walk stops after budget.n kept rows, once scores fall below the floor
        length = max(budget.n, sum(score >= budget.min_score for score in scores))
        assert kept.rows.tolist() == [rows[i] for i in expected[:length]]
        assert kept.scores.tolist() == scores[:length]
        assert kept.relatedness.tolist() == [proposals[i].relatedness for i in expected[:length]]
        for each in budgets:  # the covering budget keeps each one's prefix of the whole list
            each_length = max(each.n, sum(score >= each.min_score for score in scores))
            assert min(each_length, len(expected)) <= len(kept)
