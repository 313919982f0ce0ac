"""Recall harness: hit tests, aggregation against brute force, CSV emission."""

import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import eval_example, hits, image_of_rows, targets_of
from refnms.evaluation import (
    EvalExample,
    RecallRow,
    build_eval_set,
    first_hits,
    recall_curve,
    write_report,
)
from refnms.geometry import Box, box_array
from refnms.ingest import EmbeddingTable, ExpressionRecord, GroundTruthRegion
from refnms.model import ModelConfig, Window, init_parameters, survivors
from refnms.nms import NmsConfig, proposal_pipeline


def random_box(rng, span=100.0):
    x1, y1 = rng.uniform(0, span, size=2)
    w, h = rng.uniform(5, 40, size=2)
    return Box(x1, y1, x1 + w, y1 + h)


def image_of(records, image_id="img"):
    return image_of_rows(image_id, list(records), feature_dim=2)


def record(box, conf, category=0):
    return (box, category, conf, np.zeros(2))


# hit tests ---------------------------------------------------------------------


def referent_hit(proposals, referent):
    """True when any row of `proposals` (k, 4) hits the `referent` box (4,)."""
    return bool(first_hits(proposals, referent.reshape(1, 4))[0] < len(proposals))


def test_referent_hit_exact_box():
    b = Box(0, 0, 10, 10)
    assert referent_hit(box_array([Box(50, 50, 60, 60), b]), box_array([b])[0]) is True


def test_referent_hit_empty_proposals():
    assert referent_hit(box_array([]), box_array([Box(0, 0, 10, 10)])[0]) is False


def test_referent_hit_requires_more_than_half_iou():
    referent = Box(0, 0, 10, 10)
    # nested proposal: inter 40, union 100 -> IoU 0.4
    proposal = Box(0, 0, 10, 4)
    assert referent_hit(box_array([proposal]), box_array([referent])[0]) is False


def test_contextual_recall_empty_region_set():
    first = first_hits(box_array([Box(0, 0, 5, 5)]), box_array([]))
    assert first.shape == (0,)


def test_contextual_recall_perfect_match():
    # each region is found by the proposal equal to it, and not before
    regions = [Box(0, 0, 10, 10), Box(20, 20, 30, 30)]
    assert first_hits(box_array(regions), box_array(regions)).tolist() == [0, 1]
    assert first_hits(box_array(regions[::-1]), box_array(regions)).tolist() == [1, 0]


def test_contextual_recall_one_proposal_may_match_many_regions():
    # two nearly identical regions both hit by the same proposal; a region no
    # proposal hits is found at len(proposals)
    regions = [Box(0, 0, 10, 10), Box(0.5, 0, 10.5, 10), Box(50, 50, 60, 60)]
    proposal = Box(0, 0, 10, 10)
    assert hits(proposal, regions[1])
    assert first_hits(box_array([proposal]), box_array(regions)).tolist() == [0, 0, 1]


# aggregation -------------------------------------------------------------------


def curve_fixture(rng, n_expressions=5, boxes=12):
    examples = []
    for e in range(n_expressions):
        records = [record(random_box(rng), float(rng.uniform(0.05, 1.0))) for _ in range(boxes)]
        referent = records[int(rng.integers(boxes))][0]
        pseudo = tuple(r[0] for r in records if rng.random() < 0.3)
        examples.append(
            eval_example(f"e{e}", "val", image_of(records, f"img{e}"), referent, pseudo)
        )
    return examples


def test_recall_hundred_percent_when_proposals_contain_referent():
    rng = np.random.default_rng(81)
    examples = []
    for e in range(4):
        box = random_box(rng)
        examples.append(
            eval_example(f"e{e}", "val", image_of([record(box, 0.9)], f"img{e}"), box, (box,))
        )
    report = recall_curve(examples, "baseline_conf", [1, 5])
    for row in report.values():
        assert row.referent_recall == 100.0
        assert row.contextual_recall == 100.0


def test_recall_monotone_over_nested_budgets():
    rng = np.random.default_rng(82)
    examples = curve_fixture(rng, n_expressions=8)
    report = recall_curve(examples, "baseline_conf", [5, 10, 20, 50])
    rows = list(report.values())
    for smaller, larger in zip(rows, rows[1:]):
        assert larger.referent_hits >= smaller.referent_hits
        assert larger.contextual_matched >= smaller.contextual_matched


def test_recall_matches_brute_force_recomputation():
    from refnms.nms import ProposalBudget

    rng = np.random.default_rng(83)
    for trial in range(20):
        examples = curve_fixture(rng, n_expressions=int(rng.integers(2, 6)))
        budgets = [3, 7]
        report = recall_curve(examples, "baseline_conf", budgets)
        for budget in budgets:
            hits_count = 0
            ctx_matched = ctx_total = 0
            for ex in examples:
                (kept,) = proposal_pipeline(
                    Window.of([(ex.detections, None)], 0.05), 1.0, NmsConfig(),
                    ProposalBudget.top_n(budget),
                )
                boxes = [Box(*box) for box in ex.detections.boxes[kept.rows].tolist()]
                referent, pseudo = targets_of(ex)
                if any(hits(b, referent) for b in boxes):
                    hits_count += 1
                if pseudo:
                    for region in pseudo:
                        ctx_total += 1
                        if any(hits(b, region) for b in boxes):
                            ctx_matched += 1
            row = report[("val", "baseline_conf", str(budget))]
            assert row.referent_hits == hits_count
            assert row.contextual_matched == ctx_matched
            assert row.contextual_total == ctx_total


GRID_LEVELS = st.sampled_from([0.05, 0.3, 0.5, 0.5, 0.7, 0.9])


@st.composite
def grid_box(draw):
    x1, y1 = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return Box(x1, y1, x1 + draw(st.integers(0, 5)), y1 + draw(st.integers(0, 5)))


@st.composite
def eval_sets(draw):
    """Examples on grid boxes, some sharing an image; IoUs of exactly 0.5 and
    tied confidences are common, and some confidences fall below the filter."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    images = []
    for i in range(draw(st.integers(1, 3))):
        rows = [
            (draw(grid_box()), draw(st.integers(0, 2)),
             draw(GRID_LEVELS | st.just(0.01)), rng.normal(size=2))
            for _ in range(draw(st.integers(0, 12)))
        ]
        images.append(image_of_rows(f"img{i}", rows, feature_dim=2))
    return [
        eval_example(f"e{e}", "val", draw(st.sampled_from(images)), draw(grid_box()),
                     tuple(draw(st.lists(grid_box(), max_size=3))), (1, 2))
        for e in range(draw(st.integers(1, 5)))
    ]


def brute_force_recall(examples, method, budget, params, nms_cfg):
    """(referent hits, contextual matched, contextual total): the budget applied
    to each keep list by a sort, then one `geometry.iou` per proposal and target."""
    ref_hits = ctx_matched = ctx_total = 0
    for ex in examples:
        relatedness = 1.0
        if method == "ref_nms":
            _, related = oracles.score_boxes(ex.detections, ex.token_indices, params, 0.05)
            relatedness = related[None]
        (kept,) = proposal_pipeline(Window.of([(ex.detections, None)], 0.05), relatedness, nms_cfg)
        scores = kept.scores.tolist()
        if budget == "real_case":
            chosen = [i for i, score in enumerate(scores) if score >= 0.65]
        else:
            chosen = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:budget]
        boxes = [Box(*ex.detections.boxes[kept.rows[i]].tolist()) for i in chosen]
        referent, pseudo = targets_of(ex)
        ref_hits += any(hits(b, referent) for b in boxes)
        ctx_matched += sum(any(hits(b, region) for b in boxes) for region in pseudo)
        ctx_total += len(pseudo)
    return ref_hits, ctx_matched, ctx_total


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(eval_sets(), st.sampled_from(["baseline_conf", "ref_nms"]), st.booleans())
def test_recall_curve_matches_a_brute_force_iou_oracle(examples, method, cross_class):
    config = ModelConfig(vocab_size=4, feature_dim=2, embed_dim=2, hidden_size=2)
    params = init_parameters(config, 3)
    nms_cfg = NmsConfig(per_class=not cross_class)
    budgets = [0, 1, 3, 20, "real_case"]
    report = recall_curve(examples, method, budgets, nms_cfg=nms_cfg, params=params)
    for budget in budgets:
        row = report[("val", method, str(budget))]
        assert (row.referent_hits, row.contextual_matched, row.contextual_total) == (
            brute_force_recall(examples, method, budget, params, nms_cfg)
        ), budget


def test_baseline_runs_nms_once_per_image(monkeypatch):
    # NMS work is counted as the perfbench tracer counts it: boxes into and
    # rows kept by `per_class_nms`; each image's boxes go in, and its rows
    # are kept, once however many expressions share it
    import refnms.nms as nms

    rng = np.random.default_rng(85)
    first = curve_fixture(rng, n_expressions=3)
    second = [
        eval_example(f"{ex.expression_id}b", "val", ex.detections,
                     Box(*ex.detections.boxes[0].tolist()))
        for ex in first
    ]
    examples = first + second
    # the same examples, each with its own copy of its image
    apart = [
        EvalExample(ex.expression_id, "val", replace(ex.detections, image_id="img"), ex.targets)
        for ex in examples
    ]
    once = [
        (len(survivors(ex.detections, 0.05)),
         min(7, len(proposal_pipeline(Window.of([(ex.detections, None)], 0.05), 1.0)[0])))
        for ex in first
    ]
    calls = []
    per_class_nms = nms.per_class_nms

    def counted(boxes, *args, **kwargs):
        kept = per_class_nms(boxes, *args, **kwargs)
        calls.append((len(boxes), len(kept)))
        return kept

    monkeypatch.setattr(nms, "per_class_nms", counted)
    work = {}
    for name, these in (("shared", examples), ("apart", apart)):
        calls.clear()
        work[name] = recall_curve(these, "baseline_conf", [3, 7]), np.sum(calls, axis=0)
    assert work["shared"][0] == work["apart"][0]
    assert work["shared"][1].tolist() == np.sum(once, axis=0).tolist()
    assert work["apart"][1].tolist() == (2 * np.sum(once, axis=0)).tolist()


def test_expressions_without_pseudo_regions_leave_the_denominator():
    rng = np.random.default_rng(84)
    box = random_box(rng)
    with_pseudo = eval_example("e0", "val", image_of([record(box, 0.9)]), box, (box,))
    without = eval_example("e1", "val", image_of([record(box, 0.9)], "i2"), box)
    report = recall_curve([with_pseudo, without], "baseline_conf", [5])
    row = report[("val", "baseline_conf", "5")]
    assert row.contextual_total == 1
    assert row.referent_total == 2


def test_recall_curve_rejects_empty_or_mixed_splits():
    rng = np.random.default_rng(85)
    with pytest.raises(ValueError):
        recall_curve([], "baseline_conf", [5])
    box = random_box(rng)
    a = eval_example("e0", "val", image_of([record(box, 0.9)]), box)
    b = eval_example("e1", "train", image_of([record(box, 0.9)], "i2"), box)
    with pytest.raises(ValueError, match="split"):
        recall_curve([a, b], "baseline_conf", [5])


def test_recall_curve_real_case_uses_score_threshold():
    rng = np.random.default_rng(86)
    strong = random_box(rng)
    weak = Box(strong.x1 + 200, strong.y1, strong.x2 + 200, strong.y2)
    records = [record(strong, 0.9), record(weak, 0.3)]
    # referent is the weak box: visible at top-5 but absent in the real case
    ex = eval_example("e0", "val", image_of(records), weak)
    report = recall_curve([ex], "baseline_conf", [5, "real_case"], real_case_min_score=0.65)
    assert report[("val", "baseline_conf", "5")].referent_hits == 1
    assert report[("val", "baseline_conf", "real_case")].referent_hits == 0


def test_higher_similarity_threshold_shrinks_contextual_denominator():
    table = EmbeddingTable(
        2, {"cat": np.array([1.0, 0.0]), "dog": np.array([0.8, 0.6]), "the": np.array([0.1, 0.1])}
    )
    expr = ExpressionRecord("e0", "img", ("the", "cat"), ("DET", "NOUN"), Box(0, 0, 10, 10), "val")
    regions = {
        "img": [
            GroundTruthRegion("r1", "img", Box(0, 0, 10, 10), "cat"),
            GroundTruthRegion("r2", "img", Box(20, 0, 30, 10), "dog"),  # cosine 0.8
        ]
    }
    detections = {"img": image_of([record(Box(0, 0, 10, 10), 0.9)], "img")}
    loose = build_eval_set([expr], detections, regions, table, similarity_threshold=0.4)
    strict = build_eval_set([expr], detections, regions, table, similarity_threshold=0.9)
    assert len(loose[0].targets) == 1 + 2
    assert len(strict[0].targets) == 1 + 1


# report emission ------------------------------------------------------------------


def test_empty_report_writes_header_only(tmp_path):
    path = tmp_path / "report.csv"
    write_report({}, path)
    content = path.read_text().strip().splitlines()
    assert len(content) == 1
    assert content[0].startswith("split,method,budget,referent_recall")


def test_report_rows_round_trip_through_csv(tmp_path):
    report = {("val", "baseline_conf", "10"): RecallRow(2, 3, 5, 8)}
    path = tmp_path / "report.csv"
    write_report(report, path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["split"] == "val"
    assert row["budget"] == "10"
    assert row["referent_hits"] == "2"
    assert row["referent_total"] == "3"
    assert row["contextual_matched"] == "5"


def test_two_thirds_renders_with_two_decimals(tmp_path):
    report = {("val", "baseline_conf", "5"): RecallRow(2, 3, 0, 0)}
    path = tmp_path / "report.csv"
    write_report(report, path)
    line = path.read_text().strip().splitlines()[1]
    assert ",66.67," in line
    assert line.endswith(",0.00,0,0")


def test_recall_row_validates_counts():
    with pytest.raises(ValueError):
        RecallRow(4, 3, 0, 0)
    with pytest.raises(ValueError):
        RecallRow(0, 0, 2, 1)
