"""Each benchmark check passes on a correct output and fails on a corrupted one.

Run with `python3 -m pytest perfbench`.
"""

import json
from pathlib import Path

import numpy as np

import checks
import run

IMAGE = checks.ImageBoxes(
    boxes=np.array([
        [0.0, 0.0, 10.0, 10.0],
        [1.0, 1.0, 11.0, 11.0],    # overlaps box 0 above 0.3
        [20.0, 20.0, 30.0, 30.0],
        [21.0, 20.0, 31.0, 30.0],  # overlaps box 2 above 0.3, same confidence
        [50.0, 50.0, 60.0, 60.0],
    ]),
    category_ids=np.array([0, 1, 0, 0, 1]),
    confidences=np.array([0.9, 0.8, 0.5, 0.5, 0.5]),
)
EXPR = checks.Expression("e0", "img", "val", (20.0, 20.0, 30.0, 30.0),
                         ("the", "dog", "near", "the", "cat"), ("DET", "NOUN", "ADP", "DET", "NOUN"))
REGIONS = {"img": [((20.0, 20.0, 30.0, 30.0), "dog"), ((50.0, 50.0, 60.0, 60.0), "cat"),
                   ((80.0, 80.0, 90.0, 90.0), "cow")]}
OPTIONS = dict(min_confidence=0.05, nms_iou=0.3, cross_class=True)


def write_proposals(path: Path, rows) -> dict:
    lines = [f"e0\t{' '.join(map(repr, box))}\t{cat}\t{conf!r}\t{rel!r}\t{fused!r}"
             for box, cat, conf, rel, fused in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return checks.read_apply(path)


def baseline_rows():
    keep = checks.nms_keep(IMAGE, IMAGE.confidences, min_confidence=0.05, iou_threshold=0.3,
                           cross_class=True)
    return [(tuple(IMAGE.boxes[i].tolist()), int(IMAGE.category_ids[i]), float(IMAGE.confidences[i]),
             1.0, float(IMAGE.confidences[i])) for i in keep]


def test_oracle_nms_keeps_expected_boxes_with_index_tie_break():
    keep = checks.nms_keep(IMAGE, IMAGE.confidences, min_confidence=0.05, iou_threshold=0.3,
                           cross_class=True)
    assert keep.tolist() == [0, 2, 4]  # box 2 beats its equal-score twin 3 by index
    per_class = checks.nms_keep(IMAGE, IMAGE.confidences, min_confidence=0.05,
                                iou_threshold=0.3, cross_class=False)
    assert per_class.tolist() == [0, 1, 2, 4]


def test_dropped_kept_box_fails_the_oracle_check(tmp_path):
    rows = baseline_rows()
    assert checks.check_baseline_oracle(write_proposals(tmp_path / "ok.tsv", rows), [EXPR],
                                        {"img": IMAGE}, **OPTIONS) == []
    dropped = write_proposals(tmp_path / "bad.tsv", rows[:1] + rows[2:])
    assert checks.check_baseline_oracle(dropped, [EXPR], {"img": IMAGE}, **OPTIONS)


def test_recall_count_off_by_one_fails_the_recount_check(tmp_path):
    counts = checks.baseline_recounts([EXPR], {"img": IMAGE}, REGIONS, ["1", "10"],
                                      real_case_min_score=0.65, **OPTIONS)
    assert counts == {"1": (0, 0, 2), "10": (1, 2, 2)}
    csv = tmp_path / "recall.csv"
    csv.write_text("split,method,budget,referent_recall,referent_hits,referent_total,"
                   "contextual_recall,contextual_matched,contextual_total\n"
                   "val,baseline_conf,10,100.00,1,1,100.00,2,2\n", encoding="utf-8")
    row = checks.read_report(csv)["10"]
    assert checks.check_recount_matches(counts["10"], row, "test") == []
    row["referent_hits"] = str(int(row["referent_hits"]) - 1)
    assert checks.check_recount_matches(counts["10"], row, "test")


def test_swapped_fused_score_fails_the_property_check(tmp_path):
    rows = [((0.0, 0.0, 10.0, 10.0), 0, 0.9, 0.25, 0.9 * 0.25),
            ((20.0, 20.0, 30.0, 30.0), 0, 0.5, 0.75, 0.5 * 0.75)]
    ok = write_proposals(tmp_path / "ok.tsv", rows)
    assert checks.check_apply_properties(ok, nms_iou=0.3, cross_class=False, top_n=5) == []
    swapped = [rows[0][:4] + (rows[1][4],), rows[1][:4] + (rows[0][4],)]
    bad = write_proposals(tmp_path / "bad.tsv", swapped)
    assert checks.check_apply_properties(bad, nms_iou=0.3, cross_class=False, top_n=5)


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
