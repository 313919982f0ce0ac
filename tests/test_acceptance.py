"""Acceptance criteria, one test per criterion.

Each criterion prints a single `ACCEPTANCE <n> (<name>): PASS|FAIL` line; run
with `pytest tests/test_acceptance.py -s` to see them live. The synthetic
end-to-end experiment (criteria 6 and 8) drives the real CLI twice into
separate directories and compares artifacts byte for byte.
"""

import csv
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from oracles import eval_example, greedy_nms, hits, image_of_rows, targets_of
from refnms import autodiff as ad
from refnms.autodiff import Node
from refnms.cli import EXIT_OK, main
from refnms.evaluation import recall_curve
from refnms.geometry import Box, box_array, iou
from refnms.ingest import group_regions, load_embeddings, load_expressions, load_regions
from refnms.model import ModelConfig, Window, init_parameters, relatedness_forward
from refnms.nms import NmsConfig, ProposalBudget, proposal_pipeline
from refnms.objectives import (
    RankingConfig,
    assign_labels,
    binary_xe,
    overlap_bin,
    ranking_loss,
    sample_pairs,
)
from refnms.pseudo_gt import generate_pseudo_gt


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def random_box(rng, span=80.0):
    x1, y1 = rng.uniform(0, span, size=2)
    w, h = rng.uniform(3, 40, size=2)
    return Box(x1, y1, x1 + w, y1 + h)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness"):
        started = time.monotonic()
        rng = np.random.default_rng(100)
        params = init_parameters(
            ModelConfig(vocab_size=9, feature_dim=5, embed_dim=6, hidden_size=4), seed=100
        )
        records = []
        for _ in range(3):
            box = random_box(rng)
            records.append(
                (box, int(rng.integers(3)), float(rng.uniform(0.1, 1.0)),
                 rng.normal(size=5))
            )
        image = image_of_rows("img", records)
        indices = [int(i) for i in rng.integers(1, 9, size=4)]
        # foreground on the first box gives a mix of positive and negative labels
        foreground = box_array([records[0][0]])
        _, bins = assign_labels(image.boxes, foreground)

        window = Window.of([(image, indices)], 0.0)

        def loss():
            return binary_xe(relatedness_forward(window, params), bins > 0)

        inputs = list(params.named_parameters().values())
        worst = ad.grad_check(loss, inputs, step=1e-5)
        elapsed = time.monotonic() - started
        assert worst < 1e-4, f"max relative error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# -- criterion 2 -------------------------------------------------------------


def exhaustive_nms(items, threshold):
    alive = list(range(len(items)))
    kept = []
    while alive:
        best = alive[0]
        for j in alive[1:]:
            if items[j][1] > items[best][1] or (items[j][1] == items[best][1] and j < best):
                best = j
        kept.append(best)
        alive = [j for j in alive if j != best and iou(items[best][0], items[j][0]) <= threshold]
    return kept


def test_criterion_2_nms_oracle_equivalence():
    with criterion(2, "NMS oracle equivalence"):
        started = time.monotonic()
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(1, 33))
            items = [(random_box(rng), float(rng.uniform(0, 1))) for _ in range(n)]
            threshold = float(rng.uniform(0.1, 0.9))
            assert greedy_nms(items, threshold) == exhaustive_nms(items, threshold), seed
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_overlap_quantization_table():
    with criterion(3, "overlap quantization table"):
        for i in range(101):
            rho = i / 100
            exact = math.ceil(
                max(Fraction(0), Fraction(i, 100) - Fraction(1, 2)) / Fraction(1, 10)
            )
            assert overlap_bin(rho) == exact, f"rho={rho}"
        assert overlap_bin(0.5) == 0
        assert overlap_bin(1.0) == 5


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_loss_oracles():
    with criterion(4, "loss oracles"):
        # binary XE hand values
        loss = binary_xe(Node(np.array([0.5])), [1])
        assert abs(loss.value.item() - (-math.log(0.5))) < 1e-9
        loss = binary_xe(Node(np.array([0.9, 0.1])), [1, 0])
        assert abs(loss.value.item() - (-math.log(0.9))) < 1e-9

        # constructed fixture spanning every overlap bin
        overlaps = (0.0, 0.2, 0.45, 0.5, 0.52, 0.58, 0.61, 0.69, 0.75, 0.85, 0.95, 1.0)
        bins = [overlap_bin(r) for r in overlaps]
        rng = np.random.default_rng(4)
        scores = rng.uniform(0, 1, size=len(overlaps))
        cfg = RankingConfig(margin=0.1, max_negatives=3)
        pairs = sample_pairs(np.array(bins), scores, cfg)
        assert pairs, "fixture must generate pairs"
        per_positive: dict[int, list[int]] = {}
        for neg, pos in pairs:
            assert overlaps[neg] < overlaps[pos], (neg, pos)
            per_positive.setdefault(pos, []).append(neg)
        for pos, negatives in per_positive.items():
            assert len(negatives) <= cfg.max_negatives
            # exhaustively: these are exactly the top-scoring strictly-lower-bin boxes
            eligible = [i for i, b in enumerate(bins) if b < bins[pos]]
            eligible.sort(key=lambda i: (-scores[i], i))
            assert negatives == eligible[: cfg.max_negatives]

        # ranking loss equals brute force over the emitted pairs, exactly
        node = Node(scores)
        loss = ranking_loss(pairs, node, cfg)
        terms = [max(0.0, float(scores[i] - scores[j]) + cfg.margin) for i, j in pairs]
        assert loss.value.item() == float(np.mean(terms))


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_fusion_identity():
    with criterion(5, "fusion identity under constant relatedness"):
        for seed in range(50):
            rng = np.random.default_rng(2000 + seed)
            n = int(rng.integers(1, 25))
            records = [
                (random_box(rng), int(rng.integers(4)), float(rng.uniform(0, 1)),
                 np.zeros(2))
                for _ in range(n)
            ]
            image = image_of_rows("img", records)
            k = float(rng.uniform(0.05, 1.0))
            nms_cfg = NmsConfig(iou_threshold=float(rng.uniform(0.2, 0.7)))
            window = Window.of([(image, None)], 0.05)
            (fused,) = proposal_pipeline(window, k, nms_cfg)
            (base,) = proposal_pipeline(window, 1.0, nms_cfg)
            assert [(records[i][0], records[i][1]) for i in fused.rows] == [
                (records[i][0], records[i][1]) for i in base.rows
            ], seed


# -- criteria 6 + 8: the synthetic experiment ---------------------------------


def full_run(root):
    data = root / "data"
    code = main(
        ["synth-data", "--out-dir", str(data), "--images", "250", "--categories", "8",
         "--boxes-per-image", "20", "--noise", "0.1", "--seed", "7"]
    )
    assert code == EXIT_OK
    ckpt = root / "model.ckpt"
    code = main(
        ["train",
         "--detections", str(data / "detections.tsv"),
         "--expressions", str(data / "expressions.tsv"),
         "--regions", str(data / "regions.tsv"),
         "--embeddings", str(data / "embeddings.txt"),
         "--out", str(ckpt), "--loss", "xe", "--epochs", "5", "--seed", "7",
         "--hidden-size", "16"]
    )
    assert code == EXIT_OK
    reports = {}
    for method, extra in (("baseline_conf", []), ("ref_nms", ["--checkpoint", str(ckpt)])):
        out = root / f"{method}.csv"
        code = main(
            ["eval-recall",
             "--detections", str(data / "detections.tsv"),
             "--expressions", str(data / "expressions.tsv"),
             "--regions", str(data / "regions.tsv"),
             "--embeddings", str(data / "embeddings.txt"),
             "--split", "val", "--method", method, "--budgets", "5,50",
             "--out", str(out), *extra]
        )
        assert code == EXIT_OK
        reports[method] = out
    return data, ckpt, reports


@pytest.fixture(scope="module")
def synthetic_experiment(tmp_path_factory):
    runs = []
    for tag in ("run1", "run2"):
        root = tmp_path_factory.mktemp(tag)
        started = time.monotonic()
        data, ckpt, reports = full_run(root)
        runs.append(
            {"data": data, "ckpt": ckpt, "reports": reports,
             "elapsed": time.monotonic() - started}
        )
    return runs


def read_referent_recall(path):
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["budget"]] = float(row["referent_recall"])
    return out


def test_criterion_6_synthetic_end_to_end_gain(synthetic_experiment):
    with criterion(6, "synthetic end-to-end gain"):
        run = synthetic_experiment[0]
        assert run["elapsed"] < 300.0, f"took {run['elapsed']:.0f}s"
        baseline = read_referent_recall(run["reports"]["baseline_conf"])
        refnms = read_referent_recall(run["reports"]["ref_nms"])
        gain_at_5 = refnms["5"] - baseline["5"]
        assert gain_at_5 >= 10.0, f"gain at N=5 is {gain_at_5:.2f} points"
        assert baseline["50"] >= 95.0, f"baseline at N=50 is {baseline['50']:.2f}%"
        assert refnms["50"] >= 95.0, f"ref_nms at N=50 is {refnms['50']:.2f}%"


def test_criterion_8_determinism(synthetic_experiment):
    with criterion(8, "determinism of the full run"):
        run1, run2 = synthetic_experiment
        assert run1["ckpt"].read_bytes() == run2["ckpt"].read_bytes()
        for method in ("baseline_conf", "ref_nms"):
            assert (
                run1["reports"][method].read_bytes() == run2["reports"][method].read_bytes()
            ), method


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_pseudo_gt_monotonicity(synthetic_experiment):
    with criterion(7, "pseudo ground-truth monotonicity"):
        data = synthetic_experiment[0]["data"]
        table = load_embeddings(data / "embeddings.txt")
        regions_by_image = group_regions(load_regions(data / "regions.tsv"))
        expressions = load_expressions(data / "expressions.tsv")[:200]
        for expr in expressions:
            regions = regions_by_image[expr.image_id]
            previous = None
            for gamma in (0.2, 0.4, 0.6, 0.8):
                current = {r.region_id for r in generate_pseudo_gt(expr, regions, table, gamma)}
                if previous is not None:
                    assert current <= previous, expr.expression_id
                previous = current
            nouns = {t for t, tag in zip(expr.tokens, expr.pos_tags) if tag == "NOUN"}
            expected = {r.region_id for r in regions if r.category_name in nouns}
            at_default = {r.region_id for r in generate_pseudo_gt(expr, regions, table, 0.4)}
            assert at_default == expected, expr.expression_id


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_recall_harness_oracle():
    with criterion(9, "recall harness oracle"):
        budgets = [5, 10, 20, 50]
        for trial in range(20):
            rng = np.random.default_rng(3000 + trial)
            examples = []
            for e in range(int(rng.integers(2, 7))):
                records = [
                    (random_box(rng), int(rng.integers(3)),
                     float(rng.uniform(0.05, 1.0)), np.zeros(2))
                    for _ in range(int(rng.integers(3, 16)))
                ]
                referent = records[int(rng.integers(len(records)))][0]
                pseudo = tuple(r[0] for r in records if rng.random() < 0.3)
                examples.append(
                    eval_example(f"e{e}", "val", image_of_rows(f"i{e}", records),
                                 referent, pseudo)
                )
            report = recall_curve(examples, "baseline_conf", budgets)
            previous_hits = -1
            for budget in budgets:
                # brute force from per-expression booleans
                expected_hits = 0
                expected_ctx = [0, 0]
                for ex in examples:
                    (kept,) = proposal_pipeline(
                        Window.of([(ex.detections, None)], 0.05), 1.0, NmsConfig(),
                        ProposalBudget.top_n(budget),
                    )
                    boxes = [Box(*box) for box in ex.detections.boxes[kept.rows].tolist()]
                    referent, pseudo = targets_of(ex)
                    expected_hits += any(hits(b, referent) for b in boxes)
                    if pseudo:
                        for region in pseudo:
                            expected_ctx[1] += 1
                            expected_ctx[0] += any(hits(b, region) for b in boxes)
                row = report[("val", "baseline_conf", str(budget))]
                assert row.referent_hits == expected_hits
                assert (row.contextual_matched, row.contextual_total) == tuple(expected_ctx)
                assert row.referent_hits >= previous_hits
                previous_hits = row.referent_hits
