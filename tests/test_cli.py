"""CLI: flag documentation, exit codes, determinism, command round trips."""

import hashlib
import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from refnms import cli, evaluation, geometry, nms
from refnms.cli import EXIT_DATA, EXIT_MISSING_FILE, EXIT_OK, build_parser, main
from refnms.ingest import sidecar_path
from refnms.model import DEFAULT_MIN_CONFIDENCE
from refnms.objectives import RankingConfig
from refnms.pseudo_gt import DEFAULT_SIMILARITY_THRESHOLD, generate_pseudo_gt
from refnms.trainer import TrainConfig, load_checkpoint


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    code = main(
        [
            "synth-data", "--out-dir", str(root), "--images", "16", "--categories", "5",
            "--boxes-per-image", "8", "--seed", "3",
        ]
    )
    assert code == EXIT_OK
    return root


def data_args(root):
    return [
        "--detections", str(root / "detections.tsv"),
        "--expressions", str(root / "expressions.tsv"),
        "--regions", str(root / "regions.tsv"),
        "--embeddings", str(root / "embeddings.txt"),
    ]


def test_help_documents_every_flag(capsys):
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    for name, sub in subparsers.choices.items():
        text = sub.format_help()
        for action in sub._actions:
            for option in action.option_strings:
                assert option in text, f"{name}: {option} missing from --help"
        assert "exit codes" in text


def test_version_prints_artifact_and_format_versions(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "refnms 0.1.0" in out
    assert "dump v1" in out
    assert "checkpoint v3" in out


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["synth-data", "--no-such-flag"])
    assert excinfo.value.code == 2


def test_missing_file_exit_code(tmp_path):
    code = main(
        [
            "pseudo-gt",
            "--expressions", str(tmp_path / "absent.tsv"),
            "--regions", str(tmp_path / "absent2.tsv"),
            "--embeddings", str(tmp_path / "absent3.txt"),
            "--out", str(tmp_path / "out.tsv"),
        ]
    )
    assert code == EXIT_MISSING_FILE


def test_malformed_file_exit_code(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("not a header\n")
    code = main(
        ["apply", "--detections", str(bad), "--expressions", str(bad),
         "--out", str(tmp_path / "o.tsv"), "--baseline"]
    )
    assert code == EXIT_DATA


def test_malformed_dump_exits_with_data_error_naming_the_line_and_leaves_no_sidecar(
        tmp_path, capsys):
    dump = tmp_path / "dets.tsv"
    line = "img\t0 0 10 10\t1\tdog\t{}\t1.0"
    dump.write_text("#refnms-dets v1 feature_dim=1\n" + line.format(0.5) + "\n"
                    + line.format(1.5) + "\n")
    exprs = tmp_path / "exprs.tsv"
    exprs.write_text("e1\timg\tval\t0 0 10 10\tthe dog\n")
    capsys.readouterr()
    code = main(["apply", "--detections", str(dump), "--expressions", str(exprs),
                 "--out", str(tmp_path / "o.tsv"), "--baseline"])
    assert code == EXIT_DATA
    assert f"{dump}:3: confidence 1.5 outside [0, 1]" in capsys.readouterr().err
    assert not sidecar_path(dump).exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dets.tsv", "exprs.tsv"]


def test_synth_data_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        code = main(
            ["synth-data", "--out-dir", str(tmp_path / sub), "--images", "6",
             "--categories", "4", "--boxes-per-image", "6", "--seed", "11"]
        )
        assert code == EXIT_OK
    for name in ("detections.tsv", "expressions.tsv", "regions.tsv", "embeddings.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# SHA-256 of each file `synth-data` writes with its default flags (seed 7):
# the acceptance fixture and perfbench's `synth_small` inputs come from it
SYNTH_DATA_DEFAULT_SHA256 = {
    "detections.tsv": "55df944c096a0a875c90ca0226a4e6f3e3b8d4cb68ca84adea8f5cadaa5b4bcb",
    "expressions.tsv": "8776847779e1ba393cbca97b280d3dd7436ddb0636dac2e1ddfaac0f82a89725",
    "regions.tsv": "fb7e2ea13d471cbe8a2a0d41d4cb4d3cf327adc09327ef15fab4a4b0b5f1b262",
    "embeddings.txt": "2a7146574c921d0a9232ec3b33035e2f3fdc49d541c618a00dcda8d711f594b0",
}


def test_synth_data_default_output_is_pinned(tmp_path):
    assert main(["synth-data", "--out-dir", str(tmp_path)]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SYNTH_DATA_DEFAULT_SHA256}
    assert digests == SYNTH_DATA_DEFAULT_SHA256


# SHA-256 of `pseudo-gt`'s output on that set, with its default threshold
PSEUDO_GT_DEFAULT_SHA256 = "3f490ae6d2f4059795f30faa264c66e88748042245c83d28f2c5f9a64ec386ed"


def test_pseudo_gt_default_output_is_pinned(tmp_path):
    # each line lists the matched region ids sorted, whatever the regions' order
    assert main(["synth-data", "--out-dir", str(tmp_path)]) == EXIT_OK
    regions = tmp_path / "regions.tsv"
    reversed_regions = tmp_path / "reversed.tsv"
    reversed_regions.write_text("".join(reversed(regions.read_text().splitlines(True))))
    for regions_file in (regions, reversed_regions):
        out = tmp_path / "pseudo.tsv"
        assert main(
            ["pseudo-gt", "--expressions", str(tmp_path / "expressions.tsv"),
             "--regions", str(regions_file), "--embeddings", str(tmp_path / "embeddings.txt"),
             "--out", str(out)]
        ) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PSEUDO_GT_DEFAULT_SHA256


# SHA-256 of `eval-recall --method baseline_conf --budgets 1,5,10,real_case`'s
# CSV on that set, val split
EVAL_RECALL_DEFAULT_SHA256 = "68b41fdd6cb79b8ca5e09d677765e9c147de1491764c6474164fba11e4d61d73"


def test_eval_recall_default_output_is_pinned(tmp_path):
    # recall counts targets, whatever the regions' order
    assert main(["synth-data", "--out-dir", str(tmp_path)]) == EXIT_OK
    regions = tmp_path / "regions.tsv"
    reversed_regions = tmp_path / "reversed.tsv"
    reversed_regions.write_text("".join(reversed(regions.read_text().splitlines(True))))
    for regions_file in (regions, reversed_regions):
        out = tmp_path / "recall.csv"
        assert main(
            ["eval-recall", *data_args(tmp_path), "--regions", str(regions_file),
             "--split", "val", "--method", "baseline_conf", "--budgets", "1,5,10,real_case",
             "--out", str(out)]
        ) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EVAL_RECALL_DEFAULT_SHA256


def test_pseudo_gt_command_emits_expression_lines(dataset, tmp_path):
    out = tmp_path / "pseudo.tsv"
    code = main(
        ["pseudo-gt", "--expressions", str(dataset / "expressions.tsv"),
         "--regions", str(dataset / "regions.tsv"),
         "--embeddings", str(dataset / "embeddings.txt"), "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    n_expressions = len((dataset / "expressions.tsv").read_text().strip().splitlines())
    assert len(lines) == n_expressions
    for line in lines:
        expr_id, _, region_field = line.partition("\t")
        assert expr_id
        if region_field:
            assert all(r for r in region_field.split(","))


def test_apply_stub_relatedness_one_matches_baseline_byte_for_byte(dataset, tmp_path):
    stub_out = tmp_path / "stub.tsv"
    base_out = tmp_path / "base.tsv"
    common = ["--detections", str(dataset / "detections.tsv"),
              "--expressions", str(dataset / "expressions.tsv"), "--split", "val"]
    assert main(["apply", *common, "--out", str(stub_out), "--stub-relatedness", "1.0"]) == EXIT_OK
    assert main(["apply", *common, "--out", str(base_out), "--baseline"]) == EXIT_OK
    assert stub_out.read_bytes() == base_out.read_bytes()
    first = stub_out.read_text().splitlines()[0].split("\t")
    assert len(first) == 6  # id, box, category, confidence, relatedness, fused


def test_apply_requires_exactly_one_mode(dataset, tmp_path, capsys):
    # no mode, two modes, or two budgets are usage errors
    common = ["apply", "--detections", str(dataset / "detections.tsv"),
              "--expressions", str(dataset / "expressions.tsv"), "--out", str(tmp_path / "o.tsv")]
    for flags, message in [
        ([], "one of the arguments --checkpoint --stub-relatedness --baseline is required"),
        (["--baseline", "--stub-relatedness", "0.5"], "not allowed with argument --baseline"),
        (["--baseline", "--top-n", "3", "--min-score", "0.2"],
         "argument --min-score: not allowed with argument --top-n"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main([*common, *flags])
        assert excinfo.value.code == 2, flags
        assert message in capsys.readouterr().err, flags
    assert not (tmp_path / "o.tsv").exists()


def test_eval_recall_refuses_a_checkpoint_without_ref_nms(dataset, tmp_path, capsys):
    # baseline_conf reads no model: a checkpoint there is a usage error, even
    # one that does not exist
    with pytest.raises(SystemExit) as excinfo:
        main(["eval-recall", *data_args(dataset), "--split", "val", "--method", "baseline_conf",
              "--checkpoint", str(tmp_path / "missing.ckpt"), "--out", str(tmp_path / "r.csv")])
    assert excinfo.value.code == 2
    assert "--checkpoint: not allowed with --method baseline_conf" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_train_then_eval_produces_well_formed_csv(dataset, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    code = main(
        ["train", *data_args(dataset), "--out", str(ckpt), "--loss", "xe",
         "--epochs", "1", "--seed", "5", "--hidden-size", "4"]
    )
    assert code == EXIT_OK
    assert ckpt.exists()
    csv_path = tmp_path / "recall.csv"
    code = main(
        ["eval-recall", *data_args(dataset), "--split", "val", "--method", "ref_nms",
         "--checkpoint", str(ckpt), "--budgets", "2,5,real", "--out", str(csv_path)]
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("split,method,budget")
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.startswith("val,ref_nms,")


def test_feature_dimension_mismatch_exits_with_data_error(dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(
        ["train", *data_args(dataset), "--out", str(ckpt), "--epochs", "1", "--hidden-size", "2"]
    ) == EXIT_OK
    # the same dump with each record's features cut to 3 dimensions
    header, *records = (dataset / "detections.tsv").read_text().splitlines()
    header, _, dim = header.rpartition("=")
    assert int(dim) > 3
    narrow = [f"{header}=3"]
    for line in records:
        fields = line.split("\t")
        fields[-1] = " ".join(fields[-1].split(" ")[:3])
        narrow.append("\t".join(fields))
    detections = tmp_path / "narrow.tsv"
    detections.write_text("\n".join(narrow) + "\n")
    args = ["--detections", str(detections), "--expressions", str(dataset / "expressions.tsv")]
    capsys.readouterr()
    code = main(["apply", *args, "--checkpoint", str(ckpt), "--out", str(tmp_path / "o.tsv")])
    assert code == EXIT_DATA
    assert "dimension 3" in capsys.readouterr().err
    code = main(
        ["eval-recall", *args, "--regions", str(dataset / "regions.tsv"),
         "--embeddings", str(dataset / "embeddings.txt"), "--split", "val",
         "--method", "ref_nms", "--checkpoint", str(ckpt), "--out", str(tmp_path / "r.csv")]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "dimension 3" in err and f"feature_dim {dim}" in err


@pytest.fixture(scope="module")
def checkpoint_bytes(dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("cli-model") / "model.ckpt"
    assert main(
        ["train", *data_args(dataset), "--out", str(ckpt), "--epochs", "1", "--hidden-size", "2"]
    ) == EXIT_OK
    return ckpt.read_bytes()


def apply_with_header_edit(dataset, checkpoint_bytes, tmp_path, edit):
    """Exit code of `apply` on a checkpoint whose header `edit` changed, and its path."""
    magic, header, payload = checkpoint_bytes.split(b"\n", 2)
    fields = json.loads(header)
    edit(fields)
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(b"\n".join([magic, json.dumps(fields).encode(), payload]))
    code = main(
        ["apply", "--detections", str(dataset / "detections.tsv"),
         "--expressions", str(dataset / "expressions.tsv"),
         "--checkpoint", str(ckpt), "--out", str(tmp_path / "o.tsv")]
    )
    return code, ckpt


@pytest.mark.parametrize("key", ["model_config", "arrays", "vocab", "optimizer_step"])
def test_checkpoint_without_a_header_key_exits_with_data_error(
    dataset, checkpoint_bytes, tmp_path, capsys, key
):
    capsys.readouterr()
    code, ckpt = apply_with_header_edit(
        dataset, checkpoint_bytes, tmp_path, lambda fields: fields.pop(key)
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"'{key}'" in err


def test_reordered_checkpoint_arrays_exit_with_data_error(
    dataset, checkpoint_bytes, tmp_path, capsys
):
    def swap_first_two(fields):
        arrays = fields["arrays"]
        arrays[0], arrays[1] = arrays[1], arrays[0]

    capsys.readouterr()
    code, ckpt = apply_with_header_edit(dataset, checkpoint_bytes, tmp_path, swap_first_two)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(ckpt) in err and "order save_checkpoint writes" in err


def test_malformed_checkpoint_word_list_exits_naming_the_file(
    dataset, checkpoint_bytes, tmp_path, capsys
):
    def misspell_unk(fields):
        fields["vocab"]["words"][1] = "<unk>"

    capsys.readouterr()
    code, ckpt = apply_with_header_edit(dataset, checkpoint_bytes, tmp_path, misspell_unk)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(ckpt) in err and "word list" in err


def test_version_1_checkpoint_exits_with_data_error_asking_to_retrain(
    dataset, checkpoint_bytes, tmp_path, capsys
):
    # v2 too: load_checkpoint refuses on the header's version, before the arrays
    for version in (1, 2):
        capsys.readouterr()
        code, ckpt = apply_with_header_edit(
            dataset, checkpoint_bytes, tmp_path,
            lambda fields, v=version: fields.update(format_version=v),
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"version {version}" in err
        assert "v3" in err and "retrain" in err


@pytest.mark.parametrize("limit", [0, -1])
def test_checkpoint_sentence_limit_below_one_exits_with_data_error(
    dataset, checkpoint_bytes, tmp_path, capsys, limit
):
    # -1 once dropped each expression's last token, 0 failed on an empty sequence
    capsys.readouterr()
    code, ckpt = apply_with_header_edit(
        dataset, checkpoint_bytes, tmp_path,
        lambda fields: fields["vocab"].update(max_sentence_length=limit),
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(ckpt) in err and "'vocab.max_sentence_length' must be >= 1" in err
    assert not (tmp_path / "o.tsv").exists()


def test_non_finite_checkpoint_value_exits_with_data_error_naming_the_array(
    dataset, checkpoint_bytes, tmp_path, capsys
):
    magic, header, payload = checkpoint_bytes.split(b"\n", 2)
    offset = 0
    for entry in json.loads(header)["arrays"]:
        if entry["name"] == "mlp_b.b2":
            break
        offset += math.prod(entry["shape"])
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[offset + 1] = np.nan
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(b"\n".join([magic, header, values.tobytes()]))
    capsys.readouterr()
    code = main(
        ["apply", "--detections", str(dataset / "detections.tsv"),
         "--expressions", str(dataset / "expressions.tsv"),
         "--checkpoint", str(ckpt), "--out", str(tmp_path / "o.tsv")]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(ckpt) in err and "non-finite" in err and "'mlp_b.b2'" in err


def test_duplicate_expression_id_exits_with_data_error_naming_both_lines(tmp_path, capsys):
    detections = tmp_path / "dets.tsv"
    detections.write_text("#refnms-dets v1 feature_dim=1\nimg0\t0 0 10 10\t0\tcat\t0.8\t0.5\n")
    expressions = tmp_path / "expr.tsv"
    expressions.write_text(
        "e0\timg0\tval\t0 0 10 10\tthe cat\n"
        "e1\timg0\tval\t0 0 10 10\ta cat\n"
        "e0\timg0\tval\t0 0 10 10\tthat cat\n"
    )
    capsys.readouterr()
    code = main(["apply", "--detections", str(detections), "--expressions", str(expressions),
                 "--baseline", "--out", str(tmp_path / "o.tsv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{expressions}:3:" in err and "'e0'" in err and "line 1" in err
    assert not (tmp_path / "o.tsv").exists()


def test_duplicate_region_id_exits_with_data_error_naming_both_lines(dataset, tmp_path, capsys):
    # regions are matched by id, so a duplicate would let one region's match
    # make the other a pseudo ground truth
    lines = (dataset / "regions.tsv").read_text().splitlines(keepends=True)
    first_id = lines[0].split("\t", 1)[0]
    rest = lines[3].split("\t", 1)[1]  # line 4: another region of the first one's image
    lines[3] = f"{first_id}\t{rest}"
    regions = tmp_path / "regions.tsv"
    regions.write_text("".join(lines))
    capsys.readouterr()
    code = main(["eval-recall", *data_args(dataset), "--regions", str(regions), "--split", "val",
                 "--method", "baseline_conf", "--budgets", "5",
                 "--out", str(tmp_path / "recall.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{regions}:4:" in err and f"'{first_id}'" in err and "line 1" in err
    assert not (tmp_path / "recall.csv").exists()


@pytest.mark.parametrize("field, column", [("expression_id", 0), ("image_id", 1)])
def test_empty_id_in_expressions_exits_with_data_error_naming_the_line(
    dataset, tmp_path, capsys, field, column
):
    # an empty expression id would start an output line with an empty field
    lines = (dataset / "expressions.tsv").read_text().splitlines(keepends=True)
    fields = lines[1].split("\t")
    fields[column] = ""
    lines[1] = "\t".join(fields)
    expressions = tmp_path / "expressions.tsv"
    expressions.write_text("".join(lines))
    for argv in (
        ["apply", *data_args(dataset)[:2], "--expressions", str(expressions), "--baseline"],
        ["eval-recall", *data_args(dataset), "--expressions", str(expressions), "--split", "val",
         "--method", "baseline_conf"],
    ):
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_DATA, argv[0]
        assert f"{expressions}:2: empty {field}" in capsys.readouterr().err, argv[0]
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, column", [("region_id", 0), ("image_id", 1)])
def test_empty_id_in_regions_exits_with_data_error_naming_the_line(
    dataset, tmp_path, capsys, field, column
):
    lines = (dataset / "regions.tsv").read_text().splitlines(keepends=True)
    fields = lines[2].split("\t")
    fields[column] = ""
    lines[2] = "\t".join(fields)
    regions = tmp_path / "regions.tsv"
    regions.write_text("".join(lines))
    capsys.readouterr()
    code = main(["eval-recall", *data_args(dataset), "--regions", str(regions), "--split", "val",
                 "--method", "baseline_conf", "--out", str(tmp_path / "recall.csv")])
    assert code == EXIT_DATA
    assert f"{regions}:3: empty {field}" in capsys.readouterr().err
    assert not (tmp_path / "recall.csv").exists()


@pytest.mark.parametrize("name", ["", "  "], ids=["empty", "whitespace"])
def test_region_category_without_a_word_exits_with_data_error_naming_the_line(
    dataset, tmp_path, capsys, name
):
    # such a region could never match a noun, so it would count in no target
    lines = (dataset / "regions.tsv").read_text().splitlines(keepends=True)
    fields = lines[2].split("\t")
    fields[3] = name + "\n"
    lines[2] = "\t".join(fields)
    regions = tmp_path / "regions.tsv"
    regions.write_text("".join(lines))
    for argv in (
        ["pseudo-gt", *data_args(dataset)[2:], "--regions", str(regions)],
        ["eval-recall", *data_args(dataset), "--regions", str(regions), "--split", "val",
         "--method", "baseline_conf"],
    ):
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_DATA, argv[0]
        assert f"{regions}:3: category name '{name}' has no word" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_eval_recall_baseline_needs_no_checkpoint(dataset, tmp_path):
    csv_path = tmp_path / "recall.csv"
    code = main(
        ["eval-recall", *data_args(dataset), "--split", "val", "--method", "baseline_conf",
         "--budgets", "5", "--out", str(csv_path)]
    )
    assert code == EXIT_OK
    assert "baseline_conf" in csv_path.read_text()


def test_eval_recall_refnms_without_checkpoint_fails(dataset, tmp_path, capsys):
    # a usage error, refused before any file is read
    with pytest.raises(SystemExit) as excinfo:
        main(["eval-recall", *data_args(dataset), "--split", "val", "--method", "ref_nms",
              "--budgets", "5", "--out", str(tmp_path / "r.csv")])
    assert excinfo.value.code == 2
    assert "--checkpoint: required with --method ref_nms" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_train_prints_each_epoch_line_as_the_epoch_ends(dataset, tmp_path, monkeypatch):
    # stdout is a block-buffered stream, as when piped; what reaches its raw
    # layer before epoch 1 trains must hold epoch 0's line
    import io

    import refnms.trainer as trainer

    written = bytearray()

    class Raw(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            written.extend(data)
            return len(data)

    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(Raw()), "utf-8"))
    out_before = []
    train_epoch = trainer.train_epoch

    def recording(*args):
        out_before.append(written.decode())
        return train_epoch(*args)

    monkeypatch.setattr(trainer, "train_epoch", recording)
    assert main(["train", *data_args(dataset), "--out", str(tmp_path / "m.ckpt"),
                 "--epochs", "2", "--hidden-size", "2"]) == EXIT_OK
    sys.stdout.flush()
    lines = written.decode().splitlines()
    assert [line.split(":")[0] for line in lines] == ["epoch 0", "epoch 1", "checkpoint"]
    assert out_before == ["", lines[0] + "\n"]


def test_train_resume_continues_the_run_byte_for_byte(dataset, tmp_path, capsys):
    # 2 epochs, then --resume to 4: the checkpoint of 4 straight epochs,
    # parameters, Adam moments and step included
    common = ["train", *data_args(dataset), "--hidden-size", "4", "--seed", "5"]
    straight, half, resumed = (tmp_path / name for name in ("4.ckpt", "2.ckpt", "2+2.ckpt"))
    assert main([*common, "--epochs", "4", "--out", str(straight)]) == EXIT_OK
    assert main([*common, "--epochs", "2", "--out", str(half)]) == EXIT_OK
    capsys.readouterr()
    assert main([*common, "--epochs", "4", "--resume", str(half), "--out", str(resumed)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["epoch 2", "epoch 3", "checkpoint"]
    assert resumed.read_bytes() == straight.read_bytes()


def test_train_resume_refuses_a_checkpoint_of_other_settings(dataset, tmp_path, capsys):
    common = ["train", *data_args(dataset), "--hidden-size", "4", "--seed", "5"]
    half = tmp_path / "half.ckpt"
    assert main([*common, "--epochs", "2", "--out", str(half)]) == EXIT_OK
    for flags, message in [
        (("--epochs", "4", "--seed", "6"), "another training config"),
        (("--epochs", "4", "--loss", "rank"), "another training config"),
        (("--epochs", "4", "--hidden-size", "6"), "does not match"),
        (("--epochs", "4", "--max-sentence-length", "3"), "vocabulary differs"),
        (("--epochs", "2",), "completed 2 epochs"),
    ]:
        out = tmp_path / "resumed.ckpt"
        capsys.readouterr()
        assert main([*common, *flags, "--resume", str(half), "--out", str(out)]) == EXIT_DATA
        assert message in capsys.readouterr().err, flags
        assert not out.exists()


def test_train_config_file_round_trip(dataset, tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text(
        "# comment line\n"
        "loss_kind = binary_xe\n"
        "epochs = 1\n"
        "seed = 9\n"
        "hidden_size = 4\n"
    )
    ckpt = tmp_path / "model.ckpt"
    code = main(["train", *data_args(dataset), "--out", str(ckpt), "--config", str(config)])
    assert code == EXIT_OK


def test_train_settings_take_flags_over_the_config_file_over_the_defaults(dataset, tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 1\nhidden_size = 4\nseed = 9\n")
    for flags, epochs, hidden_size in (((), 1, 4), (("--epochs", "2", "--hidden-size", "6"), 2, 6)):
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", *data_args(dataset), "--out", str(ckpt), "--config", str(config),
                     *flags])
        assert code == EXIT_OK
        _, _, vocab, header = load_checkpoint(ckpt, with_optimizer=False)
        assert header["epochs_completed"] == epochs
        assert header["model_config"]["hidden_size"] == hidden_size
        assert vocab.max_sentence_length == 10  # set by neither
        assert header["config_hash"] == TrainConfig(epochs=epochs, seed=9).config_hash()


def parser_default(command, flag):
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    return next(a.default for a in commands[command]._actions if flag in a.option_strings)


def test_defaults_have_one_declaration(dataset, monkeypatch):
    # each default is one object, read by the flag and by every library
    # function that has it (small ints are shared objects, so the sentence
    # limit is checked by changing its declaration)
    for command in ("apply", "eval-recall"):
        assert parser_default(command, "--min-confidence") is DEFAULT_MIN_CONFIDENCE
    assert TrainConfig.min_confidence is DEFAULT_MIN_CONFIDENCE
    for function in (evaluation.recall_curve, nms.keep_lists):
        assert inspect.signature(function).parameters["min_confidence"].default \
            is DEFAULT_MIN_CONFIDENCE
    assert parser_default("eval-recall", "--real-case-min-score") \
        is evaluation.DEFAULT_REAL_CASE_MIN_SCORE
    assert inspect.signature(evaluation.recall_curve).parameters["real_case_min_score"].default \
        is evaluation.DEFAULT_REAL_CASE_MIN_SCORE
    for command in ("pseudo-gt", "eval-recall"):
        assert parser_default(command, "--similarity-threshold") is DEFAULT_SIMILARITY_THRESHOLD
    assert TrainConfig.similarity_threshold is DEFAULT_SIMILARITY_THRESHOLD
    for function in (generate_pseudo_gt, evaluation.build_eval_set):
        assert inspect.signature(function).parameters["similarity_threshold"].default \
            is DEFAULT_SIMILARITY_THRESHOLD
    assert TrainConfig.margin is RankingConfig.margin
    assert TrainConfig().ranking_config() == RankingConfig()
    args = build_parser().parse_args(["train", *data_args(dataset), "--out", "m.ckpt"])
    monkeypatch.setattr(cli, "DEFAULT_MAX_SENTENCE_LENGTH", 7)
    monkeypatch.setattr(cli.ModelConfig, "hidden_size", 5)
    config, hidden_size, max_sentence_length = cli._resolve_train_settings(args)
    assert (hidden_size, max_sentence_length) == (5, 7)
    assert config.min_confidence is DEFAULT_MIN_CONFIDENCE
    assert config.similarity_threshold is DEFAULT_SIMILARITY_THRESHOLD
    assert config.margin is RankingConfig.margin


@pytest.mark.parametrize(
    "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
)
def test_config_file_lines_end_only_at_newlines(dataset, tmp_path, capsys, char):
    # as in every other input: a line ends at \n, \r\n or \r, not at other
    # characters that str.splitlines also breaks at
    config = tmp_path / "train.cfg"
    config.write_text(f"# note{char} more\nbatch_size = abc\n", encoding="utf-8")
    capsys.readouterr()
    code = main(
        ["train", *data_args(dataset), "--out", str(tmp_path / "m.ckpt"),
         "--config", str(config)]
    )
    assert code == EXIT_DATA
    assert f"{config}:2: batch_size: bad value 'abc'" in capsys.readouterr().err


def test_repeated_config_key_exits_with_data_error_naming_both_lines(dataset, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 1\nseed = 9\nepochs = 2\n")
    capsys.readouterr()
    ckpt = tmp_path / "m.ckpt"
    code = main(["train", *data_args(dataset), "--out", str(ckpt), "--config", str(config)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{config}:3:" in err and "'epochs'" in err and "line 1" in err
    assert not ckpt.exists()


def test_train_rejects_unknown_config_key(dataset, tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text("no_such_option = 1\n")
    code = main(
        ["train", *data_args(dataset), "--out", str(tmp_path / "m.ckpt"),
         "--config", str(config)]
    )
    assert code == EXIT_DATA


@pytest.mark.parametrize(
    "line, message",
    [
        ("batch_size = abc", "batch_size: bad value 'abc'"),
        ("lr_rest = nan", "lr_rest: bad value 'nan' (lr_rest must be finite"),
        ("lr_head = 4e-4", "unknown config key 'lr_head'"),
        ("batch_size = 0", "batch_size: bad value '0' (batch_size must be >= 1"),
        ("beta1 = 1.0", "beta1: bad value '1.0' (beta1 must lie in [0, 1)"),
        ("beta2 = -0.1", "beta2: bad value '-0.1' (beta2 must lie in [0, 1)"),
        ("eps = 0", "eps: bad value '0' (eps must be > 0"),
        ("min_confidence = 1.5", "min_confidence: bad value '1.5' (min_confidence must lie in"),
        ("similarity_threshold = -1.5",
         "similarity_threshold: bad value '-1.5' (similarity_threshold must lie in"),
        ("embedding_lr = -0.1", "embedding_lr: bad value '-0.1' (embedding_lr must be >= 0"),
    ],
    ids=["conversion", "non-finite", "removed-lr_head", "rejected-by-train-config", "beta1",
         "beta2", "eps", "min_confidence", "similarity_threshold", "embedding_lr"],
)
def test_bad_config_file_value_exits_with_data_error_naming_the_line(
    dataset, tmp_path, capsys, line, message
):
    config = tmp_path / "train.cfg"
    config.write_text(f"# comment line\nepochs = 1\n{line}\n")
    capsys.readouterr()
    code = main(
        ["train", *data_args(dataset), "--out", str(tmp_path / "m.ckpt"),
         "--config", str(config)]
    )
    assert code == EXIT_DATA
    assert f"{config}:3: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


FLOAT_FLAGS = [
    ("apply", "--min-confidence"), ("apply", "--nms-iou"), ("apply", "--min-score"),
    ("apply", "--stub-relatedness"), ("grad-check", "--step"), ("grad-check", "--tolerance"),
    ("synth-data", "--noise"), ("synth-data", "--val-fraction"),
    ("eval-recall", "--min-confidence"), ("eval-recall", "--nms-iou"),
    ("eval-recall", "--similarity-threshold"), ("eval-recall", "--real-case-min-score"),
    ("pseudo-gt", "--similarity-threshold"),
    ("train", "--min-confidence"), ("train", "--similarity-threshold"),
]
REQUIRED = {
    "apply": ["--detections", "d", "--expressions", "e", "--out", "o", "--baseline"],
    "grad-check": [],
    "synth-data": ["--out-dir", "o"],
    "eval-recall": ["--detections", "d", "--expressions", "e", "--regions", "r",
                    "--embeddings", "m", "--split", "val", "--method", "baseline_conf",
                    "--out", "o"],
    "pseudo-gt": ["--expressions", "e", "--regions", "r", "--embeddings", "m", "--out", "o"],
    "train": ["--detections", "d", "--expressions", "e", "--regions", "r", "--embeddings", "m",
              "--out", "o"],
}
# just outside each flag's range: [0, 1], except (0, 1) for --nms-iou, --step and
# --val-fraction, [-1, 1] for --similarity-threshold, (0, inf) for --tolerance and
# [0, inf) for --noise
OUTSIDE = {"--nms-iou": "1.0", "--step": "1.0", "--val-fraction": "1.0",
           "--similarity-threshold": "-1.01", "--tolerance": "0", "--noise": "-0.01"}


@pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
@pytest.mark.parametrize("value", ["nan", "inf", "outside"])
def test_float_flag_rejects_non_finite_and_out_of_range_values(command, flag, value, capsys):
    value = OUTSIDE.get(flag, "1.01") if value == "outside" else value
    with pytest.raises(SystemExit) as excinfo:
        main([command, *REQUIRED[command], flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}: expected a finite value in" in capsys.readouterr().err


def test_negative_top_n_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["apply", *REQUIRED["apply"], "--top-n", "-1"])
    assert excinfo.value.code == 2
    assert "argument --top-n: expected an integer >= 0, got -1" in capsys.readouterr().err
    # eval-recall's top-N budgets, and an unknown split
    for flags, message in [
        (["--budgets", ""], "bad budget '' in ''"),
        (["--budgets", "5,,10"], "bad budget '' in '5,,10'"),
        (["--budgets", "-3"], "bad budget '-3' in '-3'"),
        (["--budgets", "5,abc"], "bad budget 'abc' in '5,abc'"),
        (["--budgets", "5,5,real"], "budget '5' repeated in '5,5,real'"),
        (["--budgets", "5,05"], "budget '05' repeated in '5,05'"),
        (["--budgets", "real,1,real_case"], "budget 'real_case' repeated in 'real,1,real_case'"),
        (["--split", "dev"], "argument --split: invalid choice: 'dev'"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(["eval-recall", *REQUIRED["eval-recall"], *flags])
        assert excinfo.value.code == 2, flags
        assert message in capsys.readouterr().err, flags


@pytest.mark.parametrize("seed", range(1, 9))
def test_grad_check_command_passes_on_many_seeds(seed, capsys):
    # gradient components near 1e-9 sit at the finite differences' rounding noise
    assert main(["grad-check", "--seed", str(seed)]) == EXIT_OK


def test_grad_check_command_passes_and_prints_error(capsys):
    code = main(["grad-check"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_grad_check_command_fails_past_tolerance(capsys):
    # an impossible tolerance forces the failing exit path
    code = main(["grad-check", "--tolerance", "1e-18"])
    assert code == 1


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "refnms.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "refnms" in proc.stdout


def test_non_finite_dump_values_exit_with_data_error_naming_the_line(tmp_path, capsys):
    detections = tmp_path / "dets.tsv"
    detections.write_text(
        "#refnms-dets v1 feature_dim=2\n"
        "img0\t0 0 10 10\t0\tcat\t0.8\t0.5 0.5\n"
        "img0\tnan 0 10 10\t0\tcat\t0.9\t0.5 nan\n"
    )
    expressions = tmp_path / "expr.tsv"
    expressions.write_text("e0\timg0\tval\t0 0 10 10\tthe cat\n")
    capsys.readouterr()
    code = main(["apply", "--detections", str(detections), "--expressions", str(expressions),
                 "--baseline", "--out", str(tmp_path / "o.tsv")])
    assert code == EXIT_DATA
    assert f"{detections}:3:" in capsys.readouterr().err


def test_non_finite_embedding_exits_with_data_error_naming_the_line(dataset, tmp_path, capsys):
    embeddings = tmp_path / "emb.txt"
    lines = (dataset / "embeddings.txt").read_text().splitlines()
    word, *values = lines[1].split(" ")
    lines[1] = " ".join([word, "inf", *values[1:]])
    embeddings.write_text("\n".join(lines) + "\n")
    args = [*data_args(dataset)[:6], "--embeddings", str(embeddings)]
    capsys.readouterr()
    code = main(["eval-recall", *args, "--split", "val", "--method", "baseline_conf",
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_DATA
    assert f"{embeddings}:2:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["detections.tsv", "expressions.tsv", "regions.tsv", "embeddings.txt", "train.cfg"]
)
def test_non_utf8_input_exits_with_data_error_naming_the_line(dataset, tmp_path, capsys, name):
    # one byte that is not UTF-8, at the end of line 3 of one input file
    for each in ("detections.tsv", "expressions.tsv", "regions.tsv", "embeddings.txt"):
        (tmp_path / each).write_bytes((dataset / each).read_bytes())
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 1\nseed = 9\nhidden_size = 4\n")
    bad = tmp_path / name
    lines = bad.read_bytes().split(b"\n")
    lines[2] += b"\xff"
    bad.write_bytes(b"\n".join(lines))
    if name == "train.cfg":
        argv = ["train", *data_args(tmp_path), "--config", str(config),
                "--out", str(tmp_path / "m.ckpt")]
    else:
        argv = ["eval-recall", *data_args(tmp_path), "--split", "val",
                "--method", "baseline_conf", "--out", str(tmp_path / "r.csv")]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bad}:3: not UTF-8 text" in err
    assert "can't decode byte 0xff" in err


def test_apply_and_eval_recall_make_no_scalar_iou_call(
    dataset, checkpoint_bytes, tmp_path, monkeypatch
):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(checkpoint_bytes)
    calls = []
    original = geometry.iou

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    # every refnms module that bound `iou` by name
    for name, module in list(sys.modules.items()):
        if name == "refnms" or name.startswith("refnms."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    apply = ["apply", *data_args(dataset)[:4], "--top-n", "3"]
    evaluate = ["eval-recall", *data_args(dataset), "--split", "val", "--budgets", "1,5,real"]
    for argv in (
        [*apply, "--checkpoint", str(ckpt), "--out", str(tmp_path / "a.tsv")],
        [*apply, "--baseline", "--cross-class", "--out", str(tmp_path / "b.tsv")],
        [*apply, "--stub-relatedness", "0.5", "--out", str(tmp_path / "c.tsv")],
        [*evaluate, "--method", "baseline_conf", "--out", str(tmp_path / "d.csv")],
        [*evaluate, "--method", "ref_nms", "--checkpoint", str(ckpt),
         "--out", str(tmp_path / "e.csv")],
    ):
        assert main(argv) == EXIT_OK, argv
    assert calls == []
    geometry.iou(geometry.Box(0, 0, 1, 1), geometry.Box(0, 0, 1, 1))
    assert len(calls) == 1  # the counter is live


def referent_hits_in_apply_output(path, expressions):
    """Expressions of `expressions` (id -> referent box) with a proposal in the
    `apply` output at `path` above 0.5 IoU with their referent, recounted box by box."""
    hit = set()
    for line in path.read_text().splitlines():
        expression_id, box, *_ = line.split("\t")
        proposal = geometry.Box(*(float(v) for v in box.split(" ")))
        if geometry.iou(proposal, expressions[expression_id]) > 0.5:
            hit.add(expression_id)
    return len(hit)


@pytest.mark.parametrize(
    "apply_flags, eval_flags",
    [
        (["--checkpoint", "CKPT"], ["--method", "ref_nms", "--checkpoint", "CKPT"]),
        (["--baseline"], ["--method", "baseline_conf"]),
        (["--baseline", "--cross-class"], ["--method", "baseline_conf", "--cross-class"]),
    ],
    ids=["checkpoint", "baseline", "baseline-cross-class"],
)
def test_apply_and_eval_recall_agree_on_referent_hits(
    dataset, checkpoint_bytes, tmp_path, apply_flags, eval_flags
):
    # apply's top k holds an expression's referent exactly when eval-recall
    # counts a referent hit for it at budget k
    from refnms.ingest import load_expressions

    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(checkpoint_bytes)
    apply_flags = [str(ckpt) if flag == "CKPT" else flag for flag in apply_flags]
    eval_flags = [str(ckpt) if flag == "CKPT" else flag for flag in eval_flags]
    budgets = (1, 2, 3, 5, 8)
    report = tmp_path / "recall.csv"
    assert main(
        ["eval-recall", *data_args(dataset), "--split", "val", *eval_flags,
         "--budgets", ",".join(map(str, budgets)), "--out", str(report)]
    ) == EXIT_OK
    rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
    eval_hits = {int(row[2]): int(row[4]) for row in rows}
    referents = {
        e.expression_id: e.referent_box
        for e in load_expressions(dataset / "expressions.tsv") if e.split == "val"
    }
    apply_hits = {}
    for k in budgets:
        out = tmp_path / f"top{k}.tsv"
        assert main(
            ["apply", *data_args(dataset)[:4], "--split", "val", *apply_flags,
             "--top-n", str(k), "--out", str(out)]
        ) == EXIT_OK
        apply_hits[k] = referent_hits_in_apply_output(out, referents)
    assert apply_hits == eval_hits
    assert len(set(eval_hits.values())) > 1  # the budgets tell the keep lists apart


def test_baseline_runs_nms_once_per_image_in_apply_and_eval_recall(
    dataset, tmp_path, monkeypatch
):
    # NMS work is counted as the perfbench tracer counts it: boxes into and
    # rows kept by `per_class_nms`; each val image's boxes go in, and its
    # rows are kept, once however many expressions share it
    import refnms.nms as nms
    from refnms.ingest import group_detections, load_detection_dump, load_expressions
    from refnms.model import survivors

    val_images = [
        e.image_id for e in load_expressions(dataset / "expressions.tsv") if e.split == "val"
    ]
    assert len(set(val_images)) < len(val_images)  # images are shared by expressions
    by_image = group_detections(load_detection_dump(dataset / "detections.tsv")[0])
    images = [by_image[image_id] for image_id in dict.fromkeys(val_images)]
    boxes_in = sum(len(survivors(image, 0.05)) for image in images)
    kept_lists = list(nms.keep_lists(((image, None) for image in images), 1.0))
    calls = []
    per_class_nms = nms.per_class_nms

    def counted(boxes, *args, **kwargs):
        kept = per_class_nms(boxes, *args, **kwargs)
        calls.append((len(boxes), len(kept)))
        return kept

    monkeypatch.setattr(nms, "per_class_nms", counted)
    for argv, rows_kept in (
        (["apply", *data_args(dataset)[:4], "--split", "val", "--baseline", "--top-n", "3",
          "--out", str(tmp_path / "a.tsv")], sum(min(3, len(kept)) for kept in kept_lists)),
        (["eval-recall", *data_args(dataset), "--split", "val", "--method", "baseline_conf",
          "--out", str(tmp_path / "e.csv")], sum(len(kept) for kept in kept_lists)),
    ):
        calls.clear()
        assert main(argv) == EXIT_OK
        assert np.sum(calls, axis=0).tolist() == [boxes_in, rows_kept], argv[0]
