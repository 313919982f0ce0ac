"""CLI: flag documentation, exit codes, determinism, command round trips."""

import subprocess
import sys

import pytest

from refnms.cli import EXIT_DATA, EXIT_MISSING_FILE, EXIT_OK, build_parser, main


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
    assert "checkpoint v1" in out


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


def test_synth_data_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        code = main(
            ["synth-data", "--out-dir", str(tmp_path / sub), "--images", "6",
             "--categories", "4", "--boxes-per-image", "6", "--seed", "11"]
        )
        assert code == EXIT_OK
    for name in ("detections.tsv", "expressions.tsv", "regions.tsv", "embeddings.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


def test_apply_requires_exactly_one_mode(dataset, tmp_path):
    code = main(
        ["apply", "--detections", str(dataset / "detections.tsv"),
         "--expressions", str(dataset / "expressions.tsv"),
         "--out", str(tmp_path / "o.tsv")]
    )
    assert code == 1


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


def test_eval_recall_baseline_needs_no_checkpoint(dataset, tmp_path):
    csv_path = tmp_path / "recall.csv"
    code = main(
        ["eval-recall", *data_args(dataset), "--split", "val", "--method", "baseline_conf",
         "--budgets", "5", "--out", str(csv_path)]
    )
    assert code == EXIT_OK
    assert "baseline_conf" in csv_path.read_text()


def test_eval_recall_refnms_without_checkpoint_fails(dataset, tmp_path):
    code = main(
        ["eval-recall", *data_args(dataset), "--split", "val", "--method", "ref_nms",
         "--budgets", "5", "--out", str(tmp_path / "r.csv")]
    )
    assert code == 1


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


def test_train_rejects_unknown_config_key(dataset, tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text("no_such_option = 1\n")
    code = main(
        ["train", *data_args(dataset), "--out", str(tmp_path / "m.ckpt"),
         "--config", str(config)]
    )
    assert code == EXIT_DATA


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
