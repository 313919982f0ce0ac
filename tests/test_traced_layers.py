"""Every span-backed metric of the benchmark's tracer still has a source.

`perfbench/spans.py` wraps `refnms` functions by name, and a wrapped function
that is deleted or renamed reports zero without an error. This runs `train`,
`apply --checkpoint` and `eval-recall --method ref_nms` on a small synthetic
set, each in a fresh process under that tracer, as the benchmark's worker
does, and requires every span-backed time metric to be positive in each phase
whose `layer_metrics` reports it. The tracer is only imported, never changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import refnms
from refnms.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(refnms.__file__).resolve().parents[1]

SPAN_BACKED = (
    "ingest.load_s",
    "pseudo_gt.build_s",
    "model.forward_s",
    "autodiff.backward_s",
    "objectives.loss_s",
    "trainer.adam_s",
    "trainer.save_checkpoint_s",
    "trainer.load_checkpoint_s",
    "model.score_s",
    "nms.nms_s",
    "cli.apply_self_s",
    "evaluation.recall_self_s",
)

# one traced command in a fresh process: argv[1] the phase, argv[2] the
# command line as JSON; prints layer_metrics as JSON on its last line
TRACED_RUN = """
import contextlib, io, json, sys
from refnms import cli
from spans import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = tracer.call("cli.main", cli.main, json.loads(sys.argv[2]))
tracer.uninstall()
print(json.dumps({"rc": rc, "layers": layer_metrics(tracer, sys.argv[1], 1, 1)}))
"""


def traced(phase, argv):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)]),
        PYTHONDONTWRITEBYTECODE="1",  # leave perfbench/ as it is
    )
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, phase, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["rc"] == EXIT_OK, (phase, result.stderr)
    return out["layers"]


def test_every_span_backed_metric_is_positive_where_it_is_reported(tmp_path):
    data = tmp_path / "data"
    assert main(
        ["synth-data", "--out-dir", str(data), "--images", "10", "--boxes-per-image", "6",
         "--seed", "2"]
    ) == EXIT_OK
    inputs = [
        "--detections", str(data / "detections.tsv"),
        "--expressions", str(data / "expressions.tsv"),
    ]
    labels = ["--regions", str(data / "regions.tsv"), "--embeddings", str(data / "embeddings.txt")]
    ckpt = str(tmp_path / "model.ckpt")
    phases = {
        "train": ["train", *inputs, *labels, "--out", ckpt, "--epochs", "1",
                  "--hidden-size", "4", "--loss", "rank"],
        "apply": ["apply", *inputs, "--checkpoint", ckpt, "--top-n", "3",
                  "--out", str(tmp_path / "proposals.tsv")],
        "eval": ["eval-recall", *inputs, *labels, "--split", "val", "--method", "ref_nms",
                 "--checkpoint", ckpt, "--out", str(tmp_path / "recall.csv")],
    }
    reported = set()
    for phase, argv in phases.items():  # in order: apply and eval read train's checkpoint
        layers = traced(phase, argv)
        for name in SPAN_BACKED:
            if name in layers:
                reported.add(name)
                assert layers[name] > 0, f"{phase}.{name} reads 0: its traced function is gone"
    assert reported == set(SPAN_BACKED)
