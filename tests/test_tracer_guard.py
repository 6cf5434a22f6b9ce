"""The benchmark's tracer wraps fedsim functions by name
(`perfbench/tracer.py`, `SPANS` and `COUNTED`). A change that deletes or
renames one of them breaks `perfbench/run.py --trace 1`; this test makes
that show up in the tier-1 suite, without importing the benchmark here.

The traced recovery checks the call-count identities `perfbench/run.py`
requires of a traced `fedrecover`, so a call site that bypasses a wrapped
function (an HVP or a threshold check the tracer cannot see) fails here
too."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

N_CLIENTS, MALICIOUS, ROUNDS = 8, 2, 30
CONFIG = f"""
[experiment]
seed = 5
rounds = {ROUNDS}
learning_rate = 0.1
batch_size = 16
n_clients = {N_CLIENTS}
malicious_count = {MALICIOUS}
aggregation = trimmed_mean
trim_k = 2
output_dir = run

[dataset]
kind = synthetic
num_classes = 4
dim = 8
per_class = 40
test_per_class = 25
separation = 4.0

[model]
kind = logreg
l2 = 0.05

[attack]
kind = backdoor
trigger = every_kth
trigger_k = 2
trigger_value = 1.0
scale = 8.0

[detection]
fnr = 0.0
fpr = 0.0

[recovery]
warmup_rounds = 5
correction_period = 5
final_tuning_rounds = 3
"""


def _env(output_root=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    if output_root is not None:
        env["FEDSIM_OUTPUT_ROOT"] = str(output_root)
    return env


def test_tracer_installs_on_every_wrapped_name():
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_fedrecover_keeps_the_call_count_identities(tmp_path):
    (tmp_path / "exp.ini").write_text(CONFIG)
    for cmd in (
        ["-m", "fedsim.cli", "train", "-c", "exp.ini"],
        [str(ROOT / "perfbench" / "tracer.py"), "trace.json",
         "recover", "-c", "exp.ini", "--method", "fedrecover"],
    ):
        proc = subprocess.run(
            [sys.executable, *cmd], cwd=tmp_path, env=_env(tmp_path),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    summary = json.loads((tmp_path / "run" / "summary_fedrecover.json").read_text())
    abnormal = summary["abnormality_count"]
    assert abnormal > 0  # fixes are part of the identity below
    assert trace["estimates_unjudged"] == 0
    assert trace["spans"]["recovery.hvp"]["calls"] == trace["estimates_accepted"] + abnormal
    # detection is exact here, so every malicious client is removed
    exact = (N_CLIENTS - MALICIOUS) * ROUNDS * (1.0 - summary["acp"] / 100.0)
    assert trace["exact_client_updates"] == pytest.approx(exact, abs=1e-6)
