import copy
import hashlib
import io
import json
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
from contextlib import contextmanager

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_both_accept
from test_config import MINIMAL
import fedsim
from fedsim.cli import (
    CliError,
    SummaryError,
    _summary_error,
    _summary_schema,
    cmd_report,
    load_model,
    main,
    save_model,
    write_summary,
)
from fedsim.flengine import HistoryStore
from fedsim.schema import check_schema, schema_errors

CFG_TEMPLATE = """
[experiment]
seed = 5
rounds = 30
learning_rate = 0.1
batch_size = 16
n_clients = 8
malicious_count = 2
aggregation = trimmed_mean
trim_k = 2
output_dir = {out}

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

[recovery]
warmup_rounds = 5
correction_period = 5
final_tuning_rounds = 3

[finetune]
epochs = 5
n_examples = 80
"""


@pytest.fixture()
def run_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(CFG_TEMPLATE.format(out="runs/exp"))
    return tmp_path, cfg_path


@contextmanager
def _flock_held(run_dir):
    """A process that holds the run directory's `flock` from its ready line
    until it is killed, which the block's end does."""
    run_dir.mkdir(parents=True, exist_ok=True)
    code = (
        "import fcntl, os, sys, time\n"
        "fd = os.open(sys.argv[1], os.O_RDONLY)\n"
        "fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
        "print('ready', flush=True)\n"
        "time.sleep(120)\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", code, str(run_dir)], stdout=subprocess.PIPE, text=True
    ) as holder:
        try:
            assert holder.stdout.readline() == "ready\n"
            yield holder
        finally:
            holder.kill()
            holder.wait()


class TestTrainCommand:
    def test_train_writes_artifacts(self, run_env):
        root, cfg_path = run_env
        assert main(["train", "-c", str(cfg_path)]) == 0
        run_dir = root / "runs" / "exp"
        assert (run_dir / "history.bin").exists()
        assert (run_dir / "model_final.bin").exists()
        assert (run_dir / "train_metrics.csv").exists()
        assert not list(run_dir.glob("*.tmp"))
        summary = json.loads((run_dir / "summary_train.json").read_text())
        assert summary["command"] == "train"
        assert 0.0 <= summary["ter"] <= 1.0
        assert summary["asr"] is not None
        assert_both_accept(summary)

    def test_train_metrics_csv_shape(self, run_env):
        root, cfg_path = run_env
        main(["train", "-c", str(cfg_path)])
        lines = (root / "runs" / "exp" / "train_metrics.csv").read_text().splitlines()
        assert lines[0] == "round,ter,asr"
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("30,")

    def test_determinism_byte_identical(self, tmp_path, monkeypatch):
        outputs = []
        for sub in ("a", "b"):
            monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path / sub))
            cfg_path = tmp_path / f"{sub}.ini"
            cfg_path.write_text(CFG_TEMPLATE.format(out="runs/exp"))
            assert main(["train", "-c", str(cfg_path)]) == 0
            run_dir = tmp_path / sub / "runs" / "exp"
            outputs.append(
                {
                    name: (run_dir / name).read_bytes()
                    for name in ("history.bin", "model_final.bin", "summary_train.json",
                                 "train_metrics.csv")
                }
            )
        assert outputs[0] == outputs[1]

    def test_failed_train_leaves_no_outputs(self, run_env, monkeypatch):
        import fedsim.flengine

        root, cfg_path = run_env
        append = fedsim.flengine.HistoryStore.append

        def failing_append(store, round_idx, model, updates):
            if round_idx == 12:
                raise OSError("injected write failure")
            append(store, round_idx, model, updates)

        monkeypatch.setattr(fedsim.flengine.HistoryStore, "append", failing_append)
        assert main(["train", "-c", str(cfg_path)]) == 1
        run_dir = root / "runs" / "exp"
        assert os.listdir(run_dir) == []

    def test_failed_retrain_keeps_the_run_config(self, tmp_path, monkeypatch, capsys):
        # a second config with the same output_dir whose data cannot be
        # built: the first run's config stays beside its history, so the
        # run still recovers from its own config.ini
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        first = tmp_path / "minimal.ini"
        first.write_text(MINIMAL)
        assert main(["train", "-c", str(first)]) == 0
        run_dir = tmp_path / "runs" / "demo"
        config = (run_dir / "config.ini").read_bytes()
        mnist = "kind = mnist\n" + "".join(
            f"{key} = {tmp_path / 'missing'}\n"
            for key in ("train_images", "train_labels", "test_images", "test_labels")
        )
        second = tmp_path / "mnist.ini"
        second.write_text(MINIMAL.replace("kind = synthetic\nnum_classes = 5\ndim = 6\nper_class = 40\n", mnist))
        capsys.readouterr()
        assert main(["train", "-c", str(second)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert (run_dir / "config.ini").read_bytes() == config
        assert not list(run_dir.glob("*.tmp"))
        assert main(["recover", "-c", str(run_dir / "config.ini"), "--method", "historical"]) == 0

    def test_lock_excludes_concurrent_use(self, run_env, capsys):
        root, cfg_path = run_env
        with _flock_held(root / "runs" / "exp"):
            assert main(["train", "-c", str(cfg_path)]) == 1
        assert "locked" in capsys.readouterr().err

    def test_lock_of_a_killed_holder_is_released(self, run_env):
        root, cfg_path = run_env
        with _flock_held(root / "runs" / "exp") as holder:
            holder.send_signal(signal.SIGKILL)
            holder.wait()
            assert main(["train", "-c", str(cfg_path)]) == 0

    def test_leftover_lock_file_does_not_block(self, run_env):
        # the pid-file lock of earlier versions: neither an empty one nor one
        # naming a live process keeps a command out, and none is touched
        root, cfg_path = run_env
        lock = root / "runs" / "exp" / ".lock"
        lock.parent.mkdir(parents=True)
        for text in ("", f"{os.getpid()}\n"):
            lock.write_text(text)
            assert main(["train", "-c", str(cfg_path)]) == 0
            assert lock.read_text() == text

    def test_bad_config_is_error_exit(self, run_env, capsys):
        root, cfg_path = run_env
        cfg_path.write_text(CFG_TEMPLATE.format(out="runs/x").replace("seed = 5", ""))
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert "experiment.seed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_diverging_run_is_error_exit(self, tmp_path, monkeypatch, capsys):
        # the server's check of the client reports stops a run whose model
        # overflows, with no numpy warning before the error line; no partial
        # history is left behind
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "diverge.ini"
        cfg_path.write_text(MINIMAL.replace("learning_rate = 0.1", "learning_rate = 1e300"))
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert os.listdir(tmp_path / "runs" / "demo") == []

    def test_unwritable_output_dir_is_error_exit(self, run_env, capsys):
        root, cfg_path = run_env
        (root / "runs").mkdir()
        (root / "runs" / "exp").write_text("a file where the run dir should go")
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestRecoverCommand:
    @pytest.fixture()
    def trained(self, run_env):
        root, cfg_path = run_env
        main(["train", "-c", str(cfg_path)])
        return root, cfg_path

    def test_recover_without_history_fails(self, run_env, capsys):
        root, cfg_path = run_env
        assert main(["recover", "-c", str(cfg_path), "--method", "fedrecover"]) == 1
        assert "history" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["scratch", "historical", "fedrecover", "finetune"])
    def test_all_methods_produce_valid_summaries(self, trained, method):
        root, cfg_path = trained
        assert main(["recover", "-c", str(cfg_path), "--method", method]) == 0
        run_dir = root / "runs" / "exp"
        summary = json.loads((run_dir / f"summary_{method}.json").read_text())
        assert_both_accept(summary)
        assert summary["method"] == method
        assert (run_dir / f"recover_{method}_metrics.csv").exists()

    def test_historical_acp_hundred(self, trained):
        root, cfg_path = trained
        main(["recover", "-c", str(cfg_path), "--method", "historical"])
        summary = json.loads((root / "runs" / "exp" / "summary_historical.json").read_text())
        assert summary["acp"] == 100.0

    def test_scratch_acp_zero(self, trained):
        root, cfg_path = trained
        main(["recover", "-c", str(cfg_path), "--method", "scratch"])
        summary = json.loads((root / "runs" / "exp" / "summary_scratch.json").read_text())
        assert summary["acp"] == 0.0

    def test_fedrecover_acp_matches_cost_formula(self, trained):
        from fedsim.recovery import predicted_cost

        root, cfg_path = trained
        main(["recover", "-c", str(cfg_path), "--method", "fedrecover"])
        summary = json.loads((root / "runs" / "exp" / "summary_fedrecover.json").read_text())
        floor_cost = predicted_cost(30, 5, 5, 3)
        assert summary["acp"] <= (30 - floor_cost) / 30 * 100 + 1e-9

    @pytest.mark.parametrize("method", ["scratch", "historical", "fedrecover", "finetune"])
    def test_stale_history_hash_rejected(self, trained, capsys, method):
        root, cfg_path = trained
        cfg_path.write_text(cfg_path.read_text().replace("seed = 5", "seed = 6"))
        assert main(["recover", "-c", str(cfg_path), "--method", method]) == 1
        assert "hash" in capsys.readouterr().err

    def test_history_cut_at_record_boundary_is_error_exit(self, trained, capsys):
        # what a train killed after 20 of its 30 rounds leaves behind
        root, cfg_path = trained
        path = root / "runs" / "exp" / "history.bin"
        blob = path.read_bytes()
        header = 4 + 4 + 8 + 4 + 4 + 32
        record = (len(blob) - header) // 30
        path.write_bytes(blob[: header + 20 * record])
        assert main(["recover", "-c", str(cfg_path), "--method", "historical"]) == 1
        assert capsys.readouterr().err.startswith("error:")


    def test_finetune_sample_beyond_the_training_set_names_its_key(
        self, tmp_path, monkeypatch, capsys
    ):
        # MINIMAL's 5 x 40 training examples are fewer than the default
        # n_examples = 1000: the config trains, and only finetune refuses it
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "minimal.ini"
        cfg_path.write_text(MINIMAL)
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert main(["recover", "-c", str(cfg_path), "--method", "historical"]) == 0
        capsys.readouterr()
        assert main(["recover", "-c", str(cfg_path), "--method", "finetune"]) == 1
        assert capsys.readouterr().err == (
            "error: config field [finetune.n_examples]: 1000 exceeds the training set's 200 examples\n"
        )
        assert not (tmp_path / "runs" / "demo" / "recover_finetune_metrics.csv").exists()

    def test_finetune_class_draw_beyond_a_class_names_its_keys(
        self, tmp_path, monkeypatch, capsys
    ):
        # 150 examples fit MINIMAL's training set of 5 x 40, but the
        # Dirichlet(0.5) draw asks one class for more than its 40
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "minimal.ini"
        cfg_path.write_text(MINIMAL + "\n[finetune]\nn_examples = 150\nbeta = 0.5\nepochs = 1\n")
        assert main(["train", "-c", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["recover", "-c", str(cfg_path), "--method", "finetune"]) == 1
        assert capsys.readouterr().err == (
            "error: config field [finetune.n_examples]: class 4 needs 94 examples but only 40 "
            "are available; a larger finetune.beta evens the draw\n"
        )
        assert not (tmp_path / "runs" / "demo" / "summary_finetune.json").exists()

    @pytest.mark.parametrize("method", ["historical", "fedrecover"])
    def test_non_finite_history_is_error_exit(self, trained, capsys, method):
        # a record with a valid checksum that holds a NaN update, and a byte
        # flipped in the last record: `load` passes both files, the record
        # check stops the recovery, and it writes no metrics and no summary
        root, cfg_path = trained
        run_dir = root / "runs" / "exp"
        path = run_dir / "history.bin"
        flipped = bytearray(path.read_bytes())
        flipped[-100] ^= 0xFF
        store = HistoryStore.load(path)
        rounds = list(store.rounds())
        rounds[7][1][3, 0] = np.nan
        path.unlink()
        rewritten = HistoryStore.create(
            path, store.d, store.n, store.total_rounds, store.config_hash
        )
        for t, (model, updates) in enumerate(rounds):
            rewritten.append(t, model, dict(enumerate(updates)))
        faults = [
            (path.read_bytes(), "record for round 7 holds non-finite values"),
            (bytes(flipped), "record checksum mismatch"),
        ]
        for blob, message in faults:
            path.write_bytes(blob)
            assert main(["recover", "-c", str(cfg_path), "--method", method]) == 1
            assert message in capsys.readouterr().err
            assert not (run_dir / f"recover_{method}_metrics.csv").exists()
            assert not (run_dir / f"summary_{method}.json").exists()


    @pytest.mark.parametrize("method", ["scratch", "historical", "fedrecover", "finetune"])
    def test_no_client_left_after_detection_is_error_exit(
        self, tmp_path, monkeypatch, capsys, method
    ):
        # fpr = 1 flags every client; each method stops before it reads the
        # history or recovers anything
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(CFG_TEMPLATE.format(out="runs/exp") + "\n[detection]\nfpr = 1\n")
        assert main(["train", "-c", str(cfg_path)]) == 0
        run_dir = tmp_path / "runs" / "exp"
        (run_dir / "history.bin").write_bytes(b"not read")
        assert main(["recover", "-c", str(cfg_path), "--method", method]) == 1
        assert capsys.readouterr().err == "error: detection flagged all 8 clients; none remain\n"
        assert not (run_dir / f"summary_{method}.json").exists()

    def test_trimmed_mean_detection_cannot_meet_names_its_key(self, tmp_path, monkeypatch, capsys):
        # 10 clients train under trim_k = 4; detection drops the 3 attackers,
        # and the 7 left cannot fill a trimmed mean that drops 8. Each
        # aggregating method refuses before it reads the history; finetune
        # does not aggregate
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            CFG_TEMPLATE.format(out="runs/exp")
            .replace("n_clients = 8\nmalicious_count = 2", "n_clients = 10\nmalicious_count = 3")
            .replace("trim_k = 2", "trim_k = 4")
            .replace("kind = backdoor\ntrigger = every_kth\ntrigger_k = 2\ntrigger_value = 1.0\n"
                     "scale = 8.0\n", "kind = trim\n")
        )
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert main(["recover", "-c", str(cfg_path), "--method", "finetune"]) == 0
        run_dir = tmp_path / "runs" / "exp"
        (run_dir / "history.bin").write_bytes(b"not read")
        capsys.readouterr()
        for method in ("scratch", "historical", "fedrecover"):
            assert main(["recover", "-c", str(cfg_path), "--method", method]) == 1
            assert capsys.readouterr().err == (
                "error: config field [experiment.trim_k]: trimmed_mean with k=4 needs more "
                "than 2k=8 clients, but detection leaves 7\n"
            )
            assert not (run_dir / f"summary_{method}.json").exists()

    def test_failed_summary_write_keeps_the_earlier_summary(self, trained, monkeypatch):
        import fedsim.cli

        root, cfg_path = trained
        run_dir = root / "runs" / "exp"
        assert main(["recover", "-c", str(cfg_path), "--method", "historical"]) == 0
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}

        def cut_dump(obj, f, **kwargs):
            f.write('{"command": "rec')
            raise OSError("injected write failure")

        with monkeypatch.context() as patch:
            patch.setattr(fedsim.cli.json, "dump", cut_dump)
            assert main(["recover", "-c", str(cfg_path), "--method", "historical"]) == 1
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        assert main(["report", str(run_dir)]) == 0

    @pytest.mark.parametrize("fault", ["short", "trailing", "nan", "inf", "wrong_dim"])
    def test_malformed_model_file_is_error_exit(self, trained, capsys, fault):
        root, cfg_path = trained
        path = root / "runs" / "exp" / "model_final.bin"
        w = load_model(path)
        if fault == "short":
            _write_model_payload(path, b"\x01\x02\x03\x04")
        elif fault == "trailing":
            _write_model_payload(path, struct.pack("<Q", w.size) + np.append(w, 1.0).tobytes())
        elif fault == "wrong_dim":
            save_model(path, np.append(w, 1.0))
        else:
            w[3] = np.nan if fault == "nan" else np.inf
            save_model(path, w)
        assert main(["recover", "-c", str(cfg_path), "--method", "finetune"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "model_final.bin" in err, err


class TestBoundCheck:
    def test_bound_check_block(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            CFG_TEMPLATE.format(out="runs/bc")
            .replace("aggregation = trimmed_mean", "aggregation = fedavg")
            .replace("trim_k = 2\n", "")
            .replace("[recovery]", "[recovery]\ntau = inf\nbound_check = true")
        )
        main(["train", "-c", str(cfg_path)])
        assert main(["recover", "-c", str(cfg_path), "--method", "fedrecover"]) == 0
        summary = json.loads((tmp_path / "runs" / "bc" / "summary_fedrecover.json").read_text())
        assert_both_accept(summary)
        block = summary["bound_check"]
        assert block is not None
        assert block["mu"] == 0.05
        assert block["m_measured"] >= 0.0
        assert block["max_violation"] <= 1e-9


class TestReport:
    def test_two_runs_two_rows(self, run_env):
        root, cfg_path = run_env
        main(["train", "-c", str(cfg_path)])
        main(["recover", "-c", str(cfg_path), "--method", "historical"])
        buf = io.StringIO()
        cmd_report([str(root / "runs" / "exp")], out_stream=buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "scenario,method,ter,asr,acp"
        assert len(lines) == 3  # train + historical
        assert lines[1].startswith("exp,")

    def test_same_basename_runs_are_told_apart(self, run_env):
        # two run directories that share their last component keep their
        # parents in the label; a unique basename stays bare
        root, cfg_path = run_env
        assert main(["train", "-c", str(cfg_path)]) == 0
        for parent in ("a", "b"):
            shutil.copytree(root / "runs" / "exp", root / parent / "run")
        buf = io.StringIO()
        cmd_report(
            [str(root / "a" / "run"), str(root / "b" / "run"), str(root / "runs" / "exp")],
            out_stream=buf,
        )
        scenarios = [line.split(",")[0] for line in buf.getvalue().splitlines()[1:]]
        assert scenarios == [os.path.join("a", "run"), os.path.join("b", "run"), "exp"]

    def test_missing_summary_named_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(Exception) as err:
            cmd_report([str(empty)])
        assert "summary" in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"command": "train", "rounds": 3, "asr": null, "config_hash": "%s"}' % ("0" * 64),
             "at /: 'ter' is a required property"),
            ("[1, 2]", "at /: [1, 2] is not of type 'object'"),
            ('{"command": "train", "rounds": 3, "ter": "low", "asr": null, "config_hash": "%s"}'
             % ("0" * 64), "at /ter: 'low' is not of type 'number'"),
            ('{"command": "train", ', "not a JSON summary"),
        ],
        ids=["missing-ter", "list", "ter-not-a-number", "not-json"],
    )
    def test_bad_summary_is_error_exit(self, tmp_path, capsys, text, message):
        run = tmp_path / "run"
        run.mkdir()
        (run / "summary_train.json").write_text(text)
        assert main(["report", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "summary_train.json" in err
        assert message in err

    def test_summary_of_another_config_is_refused(self, run_env, capsys):
        # a second train into the same directory leaves the first config's
        # recovery summary beside it
        root, cfg_path = run_env
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert main(["recover", "-c", str(cfg_path), "--method", "historical"]) == 0
        cfg_path.write_text(CFG_TEMPLATE.format(out="runs/exp").replace("seed = 5", "seed = 6"))
        assert main(["train", "-c", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(root / "runs" / "exp")]) == 1
        err = capsys.readouterr().err
        assert "summary_historical.json" in err and "another config" in err

    def test_report_idempotent(self, run_env):
        root, cfg_path = run_env
        main(["train", "-c", str(cfg_path)])
        a, b = io.StringIO(), io.StringIO()
        cmd_report([str(root / "runs" / "exp")], out_stream=a)
        cmd_report([str(root / "runs" / "exp")], out_stream=b)
        assert a.getvalue() == b.getvalue()


def test_summary_schema_is_valid():
    schema = _summary_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_write_summary_validates_every_summary(tmp_path):
    with pytest.raises(SummaryError, match="s.json: bad summary at /: 'rounds' is a required"):
        write_summary(tmp_path / "s.json", {"command": "train"})
    assert not (tmp_path / "s.json").exists()


def test_cli_import_leaves_jsonschema_out():
    src = os.path.dirname(os.path.dirname(fedsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, fedsim.cli; print(sorted(m for m in sys.modules if 'jsonschema' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


_REFERENCE = jsonschema.Draft202012Validator(_summary_schema())


def _reference_error(summary):
    """jsonschema's error for the summary, from the oneOf branch it misses
    by the fewest errors (the first such branch), or None when valid."""
    error = next(_REFERENCE.iter_errors(summary), None)
    if error is None or not error.context:
        return error
    branches: dict = {}
    for sub in error.context:
        branches.setdefault(sub.relative_schema_path[0], []).append(sub)
    return min(branches.values(), key=len)[0]


_HASHES = st.text("0123456789abcdef", min_size=64, max_size=64)
_UNIT = st.floats(0.0, 1.0)
_PERCENT = st.floats(0.0, 100.0)
_TRAIN = st.fixed_dictionaries(
    {
        "command": st.just("train"),
        "rounds": st.integers(1, 10**6),
        "ter": _UNIT,
        "asr": st.none() | _UNIT,
        "config_hash": _HASHES,
    }
)
_BOUND_CHECK = st.fixed_dictionaries(
    {
        "mu": st.floats(0.0, 10.0, exclude_min=True),
        "m_measured": st.floats(0.0, 1e6),
        "max_violation": st.floats(-1e6, 1e6),
    }
)
_RECOVER = st.fixed_dictionaries(
    {
        "command": st.just("recover"),
        "method": st.sampled_from(["scratch", "historical", "fedrecover", "finetune"]),
        "rounds": st.integers(1, 10**6),
        "ter": _UNIT,
        "asr": st.none() | _UNIT,
        "acp": _PERCENT,
        "cp_min": _PERCENT,
        "cp_max": _PERCENT,
        "abnormality_count": st.integers(0, 10**6),
        "config_hash": _HASHES,
        "bound_check": st.none() | _BOUND_CHECK,
    }
)
# Values a single mutation writes: each type the schema names and the
# edges of every bound it sets.
_ODD_VALUES = st.sampled_from(
    [
        True, False, None, 0, 1, -1, 1.0, 0.5, -0.0, 2, 100, 100.5, 101, 10**30, -(10**30),
        1e300, math.nan, math.inf, -math.inf, "train", "recover", "scratch", "fedrecover",
        "Fedrecover", "0" * 64, "0" * 64 + "\n", "A" * 64, "0" * 63, "", [], {}, [1, 2],
        {"mu": 1.0, "m_measured": 0.0, "max_violation": 0.0},
    ]
) | st.floats() | st.integers()
_KNOWN_KEYS = sorted(
    set(_TRAIN.wrapped_strategy.mapping) | set(_RECOVER.wrapped_strategy.mapping)
    | {"mu", "m_measured", "max_violation", "extra"}
)


@st.composite
def _summaries(draw):
    """A valid summary of either command, then up to two single mutations:
    a key dropped, added or given an odd value, at the top or inside
    `bound_check`, or the whole summary replaced by a non-object."""
    summary = draw(_TRAIN | _RECOVER)
    for _ in range(draw(st.integers(0, 2))):
        if not isinstance(summary, dict):
            break
        target = summary
        if isinstance(summary.get("bound_check"), dict) and draw(st.booleans()):
            target = summary["bound_check"]
        kind = draw(st.sampled_from(["drop", "set", "set", "set", "top"]))
        if kind == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "set":
            own = st.sampled_from(sorted(target)) if target else st.nothing()
            target[draw(own | st.sampled_from(_KNOWN_KEYS))] = draw(_ODD_VALUES)
        elif kind == "top":
            summary = draw(st.sampled_from([[], [1, 2], "summary", 3, None, list(summary)]))
    return summary


@settings(max_examples=600, deadline=None)
@given(_summaries())
def test_summary_check_agrees_with_jsonschema(summary):
    ours, theirs = _summary_error(summary), _reference_error(summary)
    assert (ours is None) == (theirs is None)
    if ours is not None:
        assert list(ours.absolute_path) == list(theirs.absolute_path)
        assert ours.message == theirs.message


@pytest.mark.parametrize(
    "schema, instance",
    [
        ({"type": "number"}, True),
        ({"type": "integer"}, False),
        ({"type": "integer"}, 1.0),
        ({"type": "integer"}, 1.5),
        ({"type": "integer", "minimum": 10**30}, 10**30 + 1),
        ({"type": "integer", "maximum": 10**30}, 10**30 + 1),
        ({"type": "number", "minimum": 0, "maximum": 1}, math.nan),
        ({"exclusiveMinimum": 0}, math.nan),
        ({"exclusiveMinimum": 0}, 0.0),
        ({"const": 1}, True),
        ({"const": True}, 1),
        ({"const": 1}, 1.0),
        ({"enum": [0, "a"]}, False),
        ({"enum": [[1, True]]}, [1, 1]),
        ({"const": {"a": 1}}, {"a": 1.0}),
        ({"pattern": "^a$"}, "a\n"),
        ({"pattern": "b"}, "abc"),
        ({"pattern": "b"}, 3),
        ({"type": ["object", "null"], "required": ["a"]}, None),
        ({"properties": {"b": {}}, "additionalProperties": False}, {"d": 1, "b": 2, "c": 3}),
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1),
    ],
)
def test_keyword_semantics_match_jsonschema(schema, instance):
    check_schema(schema)
    ours = [(list(e.absolute_path), e.message) for e in schema_errors(schema, instance)]
    validator = jsonschema.Draft202012Validator(schema)
    theirs = [(list(e.absolute_path), e.message) for e in validator.iter_errors(instance)]
    assert ours == theirs


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: s.update(allOf=[]), "unsupported schema keyword 'allOf'"),
        (lambda s: s["oneOf"][0].update(patternProperties={}), "keyword 'patternProperties'"),
        (
            lambda s: s["oneOf"][1]["properties"]["bound_check"]["properties"]["mu"].update(
                multipleOf=2
            ),
            "#/oneOf/1/properties/bound_check/properties/mu: unsupported schema keyword",
        ),
        (lambda s: s["oneOf"][0].update(additionalProperties={}), "additionalProperties: false"),
        (lambda s: s["oneOf"][0]["properties"]["ter"].update(type="float"), "type 'float'"),
        (
            lambda s: s.update({"$schema": "http://json-schema.org/draft-04/schema#"}),
            "unsupported \\$schema",
        ),
    ],
    ids=["top", "branch", "nested", "additional-schema", "type-name", "draft"],
)
def test_unsupported_schema_raises(edit, message):
    schema = copy.deepcopy(_summary_schema())
    edit(schema)
    with pytest.raises(ValueError, match=message):
        check_schema(schema)


def test_model_file_roundtrip(tmp_path):
    import numpy as np

    w = np.linspace(-1, 1, 17)
    path = tmp_path / "m.bin"
    save_model(path, w)
    np.testing.assert_array_equal(load_model(path), w)


def _write_model_payload(path, payload: bytes) -> None:
    """A model file around any payload, with a checksum that holds."""
    path.write_bytes(b"FRM1" + payload + hashlib.blake2b(payload, digest_size=8).digest())


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"\x02\x00\x00\x00", "too short"),
        (struct.pack("<Q3d", 2, 1.0, 2.0, 3.0), "24 value bytes, not 8 d = 16"),
        (struct.pack("<Q2d", 2, 1.0, math.nan), "non-finite"),
        (struct.pack("<Q2d", 2, -math.inf, 1.0), "non-finite"),
    ],
    ids=["short", "trailing", "nan", "inf"],
)
def test_model_file_must_hold_exactly_d_finite_values(tmp_path, payload, message):
    path = tmp_path / "m.bin"
    _write_model_payload(path, payload)
    with pytest.raises(CliError, match=message):
        load_model(path)


def test_model_file_checksum(tmp_path):
    import numpy as np

    path = tmp_path / "m.bin"
    save_model(path, np.ones(4))
    blob = bytearray(path.read_bytes())
    blob[10] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(Exception):
        load_model(path)
