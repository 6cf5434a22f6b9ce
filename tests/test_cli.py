import errno
import io
import json
import math
import os
import resource
import shutil
import signal
import struct
import subprocess
import sys
import time
from contextlib import contextmanager

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SUMMARY_SCHEMA, assert_both_accept, run_under_address_limit
from test_data import write_idx_pair
from test_config import MINIMAL
import fedsim
from fedsim.cli import (
    METHODS,
    CliError,
    _summary_error,
    cmd_report,
    main,
    write_summary,
)
from fedsim.flengine import HistoryStore, TopTable
from fedsim.numcore import RngStream

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


def _sim(root, *args, code=None, fsize=None):
    """`sim *args` in a child process writing runs under `root`; with
    `code`, the child runs that program on `args` in place of `sim`'s, and
    with `fsize`, no file the child writes may grow past `fsize` bytes."""
    src = os.path.dirname(os.path.dirname(fedsim.__file__))
    env = {**os.environ, "FEDSIM_OUTPUT_ROOT": str(root)}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    program = ["-m", "fedsim.cli"] if code is None else ["-c", code]

    def limit():  # the child's own; CPython ignores SIGXFSZ, so the write fails with EFBIG
        resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize))

    return subprocess.Popen(
        [sys.executable, *program, *args], env=env, preexec_fn=None if fsize is None else limit,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def _too_large(path) -> str:
    """The error line of a write to `path` cut by a file-size limit."""
    return f"error: {OSError(errno.EFBIG, os.strerror(errno.EFBIG), str(path))}\n"


def _same_files(run_dir, whole_dir):
    names = sorted(os.listdir(whole_dir))
    assert sorted(os.listdir(run_dir)) == names
    for name in names:
        assert (run_dir / name).read_bytes() == (whole_dir / name).read_bytes(), name


def _size(path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def _kill_train_after(root, cfg_path, records=1):
    """Run a real `sim train` of `cfg_path`, the 1000-round MINIMAL config,
    under `root` and SIGKILL it once history.bin.tmp holds `records` whole
    records."""
    temp = root / "runs" / "demo" / "history.bin.tmp"
    size = 56 + records * 3136  # the header, then d = 35 (6 x 5 weights, 5 biases) and n = 10
    with _sim(root, "train", "-c", str(cfg_path)) as proc:
        deadline = time.monotonic() + 60
        while _size(temp) < size:
            assert proc.poll() is None, "train ended before it was killed"
            assert time.monotonic() < deadline, f"no {records} whole records within 60 s"
            time.sleep(0.001)
        proc.send_signal(signal.SIGKILL)
    assert proc.returncode == -signal.SIGKILL


class TestTrainCommand:
    def test_train_writes_artifacts(self, run_env):
        root, cfg_path = run_env
        assert main(["train", "-c", str(cfg_path)]) == 0
        run_dir = root / "runs" / "exp"
        assert (run_dir / "history.bin").exists()
        assert (run_dir / "history_tops.bin").exists()
        assert not (run_dir / "model_final.bin").exists()
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
                    for name in (
                        "history.bin", "history_tops.bin", "summary_train.json", "train_metrics.csv"
                    )
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

    def test_train_killed_after_one_record_leaves_no_run(self, tmp_path):
        # a real `sim train`, SIGKILLed once history.bin.tmp holds a whole
        # record: no file appears under the run's names, recovery names the
        # missing history, and training again writes what an uninterrupted
        # run of the same config writes
        cfg_path = tmp_path / "long.ini"
        cfg_path.write_text(MINIMAL.replace("rounds = 40", "rounds = 1000"))
        killed, whole = tmp_path / "killed", tmp_path / "whole"
        run_dir = killed / "runs" / "demo"
        _kill_train_after(killed, cfg_path)
        for name in ("history.bin", "history_tops.bin", "config.ini"):
            assert not (run_dir / name).exists()
        with _sim(killed, "recover", "-c", str(cfg_path), "--method", "historical") as proc:
            err = proc.communicate()[1]
        assert proc.returncode == 1 and str(run_dir / "history.bin") in err, err
        for root in (killed, whole):
            with _sim(root, "train", "-c", str(cfg_path)) as proc:
                assert proc.wait() == 0
        assert not list(run_dir.glob("*.tmp"))
        names = sorted(os.listdir(whole / "runs" / "demo"))
        assert sorted(os.listdir(run_dir)) == names
        for name in names:
            assert (run_dir / name).read_bytes() == (whole / "runs" / "demo" / name).read_bytes(), name

    def test_train_killed_after_three_records(self, tmp_path):
        # ROADMAP item 9's kill after k > 1 records, with its three points:
        # no file under a run name is partial, each recovery in between
        # succeeds or fails naming a file, and training again writes what an
        # uninterrupted run writes
        cfg_path = tmp_path / "long.ini"
        cfg_path.write_text(MINIMAL.replace("rounds = 40", "rounds = 1000"))
        killed, whole = tmp_path / "killed", tmp_path / "whole"
        run_dir = killed / "runs" / "demo"
        _kill_train_after(killed, cfg_path, records=3)
        assert _size(run_dir / "history.bin.tmp") >= 56 + 3 * 3136
        for name in ("history.bin", "history_tops.bin", "config.ini"):
            assert not (run_dir / name).exists()
        for method in ("historical", "fedrecover", "finetune", "scratch"):
            with _sim(killed, "recover", "-c", str(cfg_path), "--method", method) as proc:
                err = proc.communicate()[1]
            if method == "scratch":  # the one recovery that needs no history
                assert proc.returncode == 0, err
            else:
                assert proc.returncode == 1 and str(run_dir / "history.bin") in err, err
        assert main(["report", str(run_dir)]) == 0  # the scratch summary passes its reader
        for root in (killed, whole):
            with _sim(root, "train", "-c", str(cfg_path)) as proc:
                assert proc.wait() == 0
        assert not list(run_dir.glob("*.tmp"))
        for name in os.listdir(whole / "runs" / "demo"):
            assert (run_dir / name).read_bytes() == (whole / "runs" / "demo" / name).read_bytes(), name

    def test_killed_train_leaves_no_temp_after_the_next_command(self, tmp_path):
        # the temporaries of a SIGKILLed train are removed by the next
        # command to lock the run directory, here a recovery that reads no history
        cfg_path = tmp_path / "long.ini"
        cfg_path.write_text(MINIMAL.replace("rounds = 40", "rounds = 1000"))
        run_dir = tmp_path / "runs" / "demo"
        _kill_train_after(tmp_path, cfg_path)
        temps = ["history.bin.tmp", "history_tops.bin.tmp"]
        assert sorted(p.name for p in run_dir.glob("*.tmp")) == temps
        with _sim(tmp_path, "recover", "-c", str(cfg_path), "--method", "scratch") as proc:
            err = proc.communicate()[1]
        assert proc.returncode == 0, err
        assert not list(run_dir.glob("*.tmp"))

    def test_lock_removes_only_the_temporaries_of_run_files(self, run_env):
        # a `.tmp` file of no name the commands write is not theirs to remove
        root, cfg_path = run_env
        run_dir = root / "runs" / "exp"
        run_dir.mkdir(parents=True)
        (run_dir / "notes.tmp").write_text("mine\n")
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert (run_dir / "notes.tmp").read_text() == "mine\n"
        (run_dir / "history.bin.tmp").write_bytes(b"left by a killed train")
        assert main(["recover", "-c", str(cfg_path), "--method", "finetune"]) == 0
        assert sorted(p.name for p in run_dir.glob("*.tmp")) == ["notes.tmp"]

    def test_train_cut_by_a_file_size_limit_names_the_history(self, tmp_path):
        # a 400-round history (1.25 MB) under a 20 000-byte limit: the
        # append of the seventh record fails, and the error names its file
        cfg_path = tmp_path / "long.ini"
        cfg_path.write_text(MINIMAL.replace("rounds = 40", "rounds = 400"))
        cut, whole = tmp_path / "cut", tmp_path / "whole"
        run_dir = cut / "runs" / "demo"
        with _sim(cut, "train", "-c", str(cfg_path), fsize=20_000) as proc:
            err = proc.communicate()[1]
        assert proc.returncode == 1
        assert err == _too_large(run_dir / "history.bin.tmp")
        assert os.listdir(run_dir) == []
        for root in (cut, whole):
            with _sim(root, "train", "-c", str(cfg_path)) as proc:
                assert proc.wait() == 0
        _same_files(run_dir, whole / "runs" / "demo")

    def test_retrain_cut_between_replaces_leaves_each_file_checked(
        self, tmp_path, monkeypatch, capsys
    ):
        # `cli._atomic` replaces history.bin, history_tops.bin and config.ini
        # one after another; a retrain under config B that stops after the
        # first replace leaves B's history beside A's table and config
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        configs = {"A": tmp_path / "a.ini", "B": tmp_path / "b.ini"}
        configs["A"].write_text(CFG_TEMPLATE.format(out="runs/exp"))
        configs["B"].write_text(CFG_TEMPLATE.format(out="runs/exp").replace("seed = 5", "seed = 6"))
        assert main(["train", "-c", str(configs["A"])]) == 0
        run_dir = tmp_path / "runs" / "exp"
        history, table = run_dir / "history.bin", run_dir / "history_tops.bin"
        real_replace, replaced = os.replace, []

        def replace_once(src, dst):
            if replaced:
                raise OSError("injected: stopped between two replaces")
            replaced.append(dst)
            real_replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(fedsim.cli.os, "replace", replace_once)
            assert main(["train", "-c", str(configs["B"])]) == 1
        assert replaced == [str(history)]
        assert not list(run_dir.glob("*.tmp"))
        mismatch = "history config hash does not match the supplied config"
        methods = ("scratch", "historical", "fedrecover", "finetune")
        # (config, method): None for a success, else the error it prints
        want = {("A", method): f"error: {history}: {mismatch}\n" for method in methods}
        want.update({("B", method): None for method in methods})
        want["B", "fedrecover"] = f"error: {table}: table config hash does not match the history's\n"
        for (name, method), error in want.items():
            capsys.readouterr()
            rc = main(["recover", "-c", str(configs[name]), "--method", method])
            err = capsys.readouterr().err
            if error is None:  # a success reads a history of its own config: B's
                assert rc == 0 and name == "B", err
            else:
                assert (rc, err) == (1, error)
        # config.ini is still A's, so B's recovery summaries are refused by name
        assert main(["report", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{run_dir / 'summary_finetune.json'}: the summary belongs to another config" in err
        # training B again restores a whole run
        assert main(["train", "-c", str(configs["B"])]) == 0
        assert main(["recover", "-c", str(configs["B"]), "--method", "fedrecover"]) == 0
        assert main(["report", str(run_dir)]) == 0

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

    def test_client_without_examples_names_its_key(self, tmp_path, monkeypatch, capsys):
        # 10 training examples could give each of 10 clients one, but the
        # partition's random draw leaves a client without any
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "sparse.ini"
        text = MINIMAL.replace("num_classes = 5", "num_classes = 2").replace("per_class = 40", "per_class = 5")
        cfg_path.write_text(text)
        assert main(["train", "-c", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field [experiment.n_clients]: the partition leaves client ")
        assert err.endswith(" with no example; use fewer clients\n"), err
        assert os.listdir(tmp_path / "runs" / "demo") == []

    def test_more_clients_than_examples_is_refused_before_the_partition(
        self, tmp_path, monkeypatch, capsys
    ):
        import fedsim.data

        def no_partition(*args):
            raise AssertionError("partition_noniid called")

        monkeypatch.setattr(fedsim.data, "partition_noniid", no_partition)
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "crowded.ini"
        text = MINIMAL.replace("n_clients = 10", "n_clients = 500000")
        text = text.replace("num_classes = 5", "num_classes = 2").replace("per_class = 40", "per_class = 5")
        cfg_path.write_text(text)
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: config field [experiment.n_clients]: 500000 clients exceed the training "
            "set's 10 examples; use fewer clients\n"
        )
        assert os.listdir(tmp_path / "runs" / "demo") == []

    def test_size_too_large_for_memory_is_error_exit(self, tmp_path, monkeypatch):
        # 10^11 hidden units: the draw of the model's first parameters, terabytes
        # that no key's check foresees, is refused at once under the child's
        # 2 GiB address limit; the error line replaces numpy's traceback and no
        # run file is left
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "huge.ini"
        cfg_path.write_text(MINIMAL.replace("kind = logreg", "kind = mlp\nhidden = 100000000000"))
        code = "import sys\nfrom fedsim.cli import main\nprint(main(sys.argv[1:]))\n"
        out = run_under_address_limit(code, "train", "-c", cfg_path)
        status, error = out.splitlines()  # no traceback
        assert status == "1" and error.startswith("error: Unable to allocate "), out
        assert os.listdir(tmp_path / "runs" / "demo") == []

    def test_memory_error_without_text_is_named(self, run_env, monkeypatch, capsys):
        # Python's own allocation failures carry no message
        def out_of_memory(cfg_path):
            raise MemoryError

        monkeypatch.setattr(fedsim.cli, "cmd_train", out_of_memory)
        assert main(["train", "-c", str(run_env[1])]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

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
        # what a train killed after 20 of its 30 rounds leaves behind: every
        # method that finds a history refuses it, scratch and finetune too
        root, cfg_path = trained
        run_dir = root / "runs" / "exp"
        path = run_dir / "history.bin"
        blob = path.read_bytes()
        header = 4 + 4 + 8 + 4 + 4 + 32
        record = (len(blob) - header) // 30
        path.write_bytes(blob[: header + 20 * record])
        for method in ("scratch", "historical", "fedrecover", "finetune"):
            assert main(["recover", "-c", str(cfg_path), "--method", method]) == 1
            assert capsys.readouterr().err == (
                f"error: {path}: history holds 20 complete records, header says T=30\n"
            )
            assert not (run_dir / f"summary_{method}.json").exists()

    def test_history_of_another_config_is_blamed_before_its_table(self, trained, capsys):
        # config A over the history of config B beside A's own table: the
        # history is the mismatched file, and it is checked first
        root, cfg_path = trained
        run_dir = root / "runs" / "exp"
        table = (run_dir / "history_tops.bin").read_bytes()
        other = root / "other.ini"
        other.write_text(cfg_path.read_text().replace("seed = 5", "seed = 6"))
        assert main(["train", "-c", str(other)]) == 0
        (run_dir / "history_tops.bin").write_bytes(table)
        capsys.readouterr()
        assert main(["recover", "-c", str(cfg_path), "--method", "fedrecover"]) == 1
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'history.bin'}: history config hash does not match the supplied "
            "config\n"
        )


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

    @pytest.mark.parametrize("beta", ["1e-6", "1.7e308"], ids=["underflow", "overflow"])
    def test_finetune_draw_out_of_float_range_names_beta(self, tmp_path, monkeypatch, capsys, beta):
        # beta lies in its range (0, inf], but at 1e-6 every Gamma draw of
        # the class proportions underflows to 0, and at 1.7e308 their sum overflows
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "minimal.ini"
        cfg_path.write_text(MINIMAL + f"\n[finetune]\nn_examples = 50\nepochs = 2\nbeta = {beta}\n")
        assert main(["train", "-c", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["recover", "-c", str(cfg_path), "--method", "finetune"]) == 1
        assert capsys.readouterr().err == (
            f"error: config field [finetune.beta]: Dirichlet({float(beta)!r}) class proportions "
            "under- or overflow\n"
        )
        assert not list((tmp_path / "runs" / "demo").glob("*finetune*"))

    @pytest.mark.parametrize("method", ["historical", "fedrecover", "finetune"])
    def test_non_finite_history_is_error_exit(self, trained, capsys, method):
        # a record with a valid checksum that holds a NaN update, and a byte
        # flipped in the last record: `load` passes both files, the record
        # check stops the recovery, and it writes no metrics and no summary.
        # finetune reads only the last record, so only the flipped byte stops it
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
        if method == "finetune":
            faults = faults[1:]
        for blob, message in faults:
            path.write_bytes(blob)
            assert main(["recover", "-c", str(cfg_path), "--method", method]) == 1
            assert message in capsys.readouterr().err
            assert not (run_dir / f"recover_{method}_metrics.csv").exists()
            assert not (run_dir / f"summary_{method}.json").exists()


    def test_table_faults_name_the_table_before_any_output(self, trained, tmp_path, capsys):
        # fedrecover derives tau from history_tops.bin: each fault of that
        # file stops it naming the file, before it writes metrics or a summary
        root, cfg_path = trained
        run_dir = root / "runs" / "exp"
        tops = run_dir / "history_tops.bin"
        good = tops.read_bytes()
        flipped = bytearray(good)
        flipped[-30] ^= 0xFF
        # the table of a 20-round run of the same directory and data
        other = tmp_path / "other"
        other_cfg = tmp_path / "other.ini"
        other_cfg.write_text(CFG_TEMPLATE.format(out=other).replace("rounds = 30", "rounds = 20"))
        assert main(["train", "-c", str(other_cfg)]) == 0
        faults = [
            (bytes(flipped), "record checksum mismatch"),
            (good[:-5], "truncated record"),
            ((other / "history_tops.bin").read_bytes(), "table meta (d=36, n=8, T=20) does not match the history's (d=36, n=8, T=30)"),
            (None, "no such file"),
        ]
        for blob, message in faults:
            if blob is None:
                tops.unlink()
            else:
                tops.write_bytes(blob)
            capsys.readouterr()
            assert main(["recover", "-c", str(cfg_path), "--method", "fedrecover"]) == 1
            assert capsys.readouterr().err.startswith(f"error: {tops}: {message}")
            assert not list(run_dir.glob("*fedrecover*"))

    def test_table_of_too_few_values_for_the_rate_is_refused(
        self, tmp_path, monkeypatch, capsys
    ):
        # tolerance_rate = 0.01 keeps m = floor(0.01 * 8 * 36) + 1 = 3 values
        # per client; a table of 1 cannot give tau, the 3rd largest of 6 x 36
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            CFG_TEMPLATE.format(out="runs/exp").replace("[recovery]", "[recovery]\ntolerance_rate = 0.01")
        )
        assert main(["train", "-c", str(cfg_path)]) == 0
        run_dir = tmp_path / "runs" / "exp"
        tops = run_dir / "history_tops.bin"
        history = HistoryStore.load(run_dir / "history.bin", tops)
        assert history.tops.m == 3
        table = TopTable.create(tops, history.d, history.n, history.total_rounds, 1, history.config_hash)
        for t, (_, updates) in enumerate(history.rounds()):
            table.append(t, updates)
        capsys.readouterr()
        assert main(["recover", "-c", str(cfg_path), "--method", "fedrecover"]) == 1
        assert capsys.readouterr().err == (
            f"error: {tops}: holds the 1 largest values per client and round, "
            "but tolerance rate 0.01 needs 3\n"
        )
        assert not list(run_dir.glob("*fedrecover*"))

    def test_given_tau_keeps_one_value_per_client(self, tmp_path, monkeypatch):
        # with tau given the rate is not checked and no command reads the
        # table, so tolerance_rate = 1 must not size it (m would be d = 35)
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(MINIMAL + "\n[recovery]\ntau = 0.5\ntolerance_rate = 1\n")
        assert main(["train", "-c", str(cfg_path)]) == 0
        run_dir = tmp_path / "runs" / "demo"
        history = HistoryStore.load(run_dir / "history.bin", run_dir / "history_tops.bin")
        assert history.tops.m == 1
        assert main(["recover", "-c", str(cfg_path), "--method", "fedrecover"]) == 0

    def test_given_tau_needs_no_table(self, trained):
        root, cfg_path = trained
        cfg_path.write_text(cfg_path.read_text().replace("[recovery]", "[recovery]\ntau = 2.5"))
        assert main(["train", "-c", str(cfg_path)]) == 0
        run_dir = root / "runs" / "exp"
        (run_dir / "history_tops.bin").unlink()
        assert main(["recover", "-c", str(cfg_path), "--method", "fedrecover"]) == 0
        assert (run_dir / "summary_fedrecover.json").exists()

    @pytest.mark.parametrize("tau", [None, "2.5", "inf"])
    def test_fedrecover_reads_the_history_once(self, run_env, monkeypatch, tau):
        root, cfg_path = run_env
        if tau is not None:
            cfg_path.write_text(cfg_path.read_text().replace("[recovery]", f"[recovery]\ntau = {tau}"))
        assert main(["train", "-c", str(cfg_path)]) == 0
        passes = []
        real_rounds = HistoryStore.rounds

        def counted(store, first=0):
            passes.append(0)
            for record in real_rounds(store, first):
                passes[-1] += 1
                yield record

        monkeypatch.setattr(HistoryStore, "rounds", counted)
        assert main(["recover", "-c", str(cfg_path), "--method", "fedrecover"]) == 0
        assert passes == [30]

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
        # aggregates only the stored last round, over all 10 clients
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

    def test_recovery_cut_by_a_file_size_limit_names_the_csv(self, tmp_path):
        # the scratch metrics CSV, its first output, cannot pass 100 bytes
        cfg_path = tmp_path / "minimal.ini"
        cfg_path.write_text(MINIMAL)
        cut, whole = tmp_path / "cut", tmp_path / "whole"
        run_dir = cut / "runs" / "demo"
        recover = ("recover", "-c", str(cfg_path), "--method", "scratch")
        for root in (cut, whole):
            with _sim(root, "train", "-c", str(cfg_path)) as proc:
                assert proc.wait() == 0
        trained = sorted(os.listdir(run_dir))
        with _sim(cut, *recover, fsize=100) as proc:
            err = proc.communicate()[1]
        assert proc.returncode == 1
        assert err == _too_large(run_dir / "recover_scratch_metrics.csv.tmp")
        assert sorted(os.listdir(run_dir)) == trained
        for root in (cut, whole):
            with _sim(root, *recover) as proc:
                assert proc.wait() == 0
        _same_files(run_dir, whole / "runs" / "demo")

    def test_recovery_killed_between_csv_and_summary(self, trained, capsys):
        # a real `sim recover` whose write_summary SIGKILLs its own process,
        # so the kill falls after the metrics CSV is in place and before the
        # summary; the run still reports, and a re-run writes the bytes of
        # an uninterrupted one
        root, cfg_path = trained
        run_dir = root / "runs" / "exp"
        killed_at_summary = (
            "import os, signal, sys\n"
            "import fedsim.cli\n"
            "fedsim.cli.write_summary = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
            "sys.exit(fedsim.cli.main(sys.argv[1:]))\n"
        )
        for method in ("scratch", "historical", "fedrecover", "finetune"):
            args = ["recover", "-c", str(cfg_path), "--method", method]
            outputs = [run_dir / f"recover_{method}_metrics.csv", run_dir / f"summary_{method}.json"]
            assert main(args) == 0
            whole = [path.read_bytes() for path in outputs]
            for path in outputs:
                path.unlink()
            with _sim(root, *args, code=killed_at_summary) as proc:
                err = proc.communicate()[1]
            assert proc.returncode == -signal.SIGKILL, err
            csv_path, summary_path = outputs
            assert csv_path.read_bytes() == whole[0]
            assert not summary_path.exists()
            capsys.readouterr()
            assert main(["report", str(run_dir)]) == 0, capsys.readouterr().err
            assert main(args) == 0
            assert not list(run_dir.glob("*.tmp"))
            assert [path.read_bytes() for path in outputs] == whole

# d = 4 and n = 2 over 3 rounds: the history (416 bytes) and its table
# (144) stay below config.ini (571), and every recovery's metrics CSV (at
# most 47) below its summary (about 280), so a size limit can cut each.
TINY = """
[experiment]
seed = 7
rounds = 3
learning_rate = 0.1
n_clients = 2
aggregation = fedavg
output_dir = runs/tiny

[dataset]
kind = synthetic
num_classes = 2
dim = 1
per_class = 10
test_per_class = 5

[model]
kind = logreg

[recovery]
warmup_rounds = 2
buffer_size = 1
final_tuning_rounds = 0

[finetune]
epochs = 1
n_examples = 4
"""

# Each command's files in the order it writes them.
TRAIN_FILES = ["history.bin", "history_tops.bin", "config.ini", "train_metrics.csv", "summary_train.json"]


def _recover_files(method):
    return [f"recover_{method}_metrics.csv", f"summary_{method}.json"]


class TestWriteFaults:
    """A file-size limit on the child process cuts the write of one file.
    The limit, one byte below that file's whole size, is taken from an
    uninterrupted run, and lets every file the command writes before it
    through. The cut command exits 1 naming the file, leaves no `.tmp`
    and no partial file under a run name, and a re-run writes the
    uninterrupted run's bytes. A limit stops only the first file that
    outgrows it, so `history_tops.bin` (always smaller than the history
    written before it), `train_metrics.csv` (smaller than the history)
    and `summary_train.json` (smaller than config.ini) cannot be cut."""

    @pytest.fixture(scope="class")
    def whole(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("whole")
        cfg_path = root / "tiny.ini"
        cfg_path.write_text(TINY)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("FEDSIM_OUTPUT_ROOT", str(root))
            assert main(["train", "-c", str(cfg_path)]) == 0
            for method in METHODS:
                assert main(["recover", "-c", str(cfg_path), "--method", method]) == 0
        run_dir = root / "runs" / "tiny"
        return {p.name: p.read_bytes() for p in run_dir.iterdir()}

    # (command, the file cut, the files it leaves in place): the history, its
    # table and config.ini take their names together, after the last round
    @pytest.mark.parametrize(
        "method, name, kept",
        [("train", "config.ini", [])]
        + [(m, f"recover_{m}_metrics.csv", []) for m in ("historical", "fedrecover", "finetune")]
        + [(m, f"summary_{m}.json", [f"recover_{m}_metrics.csv"]) for m in METHODS],
    )
    def test_cut_leaves_a_usable_run(
        self, whole, tmp_path, monkeypatch, capsys, method, name, kept
    ):
        cfg_path = tmp_path / "tiny.ini"
        cfg_path.write_text(TINY)
        run_dir = tmp_path / "runs" / "tiny"
        run_dir.mkdir(parents=True)
        if method == "train":
            args, written = ["train"], TRAIN_FILES
        else:
            args, written = ["recover", "--method", method], _recover_files(method)
            for trained in TRAIN_FILES:
                (run_dir / trained).write_bytes(whole[trained])
        args += ["-c", str(cfg_path)]
        limit = len(whole[name]) - 1
        assert all(len(whole[earlier]) <= limit for earlier in written[: written.index(name)])
        before = sorted(os.listdir(run_dir))

        with _sim(tmp_path, *args, fsize=limit) as proc:
            err = proc.communicate()[1]
        assert proc.returncode == 1
        assert err == _too_large(run_dir / f"{name}.tmp")
        left = before + kept
        assert sorted(os.listdir(run_dir)) == sorted(left)
        for present in left:
            assert (run_dir / present).read_bytes() == whole[present], present
        if "history.bin" in left:
            history = HistoryStore.load(run_dir / "history.bin", run_dir / "history_tops.bin")
            assert len(list(history.rounds())) == len(list(history.tops.rounds())) == 3
        if any(present.startswith("summary_") for present in left):
            assert main(["report", str(run_dir)]) == 0, capsys.readouterr().err

        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        assert main(args) == 0
        assert not list(run_dir.glob("*.tmp"))
        for present in os.listdir(run_dir):
            assert (run_dir / present).read_bytes() == whole[present], present


MNIST_CFG = """
[experiment]
seed = 1
rounds = 4
learning_rate = 0.1
batch_size = 8
n_clients = 10
aggregation = fedavg
output_dir = runs/mnist

[dataset]
kind = mnist
train_images = {data}/train/images.idx
train_labels = {data}/train/labels.idx
test_images = {data}/test/images.idx
test_labels = {data}/test/labels.idx

[model]
kind = logreg
l2 = 0.01

[recovery]
warmup_rounds = 3
final_tuning_rounds = 1
"""

BACKDOOR_ATTACK = """
[attack]
kind = backdoor
trigger = pixel_patch
target_label = 0
"""


class TestDataMatchesTheModel:
    """`config.build_datasets` matches the example data to the model before
    anything is written, naming the key to change; the library trusts it."""

    @staticmethod
    def write_split(tmp_path, split, n, side, labels, **magic):
        folder = tmp_path / "data" / split
        folder.mkdir(parents=True, exist_ok=True)
        pixels = (RngStream(n * side).uniforms(n * side * side) * 256).astype(np.uint8)
        write_idx_pair(folder, pixels.reshape(n, side, side), labels, **magic)

    def config(
        self, tmp_path, monkeypatch, *, train_side=28, test_side=28, test_labels=None, backdoor=False
    ):
        """An MNIST config over IDX files of 200 train and 30 test images."""
        monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
        self.write_split(tmp_path, "train", 200, train_side, [i % 10 for i in range(200)])
        self.write_split(tmp_path, "test", 30, test_side, test_labels or [i % 10 for i in range(30)])
        text = MNIST_CFG.format(data=tmp_path / "data")
        if backdoor:
            text = text.replace("n_clients = 10\n", "n_clients = 10\nmalicious_count = 2\n") + BACKDOOR_ATTACK
        cfg_path = tmp_path / "mnist.ini"
        cfg_path.write_text(text)
        return cfg_path

    @pytest.mark.parametrize(
        "sides, key",
        [((28, 3), "dataset.test_images"), ((3, 28), "dataset.train_images")],
        ids=["test", "train"],
    )
    def test_images_of_another_dim_name_their_key(self, tmp_path, monkeypatch, capsys, sides, key):
        cfg_path = self.config(tmp_path, monkeypatch, train_side=sides[0], test_side=sides[1])
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: config field [{key}]: inputs of dim 9, but the model's input_dim is 784\n"
        )
        assert os.listdir(tmp_path / "runs" / "mnist") == []

    @pytest.mark.parametrize(
        "split, labels, magic, expected",
        [
            ("test", [12] * 30, {}, "[dataset.test_labels]: labels out of range: 12 is not a digit"),
            (
                "test", None, {"image_magic": 0x802},
                "[dataset.test_images]: image file magic 0x00000802 != 0x00000803",
            ),
            (
                "train", None, {"label_magic": 0x803},
                "[dataset.train_labels]: label file magic 0x00000803 != 0x00000801",
            ),
        ],
        ids=["test-label-12", "test-image-magic", "train-label-magic"],
    )
    def test_idx_fault_names_the_key_of_its_file(
        self, tmp_path, monkeypatch, capsys, split, labels, magic, expected
    ):
        cfg_path = self.config(tmp_path, monkeypatch)
        n = {"train": 200, "test": 30}[split]
        self.write_split(tmp_path, split, n, 28, labels or [i % 10 for i in range(n)], **magic)
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: config field {expected}\n"
        assert os.listdir(tmp_path / "runs" / "mnist") == []

    def test_image_header_past_the_file_names_its_key(self, tmp_path, monkeypatch, capsys):
        # (2**32 - 1)**3 pixels: more bytes than a read can be asked for
        cfg_path = self.config(tmp_path, monkeypatch)
        images = tmp_path / "data" / "train" / "images.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, *[2**32 - 1] * 3) + images.read_bytes()[16:])
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: config field [dataset.train_images]: unexpected end of file while reading image pixels\n"
        )
        assert os.listdir(tmp_path / "runs" / "mnist") == []

    @pytest.mark.parametrize("split, part", [("test", "labels"), ("train", "images")])
    def test_missing_idx_file_names_its_key(self, tmp_path, monkeypatch, capsys, split, part):
        cfg_path = self.config(tmp_path, monkeypatch)
        missing = tmp_path / "data" / split / f"{part}.idx"
        missing.unlink()
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: config field [dataset.{split}_{part}]: "
            f"[Errno 2] No such file or directory: '{missing}'\n"
        )
        assert os.listdir(tmp_path / "runs" / "mnist") == []

    def test_backdoor_test_set_of_target_labels_only_names_the_target(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg_path = self.config(tmp_path, monkeypatch, test_labels=[0] * 30, backdoor=True)
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: config field [attack.target_label]: all test labels are 0; ASR needs another\n"
        )
        assert os.listdir(tmp_path / "runs" / "mnist") == []

    def test_recover_refuses_test_images_of_another_dim_before_the_history(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg_path = self.config(tmp_path, monkeypatch)
        assert main(["train", "-c", str(cfg_path)]) == 0
        self.write_split(tmp_path, "test", 30, 3, [i % 10 for i in range(30)])

        def no_load(*args):
            raise AssertionError("history loaded")

        monkeypatch.setattr(HistoryStore, "load", no_load)
        capsys.readouterr()
        assert main(["recover", "-c", str(cfg_path), "--method", "historical"]) == 1
        assert capsys.readouterr().err == (
            "error: config field [dataset.test_images]: inputs of dim 9, but the model's input_dim is 784\n"
        )
        assert not list((tmp_path / "runs" / "mnist").glob("*historical*"))


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
    jsonschema.validators.validator_for(SUMMARY_SCHEMA).check_schema(SUMMARY_SCHEMA)


def test_write_summary_validates_every_summary(tmp_path):
    with pytest.raises(CliError, match="s.json: bad summary at /: 'rounds' is a required"):
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


_REFERENCE = jsonschema.Draft202012Validator(SUMMARY_SCHEMA)
# the command each oneOf branch of the schema describes, in branch order
_BRANCH_COMMANDS = [b["properties"]["command"]["const"] for b in SUMMARY_SCHEMA["oneOf"]]


def _reference_errors(summary) -> list:
    """jsonschema's errors for the summary, as (command, path, message):
    the failed oneOf's own (command None), then each branch's in order,
    tagged with the branch's command. Empty when the summary is valid."""
    error = next(_REFERENCE.iter_errors(summary), None)
    if error is None:
        return []
    return [(None, list(error.absolute_path), error.message)] + [
        (_BRANCH_COMMANDS[e.relative_schema_path[0]], list(e.absolute_path), e.message)
        for e in error.context
    ]


def assert_agrees_with_jsonschema(summary):
    """The CLI's check accepts what jsonschema accepts. A summary of either
    command fails at the first error of that command's branch, in the same
    words; any other fails at a path where jsonschema reports an error."""
    ours, theirs = _summary_error(summary), _reference_errors(summary)
    assert (ours is None) == (not theirs)
    if ours is None:
        return
    path, message = list(ours[0]), ours[1]
    command = summary.get("command") if isinstance(summary, dict) else None
    if command in _BRANCH_COMMANDS:
        assert (path, message) == next((p, m) for c, p, m in theirs if c == command)
    else:
        assert path in [p for _, p, _ in theirs]


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
    assert_agrees_with_jsonschema(summary)


_RECOVER_SUMMARY = {
    "command": "recover",
    "method": "fedrecover",
    "rounds": 3,
    "ter": 0.5,
    "asr": None,
    "acp": 50.0,
    "cp_min": 0.0,
    "cp_max": 100.0,
    "abnormality_count": 0,
    "config_hash": "0" * 64,
    "bound_check": {"mu": 0.1, "m_measured": 0.0, "max_violation": -1.0},
}


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"rounds": True}, "True is not of type 'integer'"),
        ({"rounds": 3.0}, None),
        ({"rounds": 1.5}, "1.5 is not of type 'integer'"),
        ({"rounds": 10**30}, None),
        ({"ter": math.nan}, None),
        (
            {"bound_check": {"mu": 0.0, "m_measured": 0.0, "max_violation": 0.0}},
            "0.0 is less than or equal to the minimum of 0",
        ),
        ({"method": True}, "True is not one of ['scratch', 'historical', 'fedrecover', 'finetune']"),
        ({"config_hash": "0" * 64 + "\n"}, None),
        ({"config_hash": "0" * 63}, "does not match '^[0-9a-f]{64}$'"),
        (
            {"zeta": 1, "alpha": 2},
            "Additional properties are not allowed ('alpha', 'zeta' were unexpected)",
        ),
    ],
    ids=[
        "rounds-bool", "rounds-integral-float", "rounds-fraction", "rounds-big-int", "ter-nan",
        "mu-zero", "method-bool", "hash-trailing-newline", "hash-63-chars", "two-extra-keys",
    ],
)
def test_summary_rule_matches_jsonschema(edit, message):
    summary = {**_RECOVER_SUMMARY, **edit}
    assert_agrees_with_jsonschema(summary)
    error = _summary_error(summary)
    if message is None:
        assert error is None
    else:
        assert message in error[1]
