import io
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from fedsim.cli import (
    _summary_schema,
    cmd_report,
    load_model,
    main,
    save_model,
    write_summary,
)
from fedsim.flengine import HistoryStore

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
        jsonschema.validate(summary, _summary_schema())

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

        def failing_append(store, record):
            if record.round_idx == 12:
                raise OSError("injected write failure")
            append(store, record)

        monkeypatch.setattr(fedsim.flengine.HistoryStore, "append", failing_append)
        assert main(["train", "-c", str(cfg_path)]) == 1
        run_dir = root / "runs" / "exp"
        assert sorted(os.listdir(run_dir)) == ["config.ini"]

    def test_lock_excludes_concurrent_use(self, run_env):
        root, cfg_path = run_env
        run_dir = root / "runs" / "exp"
        run_dir.mkdir(parents=True)
        (run_dir / ".lock").touch()
        assert main(["train", "-c", str(cfg_path)]) == 1

    def test_lock_of_a_dead_process_is_broken(self, run_env):
        # what a killed command leaves behind: a lock naming a gone pid
        root, cfg_path = run_env
        run_dir = root / "runs" / "exp"
        run_dir.mkdir(parents=True)
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        (run_dir / ".lock").write_text(f"{gone.pid}\n")
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert not (run_dir / ".lock").exists()

    def test_lock_of_a_live_process_refuses(self, run_env, capsys):
        root, cfg_path = run_env
        run_dir = root / "runs" / "exp"
        run_dir.mkdir(parents=True)
        (run_dir / ".lock").write_text(f"{os.getpid()}\n")
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert "locked" in capsys.readouterr().err
        assert (run_dir / ".lock").exists()

    def test_lock_holds_the_owner_pid(self, run_env, monkeypatch):
        import fedsim.flengine

        root, cfg_path = run_env
        seen = []
        train = fedsim.flengine.train

        def spying_train(*args):
            seen.append((root / "runs" / "exp" / ".lock").read_text())
            return train(*args)

        monkeypatch.setattr("fedsim.cli.train", spying_train)
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert seen == [f"{os.getpid()}\n"]

    def test_bad_config_is_error_exit(self, run_env, capsys):
        root, cfg_path = run_env
        cfg_path.write_text(CFG_TEMPLATE.format(out="runs/x").replace("seed = 5", ""))
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert "experiment.seed" in capsys.readouterr().err

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
        jsonschema.validate(summary, _summary_schema())
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


    @pytest.mark.parametrize("method", ["historical", "fedrecover"])
    def test_non_finite_history_is_error_exit(self, trained, capsys, method):
        # a record with a valid checksum that holds a NaN update
        root, cfg_path = trained
        path = root / "runs" / "exp" / "history.bin"
        store = HistoryStore.load(path)
        path.unlink()
        rewritten = HistoryStore.create(
            path, store.d, store.n, store.total_rounds, store.config_hash
        )
        for rec in store.records:
            if rec.round_idx == 7:
                rec.updates[3][0] = np.nan
            rewritten.append(rec)
        assert main(["recover", "-c", str(cfg_path), "--method", method]) == 1
        assert "round 7 holds non-finite values" in capsys.readouterr().err


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

    def test_missing_summary_named_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(Exception) as err:
            cmd_report([str(empty)])
        assert "summary" in str(err.value)

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
    with pytest.raises(jsonschema.ValidationError):
        write_summary(tmp_path / "s.json", {"command": "train"})
    assert not (tmp_path / "s.json").exists()


def test_model_file_roundtrip(tmp_path):
    import numpy as np

    w = np.linspace(-1, 1, 17)
    path = tmp_path / "m.bin"
    save_model(path, w)
    np.testing.assert_array_equal(load_model(path), w)


def test_model_file_checksum(tmp_path):
    import numpy as np

    path = tmp_path / "m.bin"
    save_model(path, np.ones(4))
    blob = bytearray(path.read_bytes())
    blob[10] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(Exception):
        load_model(path)
