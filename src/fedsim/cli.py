"""Command-line front end: `sim train`, `sim recover`, `sim report`.

A run directory (resolved against $FEDSIM_OUTPUT_ROOT) holds the canonical
config, the binary training history, the final model, per-round metric
CSVs, and schema-validated JSON summaries. All outputs are byte-stable
for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import importlib.resources
import json
import math
import os
import struct
import sys
from contextlib import contextmanager, suppress

import jsonschema
import numpy as np

from . import config as config_mod
from . import metrics, models, recovery
from .attacks import simulate_detection
from .flengine import HistoryStore, train
from .numcore import STREAM_DETECT, RngStream, derive_seed

OUTPUT_ROOT_ENV = "FEDSIM_OUTPUT_ROOT"
HISTORY_FILE = "history.bin"
MODEL_FILE = "model_final.bin"
CONFIG_FILE = "config.ini"
_MODEL_MAGIC = b"FRM1"

METHODS = ("scratch", "historical", "fedrecover", "finetune")


class CliError(RuntimeError):
    pass


def _run_dir(cfg) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    path = cfg.output_dir
    return path if os.path.isabs(path) else os.path.join(root, path)


def _lock_owner_gone(lock_path: str) -> bool:
    """Whether the lock names a pid whose process no longer exists."""
    try:
        with open(lock_path, "r", encoding="ascii") as f:
            pid = int(f.read())
    except (OSError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:  # alive, but another user's
        pass
    return False


def _create_lock(lock_path: str) -> int | None:
    try:
        return os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None


@contextmanager
def _locked(run_dir: str):
    """Hold the run directory's `.lock`, which holds this process's pid.

    A lock left by a process that no longer exists (a killed command) is
    removed and taken once; a lock with a live pid, or with none, refuses.
    """
    os.makedirs(run_dir, exist_ok=True)
    lock_path = os.path.join(run_dir, ".lock")
    fd = _create_lock(lock_path)
    if fd is None and _lock_owner_gone(lock_path):
        with suppress(FileNotFoundError):
            os.unlink(lock_path)
        fd = _create_lock(lock_path)
    if fd is None:
        raise CliError(f"run directory {run_dir} is locked by another command")
    try:
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        yield
    finally:
        os.unlink(lock_path)


def save_model(path, w: np.ndarray) -> None:
    payload = struct.pack("<Q", w.size) + np.ascontiguousarray(w, dtype="<f8").tobytes()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    with open(path, "wb") as f:
        f.write(_MODEL_MAGIC + payload + digest)


def load_model(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MODEL_MAGIC:
        raise CliError(f"{path} is not a model file")
    payload, digest = blob[4:-8], blob[-8:]
    if hashlib.blake2b(payload, digest_size=8).digest() != digest:
        raise CliError(f"{path} failed its checksum")
    (d,) = struct.unpack_from("<Q", payload)
    return np.frombuffer(payload, dtype="<f8", count=d, offset=8).astype(np.float64)


def _summary_schema() -> dict:
    text = importlib.resources.files("fedsim.schemas").joinpath("summary.schema.json").read_text()
    return json.loads(text)


@functools.lru_cache(maxsize=1)
def _summary_validator():
    """The summary schema's validator, built once; the schema itself is
    checked against its metaschema by the tests, not on every write."""
    schema = _summary_schema()
    return jsonschema.validators.validator_for(schema)(schema)


def write_summary(path, summary: dict) -> None:
    _summary_validator().validate(summary)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")


def _eval_rounds(total: int) -> list[int]:
    stride = -(-total // 50)  # ceil
    rounds = list(range(0, total, stride))
    if rounds[-1] != total:
        rounds.append(total)
    return rounds


def _evaluate(cfg, w, test) -> tuple[float, float | None]:
    ter = metrics.test_error_rate(cfg.model, w, test)
    asr = None
    if cfg.attack is not None and cfg.attack.kind == "backdoor":
        asr = metrics.attack_success_rate(
            cfg.model, w, test, cfg.attack.trigger, cfg.attack.target_label
        )
    return ter, asr


def _write_metrics_csv(path, cfg, trace_lookup, test, rounds) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "ter", "asr"])
        for t in rounds:
            ter, asr = _evaluate(cfg, trace_lookup(t), test)
            writer.writerow([t, repr(ter), "" if asr is None else repr(asr)])


def cmd_train(cfg_path: str) -> int:
    cfg = config_mod.parse_config(cfg_path)
    run_dir = _run_dir(cfg)
    with _locked(run_dir):
        chash = config_mod.config_hash(cfg)
        with open(os.path.join(run_dir, CONFIG_FILE), "w", encoding="utf-8") as f:
            f.write(config_mod.serialize_config(cfg))
        train_set, test_set = config_mod.build_datasets(cfg)
        setup = config_mod.build_setup(cfg, train_set)
        # Both files appear under their names only once the last round is
        # done, so a failed or killed train never leaves a partial run.
        outputs = [os.path.join(run_dir, name) for name in (HISTORY_FILE, MODEL_FILE)]
        temps = [path + ".tmp" for path in outputs]
        try:
            store, final_model = train(setup, cfg.rounds, temps[0], chash)
            save_model(temps[1], final_model)
            for temp, path in zip(temps, outputs):
                os.replace(temp, path)
        finally:
            for temp in temps:
                if os.path.exists(temp):
                    os.unlink(temp)

        def trace_lookup(t):
            return final_model if t >= cfg.rounds else store.records[t].global_model

        _write_metrics_csv(
            os.path.join(run_dir, "train_metrics.csv"), cfg, trace_lookup, test_set,
            _eval_rounds(cfg.rounds),
        )
        ter, asr = _evaluate(cfg, final_model, test_set)
        write_summary(
            os.path.join(run_dir, "summary_train.json"),
            {
                "command": "train",
                "rounds": cfg.rounds,
                "ter": ter,
                "asr": asr,
                "config_hash": chash.hex(),
            },
        )
    return 0


def _detection(cfg, setup):
    rng = RngStream(derive_seed(cfg.seed, STREAM_DETECT, 0, 0))
    outcome = simulate_detection(setup.malicious, setup.client_ids, cfg.fnr, cfg.fpr, rng)
    return outcome.detected


def _bound_check(cfg, setup, result, scratch_trace) -> dict:
    if cfg.rule.kind != "fedavg":
        raise CliError("bound_check requires the fedavg aggregation rule")
    if cfg.recovery.tau is None or not math.isinf(cfg.recovery.tau):
        raise CliError("bound_check requires tau = inf (abnormality fixing disabled)")
    if cfg.model.kind not in ("logreg", "ridge") or cfg.model.l2 <= 0:
        raise CliError("bound_check requires a strongly convex model (logreg/ridge, l2 > 0)")
    mu = cfg.model.l2
    m_measured = result.measured_m or 0.0
    d0 = float(np.linalg.norm(result.per_round_models[0] - scratch_trace[0]))
    max_violation = -math.inf
    for t, (w_hat, w_t) in enumerate(zip(result.per_round_models, scratch_trace)):
        gap = float(np.linalg.norm(w_hat - w_t))
        bound = recovery.theoretical_bound(cfg.learning_rate, mu, m_measured, t, d0)
        max_violation = max(max_violation, gap - bound)
    return {"mu": mu, "m_measured": m_measured, "max_violation": max_violation}


def cmd_recover(cfg_path: str, method: str) -> int:
    if method not in METHODS:
        raise CliError(f"unknown recovery method {method!r}")
    cfg = config_mod.parse_config(cfg_path)
    run_dir = _run_dir(cfg)
    history_path = os.path.join(run_dir, HISTORY_FILE)
    if method != "scratch" and not os.path.exists(history_path):
        raise CliError(f"no training history at {history_path}; run `sim train` first")
    with _locked(run_dir):
        chash = config_mod.config_hash(cfg)
        train_set, test_set = config_mod.build_datasets(cfg)
        setup = config_mod.build_setup(cfg, train_set)
        detected = _detection(cfg, setup)
        remaining = sorted(set(setup.client_ids) - set(detected))

        # scratch and finetune use no records: they read only the header.
        history = None
        if os.path.exists(history_path):
            if method in ("historical", "fedrecover"):
                history = HistoryStore.load(history_path)
            else:
                history = HistoryStore.load_header(history_path)
            history.check_meta(cfg.model.param_dim, cfg.n_clients, cfg.rounds, chash)

        abnormality_count = 0
        bound_block = None
        if method == "scratch":
            model, trace = recovery.train_from_scratch(setup, remaining, cfg.rounds)
            exact_rounds = {c: cfg.rounds for c in remaining}
        elif method == "historical":
            model, trace = recovery.historical_only(
                history, detected, cfg.rule, cfg.learning_rate, setup.sizes
            )
            exact_rounds = {c: 0 for c in remaining}
        elif method == "fedrecover":
            result = recovery.fedrecover(
                history, detected, setup, cfg.recovery, instrument=cfg.bound_check
            )
            model, trace = result.recovered_model, result.per_round_models
            exact_rounds = result.exact_rounds_per_client
            abnormality_count = result.abnormality_count
            if cfg.bound_check:
                _, scratch_trace = recovery.train_from_scratch(setup, remaining, cfg.rounds)
                bound_block = _bound_check(cfg, setup, result, scratch_trace)
        else:  # finetune
            poisoned = load_model(os.path.join(run_dir, MODEL_FILE))
            ft = cfg.finetune
            model = recovery.fine_tune(
                cfg.model, poisoned, train_set, ft.epochs, cfg.learning_rate,
                ft.beta, ft.n_examples, ft.batch_size, cfg.seed,
            )
            trace = None
            exact_rounds = {c: 0 for c in remaining}

        cp, acp = metrics.cost_saving(cfg.rounds, exact_rounds)
        ter, asr = _evaluate(cfg, model, test_set)
        report = metrics.MetricsReport(ter=ter, asr=asr, acp=acp, cp_per_client=cp)

        csv_path = os.path.join(run_dir, f"recover_{method}_metrics.csv")
        if trace is not None:
            _write_metrics_csv(
                csv_path, cfg, lambda t: trace[t], test_set, _eval_rounds(cfg.rounds)
            )
        else:
            _write_metrics_csv(csv_path, cfg, lambda t: model, test_set, [cfg.rounds])

        write_summary(
            os.path.join(run_dir, f"summary_{method}.json"),
            {
                "command": "recover",
                "method": method,
                "rounds": cfg.rounds,
                "ter": report.ter,
                "asr": report.asr,
                "acp": report.acp,
                "cp_min": report.cp_min,
                "cp_max": report.cp_max,
                "abnormality_count": abnormality_count,
                "config_hash": chash.hex(),
                "bound_check": bound_block,
            },
        )
    return 0


def cmd_report(run_dirs, out_stream=None) -> int:
    out = out_stream or sys.stdout
    rows = []
    for run_dir in run_dirs:
        if not os.path.isdir(run_dir):
            raise CliError(f"{run_dir} is not a run directory")
        summaries = sorted(
            name for name in os.listdir(run_dir)
            if name.startswith("summary_") and name.endswith(".json")
        )
        if not summaries:
            raise CliError(f"{run_dir} contains no summary files")
        for name in summaries:
            with open(os.path.join(run_dir, name), "r", encoding="utf-8") as f:
                summary = json.load(f)
            label = summary.get("method", summary["command"])
            rows.append(
                (
                    os.path.basename(os.path.normpath(run_dir)),
                    label,
                    summary["ter"],
                    summary["asr"],
                    summary.get("acp"),
                )
            )
    writer = csv.writer(out)
    writer.writerow(["scenario", "method", "ter", "asr", "acp"])
    for scenario, label, ter, asr, acp in rows:
        writer.writerow(
            [
                scenario,
                label,
                repr(ter),
                "" if asr is None else repr(asr),
                "" if acp is None else repr(acp),
            ]
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sim", description="Federated training, poisoning, and recovery simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the original (possibly poisoned) training")
    p_train.add_argument("-c", "--config", required=True, help="experiment config file")

    p_recover = sub.add_parser("recover", help="recover a model after detection")
    p_recover.add_argument("-c", "--config", required=True, help="experiment config file")
    p_recover.add_argument("--method", required=True, choices=METHODS)

    p_report = sub.add_parser("report", help="tabulate summaries across run directories")
    p_report.add_argument("run_dirs", nargs="+")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config)
        if args.command == "recover":
            return cmd_recover(args.config, args.method)
        return cmd_report(args.run_dirs)
    except (CliError, config_mod.ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
