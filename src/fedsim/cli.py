"""Command-line front end: `sim train`, `sim recover`, `sim report`.

A run directory (resolved against $FEDSIM_OUTPUT_ROOT) holds the canonical
config, the binary training history, the final model, per-round metric
CSVs, and JSON summaries checked against `schemas/summary.schema.json`.
All outputs are byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import functools
import hashlib
import json
import math
import os
import struct
import sys
from contextlib import contextmanager, suppress

import numpy as np

from . import config as config_mod
from . import metrics, models, recovery
from .attacks import simulate_detection
from .flengine import HistoryStore, train
from .numcore import STREAM_DETECT, RngStream, derive_seed
from .schema import check_schema, schema_errors

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


@contextmanager
def _locked(run_dir: str):
    """Hold an exclusive `flock` on the run directory itself while the block runs.

    The kernel releases it when the descriptor closes, however the process
    ends, so a killed command never leaves the directory locked and no lock
    file is ever written. POSIX only.
    """
    os.makedirs(run_dir, exist_ok=True)
    fd = os.open(run_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CliError(f"run directory {run_dir} is locked by another command") from None
        yield
    finally:
        os.close(fd)


@contextmanager
def _atomic(*paths):
    """Temporary paths (`name.tmp`) to write `paths` through. They replace
    `paths` together only when the block ends without error, and are
    removed either way, so an interrupted write leaves every earlier file
    whole and no partial file under a run's names."""
    temps = [path + ".tmp" for path in paths]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            with suppress(FileNotFoundError):
                os.unlink(temp)


def save_model(path, w: np.ndarray) -> None:
    payload = struct.pack("<Q", w.size) + np.ascontiguousarray(w, dtype="<f8").tobytes()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    with open(path, "wb") as f:
        f.write(_MODEL_MAGIC + payload + digest)


def load_model(path) -> np.ndarray:
    """The model in a file `save_model` wrote: the file boundary of a
    stored model, which must hold exactly d finite float64 values."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MODEL_MAGIC:
        raise CliError(f"{path} is not a model file")
    payload, digest = blob[4:-8], blob[-8:]
    if hashlib.blake2b(payload, digest_size=8).digest() != digest:
        raise CliError(f"{path} failed its checksum")
    if len(payload) < 8:
        raise CliError(f"{path} is too short to name its model dim")
    (d,) = struct.unpack_from("<Q", payload)
    if len(payload) != 8 + 8 * d:
        raise CliError(f"{path} holds {len(payload) - 8} value bytes, not 8 d = {8 * d}")
    w = np.frombuffer(payload, dtype="<f8", offset=8).astype(np.float64)
    if not np.isfinite(w).all():
        raise CliError(f"{path} holds non-finite values")
    return w


class SummaryError(ValueError):
    """A summary that does not match the schema; names its file and field."""


@functools.lru_cache(maxsize=1)
def _summary_schema() -> dict:
    """The summary schema, read and checked for unsupported keywords once."""
    path = os.path.join(os.path.dirname(__file__), "schemas", "summary.schema.json")
    with open(path, "r", encoding="utf-8") as f:
        schema = json.load(f)
    check_schema(schema)
    return schema


def _summary_error(summary):
    """The summary's schema error, or None when it is valid.

    The schema has one branch per command. Of the branches the summary
    fails, the one it misses by the fewest errors is the one it meant,
    so its first error is the one that names the bad field.
    """
    error = next(schema_errors(_summary_schema(), summary), None)
    if error is None or not error.branches:
        return error
    return min(error.branches, key=len)[0]


def _check_summary(path, summary) -> None:
    error = _summary_error(summary)
    if error is not None:
        where = "/" + "/".join(str(p) for p in error.absolute_path)
        raise SummaryError(f"{path}: bad summary at {where}: {error.message}")


def write_summary(path, summary: dict) -> None:
    _check_summary(path, summary)
    with _atomic(path) as (temp,), open(temp, "w", encoding="utf-8") as f:
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


def _write_metrics_csv(path, cfg, trace, test, rounds) -> None:
    """TER and ASR of `trace[t]`, the global model after t rounds, for each t in `rounds`."""
    with _atomic(path) as (temp,), open(temp, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "ter", "asr"])
        for t in rounds:
            ter, asr = _evaluate(cfg, trace[t], test)
            writer.writerow([t, repr(ter), "" if asr is None else repr(asr)])


def cmd_train(cfg_path: str) -> int:
    cfg = config_mod.parse_config(cfg_path)
    run_dir = _run_dir(cfg)
    with _locked(run_dir):
        chash = config_mod.config_hash(cfg)
        train_set, test_set = config_mod.build_datasets(cfg)
        setup = config_mod.build_setup(cfg, train_set)
        # The history, the model and the config appear under their names only
        # once the last round is done, so a failed or killed train never leaves
        # a partial run, nor a config that does not match the run's history.
        outputs = [os.path.join(run_dir, name) for name in (HISTORY_FILE, MODEL_FILE, CONFIG_FILE)]
        with _atomic(*outputs) as (history_temp, model_temp, config_temp):
            trace = train(setup, cfg.rounds, history_temp, chash)
            save_model(model_temp, trace[-1])
            with open(config_temp, "w", encoding="utf-8") as f:
                f.write(config_mod.serialize_config(cfg))
        _write_metrics_csv(
            os.path.join(run_dir, "train_metrics.csv"), cfg, trace, test_set,
            _eval_rounds(cfg.rounds),
        )
        ter, asr = _evaluate(cfg, trace[-1], test_set)
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
    return simulate_detection(setup.malicious, setup.client_ids, cfg.fnr, cfg.fpr, rng)


def _bound_check(cfg, result, scratch_trace) -> dict:
    """The recovered-vs-scratch gap against `theoretical_bound`, whose
    preconditions the config checks when it sets bound_check."""
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
        if not remaining:
            raise CliError(f"detection flagged all {cfg.n_clients} clients; none remain")
        k = cfg.rule.k
        if method != "finetune" and cfg.rule.kind == "trimmed_mean" and len(remaining) <= 2 * k:
            raise config_mod.ConfigError(
                "experiment.trim_k",
                f"trimmed_mean with k={k} needs more than 2k={2 * k} clients, "
                f"but detection leaves {len(remaining)}",
            )

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
        rounds = _eval_rounds(cfg.rounds)
        if method == "scratch":
            trace = recovery.train_from_scratch(setup, remaining, cfg.rounds)
            exact_rounds = {c: cfg.rounds for c in remaining}
        elif method == "historical":
            trace = recovery.historical_only(history, detected, setup)
            exact_rounds = {c: 0 for c in remaining}
        elif method == "fedrecover":
            result = recovery.fedrecover(
                history, detected, setup, cfg.recovery, instrument=cfg.bound_check
            )
            trace = result.per_round_models
            exact_rounds = result.exact_rounds_per_client
            abnormality_count = result.abnormality_count
            if cfg.bound_check:
                scratch_trace = recovery.train_from_scratch(setup, remaining, cfg.rounds)
                bound_block = _bound_check(cfg, result, scratch_trace)
        else:  # finetune
            ft = cfg.finetune
            if ft.n_examples > train_set.size:
                raise config_mod.ConfigError(
                    "finetune.n_examples",
                    f"{ft.n_examples} exceeds the training set's {train_set.size} examples",
                )
            model_path = os.path.join(run_dir, MODEL_FILE)
            poisoned = load_model(model_path)
            if poisoned.size != cfg.model.param_dim:
                raise CliError(
                    f"{model_path} holds a model of dim {poisoned.size}, "
                    f"the config's model has {cfg.model.param_dim}"
                )
            try:
                model = recovery.fine_tune(
                    cfg.model, poisoned, train_set, ft.epochs, cfg.learning_rate,
                    ft.beta, ft.n_examples, ft.batch_size, cfg.seed,
                )
            except recovery.ClassDrawError as exc:
                raise config_mod.ConfigError(
                    "finetune.n_examples", f"{exc}; a larger finetune.beta evens the draw"
                ) from exc
            trace, rounds = {cfg.rounds: model}, [cfg.rounds]  # the final model only
            exact_rounds = {c: 0 for c in remaining}

        cp, acp = metrics.cost_saving(cfg.rounds, exact_rounds)
        ter, asr = _evaluate(cfg, trace[cfg.rounds], test_set)

        _write_metrics_csv(
            os.path.join(run_dir, f"recover_{method}_metrics.csv"), cfg, trace, test_set, rounds
        )

        write_summary(
            os.path.join(run_dir, f"summary_{method}.json"),
            {
                "command": "recover",
                "method": method,
                "rounds": cfg.rounds,
                "ter": ter,
                "asr": asr,
                "acp": acp,
                "cp_min": min(cp.values()),
                "cp_max": max(cp.values()),
                "abnormality_count": abnormality_count,
                "config_hash": chash.hex(),
                "bound_check": bound_block,
            },
        )
    return 0


def _scenario_labels(run_dirs) -> list:
    """Each run directory's shortest trailing path that no other given
    directory ends with: a unique basename stays as it is, and `a/run`
    and `b/run` keep their parents."""
    parts = [tuple(os.path.normpath(d).split(os.sep)) for d in run_dirs]
    labels = []
    for mine in parts:
        others = [p for p in parts if p != mine]
        k = next(
            (k for k in range(1, len(mine)) if all(p[-k:] != mine[-k:] for p in others)),
            len(mine),
        )
        labels.append(os.sep.join(mine[-k:]))
    return labels


def cmd_report(run_dirs, out_stream=None) -> int:
    out = out_stream or sys.stdout
    rows = []
    for run_dir, scenario in zip(run_dirs, _scenario_labels(run_dirs)):
        if not os.path.isdir(run_dir):
            raise CliError(f"{run_dir} is not a run directory")
        summaries = sorted(
            name for name in os.listdir(run_dir)
            if name.startswith("summary_") and name.endswith(".json")
        )
        if not summaries:
            raise CliError(f"{run_dir} contains no summary files")
        # a run trained from config.ini: a summary of any other config is stale
        run_hash = None
        with suppress(FileNotFoundError), open(os.path.join(run_dir, CONFIG_FILE), "rb") as f:
            run_hash = hashlib.sha256(f.read()).hexdigest()
        for name in summaries:
            path = os.path.join(run_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as f:
                    summary = json.load(f)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise CliError(f"{path}: not a JSON summary: {exc}") from exc
            _check_summary(path, summary)
            if run_hash is not None and summary["config_hash"] != run_hash:
                raise CliError(
                    f"{path}: the summary belongs to another config than the run's {CONFIG_FILE}"
                )
            label = summary.get("method", summary["command"])
            rows.append(
                (
                    scenario,
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
    # A diverging run overflows on its way to the non-finite update that
    # `aggregation._stack` reports as the error; numpy's warnings say nothing more.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
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
