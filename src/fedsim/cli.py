"""Command-line front end: `sim train`, `sim recover`, `sim report`.

A run directory (resolved against $FEDSIM_OUTPUT_ROOT) holds the canonical
config, the binary training history, per-round metric CSVs, and one JSON
summary per command, checked against that command's field table.
All outputs are byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import json
import math
import numbers
import os
import re
import sys
from contextlib import contextmanager, suppress

import numpy as np

from . import config as config_mod
from . import metrics, recovery
from .attacks import simulate_detection
from .flengine import HistoryStore, open_named, train
from .numcore import STREAM_DETECT, RngStream, derive_seed, sha256

OUTPUT_ROOT_ENV = "FEDSIM_OUTPUT_ROOT"
HISTORY_FILE = "history.bin"
TOPS_FILE = "history_tops.bin"
CONFIG_FILE = "config.ini"

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
    file is ever written. POSIX only. Once the lock is held no other command
    can be writing, so the `.tmp` files a killed one left are removed.
    """
    os.makedirs(run_dir, exist_ok=True)
    fd = os.open(run_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CliError(f"run directory {run_dir} is locked by another command") from None
        for name in os.listdir(run_dir):
            if name.endswith(".tmp"):
                os.unlink(os.path.join(run_dir, name))
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


# A field's check takes its value and path and returns (path, message) for
# a fault, or None. Messages are those of a JSON Schema validator.
def _number(minimum=None, maximum=None, above=None, integer=False, nullable=False):
    """A number (an integral float counts as an integer) within the bounds,
    `above` being exclusive; NaN passes every bound."""
    kind = "integer" if integer else "number"
    names = f"'{kind}', 'null'" if nullable else f"'{kind}'"

    def check(v, path):
        if nullable and v is None:
            return None
        integral = isinstance(v, int) or isinstance(v, float) and v.is_integer()
        if isinstance(v, bool) or not isinstance(v, numbers.Number) or integer and not integral:
            return path, f"{v!r} is not of type {names}"
        if minimum is not None and v < minimum:
            return path, f"{v!r} is less than the minimum of {minimum!r}"
        if maximum is not None and v > maximum:
            return path, f"{v!r} is greater than the maximum of {maximum!r}"
        if above is not None and v <= above:
            return path, f"{v!r} is less than or equal to the minimum of {above!r}"
        return None

    return check


def _one_of(*values):
    return lambda v, path: None if v in values else (path, f"{v!r} is not one of {list(values)!r}")


def _config_hash(v, path, pattern="^[0-9a-f]{64}$"):
    if not isinstance(v, str):
        return path, f"{v!r} is not of type 'string'"
    return None if re.search(pattern, v) else (path, f"{v!r} does not match {pattern!r}")


def _record(fields: dict, nullable=False):
    """An object of `fields` (name: check), or null if `nullable`. Its first
    fault is of each present field's value, in table order, then a missing
    field, then extra keys, in sorted order."""
    names = "'object', 'null'" if nullable else "'object'"

    def check(v, path):
        if nullable and v is None:
            return None
        if not isinstance(v, dict):
            return path, f"{v!r} is not of type {names}"
        for name, field in fields.items():
            error = field(v[name], path + (name,)) if name in v else None
            if error is not None:
                return error
        for name in fields:
            if name not in v:
                return path, f"{name!r} is a required property"
        extras = [repr(name) for name in sorted(v, key=str) if name not in fields]
        if extras:
            listed = ", ".join(extras) + (" was" if len(extras) == 1 else " were")
            return path, f"Additional properties are not allowed ({listed} unexpected)"
        return None

    return check


# Each command's summary: its fields, in order, with the check of each value.
_SHAPES = {
    "train": _record({
        "command": _one_of("train"),
        "rounds": _number(1, integer=True),
        "ter": _number(0, 1),
        "asr": _number(0, 1, nullable=True),
        "config_hash": _config_hash,
    }),
    "recover": _record({
        "command": _one_of("recover"),
        "method": _one_of(*METHODS),
        "rounds": _number(1, integer=True),
        "ter": _number(0, 1),
        "asr": _number(0, 1, nullable=True),
        "acp": _number(0, 100),
        "cp_min": _number(0, 100),
        "cp_max": _number(0, 100),
        "abnormality_count": _number(0, integer=True),
        "config_hash": _config_hash,
        "bound_check": _record(
            {"mu": _number(above=0), "m_measured": _number(0), "max_violation": _number()},
            nullable=True,
        ),
    }),
}


def _summary_error(summary):
    """(path, message) of the summary's first fault against its command's
    fields, or None; a summary of no known command fails at its command."""
    command = summary.get("command") if isinstance(summary, dict) else None
    if isinstance(command, str) and command in _SHAPES:
        return _SHAPES[command](summary, ())
    return _record({"command": _one_of(*_SHAPES)})(summary, ())


def _check_summary(path, summary) -> None:
    error = _summary_error(summary)
    if error is not None:
        where, message = error
        raise CliError(f"{path}: bad summary at /{'/'.join(map(str, where))}: {message}")


def write_summary(path, summary: dict) -> None:
    _check_summary(path, summary)
    with _atomic(path) as (temp,), open_named(temp, "w", encoding="utf-8") as f:
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


def _write_metrics_csv(path, cfg, kept, test, rounds) -> tuple[float, float | None]:
    """TER and ASR of `kept[t]`, the global model after t rounds, for each
    t in `rounds`. Returns those of the last round, the final model's."""
    with _atomic(path) as (temp,), open_named(temp, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "ter", "asr"])
        for t in rounds:
            ter, asr = _evaluate(cfg, kept[t], test)
            writer.writerow([t, repr(ter), "" if asr is None else repr(asr)])
    return ter, asr


def cmd_train(cfg_path: str) -> int:
    cfg = config_mod.parse_config(cfg_path)
    run_dir = _run_dir(cfg)
    with _locked(run_dir):
        chash = config_mod.config_hash(cfg)
        train_set, test_set = config_mod.build_datasets(cfg)
        setup = config_mod.build_setup(cfg, train_set)
        del train_set  # the client shards hold copies of its examples
        # The history, its top-value table and the config appear under their
        # names only once the last round is done, so a failed or killed train
        # never leaves a partial run, nor files that do not match each other.
        outputs = [os.path.join(run_dir, name) for name in (HISTORY_FILE, TOPS_FILE, CONFIG_FILE)]
        # a given tau leaves the rate unchecked and no command reads the table
        m = 1
        if cfg.recovery.tau is None:
            m = recovery.top_count(cfg.recovery.tolerance_rate, cfg.n_clients, cfg.model.param_dim)
        rounds = _eval_rounds(cfg.rounds)
        with _atomic(*outputs) as (history_temp, tops_temp, config_temp):
            kept = train(setup, cfg.rounds, history_temp, chash, rounds, tops=(tops_temp, m))
            with open_named(config_temp, "w", encoding="utf-8") as f:
                f.write(cfg.canonical)
        ter, asr = _write_metrics_csv(
            os.path.join(run_dir, "train_metrics.csv"), cfg, kept, test_set, rounds
        )
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


def _bound_check(cfg, result, scratch) -> dict:
    """The recovered-vs-scratch gap at every round, both kept whole, against
    `theoretical_bound`, whose preconditions the config checks with bound_check."""
    mu = cfg.model.l2
    m_measured = result.measured_m or 0.0
    d0 = float(np.linalg.norm(result.models[0] - scratch[0]))
    max_violation = -math.inf
    for t in range(cfg.rounds + 1):
        gap = float(np.linalg.norm(result.models[t] - scratch[t]))
        bound = recovery.theoretical_bound(cfg.learning_rate, mu, m_measured, t, d0)
        max_violation = max(max_violation, gap - bound)
    return {"mu": mu, "m_measured": m_measured, "max_violation": max_violation}


def cmd_recover(cfg_path: str, method: str) -> int:
    cfg = config_mod.parse_config(cfg_path)
    run_dir = _run_dir(cfg)
    history_path = os.path.join(run_dir, HISTORY_FILE)
    if method != "scratch" and not os.path.exists(history_path):
        raise CliError(f"no training history at {history_path}; run `sim train` first")
    with _locked(run_dir):
        chash = config_mod.config_hash(cfg)
        train_set, test_set = config_mod.build_datasets(cfg)
        setup = config_mod.build_setup(cfg, train_set)
        if method != "finetune":
            train_set = None  # only finetune reads it again; the shards hold copies
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

        history = None
        if os.path.exists(history_path):
            # only fedrecover deriving tau reads the top-value table
            derive_tau = method == "fedrecover" and cfg.recovery.tau is None
            tops_path = os.path.join(run_dir, TOPS_FILE) if derive_tau else None
            meta = (cfg.model.param_dim, cfg.n_clients, cfg.rounds, chash)
            history = HistoryStore.load(history_path, tops_path, meta)

        abnormality_count = 0
        bound_block = None
        rounds = _eval_rounds(cfg.rounds)
        if method == "scratch":
            kept = recovery.train_from_scratch(setup, remaining, cfg.rounds, rounds)
            exact_rounds = {c: cfg.rounds for c in remaining}
        elif method == "historical":
            kept = recovery.historical_only(history, remaining, setup, rounds)
            exact_rounds = {c: 0 for c in remaining}
        elif method == "fedrecover":
            # the bound check walks the gap at every round; the CSV reads only `rounds`
            keep = range(cfg.rounds + 1) if cfg.bound_check else rounds
            result = recovery.fedrecover(
                history, remaining, setup, cfg.recovery, keep, instrument=cfg.bound_check
            )
            kept = result.models
            exact_rounds = result.exact_rounds_per_client
            abnormality_count = result.abnormality_count
            if cfg.bound_check:
                scratch = recovery.train_from_scratch(setup, remaining, cfg.rounds, keep)
                bound_block = _bound_check(cfg, result, scratch)
        else:  # finetune
            ft = cfg.finetune
            if ft.n_examples > train_set.size:
                raise config_mod.ConfigError(
                    "finetune.n_examples",
                    f"{ft.n_examples} exceeds the training set's {train_set.size} examples",
                )
            # the poisoned final model: the last round applied to its record
            broadcast, updates = next(history.rounds(first=cfg.rounds - 1))
            poisoned = setup.aggregate_step(broadcast, dict(enumerate(updates)))
            try:
                model = recovery.fine_tune(
                    cfg.model, poisoned, train_set, ft.epochs, cfg.learning_rate,
                    ft.beta, ft.n_examples, ft.batch_size, cfg.seed,
                )
            except recovery.ClassDrawError as exc:
                raise config_mod.ConfigError(exc.key, str(exc)) from exc
            kept, rounds = {cfg.rounds: model}, [cfg.rounds]  # the final model only
            exact_rounds = {c: 0 for c in remaining}

        cp, acp = metrics.cost_saving(cfg.rounds, exact_rounds)
        ter, asr = _write_metrics_csv(
            os.path.join(run_dir, f"recover_{method}_metrics.csv"), cfg, kept, test_set, rounds
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
            run_hash = sha256(f.read()).hexdigest()
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
            cells = (summary["ter"], summary["asr"], summary.get("acp"))  # a null asr or acp: empty
            rows.append([scenario, label, *("" if v is None else repr(v) for v in cells)])
    writer = csv.writer(out)
    writer.writerow(["scenario", "method", "ter", "asr", "acp"])
    writer.writerows(rows)
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
