"""fedsim benchmark: the full train-and-recover pipeline a researcher runs,
timed end to end (`--trace 0`) or per layer (`--trace 1`).

    python3 perfbench/run.py --workload backdoor-logreg --seed 3 --seconds 60 --trace 0

The checkout root is the parent of this directory; it must hold
`BENCHMARK.json` and the program source under `src/fedsim`. Each pipeline
runs `sim train` and then `sim recover --method M` for the four methods, one
single-process command at a time (closed loop, no concurrency), with the
BLAS thread count fixed. Every command's outputs are checked against the
values recorded in `reference.json` for the input set; a mismatch or a
non-zero exit makes the run fail (exit status 1, `"correct": false`).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it record the
environment and a readable table of the same metrics. Names, units and
bounds of the metrics are defined in `BENCHMARK.json`; `README.md` here says
which layer and workload each metric belongs to.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"

BLAS_THREADS = 1  # at or below nproc; one thread keeps results bit-stable
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 8
HARD_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
METHODS = ("fedrecover", "scratch", "historical", "finetune")
COMMANDS = {"train": ["train"], **{m: ["recover", "--method", m] for m in METHODS}}
RUN_DIR_NAME = "run"  # output_dir in the config; part of the config hash


class BenchError(RuntimeError):
    """A command failed; the failure is already recorded and the run stops."""


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def observed_outputs(name: str, run_dir: Path) -> dict:
    """Values the output check compares: summary fields and file hashes."""
    if name == "train":
        summary_file, keys = "summary_train.json", ("ter", "asr")
        files = ["history.bin", "train_metrics.csv"]
    else:
        summary_file, keys = f"summary_{name}.json", ("ter", "asr", "acp", "abnormality_count")
        files = [f"recover_{name}_metrics.csv"]
    with open(run_dir / summary_file, encoding="utf-8") as f:
        summary = json.load(f)
    return {
        "summary": {k: summary[k] for k in keys},
        "sha256": {fn: sha256_file(run_dir / fn) for fn in files},
    }


def compare(observed: dict, expected: dict) -> list[str]:
    problems = []
    for group in ("summary", "sha256"):
        for key, want in expected[group].items():
            got = observed[group].get(key)
            if got != want:
                problems.append(f"{key}: got {got!r}, expected {want!r}")
    return problems


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["FEDSIM_OUTPUT_ROOT"] = str(work)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


class Run:
    """One benchmark run: a work directory, its config, and the tally of
    commands attempted and failed."""

    def __init__(self, workload: str, seed: int, work: Path, reference: dict | None):
        self.work = work
        self.run_dir = work / RUN_DIR_NAME
        self.config = work / "exp.ini"
        self.reference = reference
        self.env = child_env(work)
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(workloads.config_text(workload, seed, RUN_DIR_NAME), encoding="utf-8")
        parser = configparser.ConfigParser()
        parser.read(self.config, encoding="utf-8")
        exp = parser["experiment"]
        self.rounds = int(exp["rounds"])
        self.n_clients = int(exp["n_clients"])
        m = int(exp["malicious_count"])
        fnr = float(parser["detection"]["fnr"])
        fpr = float(parser["detection"]["fpr"])
        # The detector misses round(fnr*m) attackers and flags round(fpr*(n-m))
        # benign clients, rounding half up.
        detected = m - math.floor(fnr * m + 0.5) + math.floor(fpr * (self.n_clients - m) + 0.5)
        self.n_remaining = self.n_clients - detected

    def close(self) -> None:
        """Delete the work directory (and its parent, once empty)."""
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def child(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run argv to completion: (exit code, wall seconds, peak RSS in MB)."""
        timeout = max(HARD_LIMIT_S - self.elapsed(), 1.0)
        self.attempted += 1
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=out, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            self.fail(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{tail}")
        return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6

    def setup_sample(self) -> float:
        log = self.work / "setup.log"
        rc, _, _ = self.child([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(self.config)], log)
        if rc != 0:
            raise BenchError("set-up probe failed")
        return float(log.read_text(encoding="utf-8").strip())

    def setup_samples(self, n: int) -> list[dict]:
        """n set-up probes, each scaled by the speed probes around it."""
        probes = [calibration.probe()]
        samples = []
        for _ in range(n):
            wall = self.setup_sample()
            probes.append(calibration.probe())
            samples.append({"wall_s": wall, "scaled_s": scaled(wall, probes[-2:])})
        return samples

    def command(self, name: str, traced: bool) -> dict:
        trace_file = self.work / f"trace_{name}.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_file)]
        else:
            argv = [sys.executable, "-m", "fedsim.cli"]
        argv += COMMANDS[name] + ["-c", str(self.config)]
        rc, wall, rss = self.child(argv, self.work / f"{name}.log")
        if rc != 0:
            raise BenchError(f"{name} failed")
        try:
            observed = observed_outputs(name, self.run_dir)
        except (OSError, KeyError, ValueError) as exc:
            self.fail(f"{name}: cannot read its outputs: {exc!r}")
            raise BenchError(f"{name} outputs missing") from exc
        if self.reference is not None:
            problems = compare(observed, self.reference[name])
            if problems:
                self.fail(f"{name}: outputs differ from the reference: " + "; ".join(problems))
        result = {"wall_s": wall, "rss_mb": rss, "outputs": observed}
        if traced:
            with open(trace_file, encoding="utf-8") as f:
                result["trace"] = json.load(f)
        return result

    def pipeline(self, traced: bool = False) -> dict:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        probes = [calibration.probe()]
        results = {}
        for name in COMMANDS:
            results[name] = self.command(name, traced)
            probes.append(calibration.probe())
            results[name]["scaled_s"] = scaled(results[name]["wall_s"], probes[-2:])
        for key in ("wall_s", "scaled_s"):
            results[key] = sum(results[name][key] for name in COMMANDS)
        results["probe_s"] = probes
        if traced:
            self.check_trace(results)
        return results

    def check_trace(self, p: dict) -> None:
        """Call-count identities from the config and summaries. They fail
        when a wrapper missed a call site."""
        train_calls = p["train"]["trace"]["spans"].get("clients.local_update", {}).get("calls", 0)
        if train_calls != self.rounds * self.n_clients:
            self.fail(f"trace: train local updates {train_calls} != T*n = {self.rounds * self.n_clients}")
        fr = p["fedrecover"]["trace"]
        summary = p["fedrecover"]["outputs"]["summary"]
        expected = self.n_remaining * self.rounds * (1.0 - summary["acp"] / 100.0)
        if abs(fr["exact_client_updates"] - expected) > 1e-6:
            self.fail(f"trace: fedrecover exact updates {fr['exact_client_updates']} != sum T(1-CP) = {expected}")
        hvp = fr["spans"].get("recovery.hvp", {}).get("calls", 0)
        if fr["estimates_unjudged"] or hvp != fr["estimates_accepted"] + summary["abnormality_count"]:
            self.fail(
                f"trace: hvp calls {hvp} != accepted {fr['estimates_accepted']} + "
                f"abnormality_count {summary['abnormality_count']}"
            )


def quality(p: dict) -> dict:
    """TER, ASR, ACP and fixes of each command, as the summaries report them."""
    return {name: p[name]["outputs"]["summary"] for name in COMMANDS}


def scaled(wall: float, probes: list[float]) -> float:
    """Wall seconds at the reference speed, from the speed probes taken
    right before and right after (see README.md, "Noise")."""
    return wall * calibration.REFERENCE_S / statistics.mean(probes)


def median_scaled(samples: list[dict], name: str | None = None) -> float:
    return statistics.median((s[name] if name else s)["scaled_s"] for s in samples)


def end_to_end(setup: list[dict], pipelines: list[dict], run: Run) -> dict:
    """Times are the median scaled repeat (see README.md, "Noise"), and
    `pipeline_s` is the median of the pipelines' summed times; memory is
    the median repeat."""
    last = pipelines[-1]
    acp = last["fedrecover"]["outputs"]["summary"]["acp"]
    metrics = {
        "setup_s": median_scaled(setup),
        "pipeline_s": median_scaled(pipelines),
        "train_s": median_scaled(pipelines, "train"),
    }
    for m in METHODS:
        metrics[f"recover_{m}_s"] = median_scaled(pipelines, m)
    metrics["train_peak_rss_mb"] = statistics.median([p["train"]["rss_mb"] for p in pipelines])
    metrics["recover_peak_rss_mb"] = statistics.median([max(p[m]["rss_mb"] for m in METHODS) for p in pipelines])
    metrics["history_mb"] = (run.run_dir / "history.bin").stat().st_size / 1e6
    metrics["fedrecover_exact_frac"] = 1.0 - acp / 100.0
    return metrics


def merge_traces(p: dict) -> dict:
    """Sum the per-command traces of one pipeline."""
    merged = {"spans": {}, "counts": {}}
    for name in COMMANDS:
        t = p[name]["trace"]
        for span, rec in t["spans"].items():
            acc = merged["spans"].setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for key, n in t["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + n
        for key in ("bytes_written", "bytes_read", "estimates_accepted", "exact_client_updates"):
            merged[key] = merged.get(key, 0) + t[key]
    return merged


def layer_values(t: dict) -> dict:
    """Per-layer metrics of one traced pipeline (see README.md)."""
    spans = t["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return spans.get(name, {}).get("self_s", 0.0)

    hvp_calls = calls("recovery.hvp")
    return {
        "config.parse_s": total("config.parse"),
        "config.build_setup_s": total("config.build_setup"),
        "data.gen_synthetic_s": total("data.gen_synthetic"),
        "data.partition_noniid_s": total("data.partition_noniid"),
        "numcore.permutation_calls": calls("numcore.permutation"),
        "numcore.permutation_s": total("numcore.permutation"),
        "numcore.as_vector_calls": t["counts"]["numcore.as_vector"],
        "clients.local_update_calls": calls("clients.local_update"),
        "clients.local_update_s": total("clients.local_update"),
        "clients.batch_calls": calls("clients.batch"),
        "clients.batch_s": total("clients.batch"),
        "models.gradient_calls": calls("models.gradient"),
        "models.gradient_s": total("models.gradient"),
        "models.predict_calls": calls("models.predict"),
        "models.predict_s": total("models.predict"),
        "attacks.backdoor_update_calls": calls("attacks.backdoor_update"),
        "attacks.trim_attack_calls": calls("attacks.trim_attack"),
        "attacks.craft_s": total("attacks.backdoor_update") + total("attacks.trim_attack"),
        "aggregation.aggregate_calls": calls("aggregation.aggregate"),
        "aggregation.aggregate_s": total("aggregation.aggregate"),
        "aggregation.apply_update_s": total("aggregation.apply_update"),
        "flengine.history_append_s": total("flengine.history_append"),
        "flengine.history_bytes_written": t["bytes_written"],
        "flengine.history_load_s": total("flengine.history_load"),
        "flengine.history_bytes_read": t["bytes_read"],
        "recovery.threshold_s": total("recovery.threshold"),
        "recovery.hvp_calls": hvp_calls,
        "recovery.hvp_s": total("recovery.hvp"),
        "recovery.estimates_accepted": t["estimates_accepted"],
        "recovery.estimate_accept_ratio": t["estimates_accepted"] / hvp_calls if hvp_calls else 0.0,
        "recovery.exact_client_updates": t["exact_client_updates"],
        "recovery.fedrecover_self_s": self_time("recovery.fedrecover"),
        "recovery.scratch_s": total("recovery.scratch"),
        "recovery.historical_s": total("recovery.historical"),
        "recovery.fine_tune_s": total("recovery.fine_tune"),
        "metrics.eval_calls": calls("metrics.ter") + calls("metrics.asr"),
        "metrics.eval_s": total("metrics.ter") + total("metrics.asr"),
        "metrics.ter_s": total("metrics.ter"),
        "cli.write_summary_s": total("cli.write_summary"),
        "cli.metrics_csv_s": total("cli.metrics_csv"),
        "cli.self_s": self_time("cli.main"),
    }


def per_layer(untraced: list[dict], traced: list[dict], units: dict, run: Run) -> dict:
    samples = [layer_values(merge_traces(p)) for p in traced]
    metrics = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        if units.get(name) == "s":
            metrics[name] = min(values)
        else:  # counts repeat exactly, or the program is not deterministic
            if len(set(values)) != 1:
                run.fail(f"trace: {name} differs between repeats: {values}")
            metrics[name] = values[0]
    traced_s = median_scaled(traced)
    metrics["trace.pipeline_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - median_scaled(untraced)
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or None


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fedsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_hash(),
        "workload": workload,
        "seed": seed,
        "input_set": workloads.input_set(seed),
    }


def measure(run: Run, seconds: float, trace: bool, units: dict) -> tuple[dict, dict]:
    """Repeat while the next repeat would end within half a repeat of
    `seconds`, so runs last `seconds` on average (at least one repeat, two
    pairs when tracing).
    Returns the metrics and what else the run should print: sample counts,
    the program's quality outputs and, when tracing, the wrapped bindings."""
    if not trace:
        run.setup_sample()  # warm-up: byte-compile and fill the page cache
        calibration.probe()  # warm-up: numpy's first calls
        setup = run.setup_samples(SETUP_REPEATS)
        pipelines = []
        while True:
            pipelines.append(run.pipeline())
            if run.elapsed() + statistics.median([p["wall_s"] for p in pipelines]) / 2 > seconds:
                break
        info = {
            "samples": {"setup": len(setup), "pipelines": len(pipelines)},
            **{
                key: {
                    "setup": [s[key] for s in setup],
                    "pipeline": [p[key] for p in pipelines],
                    **{name: [p[name][key] for p in pipelines] for name in COMMANDS},
                }
                for key in ("wall_s", "scaled_s")
            },
            "probe_s": [p["probe_s"] for p in pipelines],
            "quality": quality(pipelines[-1]),
        }
        return end_to_end(setup, pipelines, run), info
    # Alternate untraced and traced pipelines, so the overhead estimate
    # compares repeats made under the same machine load; two pairs at least,
    # so one slow process does not decide its sign.
    calibration.probe()  # warm-up: numpy's first calls
    untraced, traced = [], []
    while True:
        untraced.append(run.pipeline())
        traced.append(run.pipeline(traced=True))
        pair_s = untraced[-1]["wall_s"] + traced[-1]["wall_s"]
        if len(traced) >= 2 and run.elapsed() + pair_s / 2 > seconds:
            break
    info = {
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "quality": quality(traced[-1]),
        "wrapped_bindings": traced[-1]["train"]["trace"]["bindings"],
    }
    return per_layer(untraced, traced, units, run), info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.TEMPLATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "fedsim" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no fedsim source (src/fedsim) or no BENCHMARK.json", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    reference = None
    if REFERENCE.is_file():
        with open(REFERENCE, encoding="utf-8") as f:
            reference = json.load(f)["workloads"][args.workload].get(str(workloads.input_set(args.seed)))
    print(json.dumps({"environment": environment(args.workload, args.seed)}, sort_keys=True))
    run = Run(args.workload, args.seed, ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}", reference)
    if reference is None:
        run.fail(f"no reference outputs for input set {workloads.input_set(args.seed)}")
    metrics: dict = {}
    try:
        metrics, info = measure(run, args.seconds, bool(args.trace), units)
        print(json.dumps(info, sort_keys=True))
    except BenchError:
        pass
    finally:
        run.close()
    if metrics and sorted(metrics) != sorted(names):
        run.fail(f"metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json")
    for name in names:
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    failed = len(run.failures)
    print(f"  failed_frac {failed}/{run.attempted}")
    result = {
        "correct": failed == 0,
        "attempted": max(run.attempted, failed, 1),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
