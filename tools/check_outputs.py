"""Check that the program's outputs still match the benchmark references.

    python3 tools/check_outputs.py

Runs `perfbench/run.py --seconds 1 --trace 0` for seeds 0-15 (all 16 input
sets) on every workload in `BENCHMARK.json`, then one `--trace 1` run per
workload, which adds the tracer's call-count self-check. Each run compares
TER, ASR, ACP, `abnormality_count` and the SHA-256 of `history.bin` and the
metrics CSVs with `perfbench/reference.json`. Runs go `os.cpu_count()` at
a time; each uses its own work directory and one BLAS thread. Prints one
table row per run, in plan order, and exits 1 if any run reports
`"correct": false` or prints no result. The `wall_s` column is each run's
own wall time, measured while other runs share the machine. Takes about
4 minutes on a 2-CPU machine; run it before and after any numerical
rewrite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(16)
TRACE_SEED = 0
# Recovery counts a traced run reports, worth comparing across commits.
TRACE_COUNTS = (
    "recovery.hvp_calls",
    "recovery.estimates_accepted",
    "recovery.exact_client_updates",
)


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict | None, float]:
    """One benchmark run; returns its result line (None if absent) and wall time."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None or proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return result, elapsed


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    plan = [(w, s, 0) for w in workloads for s in SEEDS] + [(w, TRACE_SEED, 1) for w in workloads]
    row = "{:18s} {:>4} {:>5} {:>7} {:>9} {:>7}  {}"
    print(row.format("workload", "seed", "trace", "correct", "failed", "wall_s", "counts"))
    bad = 0
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = pool.map(lambda args: run_bench(*args), plan)
        for (workload, seed, trace), (result, elapsed) in zip(plan, results):
            correct = bool(result and result.get("correct"))
            bad += not correct
            failed = f"{result['failed']}/{result['attempted']}" if result else "-"
            counts = ""
            if result and trace:
                metrics = result["metrics"]
                counts = " ".join(
                    f"{n}={metrics[n]['value']:g}" for n in TRACE_COUNTS if n in metrics
                )
            cells = (workload, seed, trace, str(correct).lower(), failed, f"{elapsed:.1f}", counts)
            print(row.format(*cells), flush=True)
    print(f"{len(plan) - bad}/{len(plan)} runs correct, {bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
