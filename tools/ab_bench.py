"""Benchmark the working tree against a git ref, in alternating pairs.

    python3 tools/ab_bench.py BASE_REF [--first-seed K]

Exports BASE_REF with `git archive` into a temporary directory once, then,
for every workload of `BENCHMARK.json`, runs `perfbench/run.py --trace 0`
from that copy and from the working tree in 10 pairs, each run as long as
the file's `run_seconds`. Pair i runs seed K + i on both sides, and the
side that runs first alternates from pair to pair, so a drift of the
machine's speed hits both sides alike. For each workload and end-to-end
metric of `BENCHMARK.json` it prints the base median, the change median,
the median of the per-pair ratios change/base, how many pairs the change
won (ties count for neither), the distance between the quartiles of the
base runs (the base IQR), and three verdicts:
- `past_bound`: the change median is worse than the base median by more
  than the metric's `bound` (a share of the base median), the rule the
  benchmark's gate applies;
- `gain`: the change won at least nine tenths of the pairs, and its median
  beats the base median by more than the base IQR, the rule a claimed gain
  must meet;
- `unresolved`: the base IQR is wider than the bound, so the base runs
  spread too widely to show that the metric held, and not every change
  run beats every base run.
The last line is one JSON object with every run's metrics, by workload.
Exits 1 if any run reports `"correct": false` or prints no result. The
exported copy is removed at the end.

The summary is also kept in `BENCH_<short-sha>.json` at the repository
root, named after the working tree's commit (`-dirty` when the files the
benchmark runs differ from it, an untracked one included), under
`workloads.<W>` for every workload: each side's environment line (from
its first run), the table above per metric, the number of incorrect runs
and each side's `src/fedsim/*.py` line count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # per workload: the fewest that can show a gain won in nine tenths of them


def export(ref: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True, capture_output=True,
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One benchmark run from the checkout at root: its environment and its
    result line, each None when absent."""
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        env = json.loads(lines[0]).get("environment")
    except (IndexError, json.JSONDecodeError):
        env = None
    try:
        return env, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return env, None


def src_lines(root: Path) -> int:
    """Lines in the checkout's src/fedsim/*.py."""
    return sum(len(p.read_bytes().splitlines()) for p in (root / "src" / "fedsim").glob("*.py"))


def bench_path() -> Path:
    """BENCH_<short-sha>.json for the working tree's commit, `-dirty` when
    what the benchmark runs (src/, perfbench/, BENCHMARK.json) differs
    from that commit: a changed tracked file or an untracked, unignored one."""
    git = ["git", "-C", str(ROOT)]
    sha = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True, capture_output=True,
                         text=True).stdout.strip()
    measured = ["src", "perfbench", "BENCHMARK.json"]
    changed = subprocess.run(git + ["diff", "--quiet", "HEAD", "--"] + measured).returncode != 0
    untracked = subprocess.run(git + ["ls-files", "--others", "--exclude-standard", "--"] + measured,
                               check=True, capture_output=True, text=True).stdout
    dirty = changed or bool(untracked)
    return ROOT / f"BENCH_{sha}{'-dirty' if dirty else ''}.json"


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def past_bound(base: float, change: float, bound: float, lower: bool) -> bool:
    """Whether the change median is worse than the base median by more than
    `bound` times the base median."""
    margin = bound * abs(base)
    return change > base + margin if lower else change < base - margin


def better(a: float, b: float, lower: bool) -> bool:
    """Whether a reads better than b, for a metric where lower (or higher) is better."""
    return a < b if lower else a > b


def gain(pairs: list[tuple[float, float]], lower: bool) -> bool:
    """Whether the (base, change) pairs show a gain: the change won at least
    nine tenths of them, ties counting for neither, and the change median
    beats the base median by more than the base IQR."""
    base, change = [b for b, _ in pairs], [c for _, c in pairs]
    won = sum(better(c, b, lower) for b, c in pairs)
    edge = statistics.median(base) + (-iqr(base) if lower else iqr(base))
    return 10 * won >= 9 * len(pairs) and better(statistics.median(change), edge, lower)


def unresolved(pairs: list[tuple[float, float]], bound: float, lower: bool) -> bool:
    """Whether the base runs spread too widely to tell that the metric held:
    their IQR is wider than `bound` times the base median, and not every
    change run reads better than every base run."""
    base = [b for b, _ in pairs]
    if iqr(base) <= bound * abs(statistics.median(base)):
        return False
    return not all(better(c, b, lower) for _, c in pairs for b in base)


def run_pairs(roots: dict, workload: str, first_seed: int, seconds: float) -> tuple:
    """The workload's PAIRS alternating pairs: each side's runs, each side's
    environment line (from its first run) and the number of incorrect runs."""
    runs: dict = {"base": [], "change": []}
    envs: dict = {}
    bad = 0
    for i in range(PAIRS):
        seed = first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            env, result = run_bench(roots[side], workload, seed, seconds)
            if env is not None:
                envs.setdefault(side, env)
            ok = bool(result and result.get("correct"))
            bad += not ok
            values = {n: m["value"] for n, m in (result or {}).get("metrics", {}).items()}
            runs[side].append({"seed": seed, "correct": ok, "metrics": values})
            print(f"{workload} pair {i + 1}/{PAIRS} seed {seed} {side:6s} correct={str(ok).lower()}",
                  flush=True)
    return runs, envs, bad


def compare(metrics: list, runs: dict) -> dict:
    """The table row of each end-to-end metric both sides report, printed as it goes."""
    row = "{:24s} {:>12} {:>12} {:>9} {:>6} {:>10} {:>10} {:>5} {:>10}"
    print(row.format(
        "metric", "base_med", "change_med", "ratio", "won", "base_iqr", "past_bound", "gain", "unresolved",
    ))
    table: dict = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [
            (b["metrics"][name], c["metrics"][name])
            for b, c in zip(runs["base"], runs["change"])
            if name in b["metrics"] and name in c["metrics"]
        ]
        if not pairs:
            print(row.format(name, *["-"] * 8))
            continue
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        ratios = [c / b for b, c in pairs if b]
        won = sum(better(c, b, lower) for b, c in pairs)
        t = table[name] = {
            "base_median": statistics.median(base),
            "change_median": statistics.median(change),
            "median_ratio": statistics.median(ratios) if ratios else None,
            "won": won,
            "pairs": len(pairs),
            "base_iqr": iqr(base),
        }
        t["past_bound"] = past_bound(t["base_median"], t["change_median"], m["bound"], lower)
        t["gain"] = gain(pairs, lower)
        t["unresolved"] = unresolved(pairs, m["bound"], lower)
        print(row.format(
            name, f"{t['base_median']:.4g}", f"{t['change_median']:.4g}",
            f"{t['median_ratio']:.4f}" if ratios else "-", f"{won}/{len(pairs)}",
            f"{t['base_iqr']:.4g}", *(str(t[k]).lower() for k in ("past_bound", "gain", "unresolved")),
        ))
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref")
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    summary: dict = {}
    all_runs: dict = {}
    bad = 0
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        base_root = Path(tmp)
        export(args.base_ref, base_root)
        roots = {"base": base_root, "change": ROOT}
        lines = {side: src_lines(root) for side, root in roots.items()}
        for w in benchmark["workloads"]:
            runs, envs, incorrect = run_pairs(roots, w["name"], args.first_seed, seconds)
            all_runs[w["name"]] = runs
            print(f"{w['name']}: {incorrect} of {2 * PAIRS} runs not correct")
            bad += incorrect
            summary[w["name"]] = {
                "base_ref": args.base_ref,
                "pairs": PAIRS,
                "seconds": seconds,
                "first_seed": args.first_seed,
                "environment": envs,
                "metrics": compare(benchmark["end_to_end"], runs),
                "incorrect_runs": incorrect,
                "src_fedsim_lines": lines,
            }

    print(f"{bad} of {2 * PAIRS * len(summary)} runs not correct")
    path = bench_path()
    path.write_text(json.dumps({"workloads": summary}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    print(json.dumps(all_runs))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
