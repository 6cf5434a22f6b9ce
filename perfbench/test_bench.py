"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest -q perfbench

Each test makes short benchmark runs (`--seconds 1`: one pipeline, or one
untraced and one traced pipeline) on the smallest workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD = "backdoor-logreg"


def bench(trace: int, cwd: Path = ROOT, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", WORKLOAD,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def deterministic(result: dict) -> dict:
    """Metrics that must repeat exactly: everything but times and memory."""
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] not in ("s", "MB") or name == "history_mb"
    }


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_and_repeats_deterministic_ones(trace, section):
    results = []
    for _ in range(2):
        rc, lines = bench(trace)
        assert rc == 0, lines
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec()[section]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        for name in expected:  # the readable table names each metric with its unit
            assert any(line.split()[:1] == [name] and line.split()[-1] == expected[name] for line in lines)
        results.append(result)
    assert deterministic(results[0]) == deterministic(results[1])
    assert deterministic(results[0])  # the comparison above is not vacuous


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench(0, cwd=tmp_path, root=tmp_path)
    assert rc != 0
    assert not lines
