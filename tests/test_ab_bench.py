"""The rules `tools/ab_bench.py` judges a metric by: the change median is
worse than the base median by more than the metric's bound, a share of
the base median, in the direction the metric calls worse; a gain is at
least nine tenths of the pairs won and a median shift wider than the base
IQR; and a base IQR wider than the bound leaves the metric unresolved
unless every change run beats every base run. And the name of the file
it keeps its summary in: `-dirty` when the measured tree is not the
commit's. And what one call runs: ten alternating pairs of every
`BENCHMARK.json` workload, at that file's run length, into one file."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


@pytest.mark.parametrize(
    "base, change, bound, lower, flagged",
    [
        (1.0, 1.25, 0.25, True, False),  # worse by exactly the bound
        (1.0, 1.2501, 0.25, True, True),
        (1.0, 0.5, 0.25, True, False),  # better
        (80.0, 88.0, 0.1, True, False),
        (80.0, 88.1, 0.1, True, True),
        (10.0, 9.0, 0.1, False, False),  # higher is better
        (10.0, 8.9, 0.1, False, True),
        (10.0, 12.0, 0.1, False, False),
        (0.0, 0.0, 0.25, True, False),  # a zero base allows no rise
        (0.0, 0.01, 0.25, True, True),
    ],
)
def test_past_bound(base, change, bound, lower, flagged):
    assert ab_bench.past_bound(base, change, bound, lower) is flagged


TEN = list(range(1, 11))  # median 5.5; quartiles 2.75 and 8.25, so IQR 5.5


@pytest.mark.parametrize(
    "base, change, lower, claimed",
    [
        ([10] * 10, [9] * 10, True, True),
        ([10] * 10, [9] * 9 + [11], True, True),  # 9 of 10 won
        ([10] * 10, [9] * 8 + [11] * 2, True, False),  # 8 of 10
        ([10] * 10, [9] * 8 + [10] * 2, True, False),  # ties count for neither
        (TEN, [b - 5.5 for b in TEN], True, False),  # every pair won, median shift exactly the IQR
        (TEN, [b - 6 for b in TEN], True, True),
        (TEN, [b - 5 for b in TEN], True, False),
        ([10] * 10, [11] * 10, False, True),  # higher is better
        ([10] * 10, [11] * 10, True, False),
    ],
)
def test_gain(base, change, lower, claimed):
    assert ab_bench.gain(list(zip(base, change)), lower) is claimed


WIDE = [8, 12] * 5  # median 10, IQR 4


@pytest.mark.parametrize(
    "base, change, bound, lower, open_",
    [
        (WIDE, [9] * 10, 0.25, True, True),  # IQR 4 > 2.5, and 9 does not beat 8
        (WIDE, [7] * 10, 0.25, True, False),  # every change run beats every base run
        (WIDE, [7] * 9 + [8], 0.25, True, True),  # a tie with the best base run
        (WIDE, [20] * 10, 0.4, True, False),  # IQR 4 is not wider than 0.4 x 10
        (WIDE, [20] * 10, 0.39, True, True),
        ([10, 10.5] * 5, [20] * 10, 0.25, True, False),  # narrow base: the bound decides
        (WIDE, [13] * 10, 0.25, False, False),  # higher is better
        (WIDE, [13] * 10, 0.25, True, True),
    ],
)
def test_unresolved(base, change, bound, lower, open_):
    assert ab_bench.unresolved(list(zip(base, change)), bound, lower) is open_


def _git(root, *args):
    subprocess.run(
        ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        check=True, capture_output=True,
    )


def test_bench_path_counts_untracked_measured_files_as_dirty(tmp_path, monkeypatch):
    """An untracked file under src/ or perfbench/ changes what the
    benchmark runs, so it marks the name `-dirty`; an ignored one, or an
    untracked file outside what the benchmark runs, does not."""
    for name in ("src/fedsim/a.py", "perfbench/run.py", "BENCHMARK.json", ".gitignore"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("__pycache__/\n" if name == ".gitignore" else "x = 1\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    sha = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "--short", "HEAD"],
                         check=True, capture_output=True, text=True).stdout.strip()
    monkeypatch.setattr(ab_bench, "ROOT", tmp_path)
    clean, dirty = f"BENCH_{sha}.json", f"BENCH_{sha}-dirty.json"

    (tmp_path / "notes.txt").write_text("not measured\n")
    (tmp_path / "src" / "fedsim" / "__pycache__").mkdir()
    (tmp_path / "src" / "fedsim" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    assert ab_bench.bench_path().name == clean
    for new in ("src/fedsim/b.py", "perfbench/extra.py"):
        (tmp_path / new).write_text("y = 2\n")
        assert ab_bench.bench_path().name == dirty, new
        (tmp_path / new).unlink()
    (tmp_path / "BENCHMARK.json").write_text("x = 2\n")
    assert ab_bench.bench_path().name == dirty


def test_one_call_runs_every_workload_in_alternating_pairs(tmp_path, monkeypatch, capsys):
    benchmark = {
        "run_seconds": 7,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "t_s", "better": "lower", "bound": 0.25}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    exported, calls = [], []

    def run_bench(root, workload, seed, seconds):
        calls.append(("base" if root != tmp_path else "change", workload, seed, seconds))
        return {"python": "x"}, {"correct": True, "metrics": {"t_s": {"value": 1.0 + seed / 100}}}

    monkeypatch.setattr(ab_bench, "ROOT", tmp_path)
    monkeypatch.setattr(ab_bench, "export", lambda ref, dest: exported.append(ref))
    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    monkeypatch.setattr(ab_bench, "bench_path", lambda: tmp_path / "BENCH_x.json")
    assert ab_bench.main(["base", "--first-seed", "5"]) == 0
    assert exported == ["base"]
    order = [("base", "change"), ("change", "base")]  # the side that runs first alternates
    assert calls == [(side, w, 5 + i, 7) for w in ("w1", "w2") for i in range(10) for side in order[i % 2]]
    bench = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert sorted(bench["workloads"]) == ["w1", "w2"]
    for entry in bench["workloads"].values():
        assert (entry["pairs"], entry["seconds"], entry["first_seed"]) == (10, 7, 5)
        assert entry["metrics"]["t_s"]["won"] == 0 and entry["incorrect_runs"] == 0
    assert sorted(json.loads(capsys.readouterr().out.splitlines()[-1])) == ["w1", "w2"]
