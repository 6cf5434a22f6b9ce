"""The rule `tools/ab_bench.py` flags a metric by: the change median is
worse than the base median by more than the metric's bound, a share of
the base median, in the direction the metric calls worse. And the name
of the file it keeps its summary in: `-dirty` when the measured tree is
not the commit's."""

import importlib.util
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
