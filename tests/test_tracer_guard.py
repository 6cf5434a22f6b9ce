"""The benchmark's tracer wraps fedsim functions by name
(`perfbench/tracer.py`, `SPANS` and `COUNTED`). A change that deletes or
renames one of them breaks `perfbench/run.py --trace 1`; this test makes
that show up in the tier-1 suite, without importing the benchmark here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_wrapped_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
