"""The rule `tools/ab_bench.py` flags a metric by: the change median is
worse than the base median by more than the metric's bound, a share of
the base median, in the direction the metric calls worse."""

import importlib.util
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
