"""Per-layer tracing of one `sim` command, from outside the program.

    python3 perfbench/tracer.py OUT.json train -c exp.ini

`fedsim` must be importable (`PYTHONPATH=src`). The tracer wraps the
public functions of each fedsim module (plus the two private CLI helpers
the metrics need) on every module that binds them: fedsim imports names
directly (`from .aggregation import aggregate` in both `flengine` and
`recovery`), so patching only the defining module would miss calls. It
then runs `fedsim.cli.main` with the remaining arguments, exits with its
return code, and writes per-span totals to OUT.json. Spans are kept in
memory and written once, when the command ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# (module, attribute or Class.method, span name). Every call is a timed span.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "write_summary", "cli.write_summary"),
    ("cli", "_write_metrics_csv", "cli.metrics_csv"),
    ("config", "parse_config", "config.parse"),
    ("config", "build_setup", "config.build_setup"),
    ("data", "gen_synthetic", "data.gen_synthetic"),
    ("data", "partition_noniid", "data.partition_noniid"),
    ("numcore", "RngStream.permutation", "numcore.permutation"),
    ("clients", "client_local_update", "clients.local_update"),
    ("clients", "BatchSampler.batch", "clients.batch"),
    ("models", "gradient", "models.gradient"),
    ("models", "predict", "models.predict"),
    ("attacks", "backdoor_update", "attacks.backdoor_update"),
    ("attacks", "trim_attack_updates", "attacks.trim_attack"),
    ("aggregation", "aggregate", "aggregation.aggregate"),
    ("aggregation", "apply_update", "aggregation.apply_update"),
    ("flengine", "HistoryStore.append", "flengine.history_append"),
    ("flengine", "HistoryStore.load", "flengine.history_load"),
    ("recovery", "compute_threshold", "recovery.threshold"),
    ("recovery", "lbfgs_hvp", "recovery.hvp"),
    ("recovery", "fedrecover", "recovery.fedrecover"),
    ("recovery", "train_from_scratch", "recovery.scratch"),
    ("recovery", "historical_only", "recovery.historical"),
    ("recovery", "fine_tune", "recovery.fine_tune"),
    ("metrics", "test_error_rate", "metrics.ter"),
    ("metrics", "attack_success_rate", "metrics.asr"),
]
# Called too often to time without distorting the callers: counted only.
COUNTED = [
    ("numcore", "as_vector", "numcore.as_vector"),
    ("numcore", "linf_norm", "numcore.linf_norm"),
]


class Tracer:
    """In-memory spans `[name, start, end, parent index]` and call counts."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.tau = None  # threshold of the running fedrecover, from compute_threshold
        self.estimates_accepted = 0
        self.estimates_unjudged = 0  # linf_norm calls seen with no threshold known
        self.bindings: list = []

    def span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(pre, args, result)
            return result

        return wrapper

    def counter(self, name, fn, after=None):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after:
                after(None, args, result)
            return result

        return wrapper

    # Observers run after the timed region, at the same boundary.
    def _size_before_append(self, args):
        return os.path.getsize(args[0].path)

    def _after_append(self, before, args, result):
        self.bytes_written += os.path.getsize(args[0].path) - before

    def _after_load(self, before, args, result):
        self.bytes_read += os.path.getsize(args[1])

    def _after_threshold(self, before, args, result):
        self.tau = result

    def _after_linf(self, before, args, result):
        if self.tau is None:
            self.estimates_unjudged += 1
        elif result <= self.tau:
            self.estimates_accepted += 1

    def _wrap(self, name, fn):
        if name == "numcore.as_vector":
            return self.counter(name, fn)
        if name == "numcore.linf_norm":
            return self.counter(name, fn, self._after_linf)
        if name == "flengine.history_append":
            return self.span(name, fn, self._size_before_append, self._after_append)
        if name == "flengine.history_load":
            return self.span(name, fn, after=self._after_load)
        if name == "recovery.threshold":
            return self.span(name, fn, after=self._after_threshold)
        return self.span(name, fn)

    def install(self) -> None:
        """Wrap every target on every fedsim module binding it.

        A missing target raises KeyError or AttributeError. RuntimeError
        means that, after patching, a fedsim module still binds an
        unwrapped original.
        """
        import fedsim.cli  # noqa: F401  (imports every fedsim module)

        mods = {n: m for n, m in sys.modules.items() if n == "fedsim" or n.startswith("fedsim.")}
        originals = []
        for modname, attr, name in SPANS + COUNTED:
            owner = mods[f"fedsim.{modname}"]
            if "." in attr:  # a method: the class object is shared by all bindings
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                self.bindings.append(f"fedsim.{modname}.{attr}")
                continue
            orig = getattr(owner, attr)
            originals.append(orig)
            wrapped = self._wrap(name, orig)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self.bindings.append(f"{mod.__name__}.{key}")
        for mod in mods.values():
            for key, value in vars(mod).items():
                if any(value is orig for orig in originals):
                    raise RuntimeError(f"binding {mod.__name__}.{key} was not wrapped")

    def summary(self) -> dict:
        """Per span name: calls, total time and self time (total minus the
        time its direct children cover; a single thread, so children never
        overlap)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        under_fedrecover = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                under_fedrecover[i] = under_fedrecover[parent]
            if name == "recovery.fedrecover":
                under_fedrecover[i] = True
        per_name: dict = {}
        exact_client_updates = 0
        for i, (name, start, end, _) in enumerate(spans):
            rec = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            if name == "clients.local_update" and under_fedrecover[i]:
                exact_client_updates += 1
        return {
            "spans": per_name,
            "counts": self.counts,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "estimates_accepted": self.estimates_accepted,
            "estimates_unjudged": self.estimates_unjudged,
            "exact_client_updates": exact_client_updates,
            "bindings": sorted(self.bindings),
        }


def main(argv) -> int:
    out_path, sim_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import fedsim.cli

    rc = fedsim.cli.main(sim_args)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(tracer.summary(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
