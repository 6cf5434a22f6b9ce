"""Record the reference outputs that the benchmark's output check uses.

    python3 perfbench/record.py

Runs one untraced pipeline for every input set of every workload with the
program as it is now, and writes `reference.json`: per command, the summary
values (TER, ASR, ACP, abnormality_count) and the SHA-256 of `history.bin`
and of each metrics CSV. Re-record only in a change that means to alter the
program's outputs, and say so in that change; a change that claims a
speed-up must pass against the references as they are.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench
import workloads


def main() -> int:
    env = bench.environment("all", 0)
    for key in ("workload", "seed", "input_set"):
        del env[key]
    refs: dict = {"environment": env, "workloads": {}}
    work = bench.ROOT / ".perfbench-work" / f"record-{os.getpid()}"
    for workload in workloads.TEMPLATES:
        per_set = refs["workloads"].setdefault(workload, {})
        for index in range(workloads.INPUT_SETS):
            run = bench.Run(workload, index, work, None)
            try:
                pipeline = run.pipeline()
            finally:
                run.close()
            if run.failures:
                return 1
            per_set[str(index)] = {name: pipeline[name]["outputs"] for name in bench.COMMANDS}
            print(f"{workload} input set {index}: {bench.quality(pipeline)['fedrecover']}", flush=True)
    with open(bench.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
