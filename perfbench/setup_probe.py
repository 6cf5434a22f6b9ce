"""Set-up time of a fresh process, for the benchmark's `setup_s`.

    python3 perfbench/setup_probe.py exp.ini

Times `import fedsim`, `config.parse_config`, `config.build_datasets` and
`config.build_setup`, the work every `sim` command does before its first
round, and prints the seconds taken.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import fedsim.config as config

    cfg = config.parse_config(sys.argv[1])
    train_set, _ = config.build_datasets(cfg)
    config.build_setup(cfg, train_set)
    print(repr(time.perf_counter() - t0))
