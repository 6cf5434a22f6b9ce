"""The benchmark's workloads: one fedsim config per (workload, input set).

Every workload is synthetic data, so the benchmark needs no files outside
the repository. `--seed` picks one of `INPUT_SETS` input sets (seed modulo
`INPUT_SETS`); the config seed is that index, so the same `--seed` always
gives the same config and the program sees only the config file the
benchmark writes. Each input set has recorded reference outputs in
`reference.json` (see `record.py`), which is what makes every seed
checkable.

Why each workload exists, and which layers it stresses, is written up in
`README.md` next to this file. `trim-wide` is not in `BENCHMARK.json`
(too few repeats fit a run to be steady); run it by hand.
"""

from __future__ import annotations

INPUT_SETS = 16

_RECOVERY = """\
[recovery]
warmup_rounds = 10
correction_period = 10
final_tuning_rounds = 5
buffer_size = 2
tolerance_rate = 1e-6
"""

_BACKDOOR_LOGREG = """\
[experiment]
seed = {seed}
rounds = 300
learning_rate = 0.08
batch_size = 56
n_clients = 20
malicious_count = 4
noniid_degree = 0.1
aggregation = trimmed_mean
trim_k = 4
output_dir = {output_dir}

[dataset]
kind = synthetic
num_classes = 10
dim = 60
per_class = 500
test_per_class = 100
separation = 5.0

[model]
kind = logreg
l2 = 0.01

[attack]
kind = backdoor
trigger = every_kth
trigger_k = 2
trigger_value = 1.0
target_label = 0
scale = 10.0
adaptive = true

[detection]
fnr = 0.0
fpr = 0.0

"""

_TRIM_WIDE = """\
[experiment]
seed = {seed}
rounds = 100
learning_rate = 0.1
batch_size = 32
n_clients = 40
malicious_count = 8
noniid_degree = 0.5
aggregation = median
output_dir = {output_dir}

[dataset]
kind = synthetic
num_classes = 10
dim = 784
per_class = 200
test_per_class = 50
separation = 20.0

[model]
kind = logreg
l2 = 0.01

[attack]
kind = trim
trim_b = 2.0

[detection]
fnr = 0.0
fpr = 0.0

"""

_MLP_LOCALSTEPS = """\
[experiment]
seed = {seed}
rounds = 150
learning_rate = 0.05
batch_size = 32
local_steps = 4
n_clients = 20
malicious_count = 4
noniid_degree = 0.1
aggregation = fedavg
output_dir = {output_dir}

[dataset]
kind = synthetic
num_classes = 10
dim = 60
per_class = 300
test_per_class = 100
separation = 5.0

[model]
kind = mlp
hidden = 32
l2 = 0.001

[attack]
kind = backdoor
trigger = every_kth
trigger_k = 2
trigger_value = 1.0
target_label = 0
scale = 4.0
adaptive = true

[detection]
fnr = 0.25
fpr = 0.0

"""

TEMPLATES = {
    "backdoor-logreg": _BACKDOOR_LOGREG + _RECOVERY,
    "trim-wide": _TRIM_WIDE + _RECOVERY,
    "mlp-localsteps": _MLP_LOCALSTEPS + _RECOVERY,
}


def input_set(seed: int) -> int:
    """Index of the input set a benchmark `--seed` selects."""
    return seed % INPUT_SETS


def config_text(workload: str, seed: int, output_dir: str) -> str:
    """The INI config the program reads for this workload and seed."""
    return TEMPLATES[workload].format(seed=input_set(seed), output_dir=output_dir)
