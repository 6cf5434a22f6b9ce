"""Deterministic federated-learning simulator: poisoning attacks, full
training history, and post-detection model recovery with cost accounting.
"""

from .aggregation import AggregationRule, apply_update, coord_median, fedavg, trimmed_mean
from .attacks import (
    AttackConfig,
    DetectionOutcome,
    Trigger,
    adaptive_scale,
    backdoor_update,
    embed_trigger,
    poison_shard_backdoor,
    simulate_detection,
    trim_attack_updates,
)
from .clients import BatchSampler, client_local_update
from .config import ConfigError, ExperimentConfig, config_hash, parse_config, serialize_config
from .data import ClientShard, Dataset, gen_synthetic, load_mnist_idx, partition_noniid
from .flengine import FlSetup, HistoryStore, RoundRecord, TrainState, run_round, train
from .metrics import MetricsReport, attack_success_rate, cost_saving, test_error_rate
from .models import Batch, ModelSpec, gradient, init_params, loss, predict
from .numcore import RngStream, derive_seed, finite_diff_gradient, linf_norm
from .recovery import (
    LbfgsBuffers,
    LbfgsSingularError,
    RecoveryParams,
    RecoveryResult,
    compact_system,
    compute_threshold,
    estimate_update,
    exact_integrated_hvp_quadratic,
    fedrecover,
    fine_tune,
    historical_only,
    lbfgs_hvp,
    predicted_cost,
    theoretical_bound,
    train_from_scratch,
)

__version__ = "0.1.0"
