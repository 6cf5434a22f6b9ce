"""Experiment configuration: INI-style parsing with strict validation,
a canonical text form (so config hashes are portable), and builders that
turn a config into concrete datasets and a federated setup. Every key is
one row of `_KEYS` (section, name, converter, default, variant, range);
the parser walks it once, reading each key and writing its canonical line.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import data as data_mod
from .aggregation import RULE_KINDS, AggregationRule
from .attacks import AttackConfig, Trigger
from .flengine import FlSetup
from .models import KINDS, ModelSpec
from .numcore import STREAM_DATAGEN, STREAM_MALICIOUS, ConfigError, RngStream, derive_seed, sha256
from .recovery import FinetuneConfig, RecoveryParams

_BOOL = {"true": True, "false": False}
_REQUIRED = object()


@dataclass(frozen=True)
class DatasetConfig:
    kind: str  # synthetic | mnist; the keys of the other kind are None
    num_classes: int
    dim: int | None
    per_class: int | None
    test_per_class: int | None
    separation: float | None
    train_images: str | None
    train_labels: str | None
    test_images: str | None
    test_labels: str | None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    rounds: int
    learning_rate: float
    batch_size: int
    local_steps: int
    n_clients: int
    malicious_fraction: float | None
    malicious_count: int | None
    noniid_degree: float
    rule: AggregationRule
    output_dir: str
    dataset: DatasetConfig
    model: ModelSpec
    attack: AttackConfig | None
    fnr: float
    fpr: float
    recovery: RecoveryParams
    bound_check: bool
    finetune: FinetuneConfig
    # the text `config.ini` holds and `config_hash` hashes, written by `_parse`
    canonical: str = field(repr=False, compare=False)

    @property
    def n_malicious(self) -> int:
        if self.malicious_count is not None:
            return self.malicious_count
        if self.malicious_fraction is not None:
            return int(math.floor(self.malicious_fraction * self.n_clients + 0.5))
        return 0


def _to_bool(raw: str) -> bool:
    val = _BOOL.get(raw.strip().lower())
    if val is None:
        raise ValueError("expected true or false")
    return val


def _to_float(raw: str) -> float:
    """A float that may be inf (tau, beta: "none") but not nan or -inf,
    which the canonical form could not tell from inf."""
    val = float(raw)
    if math.isnan(val) or val == -math.inf:
        raise ValueError(f"{val} is not allowed")
    return val


def _to_finite(raw: str) -> float:
    val = _to_float(raw)
    if math.isinf(val):
        raise ValueError("must be finite")
    return val


def _one_of(*choices: str) -> Callable[[str], str]:
    def conv(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return raw

    return conv


class _Key(NamedTuple):
    section: str
    key: str
    conv: Callable
    default: object  # _REQUIRED: the key must be given wherever it applies
    when: tuple | None  # (selector key of the same section, value): the variant it applies to
    anywhere: bool = False  # read in every variant (keeping its default), written in its own
    within: str | None = None  # the range the key accepts: "[" "]" include an end, "(" ")" exclude it


_SYNTHETIC, _MNIST, _MLP = ("kind", "synthetic"), ("kind", "mnist"), ("kind", "mlp")
_TRIM, _BACKDOOR = ("kind", "trim"), ("kind", "backdoor")
_PATCH, _KTH = ("trigger", "pixel_patch"), ("trigger", "every_kth")

# In canonical order; a variant's selector comes before the keys it selects.
_KEYS = (
    _Key("experiment", "seed", int, _REQUIRED, None, within="[0, inf)"),
    # 4294967296 = 2**32: the history header stores T and n as u32
    _Key("experiment", "rounds", int, _REQUIRED, None, within="[1, 4294967296)"),
    _Key("experiment", "learning_rate", _to_finite, _REQUIRED, None, within="(0, inf)"),
    _Key("experiment", "batch_size", int, 32, None, within="[1, inf)"),
    _Key("experiment", "local_steps", int, 1, None, within="[1, inf)"),
    _Key("experiment", "n_clients", int, _REQUIRED, None, within="[1, 4294967296)"),
    _Key("experiment", "malicious_fraction", _to_finite, None, None, within="[0, 1)"),
    _Key("experiment", "malicious_count", int, None, None, within="[0, inf)"),
    _Key("experiment", "noniid_degree", _to_finite, 0.5, None),
    _Key("experiment", "aggregation", _one_of(*RULE_KINDS), _REQUIRED, None),
    _Key("experiment", "trim_k", int, 0, ("aggregation", "trimmed_mean"), anywhere=True, within="[0, inf)"),
    _Key("experiment", "output_dir", str, _REQUIRED, None),
    _Key("dataset", "kind", _one_of("synthetic", "mnist"), _REQUIRED, None),
    _Key("dataset", "num_classes", int, 10, _SYNTHETIC, within="[2, inf)"),
    _Key("dataset", "dim", int, 20, _SYNTHETIC, within="[1, inf)"),
    _Key("dataset", "per_class", int, 100, _SYNTHETIC, within="[1, inf)"),
    _Key("dataset", "test_per_class", int, 50, _SYNTHETIC, within="[1, inf)"),
    _Key("dataset", "separation", _to_finite, 3.0, _SYNTHETIC, within="(0, inf)"),
    _Key("dataset", "train_images", str, _REQUIRED, _MNIST),
    _Key("dataset", "train_labels", str, _REQUIRED, _MNIST),
    _Key("dataset", "test_images", str, _REQUIRED, _MNIST),
    _Key("dataset", "test_labels", str, _REQUIRED, _MNIST),
    _Key("model", "kind", _one_of(*KINDS), _REQUIRED, None),
    _Key("model", "hidden", int, 0, _MLP, anywhere=True, within="[1, inf)"),
    _Key("model", "l2", _to_finite, 0.0, None, within="[0, inf)"),
    _Key("attack", "kind", _one_of("none", "trim", "backdoor"), "none", None),
    _Key("attack", "trim_b", _to_finite, 2.0, _TRIM, within="(1, inf)"),
    _Key("attack", "trigger", _one_of("pixel_patch", "every_kth"), _REQUIRED, _BACKDOOR),
    _Key("attack", "trigger_rows", int, 4, _PATCH, within="[1, inf)"),
    _Key("attack", "trigger_cols", int, 4, _PATCH, within="[1, inf)"),
    _Key("attack", "trigger_k", int, _REQUIRED, _KTH, within="[1, inf)"),
    _Key("attack", "trigger_value", _to_finite, 1.0, _PATCH),
    _Key("attack", "trigger_value", _to_finite, 0.0, _KTH),
    _Key("attack", "target_label", int, 0, _BACKDOOR),
    _Key("attack", "scale", _to_finite, 1.0, _BACKDOOR, within="(0, inf)"),
    _Key("attack", "adaptive", _to_bool, False, _BACKDOOR),
    _Key("detection", "fnr", _to_finite, 0.0, None, within="[0, 1]"),
    _Key("detection", "fpr", _to_finite, 0.0, None, within="[0, 1]"),
    _Key("recovery", "warmup_rounds", int, 20, None),
    _Key("recovery", "correction_period", int, 10, None, within="[1, inf)"),
    _Key("recovery", "final_tuning_rounds", int, 5, None, within="[0, inf)"),
    _Key("recovery", "buffer_size", int, 2, None, within="[1, inf)"),
    _Key("recovery", "tolerance_rate", _to_finite, 1e-6, None),
    _Key("recovery", "tau", _to_float, None, None, within="[0, inf]"),
    _Key("recovery", "hvp_mode", _one_of("lbfgs", "exact_quadratic"), "lbfgs", None),
    _Key("recovery", "bound_check", _to_bool, False, None),
    _Key("finetune", "epochs", int, 100, None, within="[0, inf)"),
    _Key("finetune", "n_examples", int, 1000, None, within="[1, inf)"),
    _Key("finetune", "beta", _to_float, math.inf, None, within="(0, inf]"),
    _Key("finetune", "batch_size", int, 32, None, within="[1, inf)"),
)
_SECTIONS = tuple(dict.fromkeys(k.section for k in _KEYS))


def _applies(k: _Key, section_values: dict) -> bool:
    return k.when is None or section_values.get(k.when[0]) == k.when[1]


def _in_range(k: _Key, value) -> bool:
    low, high = (float(end) for end in k.within[1:-1].split(","))
    above = low <= value if k.within[0] == "[" else low < value
    return above and (value <= high if k.within[-1] == "]" else value < high)


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return _parse(f)


def _parse(f) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(f)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"{exc.section}.{exc.option}", "key given twice") from exc
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(exc.section, "section given twice") from exc
    except configparser.Error as exc:  # a line outside any section, or not `key = value`
        raise ConfigError("file", " ".join(str(exc).split())) from exc
    given = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    for sec in given:
        if sec not in _SECTIONS:
            raise ConfigError(sec, "unknown section")
    values = {sec: {} for sec in _SECTIONS}  # per section: key -> value, None outside its variant
    # The canonical form: each key that applies and is not None, in table
    # order, with its resolved value. Hashing it makes the config hash
    # independent of key order, spacing, or omitted defaults in the source.
    lines = []
    for k in _KEYS:
        section, name = values[k.section], f"{k.section}.{k.key}"
        if not section:  # the section's first key
            lines += ["", f"[{k.section}]"]
        applies = _applies(k, section)
        if not (k.anywhere or applies):
            section.setdefault(k.key, None)
            continue
        raw = given.get(k.section, {}).pop(k.key, None)
        if raw is None:
            if k.default is _REQUIRED:
                raise ConfigError(name, "required key missing")
            value = k.default
        elif "\n" in raw:  # configparser joins an indented next line onto the value
            raise ConfigError(name, "the value must be on one line")
        else:
            try:
                value = k.conv(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(name, f"cannot parse {raw!r}: {exc}") from exc
        if not applies:  # read outside its variant, where it must keep its default
            if value != k.default:
                raise ConfigError(name, f"applies to {k.when[0]} = {k.when[1]} only")
        elif value is not None:
            if k.within is not None and not _in_range(k, value):
                raise ConfigError(name, f"must lie in {k.within}")
            lines.append(f"{k.key} = {_fmt(value)}")
        section[k.key] = value
    for sec_name, leftover in given.items():
        for key in leftover:
            raise ConfigError(f"{sec_name}.{key}", "unknown key")
    cfg = _build(values, "\n".join(lines[1:] + [""]))
    _validate(cfg)
    return cfg


def _build(values: dict, canonical: str) -> ExperimentConfig:
    """The config the parsed `values` and their `canonical` text describe;
    consumes the values."""
    exp, ds, mdl, atk, rec = (values[s] for s in ("experiment", "dataset", "model", "attack", "recovery"))
    rule = AggregationRule(exp.pop("aggregation"), exp.pop("trim_k"))
    if ds["kind"] == "mnist":
        ds["num_classes"] = 10
    dataset = DatasetConfig(**ds)
    dim = dataset.dim if dataset.kind == "synthetic" else 784
    model = ModelSpec(mdl["kind"], dim, dataset.num_classes, mdl["hidden"], mdl["l2"])
    attack = None
    if atk["kind"] == "trim":
        attack = AttackConfig(kind="trim", b=atk["trim_b"])
    elif atk["kind"] == "backdoor":
        if atk["trigger"] == "pixel_patch":
            shape = {"rows": atk["trigger_rows"], "cols": atk["trigger_cols"]}
        else:
            shape = {"k": atk["trigger_k"]}
        trigger = Trigger(atk["trigger"], value=atk["trigger_value"], **shape)
        kwargs = {"target_label": atk["target_label"], "lam": atk["scale"], "adaptive": atk["adaptive"]}
        attack = AttackConfig(kind="backdoor", trigger=trigger, **kwargs)
    bound_check = rec.pop("bound_check")
    return ExperimentConfig(
        **exp,
        **values["detection"],
        rule=rule,
        dataset=dataset,
        model=model,
        attack=attack,
        recovery=RecoveryParams(**rec),
        bound_check=bound_check,
        finetune=FinetuneConfig(**values["finetune"]),
        canonical=canonical,
    )


def _validate(cfg: ExperimentConfig) -> None:
    """Every rule that involves more than one key, and the preconditions
    of `bound_check` and `hvp_mode`, each reported under the key to change.
    The `_KEYS` rows state each key's own range, which `_parse` checks.
    The library (models, attacks, recovery, ...) trusts what passes."""
    model, attack, rec = cfg.model, cfg.attack, cfg.recovery
    if attack is not None and attack.kind == "backdoor":
        if not (0 <= attack.target_label < cfg.dataset.num_classes):
            raise ConfigError("attack.target_label", "target label outside the class range")
        trig, side = attack.trigger, math.isqrt(model.input_dim)
        if trig.kind == "pixel_patch" and side * side != model.input_dim:
            raise ConfigError("attack.trigger", f"pixel_patch needs a square input dim, got {model.input_dim}")
        for key, size in (("trigger_rows", trig.rows), ("trigger_cols", trig.cols)):  # 0 for every_kth
            if size > side:
                raise ConfigError(f"attack.{key}", f"patch exceeds the {side}x{side} image")
        if trig.k > model.input_dim:  # 0 for pixel_patch
            raise ConfigError("attack.trigger_k", f"k exceeds the input dim {model.input_dim}")
    if rec.tau is None and not 0.0 < rec.tolerance_rate <= 1.0:
        raise ConfigError("recovery.tolerance_rate", "must lie in (0, 1] when tau is not given")
    if rec.warmup_rounds <= rec.buffer_size:
        raise ConfigError("recovery.warmup_rounds", "warmup_rounds must exceed buffer_size")
    if cfg.malicious_fraction is not None and cfg.malicious_count is not None:
        raise ConfigError(
            "experiment.malicious_fraction", "give malicious_fraction or malicious_count, not both"
        )
    if cfg.n_malicious >= cfg.n_clients:
        raise ConfigError(
            "experiment.malicious_count",
            f"malicious clients ({cfg.n_malicious}) must be fewer than n_clients ({cfg.n_clients})",
        )
    if attack is not None and cfg.n_malicious == 0:
        raise ConfigError("attack.kind", "attack configured but no malicious clients")
    if cfg.rule.kind == "trimmed_mean" and 2 * cfg.rule.k >= cfg.n_clients:
        raise ConfigError("experiment.trim_k", f"need 2k < n_clients, got k={cfg.rule.k}")
    c = cfg.dataset.num_classes
    if not (1.0 / c - 1e-12 <= cfg.noniid_degree <= 1.0 + 1e-12):
        raise ConfigError("experiment.noniid_degree", f"must lie in [1/{c}, 1]")
    if cfg.n_clients < c:
        raise ConfigError("experiment.n_clients", f"need at least num_classes={c} clients")
    if rec.warmup_rounds + rec.final_tuning_rounds > cfg.rounds:
        raise ConfigError(
            "recovery.warmup_rounds", "warmup + final tuning rounds exceed total rounds"
        )
    if rec.hvp_mode == "exact_quadratic" and (model.kind != "ridge" or cfg.local_steps != 1):
        raise ConfigError(
            "recovery.hvp_mode", "exact_quadratic needs the ridge model and local_steps = 1"
        )
    if cfg.bound_check:  # the preconditions of recovery.theoretical_bound
        for holds, need in (
            (cfg.rule.kind == "fedavg", "the fedavg aggregation rule"),
            (rec.tau == math.inf, "tau = inf (abnormality fixing disabled)"),
            (model.kind != "mlp" and model.l2 > 0, "a strongly convex model (logreg or ridge, l2 > 0)"),
            (cfg.learning_rate * model.l2 <= 1.0, "learning_rate * l2 <= 1"),
        ):
            if not holds:
                raise ConfigError("recovery.bound_check", f"bound_check requires {need}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    return str(value)


def config_hash(cfg: ExperimentConfig) -> bytes:
    return sha256(cfg.canonical.encode("utf-8")).digest()


def _load_idx(d: DatasetConfig, split: str):
    """One split's IDX pair; a fault in it, or a file that cannot be read,
    names the key of its file."""
    images, labels = getattr(d, f"{split}_images"), getattr(d, f"{split}_labels")
    try:
        return data_mod.load_mnist_idx(images, labels)
    except data_mod.IdxError as exc:
        raise ConfigError(f"dataset.{split}_{exc.part}", str(exc)) from exc
    except OSError as exc:
        part = "labels" if exc.filename == labels else "images"
        raise ConfigError(f"dataset.{split}_{part}", str(exc)) from exc


def build_datasets(cfg: ExperimentConfig):
    """(train, test) datasets described by the config, matched to the
    model before anything is written: the library trusts their dim, their
    finite inputs (a `separation` whose blobs overflow is refused) and,
    under a backdoor attack, that some test example is not of the target."""
    d = cfg.dataset
    if d.kind == "synthetic":
        splits = []
        for stream, key, n in ((1, "per_class", d.per_class), (2, "test_per_class", d.test_per_class)):
            seed = derive_seed(cfg.seed, STREAM_DATAGEN, stream, 0)
            try:
                splits.append(data_mod.gen_synthetic(d.num_classes, d.dim, n, d.separation, seed))
            except MemoryError:  # refused under its key, or under dim if even the class centers do not fit
                try:
                    np.empty((d.num_classes, d.dim))  # the centers alone, unfilled
                except MemoryError:
                    key = "dim"
                raise ConfigError(f"dataset.{key}", "the data it sizes does not fit in memory") from None
        train, test = splits
        if not (np.isfinite(train.inputs).all() and np.isfinite(test.inputs).all()):
            raise ConfigError("dataset.separation", "the blobs' spread overflows the float range")
    else:
        train, test = (_load_idx(d, split) for split in ("train", "test"))
    dim = cfg.model.input_dim
    for key, ds in (("train_images", train), ("test_images", test)):
        if ds.dim != dim:
            raise ConfigError(f"dataset.{key}", f"inputs of dim {ds.dim}, but the model's input_dim is {dim}")
    atk = cfg.attack
    if atk is not None and atk.kind == "backdoor" and (test.labels == atk.target_label).all():
        raise ConfigError("attack.target_label", f"all test labels are {atk.target_label}; ASR needs another")
    return train, test


def pick_malicious(cfg: ExperimentConfig) -> frozenset:
    """Deterministic random sample of n_malicious client ids."""
    m = cfg.n_malicious
    if m == 0:
        return frozenset()
    rng = RngStream(derive_seed(cfg.seed, STREAM_MALICIOUS, 0, 0))
    return frozenset(int(i) for i in rng.choice(cfg.n_clients, m))


def build_setup(cfg: ExperimentConfig, train) -> FlSetup:
    if cfg.n_clients > train.size:
        raise ConfigError(
            "experiment.n_clients",
            f"{cfg.n_clients} clients exceed the training set's {train.size} examples; "
            "use fewer clients",
        )
    parts = data_mod.partition_noniid(train, cfg.n_clients, cfg.noniid_degree, cfg.seed)
    for cid, idx in enumerate(parts):
        if idx.size == 0:
            raise ConfigError(
                "experiment.n_clients",
                f"the partition leaves client {cid} with no example; use fewer clients",
            )
    return FlSetup(
        spec=cfg.model,
        rule=cfg.rule,
        eta=cfg.learning_rate,
        batch_size=cfg.batch_size,
        l=cfg.local_steps,
        seed=cfg.seed,
        shards=[(train.inputs[idx], train.labels[idx]) for idx in parts],
        attack=cfg.attack,
        malicious=pick_malicious(cfg),
    )
