import configparser
import io
import math
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_under_address_limit
from fedsim.config import (
    _KEYS,
    _REQUIRED,
    _applies,
    _fmt,
    _parse,
    _to_finite,
    _to_float,
    ConfigError,
    build_datasets,
    build_setup,
    config_hash,
    parse_config,
    pick_malicious,
)


def parse_config_string(text: str):
    return _parse(io.StringIO(text))


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


MINIMAL = """
[experiment]
seed = 7
rounds = 40
learning_rate = 0.1
n_clients = 10
aggregation = fedavg
output_dir = runs/demo

[dataset]
kind = synthetic
num_classes = 5
dim = 6
per_class = 40

[model]
kind = logreg
l2 = 0.01
"""

BACKDOOR = """
[experiment]
seed = 3
rounds = 30
learning_rate = 0.05
n_clients = 10
malicious_count = 2
aggregation = trimmed_mean
trim_k = 2
output_dir = runs/bd

[dataset]
kind = synthetic
num_classes = 5
dim = 8
per_class = 30

[model]
kind = logreg
l2 = 0.01

[attack]
kind = backdoor
trigger = every_kth
trigger_k = 2
trigger_value = 1.0
scale = 10.0
adaptive = true

[detection]
fnr = 0.5
"""


class TestParse:
    def test_minimal_fills_recovery_defaults(self):
        cfg = parse_config_string(MINIMAL)
        assert cfg.recovery.warmup_rounds == 20
        assert cfg.recovery.correction_period == 10
        assert cfg.recovery.final_tuning_rounds == 5
        assert cfg.recovery.buffer_size == 2
        assert cfg.recovery.tolerance_rate == 1e-6
        assert cfg.batch_size == 32
        assert cfg.local_steps == 1
        assert cfg.attack is None
        assert cfg.n_malicious == 0

    def test_m_not_below_n_rejected(self):
        text = MINIMAL.replace("n_clients = 10", "n_clients = 10\nmalicious_count = 10")
        with pytest.raises(ConfigError) as err:
            parse_config_string(text)
        assert "malicious" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_string(MINIMAL + "\nwarp_speed = 9\n")
        assert "warp_speed" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_string(MINIMAL + "\n[telemetry]\nx = 1\n")

    def test_trim_k_constraint(self):
        text = BACKDOOR.replace("trim_k = 2", "trim_k = 5")
        with pytest.raises(ConfigError) as err:
            parse_config_string(text)
        assert "trim_k" in str(err.value)

    def test_warmup_budget_constraint(self):
        text = MINIMAL + "\n[recovery]\nwarmup_rounds = 38\nfinal_tuning_rounds = 5\n"
        with pytest.raises(ConfigError):
            parse_config_string(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_string(MINIMAL.replace("seed = 7", ""))
        assert "experiment.seed" in str(err.value)

    def test_backdoor_attack_parsed(self):
        cfg = parse_config_string(BACKDOOR)
        assert cfg.attack.kind == "backdoor"
        assert cfg.attack.lam == 10.0
        assert cfg.attack.adaptive is True
        assert cfg.attack.trigger.k == 2
        assert cfg.n_malicious == 2
        assert cfg.fnr == 0.5

    def test_tau_inf(self):
        cfg = parse_config_string(MINIMAL + "\n[recovery]\ntau = inf\n")
        assert math.isinf(cfg.recovery.tau)

    def test_tau_zero(self):
        # the least tau: every estimate but an exact zero is fixed
        cfg = parse_config_string(MINIMAL + "\n[recovery]\ntau = 0\n")
        assert cfg.recovery.tau == 0.0

    def test_pixel_patch_trigger(self):
        text = BACKDOOR.replace("dim = 8", "dim = 16").replace(
            "trigger = every_kth\ntrigger_k = 2\ntrigger_value = 1.0",
            "trigger = pixel_patch\ntrigger_rows = 2\ntrigger_cols = 3",
        )
        cfg = parse_config_string(text)
        trig = cfg.attack.trigger
        assert (trig.kind, trig.rows, trig.cols, trig.value) == ("pixel_patch", 2, 3, 1.0)
        # canonical form keeps only the relevant trigger keys
        assert "trigger_k" not in cfg.canonical
        assert parse_config_string(cfg.canonical) == cfg

    def test_negative_malicious_count_rejected(self):
        # -1 would make pick_malicious draw permutation(n)[:-1], n - 1 clients
        text = _minimal_with({"experiment": {"malicious_count": "-1"}, "attack": {"kind": "trim"}})
        with pytest.raises(ConfigError) as err:
            parse_config_string(text)
        assert err.value.field == "experiment.malicious_count"

    def test_pixel_patch_on_non_square_dim_rejected(self):
        # MINIMAL's dim = 6 is no square image
        backdoor = {"kind": "backdoor", "trigger": "pixel_patch"}
        text = _minimal_with({"experiment": {"malicious_count": "2"}, "attack": backdoor})
        with pytest.raises(ConfigError) as err:
            parse_config_string(text)
        assert err.value.field == "attack.trigger"

    @pytest.mark.parametrize("key", ["trigger_rows", "trigger_cols"])
    def test_pixel_patch_larger_than_the_image_names_its_key(self, key):
        backdoor = {"kind": "backdoor", "trigger": "pixel_patch"}
        fits = {"experiment": {"malicious_count": "2"}, "dataset": {"dim": "16"}, "attack": backdoor}
        parse_config_string(_minimal_with(fits))  # the default 4x4 patch fills the 4x4 image
        with pytest.raises(ConfigError) as err:
            parse_config_string(_minimal_with({**fits, "attack": {**backdoor, key: "5"}}))
        assert err.value.field == f"attack.{key}"

    def test_every_kth_trigger_wider_than_the_input_names_its_key(self):
        # MINIMAL's dim = 6: k = 6 sets the last coordinate, k = 7 would set none
        backdoor = {"kind": "backdoor", "trigger": "every_kth", "trigger_k": "6"}
        fits = {"experiment": {"malicious_count": "2"}, "attack": backdoor}
        parse_config_string(_minimal_with(fits))
        with pytest.raises(ConfigError, match="k exceeds the input dim 6") as err:
            parse_config_string(_minimal_with({**fits, "attack": {**backdoor, "trigger_k": "7"}}))
        assert err.value.field == "attack.trigger_k"

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(MINIMAL)
        cfg = parse_config(p)
        assert cfg.seed == 7


class TestCanonicalForm:
    def test_roundtrip_identity(self):
        for text in (MINIMAL, BACKDOOR):
            cfg = parse_config_string(text)
            canon = cfg.canonical
            again = parse_config_string(canon)
            assert again == cfg
            assert again.canonical == canon

    def test_hash_insensitive_to_formatting(self):
        cfg_a = parse_config_string(MINIMAL)
        spaced = MINIMAL.replace("seed = 7", "seed   =    7")
        cfg_b = parse_config_string(spaced)
        assert config_hash(cfg_a) == config_hash(cfg_b)

    def test_hash_sensitive_to_values(self):
        cfg_a = parse_config_string(MINIMAL)
        cfg_b = parse_config_string(MINIMAL.replace("seed = 7", "seed = 8"))
        assert config_hash(cfg_a) != config_hash(cfg_b)

    def test_hash_is_32_bytes(self):
        assert len(config_hash(parse_config_string(MINIMAL))) == 32

    def test_hash_is_pinned(self):
        """MINIMAL leaves most keys at their defaults, so a changed key name,
        default or canonical order changes these hashes (and every run's
        identity in history.bin)."""
        assert config_hash(parse_config_string(MINIMAL)).hex() == (
            "46bfd18dc5f8820eaa0efdd2366f8ca1e5ed611746ea3a6d71f8ae8ff84576ee"
        )
        assert config_hash(parse_config_string(BACKDOOR)).hex() == (
            "86fca33b7fb31ff063745b1efdc486da87ebb149b21e7bc3453ea554ce69be4c"
        )


class TestBuilders:
    def test_datasets_deterministic(self):
        cfg = parse_config_string(MINIMAL)
        a_train, a_test = build_datasets(cfg)
        b_train, b_test = build_datasets(cfg)
        assert a_train.size == 5 * 40
        assert (a_train.inputs == b_train.inputs).all()
        assert (a_test.inputs == b_test.inputs).all()

    def test_setup_shapes(self):
        cfg = parse_config_string(BACKDOOR)
        train, _ = build_datasets(cfg)
        setup = build_setup(cfg, train)
        assert len(setup.client_ids) == 10
        assert sum(len(y) for _, y, _ in setup.clients) == train.size
        assert len(setup.malicious) == 2
        assert set(setup.poisoned) == set(setup.malicious)

    def test_malicious_pick_deterministic(self):
        cfg = parse_config_string(BACKDOOR)
        assert pick_malicious(cfg) == pick_malicious(cfg)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_separation_names_its_key(self):
        # blobs 1.7e308 from the origin span more than the float range, so
        # the map into [0, 1] divides by inf
        text = MINIMAL.replace("num_classes = 5\ndim = 6", "num_classes = 3\ndim = 2\nseparation = 1.7e308")
        cfg = parse_config_string(text)
        with pytest.raises(ConfigError, match="dataset.separation") as err:
            build_datasets(cfg)
        assert err.value.field == "dataset.separation"

    @pytest.mark.parametrize(
        "edit, key",
        [
            (("dim = 6", "dim = 1000000000000"), "dim"),  # 10 x 10^12 class centers alone
            (("per_class = 40", "per_class = 100000000000"), "per_class"),
            (("per_class = 40", "per_class = 40\ntest_per_class = 100000000000"), "test_per_class"),
        ],
    )
    def test_split_too_large_for_memory_names_its_key(self, tmp_path, edit, key):
        # numpy refuses each array at once under the child's 2 GiB address
        # limit, so nothing is allocated; the train split of a test-split
        # fault is built first
        path = tmp_path / "huge.ini"
        path.write_text(MINIMAL.replace(*edit))
        code = (
            "import sys\n"
            "from fedsim.config import ConfigError, build_datasets, parse_config\n"
            "try:\n"
            "    build_datasets(parse_config(sys.argv[1]))\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
        )
        reason = "the data it sizes does not fit in memory"
        assert run_under_address_limit(code, path) == f"config field [dataset.{key}]: {reason}\n"


# The canonical serializer as it was before the key table, kept verbatim as
# the reference the table-driven canonical form must match byte for byte
# (the config hash in every history.bin depends on it).
def _seed_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    return str(value)


def _seed_serialize_config(cfg) -> str:
    """Canonical text form: fixed section and key order, resolved values.

    Hashing this form makes the config hash independent of key order,
    spacing, or omitted defaults in the source file.
    """
    out = ["[experiment]"]
    out.append(f"seed = {cfg.seed}")
    out.append(f"rounds = {cfg.rounds}")
    out.append(f"learning_rate = {_seed_fmt(cfg.learning_rate)}")
    out.append(f"batch_size = {cfg.batch_size}")
    out.append(f"local_steps = {cfg.local_steps}")
    out.append(f"n_clients = {cfg.n_clients}")
    if cfg.malicious_fraction is not None:
        out.append(f"malicious_fraction = {_seed_fmt(cfg.malicious_fraction)}")
    if cfg.malicious_count is not None:
        out.append(f"malicious_count = {cfg.malicious_count}")
    out.append(f"noniid_degree = {_seed_fmt(cfg.noniid_degree)}")
    out.append(f"aggregation = {cfg.rule.kind}")
    if cfg.rule.kind == "trimmed_mean":
        out.append(f"trim_k = {cfg.rule.k}")
    out.append(f"output_dir = {cfg.output_dir}")

    out.append("")
    out.append("[dataset]")
    out.append(f"kind = {cfg.dataset.kind}")
    if cfg.dataset.kind == "synthetic":
        out.append(f"num_classes = {cfg.dataset.num_classes}")
        out.append(f"dim = {cfg.dataset.dim}")
        out.append(f"per_class = {cfg.dataset.per_class}")
        out.append(f"test_per_class = {cfg.dataset.test_per_class}")
        out.append(f"separation = {_seed_fmt(cfg.dataset.separation)}")
    else:
        out.append(f"train_images = {cfg.dataset.train_images}")
        out.append(f"train_labels = {cfg.dataset.train_labels}")
        out.append(f"test_images = {cfg.dataset.test_images}")
        out.append(f"test_labels = {cfg.dataset.test_labels}")

    out.append("")
    out.append("[model]")
    out.append(f"kind = {cfg.model.kind}")
    if cfg.model.kind == "mlp":
        out.append(f"hidden = {cfg.model.hidden}")
    out.append(f"l2 = {_seed_fmt(cfg.model.l2)}")

    out.append("")
    out.append("[attack]")
    if cfg.attack is None:
        out.append("kind = none")
    elif cfg.attack.kind == "trim":
        out.append("kind = trim")
        out.append(f"trim_b = {_seed_fmt(cfg.attack.b)}")
    else:
        out.append("kind = backdoor")
        trig = cfg.attack.trigger
        out.append(f"trigger = {trig.kind}")
        if trig.kind == "pixel_patch":
            out.append(f"trigger_rows = {trig.rows}")
            out.append(f"trigger_cols = {trig.cols}")
        else:
            out.append(f"trigger_k = {trig.k}")
        out.append(f"trigger_value = {_seed_fmt(trig.value)}")
        out.append(f"target_label = {cfg.attack.target_label}")
        out.append(f"scale = {_seed_fmt(cfg.attack.lam)}")
        out.append(f"adaptive = {_seed_fmt(cfg.attack.adaptive)}")

    out.append("")
    out.append("[detection]")
    out.append(f"fnr = {_seed_fmt(cfg.fnr)}")
    out.append(f"fpr = {_seed_fmt(cfg.fpr)}")

    out.append("")
    out.append("[recovery]")
    out.append(f"warmup_rounds = {cfg.recovery.warmup_rounds}")
    out.append(f"correction_period = {cfg.recovery.correction_period}")
    out.append(f"final_tuning_rounds = {cfg.recovery.final_tuning_rounds}")
    out.append(f"buffer_size = {cfg.recovery.buffer_size}")
    out.append(f"tolerance_rate = {_seed_fmt(cfg.recovery.tolerance_rate)}")
    if cfg.recovery.tau is not None:
        out.append(f"tau = {_seed_fmt(cfg.recovery.tau)}")
    out.append(f"hvp_mode = {cfg.recovery.hvp_mode}")
    out.append(f"bound_check = {_seed_fmt(cfg.bound_check)}")

    out.append("")
    out.append("[finetune]")
    out.append(f"epochs = {cfg.finetune.epochs}")
    out.append(f"n_examples = {cfg.finetune.n_examples}")
    out.append(f"beta = {_seed_fmt(cfg.finetune.beta)}")
    out.append(f"batch_size = {cfg.finetune.batch_size}")
    out.append("")
    return "\n".join(out)


def _render(sections: dict) -> str:
    return "".join(
        f"[{sec}]\n" + "".join(f"{key} = {val}\n" for key, val in keys.items()) + "\n"
        for sec, keys in sections.items()
    )


_COMMON = {
    "detection": {"fnr": "0.25", "fpr": "0.0"},
    "recovery": {
        "warmup_rounds": "5",
        "correction_period": "3",
        "final_tuning_rounds": "2",
        "buffer_size": "2",
        "tolerance_rate": "0.001",
        "tau": "0.5",
        "hvp_mode": "lbfgs",
        "bound_check": "false",
    },
    "finetune": {"epochs": "3", "n_examples": "40", "beta": "2.5", "batch_size": "8"},
}
# Three valid configs that between them put every key of the table in its
# variant: every key each one accepts is given explicitly.
_BASES = {
    "patch": {
        "experiment": {
            "seed": "1",
            "rounds": "12",
            "learning_rate": "0.1",
            "batch_size": "8",
            "local_steps": "2",
            "n_clients": "6",
            "malicious_count": "1",
            "noniid_degree": "0.5",
            "aggregation": "trimmed_mean",
            "trim_k": "1",
            "output_dir": "runs/a",
        },
        "dataset": {
            "kind": "synthetic",
            "num_classes": "3",
            "dim": "9",
            "per_class": "20",
            "test_per_class": "5",
            "separation": "2.0",
        },
        "model": {"kind": "mlp", "hidden": "4", "l2": "0.01"},
        "attack": {
            "kind": "backdoor",
            "trigger": "pixel_patch",
            "trigger_rows": "2",
            "trigger_cols": "2",
            "trigger_value": "1.0",
            "target_label": "1",
            "scale": "2.0",
            "adaptive": "false",
        },
        **_COMMON,
    },
    "mnist": {
        "experiment": {
            "seed": "2",
            "rounds": "12",
            "learning_rate": "0.1",
            "n_clients": "10",
            "malicious_fraction": "0.2",
            "aggregation": "fedavg",
            "output_dir": "runs/b",
        },
        "dataset": {
            "kind": "mnist",
            "train_images": "train-images",
            "train_labels": "train-labels",
            "test_images": "test-images",
            "test_labels": "test-labels",
        },
        "model": {"kind": "logreg", "l2": "0.01"},
        "attack": {"kind": "trim", "trim_b": "3.0"},
        **_COMMON,
        "recovery": {**_COMMON["recovery"], "tau": "inf", "bound_check": "true"},
    },
    "kth": {
        "experiment": {
            "seed": "3",
            "rounds": "12",
            "learning_rate": "0.1",
            "n_clients": "4",
            "malicious_count": "1",
            "aggregation": "median",
            "output_dir": "runs/c",
        },
        "dataset": {"kind": "synthetic", "num_classes": "2", "dim": "6"},
        "model": {"kind": "ridge"},
        "attack": {
            "kind": "backdoor",
            "trigger": "every_kth",
            "trigger_k": "2",
            "trigger_value": "0.5",
            "target_label": "0",
            "scale": "1.5",
            "adaptive": "true",
        },
        **_COMMON,
        "recovery": {**_COMMON["recovery"], "hvp_mode": "exact_quadratic"},
    },
}


def _edited(base: str, section: str, key: str, value) -> str:
    """The base config with one key set to `value` (None: removed)."""
    sections = {sec: dict(keys) for sec, keys in _BASES[base].items()}
    if value is None:
        del sections[section][key]
    else:
        sections[section][key] = value
    return _render(sections)


def _minimal_with(edits: dict) -> str:
    """MINIMAL with keys set, given as {section: {key: value}}."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(MINIMAL)
    sections = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    for section, keys in edits.items():
        sections.setdefault(section, {}).update(keys)
    return _render(sections)


# MINIMAL edits that meet every precondition of bound_check / exact_quadratic
_BOUNDED = {"recovery": {"tau": "inf", "bound_check": "true"}}
_QUADRATIC = {"model": {"kind": "ridge"}, "recovery": {"hvp_mode": "exact_quadratic"}}


def _row_id(row) -> str:
    return f"{row.section}.{row.key}" + (f"[{row.when[0]}={row.when[1]}]" if row.when else "")


# MINIMAL edits that put a key in the variant it applies to
_BACKDOOR_KTH = {
    "experiment": {"malicious_count": "1"},
    "attack": {"kind": "backdoor", "trigger": "every_kth", "trigger_k": "2"},
}
_VARIANT_EDITS = {
    None: {},
    ("kind", "synthetic"): {},
    ("aggregation", "trimmed_mean"): {"experiment": {"aggregation": "trimmed_mean"}},
    ("kind", "mlp"): {"model": {"kind": "mlp", "hidden": "2"}},
    ("kind", "trim"): {"experiment": {"malicious_count": "1"}, "attack": {"kind": "trim"}},
    ("kind", "backdoor"): _BACKDOOR_KTH,
    ("trigger", "every_kth"): _BACKDOOR_KTH,
    ("trigger", "pixel_patch"): {
        "experiment": {"malicious_count": "1"},
        "dataset": {"dim": "9"},
        "attack": {"kind": "backdoor", "trigger": "pixel_patch", "trigger_rows": "2", "trigger_cols": "2"},
    },
}

# Inclusive bounds that no valid config reaches, with the field of the rule
# across keys that refuses them: warmup_rounds > buffer_size >= 1 needs
# rounds >= 2, and n_clients >= num_classes >= 2.
_OUT_OF_REACH = {
    ("experiment.rounds", 1.0): "recovery.warmup_rounds",
    ("experiment.n_clients", 1.0): "experiment.n_clients",
}


def _in_variant(row, value: str) -> str:
    """MINIMAL with `row`'s key set to `value`, in the variant it applies to."""
    edits = {sec: dict(keys) for sec, keys in _VARIANT_EDITS[row.when].items()}
    edits.setdefault(row.section, {})[row.key] = value
    return _minimal_with(edits)


def _bound_cases():
    """(row, bound, inclusive, outward) for each end of each ranged row;
    `outward` is -1 at the low end and +1 at the high one."""
    for row in _KEYS:
        if row.within is not None:
            low, high = (float(end) for end in row.within[1:-1].split(","))
            yield pytest.param(row, low, row.within[0] == "[", -1, id=f"{_row_id(row)}-low")
            yield pytest.param(row, high, row.within[-1] == "]", 1, id=f"{_row_id(row)}-high")


def _literal(row, value: float) -> str:
    if math.isinf(value):
        return "inf"
    return str(int(value)) if row.conv is int else repr(value)


class TestKeyTable:
    @pytest.mark.parametrize("base", sorted(_BASES))
    def test_bases_are_valid(self, base):
        parse_config_string(_render(_BASES[base]))

    @pytest.mark.parametrize("row", _KEYS, ids=_row_id)
    def test_every_key_fails_by_its_own_name(self, row):
        """Dropping a required key, an unparsable value, and the key in a
        variant it does not belong to each name the key."""
        field = f"{row.section}.{row.key}"
        home = next(
            b for b, secs in _BASES.items() if row.key in secs[row.section] and _applies(row, secs[row.section])
        )
        texts = []
        if row.default is _REQUIRED:
            texts.append(_edited(home, row.section, row.key, None))
        if row.conv is not str:  # any string parses as a str key
            texts.append(_edited(home, row.section, row.key, "abc"))
        if row.conv in (_to_float, _to_finite):  # -inf would serialize as inf
            texts.append(_edited(home, row.section, row.key, "-inf"))
        if row.conv is _to_finite:
            texts.append(_edited(home, row.section, row.key, "inf"))
        if row.when is not None:
            # A base where no row of this key applies; a key read in every
            # variant must there keep its default, so give it another value.
            away = next(
                b
                for b, secs in _BASES.items()
                if not any(
                    (k.section, k.key) == (row.section, row.key) and _applies(k, secs[row.section])
                    for k in _KEYS
                )
            )
            texts.append(_edited(away, row.section, row.key, "1"))
        for text in texts:
            with pytest.raises(ConfigError) as err:
                parse_config_string(text)
            assert err.value.field == field, text

    @pytest.mark.parametrize(
        "base, section, key, value",
        [
            ("patch", "recovery", "buffer_size", "abc"),
            ("mnist", "recovery", "tolerance_rate", "nan"),
            ("patch", "recovery", "tau", "nan"),
            ("patch", "recovery", "tau", "abc"),
            ("patch", "finetune", "beta", "abc"),
            ("patch", "finetune", "beta", "nan"),
            ("patch", "recovery", "tau", "-inf"),
            ("patch", "finetune", "beta", "-inf"),
            ("patch", "attack", "trigger_value", "inf"),
            ("kth", "attack", "trigger_value", "-inf"),
            ("mnist", "attack", "trim_b", "0.5"),
            ("mnist", "attack", "trim_b", "1"),
            ("patch", "model", "hidden", "0"),
            ("kth", "attack", "scale", "0"),
            ("kth", "attack", "trigger_k", "0"),
            ("patch", "attack", "trigger_rows", "0"),
            ("patch", "attack", "trigger_cols", "0"),
        ],
    )
    def test_one_fault_names_its_key(self, base, section, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config_string(_edited(base, section, key, value))
        assert err.value.field == f"{section}.{key}"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "l2", "-1"),
            ("dataset", "dim", "0"),
            ("dataset", "num_classes", "1"),
            ("dataset", "per_class", "0"),
            ("dataset", "test_per_class", "0"),
            ("experiment", "trim_k", "-1"),
            ("recovery", "buffer_size", "0"),
            ("recovery", "correction_period", "0"),
            ("recovery", "final_tuning_rounds", "-1"),
            ("recovery", "hvp_mode", "foo"),
            ("recovery", "tolerance_rate", "2"),
            ("recovery", "tolerance_rate", "0"),
            ("recovery", "tau", "-1"),
            ("recovery", "tau", "-5e-324"),
            ("experiment", "seed", "-1"),
            ("experiment", "rounds", "0"),
            ("experiment", "learning_rate", "0"),
            ("experiment", "learning_rate", "-1"),
            ("experiment", "batch_size", "0"),
            ("experiment", "local_steps", "0"),
            ("experiment", "n_clients", "0"),
            ("detection", "fnr", "2"),
            ("detection", "fnr", "-1"),
            ("detection", "fpr", "2"),
            ("detection", "fpr", "-1"),
            ("finetune", "batch_size", "0"),
            ("finetune", "n_examples", "0"),
            ("finetune", "epochs", "-1"),
            ("finetune", "beta", "-1"),
            ("finetune", "beta", "0"),
            ("dataset", "separation", "0"),
            ("experiment", "n_clients", "3"),
            ("experiment", "rounds", str(2**32)),
            ("experiment", "n_clients", str(2**32)),
            ("recovery", "hvp_mode", "exact_quadratic"),
            ("recovery", "bound_check", "true"),
        ],
    )
    def test_range_fault_in_minimal_names_its_key(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config_string(_minimal_with({section: {key: value}}))
        assert err.value.field == f"{section}.{key}"

    @pytest.mark.parametrize("key", ["rounds", "n_clients"])
    def test_largest_history_header_count_parses(self, key):
        # the history header stores T and n as u32; parse only, since a
        # setup with 2**32 - 1 clients would not fit in memory
        cfg = parse_config_string(_minimal_with({"experiment": {key: str(2**32 - 1)}}))
        assert getattr(cfg, key) == 2**32 - 1

    @pytest.mark.parametrize(
        "edits, field",
        [
            (_BOUNDED, None),
            ({**_BOUNDED, "experiment": {"aggregation": "median"}}, "recovery.bound_check"),
            ({**_BOUNDED, "model": {"kind": "mlp", "hidden": "3"}}, "recovery.bound_check"),
            ({**_BOUNDED, "model": {"l2": "0"}}, "recovery.bound_check"),
            ({**_BOUNDED, "experiment": {"learning_rate": "200"}}, "recovery.bound_check"),
            (_QUADRATIC, None),
            ({**_QUADRATIC, "experiment": {"local_steps": "2"}}, "recovery.hvp_mode"),
        ],
    )
    def test_mode_precondition_names_the_mode(self, edits, field):
        """bound_check and exact_quadratic are refused at parse, under their
        own key, unless every precondition of the mode holds."""
        text = _minimal_with(edits)
        if field is None:
            parse_config_string(text)
            return
        with pytest.raises(ConfigError) as err:
            parse_config_string(text)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "text, field",
        [
            (MINIMAL.replace("seed = 7", "seed = 7\nseed = 8"), "experiment.seed"),
            (MINIMAL + "\n[model]\nhidden = 2\n", "model"),
            ("seed = 7\n" + MINIMAL, "file"),
        ],
        ids=["duplicate_key", "duplicate_section", "no_section_header"],
    )
    def test_ini_syntax_fault_is_config_error(self, text, field):
        with pytest.raises(ConfigError) as err:
            parse_config_string(text)
        assert err.value.field == field

    def test_tolerance_rate_unchecked_when_tau_is_given(self):
        cfg = parse_config_string(MINIMAL + "\n[recovery]\ntau = 0.5\ntolerance_rate = 2\n")
        assert cfg.recovery.tolerance_rate == 2.0

    def test_cross_field_recovery_error_names_the_section(self):
        # warmup_rounds <= buffer_size is reported under the key to raise
        with pytest.raises(ConfigError) as err:
            parse_config_string(_edited("patch", "recovery", "warmup_rounds", "2"))
        assert err.value.field == "recovery.warmup_rounds"

    @pytest.mark.parametrize("row, bound, inclusive, outward", _bound_cases())
    def test_range_bound_is_checked_under_its_key(self, row, bound, inclusive, outward):
        """In its own variant, a key's bound parses when inclusive and fails
        under the key when exclusive; the nearest value past it fails too."""
        field = f"{row.section}.{row.key}"
        texts = [] if inclusive else [_in_variant(row, _literal(row, bound))]
        if math.isfinite(bound):
            past = bound + outward if row.conv is int else math.nextafter(bound, outward * math.inf)
            texts.append(_in_variant(row, _literal(row, past)))
        for text in texts:
            with pytest.raises(ConfigError) as err:
                parse_config_string(text)
            assert err.value.field == field, text
        if not inclusive:
            return
        text = _in_variant(row, _literal(row, bound))
        if (field, bound) not in _OUT_OF_REACH:
            parse_config_string(text)
            return
        with pytest.raises(ConfigError) as err:
            parse_config_string(text)
        assert err.value.field == _OUT_OF_REACH[field, bound]
        assert "must lie in" not in str(err.value)

    def test_unset_hidden_under_mlp_names_it(self):
        # the default 0 is checked against the range where the key applies
        with pytest.raises(ConfigError) as err:
            parse_config_string(_minimal_with({"model": {"kind": "mlp"}}))
        assert err.value.field == "model.hidden"

    def test_key_outside_its_variant_is_not_range_checked(self):
        # MINIMAL is logreg under fedavg, where hidden and trim_k keep their 0
        cfg = parse_config_string(_minimal_with({"model": {"hidden": "0"}, "experiment": {"trim_k": "0"}}))
        assert (cfg.model.hidden, cfg.rule.k) == (0, 0)

    @pytest.mark.parametrize(
        "edits",
        [
            {"experiment": {"trim_k": "3"}, "detection": {"fnr": "2"}},
            {"experiment": {"trim_k": "3", "warp": "9"}},
        ],
        ids=["range_fault_later", "unknown_key"],
    )
    def test_first_fault_in_table_order_is_reported(self, edits):
        # MINIMAL is under fedavg, where trim_k is accepted only at 0
        with pytest.raises(ConfigError) as err:
            parse_config_string(_minimal_with(edits))
        assert err.value.field == "experiment.trim_k"

    @pytest.mark.parametrize(
        "base, section, key", [("patch", "experiment", "output_dir"), ("mnist", "dataset", "train_images")]
    )
    def test_value_over_two_lines_names_its_key(self, base, section, key):
        # configparser joins an indented next line onto the value, which the
        # canonical form, one line per key, could not hold
        text = _edited(base, section, key, _BASES[base][section][key] + "\n  two")
        with pytest.raises(ConfigError, match="on one line") as err:
            parse_config_string(text)
        assert err.value.field == f"{section}.{key}"

    def test_readme_config_reference_lists_every_key(self):
        section = README.read_text(encoding="utf-8").split("## Config reference", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(
            r"^\| `(\w+)` \| `(\w+)` \| ([^|]*?) \| ([^|]*?) \| ([^|]*?) \|$", section, flags=re.MULTILINE
        )
        defaults = {_REQUIRED: "*required*", None: "*unset*"}
        assert rows == [
            (
                k.section,
                k.key,
                defaults.get(k.default, f"`{_fmt(k.default)}`"),
                f"`{k.within}`" if k.within else "—",
                "all"
                if k.when is None
                else f"`{k.section}.{k.when[0]} = {k.when[1]}`"
                + (f"; elsewhere only `{_fmt(k.default)}`" if k.anywhere else ""),
            )
            for k in _KEYS
        ]

    def test_readme_example_parses_to_its_canonical_form(self):
        example = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config_string(example)
        again = parse_config_string(cfg.canonical)
        assert again == cfg
        assert again.canonical == cfg.canonical


@st.composite
def _valid_configs(draw) -> str:
    """A valid config text over every variant; each optional key is left
    out at random, and then its default is what the constraints see."""
    sections = {sec: {} for sec in dict.fromkeys(k.section for k in _KEYS)}

    def put(section, key, strategy, default=_REQUIRED):
        if default is not _REQUIRED and draw(st.booleans()):
            return default
        value = draw(strategy)
        sections[section][key] = repr(value) if isinstance(value, float) else value
        return value

    def real(lo, hi, **kw):
        return st.floats(lo, hi, allow_nan=False, **kw)

    mnist = draw(st.booleans())
    put("dataset", "kind", st.just("mnist" if mnist else "synthetic"))
    if mnist:
        classes, dim = 10, 784
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            put("dataset", key, st.sampled_from(["a", "dir/b", "c d"]))
    else:
        classes = put("dataset", "num_classes", st.integers(2, 6), 10)
        dim = put("dataset", "dim", st.integers(1, 30), 20)
        put("dataset", "per_class", st.integers(1, 50), 100)
        put("dataset", "test_per_class", st.integers(1, 20), 50)
        put("dataset", "separation", real(0.0, 10.0, exclude_min=True), 3.0)
    n = put("experiment", "n_clients", st.integers(classes, classes + 10))
    put("experiment", "seed", st.integers(0, 2**31))
    rate = put("experiment", "learning_rate", real(0.0, 1e3, exclude_min=True))
    put("experiment", "batch_size", st.integers(1, 64), 32)
    steps = put("experiment", "local_steps", st.integers(1, 4), 1)
    put("experiment", "noniid_degree", real(1.0 / classes, 1.0), 0.5)
    put("experiment", "output_dir", st.sampled_from(["runs/x", "out", "a b/c"]))
    attack = put("attack", "kind", st.sampled_from(["none", "trim", "backdoor"]), "none")
    low = 0 if attack == "none" else 1
    if draw(st.booleans()):
        put("experiment", "malicious_count", st.integers(low, n - 1))
    elif attack != "none" or draw(st.booleans()):
        put("experiment", "malicious_fraction", real(0.5 * low / n, (n - 1) / n))
    rule = put("experiment", "aggregation", st.sampled_from(["fedavg", "median", "trimmed_mean"]))
    if rule == "trimmed_mean":
        put("experiment", "trim_k", st.integers(0, (n - 1) // 2), 0)
    else:
        put("experiment", "trim_k", st.just(0), 0)
    kind = put("model", "kind", st.sampled_from(["logreg", "mlp", "ridge"]))
    if kind == "mlp":
        put("model", "hidden", st.integers(1, 8))
    else:
        put("model", "hidden", st.just(0), 0)
    l2 = put("model", "l2", real(0.0, 1.0), 0.0)
    if attack == "trim":
        put("attack", "trim_b", real(1.0, 10.0, exclude_min=True), 2.0)
    elif attack == "backdoor":
        # a pixel patch only on a square image it fits; the default patch is 4x4
        side = math.isqrt(dim)
        triggers = ["pixel_patch", "every_kth"] if side * side == dim else ["every_kth"]
        if put("attack", "trigger", st.sampled_from(triggers)) == "pixel_patch":
            for key in ("trigger_rows", "trigger_cols"):
                put("attack", key, st.integers(1, min(side, 5)), 4 if side >= 4 else _REQUIRED)
        else:
            put("attack", "trigger_k", st.integers(1, min(dim, 9)))
        put("attack", "trigger_value", real(-3.0, 3.0), 0.0)
        put("attack", "target_label", st.integers(0, classes - 1), 0)
        put("attack", "scale", real(0.0, 50.0, exclude_min=True), 1.0)
        put("attack", "adaptive", st.sampled_from(["true", "false"]), "false")
    put("detection", "fnr", real(0.0, 1.0), 0.0)
    put("detection", "fpr", real(0.0, 1.0), 0.0)
    buffer = put("recovery", "buffer_size", st.integers(1, 3), 2)
    warmup = put("recovery", "warmup_rounds", st.integers(buffer + 1, buffer + 4), 20)
    final = put("recovery", "final_tuning_rounds", st.integers(0, 3), 5)
    put("experiment", "rounds", st.integers(warmup + final, warmup + final + 20))
    put("recovery", "correction_period", st.integers(1, 12), 10)
    put("recovery", "tolerance_rate", real(0.0, 1.0, exclude_min=True), 1e-6)
    tau = put("recovery", "tau", st.sampled_from(["inf"]) | real(0.0, 100.0), None)
    # each mode only where its preconditions hold, so that both values stay drawn
    modes = ["lbfgs", "exact_quadratic"] if kind == "ridge" and steps == 1 else ["lbfgs"]
    put("recovery", "hvp_mode", st.sampled_from(modes), "lbfgs")
    bounded = rule == "fedavg" and tau == "inf" and kind != "mlp" and 0 < l2 and rate * l2 <= 1
    put("recovery", "bound_check", st.sampled_from(["true", "false"] if bounded else ["false"]), "false")
    put("finetune", "epochs", st.integers(1, 200), 100)
    put("finetune", "n_examples", st.integers(1, 2000), 1000)
    put("finetune", "beta", st.sampled_from(["inf"]) | real(0.0, 100.0, exclude_min=True), "inf")
    put("finetune", "batch_size", st.integers(1, 64), 32)
    return _render(sections)


@settings(max_examples=300, deadline=None)
@given(_valid_configs())
def test_canonical_form_matches_seed_serializer(text):
    cfg = parse_config_string(text)
    canon = cfg.canonical
    assert canon == _seed_serialize_config(cfg)
    assert parse_config_string(canon) == cfg
