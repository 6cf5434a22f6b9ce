import hashlib
import io
import struct
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedsim.aggregation import AggregationRule
from fedsim.attacks import AttackConfig, Trigger
from fedsim.data import gen_synthetic, partition_noniid
from fedsim.flengine import (
    FlSetup,
    HistoryError,
    HistoryStore,
    run_round,
    train,
)
from fedsim.models import ModelSpec, gradient
from fedsim.numcore import RngStream

CHASH = bytes(range(32))


def small_setup(attack=None, malicious=(), *, rule=None, n_clients=4, l2=0.05, seed=11):
    ds = gen_synthetic(3, 6, 40, 3.0, seed=4)
    shards = partition_noniid(ds, n_clients, 1.0 / 3, seed=5)
    spec = ModelSpec("logreg", 6, 3, l2=l2)
    return FlSetup(
        spec=spec,
        rule=rule or AggregationRule("fedavg"),
        eta=0.3,
        batch_size=16,
        l=1,
        seed=seed,
        client_ids=[s.client_id for s in shards],
        local_inputs={s.client_id: ds.inputs[s.indices] for s in shards},
        local_labels={s.client_id: ds.labels[s.indices] for s in shards},
        sizes={s.client_id: s.size for s in shards},
        attack=attack,
        malicious=frozenset(malicious),
    ), ds


class TestHistoryStore:
    def make_records(self, d=5, n=3, t=3):
        """(round, model, updates by client id) per round."""
        rng = RngStream(1)
        return [(r, rng.normals(d), {i: rng.normals(d) for i in range(n)}) for r in range(t)]

    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        loaded = HistoryStore.load(path)
        assert loaded.d == 5 and loaded.n == 3 and loaded.total_rounds == 3
        assert loaded.config_hash == CHASH
        assert loaded.n_records == 3
        np.testing.assert_array_equal(store.models, loaded.models)
        np.testing.assert_array_equal(store.updates, loaded.updates)

    def test_out_of_order_append(self, tmp_path):
        store = HistoryStore.create(tmp_path / "h.bin", 5, 3, 3, CHASH)
        recs = self.make_records()
        store.append(*recs[0])
        with pytest.raises(HistoryError):
            store.append(*recs[2])

    def test_append_beyond_t_rejected(self, tmp_path):
        store = HistoryStore.create(tmp_path / "h.bin", 5, 3, 2, CHASH)
        recs = self.make_records()
        store.append(*recs[0])
        store.append(*recs[1])
        with pytest.raises(HistoryError, match="round 2 after 2 of 2"):
            store.append(*recs[2])

    @pytest.mark.parametrize("ids", [(0, 1), (0, 1, 2, 3), (0, 1, 3)])
    def test_append_needs_clients_zero_to_n(self, tmp_path, ids):
        store = HistoryStore.create(tmp_path / "h.bin", 5, 3, 3, CHASH)
        with pytest.raises(HistoryError, match="clients 0..2"):
            store.append(0, np.zeros(5), {c: np.zeros(5) for c in ids})

    def test_byte_flip_detected(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        blob = bytearray(path.read_bytes())
        blob[200] ^= 0xFF  # somewhere inside a record payload
        path.write_bytes(bytes(blob))
        with pytest.raises(HistoryError):
            HistoryStore.load(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(HistoryError):
            HistoryStore.load(path)

    def test_fewer_records_than_header_rounds(self, tmp_path):
        # a killed train leaves k < T complete records
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records(t=2):
            store.append(*rec)
        with pytest.raises(HistoryError, match="2 complete records"):
            HistoryStore.load(path)

    def test_header_t_beyond_the_file_allocates_no_rows(self, tmp_path):
        # a corrupt T is not trusted for the arrays' size: rows are
        # allocated only for the records the file can hold
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records(t=2):
            store.append(*rec)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 20, 2**32 - 1)  # T, after magic, version, d and n
        path.write_bytes(bytes(blob))
        with pytest.raises(HistoryError, match="2 complete records, header says T=4294967295"):
            HistoryStore.load(path)

    def test_load_header_skips_records(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records(t=2):
            store.append(*rec)
        header = HistoryStore.load_header(path)
        assert (header.d, header.n, header.total_rounds) == (5, 3, 3)
        assert header.config_hash == CHASH
        assert header.n_records == 0 and header.updates.shape == (0, 3, 5)

    def test_load_header_checks_magic(self, tmp_path):
        path = tmp_path / "h.bin"
        HistoryStore.create(path, 5, 3, 3, CHASH)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(HistoryError, match="magic"):
            HistoryStore.load_header(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["model", "update"])
    def test_non_finite_record_rejected(self, tmp_path, bad, where):
        # the checksum is valid: the record was written as it is
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        recs = self.make_records()
        target = recs[1][1] if where == "model" else recs[1][2][2]
        target[3] = bad
        for rec in recs:
            store.append(*rec)
        with pytest.raises(HistoryError, match="round 1 holds non-finite values"):
            HistoryStore.load(path)

    def test_updates_are_rows_of_one_float64_matrix(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        loaded = HistoryStore.load(path)
        assert loaded.updates.shape == (3, 3, 5) and loaded.models.shape == (3, 5)
        for arr in (loaded.models, loaded.updates):
            assert arr.dtype == np.float64 and arr.flags.aligned and arr.flags.c_contiguous

    def test_meta_mismatch(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        loaded = HistoryStore.load(path)
        with pytest.raises(HistoryError):
            loaded.check_meta(5, 3, 3, bytes(32))


# The history record as first written, kept as the reference the fixed
# layout is pinned against: the encoder and the record parser are copied
# verbatim from the struct-based store (a record there was a RoundRecord).
class _SeedRecord(NamedTuple):
    round_idx: int
    global_model: np.ndarray
    updates: dict  # client_id -> update vector


def _checksum(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def _seed_encode(record: _SeedRecord) -> bytes:
    parts = [struct.pack("<I", record.round_idx)]
    parts.append(np.ascontiguousarray(record.global_model, dtype="<f8").tobytes())
    parts.append(struct.pack("<I", len(record.updates)))
    for cid in sorted(record.updates):
        parts.append(struct.pack("<I", cid))
        parts.append(np.ascontiguousarray(record.updates[cid], dtype="<f8").tobytes())
    payload = b"".join(parts)
    return payload + struct.pack("<Q", _checksum(payload))


def _seed_read_records(f, d: int) -> list:
    """Every record after the header, parsed as the struct-based store did."""
    records = []
    vec_bytes = 8 * d
    client_dtype = np.dtype([("id", "<u4"), ("u", "<f8", (d,))])
    while True:
        first = f.read(4)
        if not first:
            break
        body_len = vec_bytes + 4
        body = f.read(body_len)
        if len(body) != body_len:
            raise HistoryError("truncated record")
        (count,) = struct.unpack("<I", body[-4:])
        rest_len = count * client_dtype.itemsize + 8
        rest = f.read(rest_len)
        if len(rest) != rest_len:
            raise HistoryError("truncated record")
        payload = first + body + rest[:-8]
        (stored_sum,) = struct.unpack("<Q", rest[-8:])
        if _checksum(payload) != stored_sum:
            raise HistoryError("record checksum mismatch")
        (round_idx,) = struct.unpack("<I", first)
        w = np.frombuffer(body[:vec_bytes], dtype="<f8").astype(np.float64)
        clients = np.frombuffer(rest, dtype=client_dtype, count=count)
        mat = clients["u"].astype(np.float64)
        if not (np.isfinite(w).all() and np.isfinite(mat).all()):
            raise HistoryError(f"record for round {round_idx} holds non-finite values")
        updates = dict(zip(clients["id"].tolist(), mat))
        expected = records[-1].round_idx + 1 if records else 0
        if round_idx != expected:
            raise HistoryError(f"record for round {round_idx} where {expected} expected")
        records.append(_SeedRecord(round_idx, w, updates))
    return records


_HEADER_BYTES = 4 + 4 + 8 + 4 + 4 + 32


@st.composite
def _histories(draw):
    """(T, n+1, d) float64 values: row 0 of each round is the model, rows
    1..n the clients' updates; any finite value, -0.0 and subnormals too."""
    shape = (draw(st.integers(0, 4)), draw(st.integers(1, 4)) + 1, draw(st.integers(1, 6)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(np.float64, shape, elements=finite))


class TestRecordLayout:
    @settings(max_examples=60, deadline=None)
    @given(_histories())
    def test_writer_matches_seed_encoder_and_load_round_trips(self, values):
        total, n, d = values.shape[0], values.shape[1] - 1, values.shape[2]
        seed = [
            _SeedRecord(t, values[t, 0], {c: values[t, 1 + c] for c in range(n)})
            for t in range(total)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.bin"
            store = HistoryStore.create(path, d, n, total, CHASH)
            for rec in seed:
                store.append(rec.round_idx, rec.global_model, rec.updates)
            blob = path.read_bytes()
            loaded = HistoryStore.load(path)
        header = struct.pack("<4sIQII", b"FRH1", 1, d, n, total) + CHASH
        assert blob == header + b"".join(_seed_encode(rec) for rec in seed)
        parsed = _seed_read_records(io.BytesIO(blob[_HEADER_BYTES:]), d)
        assert [r.round_idx for r in parsed] == list(range(total))
        for t, rec in enumerate(parsed):
            assert sorted(rec.updates) == list(range(n))
            assert np.array_equal(rec.global_model, values[t, 0])
            assert all(np.array_equal(rec.updates[c], values[t, 1 + c]) for c in range(n))
        assert loaded.n_records == total
        assert np.array_equal(loaded.models, values[:, 0])
        assert np.array_equal(loaded.updates, values[:, 1:])
        for t in range(total):
            for row in (loaded.models[t], *loaded.updates[t]):
                assert row.dtype == np.float64 and row.flags.aligned

    @pytest.mark.parametrize("fault", ["ids", "count"])
    def test_record_must_hold_clients_zero_to_n(self, tmp_path, fault):
        """A record with a valid checksum whose count is not n, or whose ids
        are not 0..n-1, is rejected."""
        d, n = 4, 3
        rng = RngStream(3)
        ids = (0, 1, 3) if fault == "ids" else (0, 1, 2)
        recs = [_SeedRecord(t, rng.normals(d), {c: rng.normals(d) for c in ids}) for t in range(2)]
        blobs = [bytearray(_seed_encode(rec)) for rec in recs]
        if fault == "count":
            struct.pack_into("<I", blobs[1], 4 + 8 * d, n - 1)
            struct.pack_into("<Q", blobs[1], len(blobs[1]) - 8, _checksum(bytes(blobs[1][:-8])))
        path = tmp_path / "h.bin"
        header = struct.pack("<4sIQII", b"FRH1", 1, d, n, 2) + CHASH
        path.write_bytes(header + b"".join(blobs))
        round_idx = 0 if fault == "ids" else 1
        with pytest.raises(HistoryError, match=f"round {round_idx} does not hold clients 0..2"):
            HistoryStore.load(path)


class TestSetupChecksShards:
    """`FlSetup` is the data boundary of the round loop: it checks every
    shard once, so the client path can trust what it reads."""

    def resetup(self, setup, inputs, labels):
        return FlSetup(
            spec=setup.spec,
            rule=setup.rule,
            eta=setup.eta,
            batch_size=setup.batch_size,
            l=setup.l,
            seed=setup.seed,
            client_ids=setup.client_ids,
            local_inputs={**setup.local_inputs, 1: inputs},
            local_labels={**setup.local_labels, 1: labels},
            sizes=setup.sizes,
        )

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("wide", "shape .*input_dim is 6"),
            ("nan", "non-finite inputs"),
            ("label_low", r"labels out of range \[0, 3\)"),
            ("label_high", r"labels out of range \[0, 3\)"),
            ("empty", "empty shard"),
        ],
        ids=["wide", "nan", "label_low", "label_high", "empty"],
    )
    def test_bad_shard_rejected(self, fault, message):
        setup, _ = small_setup()
        x, y = setup.local_inputs[1].copy(), setup.local_labels[1].copy()
        if fault == "wide":
            x = np.hstack([x, x[:, :1]])
        elif fault == "nan":
            x[2, 3] = np.nan
        elif fault == "empty":
            x, y = x[:0], y[:0]
        else:
            y[0] = -1 if fault == "label_low" else setup.spec.num_classes
        with pytest.raises(ValueError, match=f"client 1 .*{message}"):
            self.resetup(setup, x, y)

    def test_bad_poisoned_shard_rejected(self):
        # a target label the spec has no class for reaches only the
        # poisoned copy of a shard
        atk = AttackConfig(kind="backdoor", trigger=Trigger("every_kth", k=2), target_label=3)
        with pytest.raises(ValueError, match=r"client 2 \(poisoned\) has labels out of range"):
            small_setup(attack=atk, malicious=(2,))

    def test_shards_converted_once(self):
        setup, _ = small_setup()
        x = setup.local_inputs[1].astype(np.float32)
        y = setup.local_labels[1].astype(np.int32)
        again = self.resetup(setup, x, y)
        assert again.local_inputs[1].dtype == np.float64
        assert again.local_labels[1].dtype == np.int64
        np.testing.assert_array_equal(again.local_labels[1], y)


class TestRunRound:
    def test_loss_decreases_single_client(self):
        # 1 client, FedAvg: plain gradient descent on a convex loss
        setup, ds = small_setup(n_clients=3)
        one = [setup.client_ids[0]]
        cid = one[0]
        x, y = setup.local_inputs[cid], setup.local_labels[cid]
        w = np.zeros(setup.spec.param_dim)
        from fedsim.models import loss

        sub = FlSetup(
            spec=setup.spec,
            rule=AggregationRule("fedavg"),
            eta=0.3,
            batch_size=10_000,
            l=1,
            seed=setup.seed,
            client_ids=one,
            local_inputs={cid: x},
            local_labels={cid: y},
            sizes={cid: len(y)},
        )
        losses = [loss(sub.spec, w, x, y)]
        for t in range(10):
            w, _ = run_round(sub, w, t)
            losses.append(loss(sub.spec, w, x, y))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_attack_with_empty_malicious_is_noop(self):
        atk = AttackConfig(kind="trim", b=2.0)
        s1, _ = small_setup(attack=atk, malicious=())
        s2, _ = small_setup(attack=None)
        w1, r1 = run_round(s1, np.zeros(s1.spec.param_dim), 0)
        w2, r2 = run_round(s2, np.zeros(s2.spec.param_dim), 0)
        np.testing.assert_array_equal(w1, w2)
        for cid in r1:
            np.testing.assert_array_equal(r1[cid], r2[cid])

    def test_backdoor_record_is_scaled_benign_on_poisoned(self):
        trig = Trigger(kind="every_kth", k=3, value=1.0)
        atk = AttackConfig(kind="backdoor", trigger=trig, target_label=0, lam=10.0)
        setup, _ = small_setup(attack=atk, malicious=(1,))
        w = np.zeros(setup.spec.param_dim)
        _, reported = run_round(setup, w, 0)
        base = setup.backdoor_update(1, w, 0, 1.0)
        np.testing.assert_array_equal(reported[1], 10.0 * base)

    def test_every_round_has_all_clients(self):
        setup, _ = small_setup()
        w = np.zeros(setup.spec.param_dim)
        for t in range(3):
            w, reported = run_round(setup, w, t)
            assert sorted(reported) == sorted(setup.client_ids)


class TestTrain:
    def test_history_written_and_reloadable(self, tmp_path):
        setup, _ = small_setup()
        path = tmp_path / "h.bin"
        store, final = train(setup, 5, path, CHASH)
        loaded = HistoryStore.load(path)
        assert loaded.n_records == 5
        assert loaded.d == setup.spec.param_dim
        assert loaded.models.shape == (5, setup.spec.param_dim)

    def test_same_seed_byte_identical(self, tmp_path):
        setup1, _ = small_setup()
        setup2, _ = small_setup()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        train(setup1, 4, p1, CHASH)
        train(setup2, 4, p2, CHASH)
        assert p1.read_bytes() == p2.read_bytes()

    def test_convergence_smoke_gradient_norm(self, tmp_path):
        # all-benign FedAvg on strongly convex logreg drives the full
        # gradient below 1e-4 within the round budget
        setup, ds = small_setup(l2=0.1)
        full = FlSetup(
            spec=setup.spec,
            rule=AggregationRule("fedavg"),
            eta=0.5,
            batch_size=1_000_000,
            l=1,
            seed=setup.seed,
            client_ids=setup.client_ids,
            local_inputs=setup.local_inputs,
            local_labels=setup.local_labels,
            sizes=setup.sizes,
        )
        store, final = train(full, 400, tmp_path / "h.bin", CHASH)
        g = gradient(full.spec, final, ds.inputs, ds.labels)
        assert float(np.linalg.norm(g)) < 1e-4
