import numpy as np
import pytest

from fedsim.aggregation import AggregationRule
from fedsim.attacks import AttackConfig, Trigger
from fedsim.data import gen_synthetic, partition_noniid
from fedsim.flengine import (
    FlSetup,
    HistoryError,
    HistoryStore,
    RoundRecord,
    run_round,
    train,
)
from fedsim.models import Batch, ModelSpec, gradient
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
        rng = RngStream(1)
        recs = []
        for r in range(t):
            recs.append(
                RoundRecord(r, rng.normals(d), {i: rng.normals(d) for i in range(n)})
            )
        return recs

    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(rec)
        loaded = HistoryStore.load(path)
        assert loaded.d == 5 and loaded.n == 3 and loaded.total_rounds == 3
        assert loaded.config_hash == CHASH
        assert len(loaded.records) == 3
        for a, b in zip(store.records, loaded.records):
            np.testing.assert_array_equal(a.global_model, b.global_model)
            assert sorted(a.updates) == sorted(b.updates)
            for cid in a.updates:
                np.testing.assert_array_equal(a.updates[cid], b.updates[cid])

    def test_out_of_order_append(self, tmp_path):
        store = HistoryStore.create(tmp_path / "h.bin", 5, 3, 3, CHASH)
        recs = self.make_records()
        store.append(recs[0])
        with pytest.raises(HistoryError):
            store.append(recs[2])

    def test_byte_flip_detected(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(rec)
        blob = bytearray(path.read_bytes())
        blob[200] ^= 0xFF  # somewhere inside a record payload
        path.write_bytes(bytes(blob))
        with pytest.raises(HistoryError):
            HistoryStore.load(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(rec)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(HistoryError):
            HistoryStore.load(path)

    def test_fewer_records_than_header_rounds(self, tmp_path):
        # a killed train leaves k < T complete records
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records(t=2):
            store.append(rec)
        with pytest.raises(HistoryError, match="2 complete records"):
            HistoryStore.load(path)

    def test_load_header_skips_records(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records(t=2):
            store.append(rec)
        header = HistoryStore.load_header(path)
        assert (header.d, header.n, header.total_rounds) == (5, 3, 3)
        assert header.config_hash == CHASH
        assert header.records == []

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
        target = recs[1].global_model if where == "model" else recs[1].updates[2]
        target[3] = bad
        for rec in recs:
            store.append(rec)
        with pytest.raises(HistoryError, match="round 1 holds non-finite values"):
            HistoryStore.load(path)

    def test_updates_are_rows_of_one_float64_matrix(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(rec)
        for rec in HistoryStore.load(path).records:
            rows = [rec.updates[c] for c in sorted(rec.updates)]
            assert all(r.dtype == np.float64 and r.flags.aligned for r in rows)
            assert all(r.base is rows[0].base and r.base.shape == (3, 5) for r in rows)

    def test_meta_mismatch(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(rec)
        loaded = HistoryStore.load(path)
        with pytest.raises(HistoryError):
            loaded.check_meta(5, 3, 3, bytes(32))


class TestRunRound:
    def test_loss_decreases_single_client(self):
        # 1 client, FedAvg: plain gradient descent on a convex loss
        setup, ds = small_setup(n_clients=3)
        one = [setup.client_ids[0]]
        cid = one[0]
        x, y = setup.local_inputs[cid], setup.local_labels[cid]
        w = np.zeros(setup.spec.param_dim)
        batch = Batch(x, y)
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
        losses = [loss(sub.spec, w, batch)]
        for t in range(10):
            w, _ = run_round(sub, w, t)
            losses.append(loss(sub.spec, w, batch))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_attack_with_empty_malicious_is_noop(self):
        atk = AttackConfig(kind="trim", b=2.0)
        s1, _ = small_setup(attack=atk, malicious=())
        s2, _ = small_setup(attack=None)
        w1, r1 = run_round(s1, np.zeros(s1.spec.param_dim), 0)
        w2, r2 = run_round(s2, np.zeros(s2.spec.param_dim), 0)
        np.testing.assert_array_equal(w1, w2)
        for cid in r1.updates:
            np.testing.assert_array_equal(r1.updates[cid], r2.updates[cid])

    def test_backdoor_record_is_scaled_benign_on_poisoned(self):
        trig = Trigger(kind="every_kth", k=3, value=1.0)
        atk = AttackConfig(kind="backdoor", trigger=trig, target_label=0, lam=10.0)
        setup, _ = small_setup(attack=atk, malicious=(1,))
        w = np.zeros(setup.spec.param_dim)
        _, record = run_round(setup, w, 0)
        base = setup.backdoor_update(1, w, 0, 1.0)
        np.testing.assert_array_equal(record.updates[1], 10.0 * base)

    def test_every_round_has_all_clients(self):
        setup, _ = small_setup()
        w = np.zeros(setup.spec.param_dim)
        for t in range(3):
            w, record = run_round(setup, w, t)
            assert sorted(record.updates) == sorted(setup.client_ids)


class TestTrain:
    def test_history_written_and_reloadable(self, tmp_path):
        setup, _ = small_setup()
        path = tmp_path / "h.bin"
        store, final = train(setup, 5, path, CHASH)
        loaded = HistoryStore.load(path)
        assert len(loaded.records) == 5
        assert loaded.d == setup.spec.param_dim
        for rec in loaded.records:
            assert rec.global_model.size == setup.spec.param_dim

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
        batch = Batch(ds.inputs, ds.labels)
        g = gradient(full.spec, final, batch)
        assert float(np.linalg.norm(g)) < 1e-4
