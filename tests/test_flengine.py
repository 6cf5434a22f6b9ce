import hashlib
import io
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import build_setup, loss, run_under_address_limit, train_and_load
from fedsim.aggregation import AggregationRule
from fedsim.attacks import AttackConfig, Trigger, backdoor_update
from fedsim.data import gen_synthetic, partition_noniid
from fedsim.flengine import (
    FlSetup,
    HistoryError,
    HistoryStore,
    TopTable,
    train,
)
from fedsim.models import ModelSpec, gradient
from fedsim.numcore import RngStream
from fedsim.recovery import (
    RecoveryParams,
    fedrecover,
    historical_only,
    top_count,
    train_from_scratch,
)

CHASH = bytes(range(32))


def train_round(setup, w, t):
    """One round of the original training, as `train` runs it: the next
    global model and the updates as reported, keyed by client id."""
    reported = setup.reported_updates(w, t, setup.client_ids, setup.malicious)
    return setup.aggregate_step(w, reported), reported


def small_setup(attack=None, malicious=(), *, rule=None, n_clients=4, l2=0.05, seed=11):
    ds = gen_synthetic(3, 6, 40, 3.0, seed=4)
    parts = partition_noniid(ds, n_clients, 1.0 / 3, seed=5)
    spec = ModelSpec("logreg", 6, 3, l2=l2)
    return FlSetup(
        spec=spec,
        rule=rule or AggregationRule("fedavg"),
        eta=0.3,
        batch_size=16,
        l=1,
        seed=seed,
        shards=[(ds.inputs[idx], ds.labels[idx]) for idx in parts],
        attack=attack,
        malicious=frozenset(malicious),
    ), ds


def backdoor_logreg_shapes():
    """A setup with the shapes of the benchmark's backdoor-logreg workload:
    d = 610, n = 20, 4 of them backdoor attackers."""
    dataset = gen_synthetic(10, 60, 30, 5.0, seed=3)
    trigger = Trigger(kind="every_kth", k=2, value=1.0)
    return build_setup(
        spec=ModelSpec("logreg", 60, 10, l2=0.01),
        dataset=dataset,
        n_clients=20,
        rule=AggregationRule("trimmed_mean", 4),
        eta=0.08,
        batch_size=56,
        seed=3,
        q=0.1,
        attack=AttackConfig(kind="backdoor", trigger=trigger, lam=10.0, adaptive=True),
        malicious=(1, 6, 11, 16),
    )


class TestHistoryStore:
    def make_records(self, d=5, n=3, t=3):
        """(round, model, updates by client id) per round."""
        rng = RngStream(1)
        return [(r, rng.normals(d), {i: rng.normals(d) for i in range(n)}) for r in range(t)]

    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        recs = self.make_records()
        for rec in recs:
            store.append(*rec)
        assert not hasattr(store, "updates")  # written, not kept
        loaded = HistoryStore.load(path)
        assert loaded.d == 5 and loaded.n == 3 and loaded.total_rounds == 3
        assert loaded.config_hash == CHASH
        models, updates = zip(*loaded.rounds())
        np.testing.assert_array_equal(models, [model for _, model, _ in recs])
        np.testing.assert_array_equal(updates, [[u[c] for c in range(3)] for _, _, u in recs])

    def test_out_of_order_append(self, tmp_path):
        # `append` writes what it is given; the reader refuses the order
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        recs = self.make_records()
        for i in (0, 2, 1):
            store.append(*recs[i])
        with pytest.raises(HistoryError, match="record for round 2 where 1 expected"):
            list(HistoryStore.load(path).rounds())

    def test_append_beyond_t_rejected(self, tmp_path):
        # `append` writes what it is given; loading refuses the extra record
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 2, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        with pytest.raises(HistoryError, match="3 complete records, header says T=2"):
            HistoryStore.load(path)

    def test_byte_flip_detected(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        blob = bytearray(path.read_bytes())
        blob[200] ^= 0xFF  # somewhere inside a record payload
        path.write_bytes(bytes(blob))
        with pytest.raises(HistoryError, match="record checksum mismatch"):
            list(HistoryStore.load(path).rounds())

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(HistoryError, match="truncated record"):
            HistoryStore.load(path)

    def test_rounds_checks_its_own_reads(self, tmp_path):
        # a file cut after load has checked its size
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        loaded = HistoryStore.load(path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(HistoryError, match="truncated record"):
            list(loaded.rounds())

    def test_fewer_records_than_header_rounds(self, tmp_path):
        # a killed train leaves k < T complete records
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records(t=2):
            store.append(*rec)
        with pytest.raises(HistoryError, match="2 complete records"):
            HistoryStore.load(path)

    def test_header_t_beyond_the_file_allocates_no_rows(self, tmp_path):
        # a corrupt T is refused from the file size, before any record is
        # read or anything is sized by it
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records(t=2):
            store.append(*rec)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 20, 2**32 - 1)  # T, after magic, version, d and n
        path.write_bytes(bytes(blob))
        with pytest.raises(HistoryError, match="2 complete records, header says T=4294967295"):
            HistoryStore.load(path)

    def written(self, tmp_path, tops=False):
        """A whole 3-round history (d=5, n=3) at h.bin, and with `tops` its
        table (m=2) at h.tops; the two paths."""
        path, table = tmp_path / "h.bin", tmp_path / "h.tops"
        store = HistoryStore.create(path, 5, 3, 3, CHASH, tops=(table, 2) if tops else None)
        for rec in self.make_records():
            store.append(*rec)
        return path, table

    @staticmethod
    def patch(path, fmt, offset, *values):
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, *values)
        path.write_bytes(bytes(blob))

    @pytest.mark.parametrize("file", ["history", "table"])
    def test_header_sizes_past_the_file_name_it(self, tmp_path, file):
        # d = 2**40 (and the table's m = 2**32 - 1) would shape a record no
        # numpy dtype can hold; the file's size refuses the header first
        path, table = self.written(tmp_path, tops=True)
        if file == "history":
            self.patch(path, "<Q", 8, 2**40)
        else:
            self.patch(table, "<Q", 8, 2**40)
            self.patch(table, "<I", 24, 2**32 - 1)  # m, after T
        with pytest.raises(HistoryError, match="truncated record") as err:
            HistoryStore.load(path, table)
        assert str(err.value).startswith(f"{path if file == 'history' else table}: ")

    def test_header_n_past_the_file_allocates_nothing(self, tmp_path):
        path, _ = self.written(tmp_path)
        self.patch(path, "<I", 16, 2**24)  # n, after magic, version and d
        tracemalloc.start()
        try:
            with pytest.raises(HistoryError, match="truncated record"):
                HistoryStore.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_header_n_of_2_31_is_refused_under_an_address_limit(self, tmp_path):
        # 2**31 client ids alone would take 16 GiB
        path, _ = self.written(tmp_path)
        self.patch(path, "<I", 16, 2**31)
        code = (
            "import sys\n"
            "from fedsim.flengine import HistoryError, HistoryStore\n"
            "try:\n"
            "    HistoryStore.load(sys.argv[1])\n"
            "except HistoryError as exc:\n"
            "    print(exc)\n"
        )
        assert run_under_address_limit(code, path) == f"{path}: truncated record\n"

    def test_header_without_records_shapes_nothing(self, tmp_path):
        # no record backs the sizes of a T = 0 header, so nothing is sized by them
        path = tmp_path / "h.bin"
        HistoryStore.create(path, 5, 3, 0, CHASH)
        self.patch(path, "<Q", 8, 2**40)
        loaded = HistoryStore.load(path)
        assert list(loaded.rounds()) == []
        with pytest.raises(HistoryError, match=r"h\.bin: history meta \(d=1099511627776, n=3, T=0\)"):
            HistoryStore.load(path, meta=(5, 3, 1, CHASH))

    def test_load_header_checks_magic(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(HistoryError, match="magic"):
            HistoryStore.load(path)

    def test_rounds_from_first_are_the_tail(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 4, CHASH)
        for rec in self.make_records(t=4):
            store.append(*rec)
        loaded = HistoryStore.load(path)
        every = list(loaded.rounds())
        for k in range(5):
            tail = list(loaded.rounds(first=k))
            assert len(tail) == 4 - k
            for (model, updates), (model_k, updates_k) in zip(tail, every[k:]):
                assert np.array_equal(model, model_k) and np.array_equal(updates, updates_k)
        # a flipped byte in record 1 stops every read that starts at or before it
        blob = bytearray(path.read_bytes())
        header = 4 + 4 + 8 + 4 + 4 + 32
        blob[header + (len(blob) - header) // 4 + 10] ^= 0xFF
        path.write_bytes(bytes(blob))
        for k in (0, 1):
            with pytest.raises(HistoryError, match="record checksum mismatch"):
                list(loaded.rounds(first=k))
        assert len(list(loaded.rounds(first=2))) == 2

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
            list(HistoryStore.load(path).rounds())

    def test_updates_are_rows_of_one_float64_matrix(self, tmp_path):
        path = tmp_path / "h.bin"
        store = HistoryStore.create(path, 5, 3, 3, CHASH)
        for rec in self.make_records():
            store.append(*rec)
        rounds = list(HistoryStore.load(path).rounds())
        assert len(rounds) == 3
        for model, updates in rounds:
            assert updates.shape == (3, 5) and model.shape == (5,)
            for arr in (model, updates):
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
            rounds = list(loaded.rounds())
        header = struct.pack("<4sIQII", b"FRH1", 1, d, n, total) + CHASH
        assert blob == header + b"".join(_seed_encode(rec) for rec in seed)
        parsed = _seed_read_records(io.BytesIO(blob[_HEADER_BYTES:]), d)
        assert [r.round_idx for r in parsed] == list(range(total))
        for t, rec in enumerate(parsed):
            assert sorted(rec.updates) == list(range(n))
            assert np.array_equal(rec.global_model, values[t, 0])
            assert all(np.array_equal(rec.updates[c], values[t, 1 + c]) for c in range(n))
        assert len(rounds) == total
        for t, (model, updates) in enumerate(rounds):
            assert np.array_equal(model, values[t, 0])
            assert np.array_equal(updates, values[t, 1:])
            for row in (model, *updates):
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
            list(HistoryStore.load(path).rounds())


def _seed_tops_encode(round_idx: int, updates: np.ndarray, m: int) -> bytes:
    """A top-value table record from first principles: the round index, each
    client's m largest values by a full descending sort, and the checksum."""
    top = -np.sort(-updates, axis=1)[:, :m]
    payload = struct.pack("<I", round_idx) + np.ascontiguousarray(top, dtype="<f8").tobytes()
    return payload + struct.pack("<Q", _checksum(payload))


def _write_with_tops(tmp, values, m):
    """`values` as `_histories` draws them, written to h.bin with a table
    of m values per client at h.tops; the two paths."""
    total, n, d = values.shape[0], values.shape[1] - 1, values.shape[2]
    path, tops = Path(tmp) / "h.bin", Path(tmp) / "h.tops"
    store = HistoryStore.create(path, d, n, total, CHASH, tops=(tops, m))
    for t in range(total):
        store.append(t, values[t, 0], {c: values[t, 1 + c] for c in range(n)})
    return path, tops


class TestTopTable:
    @settings(max_examples=60, deadline=None)
    @given(values=_histories(), data=st.data())
    def test_writer_matches_a_full_sort_and_load_round_trips(self, values, data):
        total, n, d = values.shape[0], values.shape[1] - 1, values.shape[2]
        m = data.draw(st.integers(1, d))
        with tempfile.TemporaryDirectory() as tmp:
            path, tops = _write_with_tops(tmp, values, m)
            blob, history_blob = tops.read_bytes(), path.read_bytes()
            loaded = HistoryStore.load(path, tops)
            rounds = list(loaded.tops.rounds())
        # the history is the same file with or without its table
        header = struct.pack("<4sIQII", b"FRH1", 1, d, n, total) + CHASH
        assert history_blob == header + b"".join(
            _seed_encode(_SeedRecord(t, values[t, 0], dict(enumerate(values[t, 1:]))))
            for t in range(total)
        )
        header = struct.pack("<4sIQIII", b"FRT1", 1, d, n, total, m) + CHASH
        want = header + b"".join(_seed_tops_encode(t, values[t, 1:], m) for t in range(total))
        assert len(blob) == len(want)
        if not (values[:, 1:] == 0).any():  # tied zeros of either sign may come in either order
            assert blob == want
        table = loaded.tops
        assert (table.d, table.n, table.total_rounds, table.m) == (d, n, total, m)
        assert len(rounds) == total
        for t, top in enumerate(rounds):
            assert top.dtype == np.float64 and top.shape == (n, m)
            np.testing.assert_array_equal(top, -np.sort(-values[t, 1:], axis=1)[:, :m])

    def test_train_writes_the_same_table_twice(self, tmp_path):
        tables = []
        for name in ("a", "b"):
            setup, _ = small_setup()
            path = tmp_path / f"{name}.bin"
            train_and_load(setup, 6, path, 0.01)  # m = floor(0.01 * 4 * 21) + 1 = 1
            tables.append(Path(f"{path}.tops").read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0]) == 28 + 32 + 6 * (4 + 4 * 1 * 8 + 8)

    def test_faults_name_the_table_file(self, tmp_path):
        values = RngStream(4).normals(3 * 5 * 5).reshape(3, 5, 5)
        path, tops = _write_with_tops(tmp_path, values, 2)
        good = tops.read_bytes()
        record = (len(good) - 60) // 3
        flipped = bytearray(good)
        flipped[-20] ^= 0xFF
        zero_m = bytearray(good)
        struct.pack_into("<I", zero_m, 24, 0)
        faults = [
            (bytes(flipped), "record checksum mismatch"),
            (good[:-3], "truncated record"),
            (good[: 60 + record], "table holds 1 complete records, header says T=3"),
            (b"FRH1" + good[4:], "bad magic"),
            (good[:30], "truncated header"),
            (bytes(zero_m), "m=0 outside 1..d=5"),
            (None, "no such file"),
        ]
        for blob, message in faults:
            if blob is None:
                tops.unlink()
            else:
                tops.write_bytes(blob)
            with pytest.raises(HistoryError, match=f"^{tops}: {message}"):
                list(HistoryStore.load(path, tops).tops.rounds())

    @pytest.mark.parametrize("field", ["d", "n", "T", "config hash"])
    def test_table_of_another_history_is_refused(self, tmp_path, field):
        values = RngStream(5).normals(3 * 5 * 5).reshape(3, 5, 5)
        path, tops = _write_with_tops(tmp_path, values, 1)
        blob = bytearray(tops.read_bytes())
        if field == "config hash":
            blob[28] ^= 1
        else:  # one less, with records to match, so that only the meta differs
            offset, fmt = {"d": (8, "<Q"), "n": (16, "<I"), "T": (20, "<I")}[field]
            struct.pack_into(fmt, blob, offset, struct.unpack_from(fmt, blob, offset)[0] - 1)
            _, n, total, m = struct.unpack_from("<QIII", blob, 8)
            blob = blob[:60] + bytes(total * (4 + n * m * 8 + 8))
        tops.write_bytes(bytes(blob))
        if field == "config hash":
            message = "table config hash does not match the history's"
        else:
            table = {"d": "d=4, n=4, T=3", "n": "d=5, n=3, T=3", "T": "d=5, n=4, T=2"}[field]
            message = rf"table meta \({table}\) does not match the history's \(d=5, n=4, T=3\)"
        with pytest.raises(HistoryError, match=f"^{tops}: {message}$"):
            HistoryStore.load(path, tops)

    @pytest.mark.parametrize(
        "fault, message",
        [("order", "record for round 1 where 0 expected"),
         ("nan", "record for round 1 holds non-finite values")],
    )
    def test_record_out_of_order_or_non_finite_is_refused(self, tmp_path, fault, message):
        d, n, m = 3, 2, 1
        rows = RngStream(6).normals(2 * n * d).reshape(2, n, d)
        if fault == "nan":
            rows[1, 0] = np.nan
        order = (1, 0) if fault == "order" else (0, 1)
        tops = tmp_path / "h.tops"
        header = struct.pack("<4sIQIII", b"FRT1", 1, d, n, 2, m) + CHASH
        tops.write_bytes(header + b"".join(_seed_tops_encode(t, rows[t], m) for t in order))
        with pytest.raises(HistoryError, match=f"^{tops}: {message}"):
            list(TopTable.load(tops).rounds())


# Each fault of the layout both record files share, as (name, the faulty
# bytes from a file's bytes b, its header size h before the config hash and
# its record size r, the message after the file's path); the files hold T = 3.
_LAYOUT_FAULTS = [
    ("truncated header", lambda b, h, r: b[: h - 1], "truncated header"),
    ("bad magic", lambda b, h, r: b"XXXX" + b[4:], "bad magic b'XXXX'"),
    ("version 2", lambda b, h, r: b[:4] + struct.pack("<I", 2) + b[8:], "unsupported version 2"),
    ("short config hash", lambda b, h, r: b[: h + 31], r"truncated header \(config hash\)"),
    ("partial record", lambda b, h, r: b[:-3], "truncated record"),
    ("record count", lambda b, h, r: b[:-r], "{kind} holds 2 complete records, header says T=3"),
]


@pytest.mark.parametrize("kind, header", [("history", 24), ("table", 28)])
@pytest.mark.parametrize("fault, cut, message", _LAYOUT_FAULTS, ids=[f[0] for f in _LAYOUT_FAULTS])
def test_layout_faults_name_their_file(tmp_path, kind, header, fault, cut, message):
    values = RngStream(7).normals(3 * 4 * 5).reshape(3, 4, 5)
    path, tops = _write_with_tops(tmp_path, values, 2)
    target = path if kind == "history" else tops
    blob = target.read_bytes()
    target.write_bytes(cut(blob, header, (len(blob) - header - 32) // 3))
    message = message.format(kind=kind)
    with pytest.raises(HistoryError, match=f"^{re.escape(str(target))}: {message}$"):
        HistoryStore.load(path, tops)


class TestAggregateStep:
    def test_fedavg_weighs_each_client_by_its_shard_length(self):
        ds = gen_synthetic(3, 6, 10, 3.0, seed=4)
        ends = np.cumsum([1, 4, 9])
        setup = FlSetup(
            spec=ModelSpec("logreg", 6, 3),
            rule=AggregationRule("fedavg"),
            eta=0.3,
            batch_size=4,
            l=1,
            seed=0,
            shards=[(ds.inputs[a:b], ds.labels[a:b]) for a, b in zip([0, *ends], ends)],
        )
        d = setup.spec.param_dim
        w = RngStream(1).normals(d)
        u = [RngStream(10 + c).normals(d) for c in range(3)]
        # a subset of the clients, in any order, weighs only its own shards
        for reported, want in (
            ({0: u[0], 1: u[1], 2: u[2]}, (1 * u[0] + 4 * u[1] + 9 * u[2]) / 14),
            ({2: u[2], 0: u[0]}, (1 * u[0] + 9 * u[2]) / 10),
        ):
            got = setup.aggregate_step(w, reported)
            np.testing.assert_allclose(got, w - 0.3 * want, rtol=1e-12)


class TestRunRound:
    def test_loss_decreases_single_client(self):
        # 1 client, FedAvg: plain gradient descent on a convex loss
        setup, ds = small_setup(n_clients=3)
        x, y, _ = setup.clients[0]
        w = np.zeros(setup.spec.param_dim)
        sub = FlSetup(
            spec=setup.spec,
            rule=AggregationRule("fedavg"),
            eta=0.3,
            batch_size=10_000,
            l=1,
            seed=setup.seed,
            shards=[(x, y)],
        )
        losses = [loss(sub.spec, w, x, y)]
        for t in range(10):
            w, _ = train_round(sub, w, t)
            losses.append(loss(sub.spec, w, x, y))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_attack_with_empty_malicious_is_noop(self):
        atk = AttackConfig(kind="trim", b=2.0)
        s1, _ = small_setup(attack=atk, malicious=())
        s2, _ = small_setup(attack=None)
        w1, r1 = train_round(s1, np.zeros(s1.spec.param_dim), 0)
        w2, r2 = train_round(s2, np.zeros(s2.spec.param_dim), 0)
        np.testing.assert_array_equal(w1, w2)
        for cid in r1:
            np.testing.assert_array_equal(r1[cid], r2[cid])

    def test_backdoor_record_is_scaled_benign_on_poisoned(self):
        trig = Trigger(kind="every_kth", k=3, value=1.0)
        atk = AttackConfig(kind="backdoor", trigger=trig, target_label=0, lam=10.0)
        setup, _ = small_setup(attack=atk, malicious=(1,))
        w = np.zeros(setup.spec.param_dim)
        _, reported = train_round(setup, w, 0)
        base = backdoor_update(setup.spec, w, *setup.poisoned[1], 0, setup.l, setup.eta, 1.0)
        np.testing.assert_array_equal(reported[1], 10.0 * base)

    def test_every_round_has_all_clients(self):
        setup, _ = small_setup()
        w = np.zeros(setup.spec.param_dim)
        for t in range(3):
            w, reported = train_round(setup, w, t)
            assert sorted(reported) == sorted(setup.client_ids)


REPORT_ATTACKS = {
    "none": None,
    "trim": AttackConfig(kind="trim", b=2.0),
    "backdoor": AttackConfig(
        kind="backdoor", trigger=Trigger("every_kth", k=2), target_label=0, lam=10.0
    ),
}
REPORT_CLIENTS = 6
# every client may be asked to attack, so each backdoor setup poisons every shard
REPORT_SETUPS = {
    kind: small_setup(attack=atk, malicious=range(REPORT_CLIENTS), n_clients=REPORT_CLIENTS)[0]
    for kind, atk in REPORT_ATTACKS.items()
}


@st.composite
def report_cases(draw):
    """An attack kind, participants, attackers among them, an asked subset
    of the participants in any order, a round, and lam (None = the attack's
    own, or an adaptive rescale of it)."""
    kind = draw(st.sampled_from(sorted(REPORT_SETUPS)))
    participants = draw(
        st.lists(st.integers(0, REPORT_CLIENTS - 1), min_size=1, unique=True)
    )
    attackers = draw(st.lists(st.sampled_from(participants), unique=True))
    asked = draw(st.lists(st.sampled_from(participants), unique=True))
    lam = draw(st.one_of(st.none(), st.floats(0.5, 40.0)))
    return kind, participants, attackers, asked, draw(st.integers(0, 6)), lam


class TestReportedUpdates:
    @settings(max_examples=80, deadline=None)
    @given(case=report_cases(), seed=st.integers(0, 2**16))
    def test_asked_is_the_full_call_restricted(self, case, seed):
        """Asking a subset S returns, in S's order, exactly the rows the
        full call reports for S, and runs |S| local updates, or one per
        participant when S holds a trim attacker."""
        from unittest import mock

        from fedsim import attacks, clients, flengine

        kind, participants, attackers, asked, t, lam = case
        setup = REPORT_SETUPS[kind]
        w = RngStream(seed).normals(setup.spec.param_dim)
        full = setup.reported_updates(w, t, participants, attackers, lam)
        assert sorted(full) == sorted(participants)
        calls = []

        def counted(*args):
            calls.append(args)
            return clients.client_local_update(*args)

        with mock.patch.object(flengine, "client_local_update", counted), \
                mock.patch.object(attacks, "client_local_update", counted):
            part = setup.reported_updates(w, t, participants, attackers, lam, asked=asked)
        assert list(part) == asked
        for c in asked:
            assert np.array_equal(part[c], full[c])
        trim_cohort = kind == "trim" and bool(set(attackers) & set(asked))
        assert len(calls) == (len(participants) if trim_cohort else len(asked))
        if kind == "none":  # with no attack, malicious clients report honestly
            honest = setup.reported_updates(w, t, participants, ())
            for c in participants:
                assert np.array_equal(full[c], honest[c])


class TestTrain:
    def test_history_written_and_reloadable(self, tmp_path):
        setup, _ = small_setup()
        path = tmp_path / "h.bin"
        train(setup, 5, path, CHASH, ())
        loaded = HistoryStore.load(path)
        assert loaded.total_rounds == 5
        assert loaded.d == setup.spec.param_dim
        models = [model for model, _ in loaded.rounds()]
        assert np.shape(models) == (5, setup.spec.param_dim)

    def test_same_seed_byte_identical(self, tmp_path):
        setup1, _ = small_setup()
        setup2, _ = small_setup()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        train(setup1, 4, p1, CHASH, ())
        train(setup2, 4, p2, CHASH, ())
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
            shards=[(x, y) for x, y, _ in setup.clients],
        )
        final = train(full, 400, tmp_path / "h.bin", CHASH, (400,))[400]
        g = gradient(full.spec, final, ds.inputs, ds.labels)
        assert float(np.linalg.norm(g)) < 1e-4

    def test_keeps_only_the_model_trace(self, tmp_path):
        # the history goes to disk, and what train holds, keeping every
        # round, is the (T + 1, d) trace, far below the file's (T, n + 1, d)
        setup = backdoor_logreg_shapes()
        path = tmp_path / "h.bin"
        tracemalloc.start()
        try:
            trace = train(setup, 60, path, CHASH, range(61))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4
        models = [model for model, _ in HistoryStore.load(path).rounds()]
        assert list(trace) == list(range(61))
        np.testing.assert_array_equal([trace[t] for t in range(60)], models)
        final_round, _ = train_round(setup, models[-1], 59)
        np.testing.assert_array_equal(trace[60], final_round)

    @pytest.mark.parametrize("attack", sorted(REPORT_ATTACKS))
    @pytest.mark.parametrize("rule", ["fedavg", "median", "trimmed_mean"])
    def test_last_record_gives_the_final_model(self, tmp_path, rule, attack):
        # the final model is the last stored round put through its aggregation
        setup, _ = small_setup(
            REPORT_ATTACKS[attack], malicious=(1, 4), n_clients=6,
            rule=AggregationRule(rule, 1 if rule == "trimmed_mean" else 0),
        )
        path = tmp_path / "h.bin"
        trace = train(setup, 5, path, CHASH, (5,))
        model, updates = next(HistoryStore.load(path).rounds(first=4))
        assert np.array_equal(setup.aggregate_step(model, dict(enumerate(updates))), trace[5])

    @pytest.mark.parametrize("method", ["fedrecover", "historical"])
    def test_recovery_keeps_no_copy_of_the_history(self, tmp_path, method):
        # load reads the header only and recovery reads one record at a
        # time: what it holds is the (T + 1, d) trace and, for fedrecover,
        # the L-BFGS windows of s rounds, far below the file's (T, n + 1, d)
        setup = backdoor_logreg_shapes()
        path = tmp_path / "h.bin"
        params = RecoveryParams(warmup_rounds=10, correction_period=10, final_tuning_rounds=5)
        train_and_load(setup, 60, path, params.tolerance_rate)
        remaining = sorted(set(setup.client_ids) - setup.malicious)
        tracemalloc.start()
        try:
            history = HistoryStore.load(path, f"{path}.tops")
            if method == "fedrecover":
                trace = fedrecover(history, remaining, setup, params, range(61)).models
            else:
                trace = historical_only(history, remaining, setup, range(61))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == 61
        assert peak < path.stat().st_size / 4

    def test_replay_peaks_do_not_grow_with_the_rounds(self, tmp_path):
        # every replay keeps only the rounds in `keep` and drops the other
        # models as the rounds go: at 4T rounds its tracemalloc peak exceeds
        # its peak at T rounds by less than 5 models (holding every round
        # would add 3T = 60). T = 20 leaves fedrecover estimated rounds, and
        # so its cached L-BFGS systems, at both lengths
        setup = backdoor_logreg_shapes()
        params = RecoveryParams(warmup_rounds=10, correction_period=10, final_tuning_rounds=5)
        remaining = sorted(set(setup.client_ids) - setup.malicious)
        m = top_count(params.tolerance_rate, len(setup.client_ids), setup.spec.param_dim)
        keep = (0, 10, 20)

        def peak(replay, *args):
            tracemalloc.start()
            try:
                replay(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = {}
        for total in (20, 80):
            path, tops = tmp_path / f"{total}.bin", tmp_path / f"{total}.tops"
            train_peak = peak(train, setup, total, path, CHASH, keep, (tops, m))
            history = HistoryStore.load(path, tops)
            peaks[total] = {
                "train": train_peak,
                "fedrecover": peak(fedrecover, history, remaining, setup, params, keep),
                "scratch": peak(train_from_scratch, setup, remaining, total, keep),
                "historical": peak(historical_only, history, remaining, setup, keep),
            }
        growth = {name: peaks[80][name] - peaks[20][name] for name in peaks[20]}
        assert all(grown < 5 * 8 * setup.spec.param_dim for grown in growth.values()), growth
