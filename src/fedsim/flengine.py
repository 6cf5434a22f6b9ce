"""Round loop of the original federated training and the append-only
on-disk history of global models and reported client updates.

Every round stores the broadcast global model and each client's update
exactly as reported (malicious updates included), which is what a real
server would have on disk when a detector later flags clients.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import attacks, models
from .aggregation import AggregationRule, aggregate, apply_update
from .clients import BatchSampler, client_local_update
from .numcore import STREAM_ATTACK, STREAM_INIT, RngStream, blake2b, derive_seed

VERSION = 1


class HistoryError(ValueError):
    """Structural problem in a history file (corruption, bad order, meta)."""


def _checksum(payload) -> int:
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "little")


@contextmanager
def _naming(path):
    """Prefix every HistoryError raised in the block with `path`, and
    report a missing file as one."""
    try:
        yield
    except FileNotFoundError:
        raise HistoryError(f"{path}: no such file; `sim train` writes it") from None
    except HistoryError as exc:
        raise HistoryError(f"{path}: {exc}") from None


@contextmanager
def open_named(path, mode, **kwargs):
    """`open(path, mode, **kwargs)`; a write fault that names no file (EFBIG, ENOSPC) names `path`."""
    try:
        with open(path, mode, **kwargs) as f:
            yield f
    except OSError as exc:
        if exc.errno is None or exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc


class _RecordFile:
    """The layout the history and its top-value table share: a header
    (`MAGIC`, `VERSION`, the constructor's sizes, a 32-byte config hash),
    then one fixed-size record per round, packed, little-endian and in
    round order: its round index, the subclass's `_fields`, and a 64-bit
    checksum of the bytes before it. Faults of `load` and `_records` name the file.
    A subclass's `_fields` and `_field_bytes` state its record's fields
    and their size: `load` checks the header's sizes against the file in
    Python ints, so nothing is shaped by sizes the file cannot back."""

    MAGIC: bytes
    HEADER: struct.Struct  # magic, version, then the constructor's sizes
    KIND: str  # what the file's own faults call it
    WHOSE: str | None  # whose meta `check_meta` is given; None for the supplied config's

    def __init__(self, path, d: int, n: int, total_rounds: int, config_hash: bytes):
        """`config_hash` is 32 bytes: `config.config_hash`'s digest, or the header's."""
        self.path = os.fspath(path)
        self.d, self.n, self.total_rounds = d, n, total_rounds
        self.config_hash = bytes(config_hash)

    def _dtype(self) -> np.dtype:
        return np.dtype([("round", "<u4"), *self._fields(), ("checksum", "<u8")])

    def _buffer(self) -> tuple[np.ndarray, np.ndarray]:
        """A one-record byte buffer and the record viewed over it."""
        dtype = self._dtype()
        buf = np.zeros(dtype.itemsize, dtype=np.uint8)
        return buf, buf.view(dtype).reshape(())

    @classmethod
    def create(cls, path, *header):
        """A new file holding only the header, the constructor's arguments."""
        file = cls(path, *header)
        file._buf, file._rec = file._buffer()
        with open_named(file.path, "wb") as f:
            f.write(cls.HEADER.pack(cls.MAGIC, VERSION, *header[:-1]) + file.config_hash)
        return file

    def _write(self, round_idx: int) -> None:
        """Append round `round_idx`'s record, as `append` filled it, checksummed."""
        self._rec["round"] = round_idx
        self._rec["checksum"] = _checksum(self._buf[:-8])
        with open_named(self.path, "ab") as f:
            f.write(self._buf)

    @classmethod
    def load(cls, path):
        """The header, and a check of the file size: exactly T complete
        records follow it. `_records` checks each record as it reads it."""
        with _naming(os.fspath(path)), open(path, "rb") as f:
            head = f.read(cls.HEADER.size)
            if len(head) < cls.HEADER.size:
                raise HistoryError("truncated header")
            magic, version, *sizes = cls.HEADER.unpack(head)
            if magic != cls.MAGIC:
                raise HistoryError(f"bad magic {magic!r}")
            if version != VERSION:
                raise HistoryError(f"unsupported version {version}")
            config_hash = f.read(32)
            if len(config_hash) != 32:
                raise HistoryError("truncated header (config hash)")
            file = cls(path, *sizes, config_hash)
            count, partial = divmod(os.fstat(f.fileno()).st_size - f.tell(), 4 + file._field_bytes() + 8)
            if partial:
                raise HistoryError("truncated record")
            if count != file.total_rounds:
                raise HistoryError(
                    f"{cls.KIND} holds {count} complete records, header says T={file.total_rounds}"
                )
        return file

    def _records(self, first: int = 0):
        """Reads records `first`..T-1 into one buffer, yielding the record
        viewed over it (overwritten by the next) once it is whole, its
        checksum holds, `_check` passes and it is in round order."""
        if first >= self.total_rounds:
            return  # no record: the sizes were never backed by one
        buf, rec = self._buffer()
        with _naming(self.path), open(self.path, "rb") as f:
            f.seek(self.HEADER.size + 32 + first * buf.size)
            for t in range(first, self.total_rounds):
                if f.readinto(buf) != buf.size:
                    raise HistoryError("truncated record")
                if _checksum(buf[:-8]) != rec["checksum"]:
                    raise HistoryError("record checksum mismatch")
                where = f"record for round {int(rec['round'])}"
                self._check(rec, where)
                if rec["round"] != t:
                    raise HistoryError(f"{where} where {t} expected")
                yield rec

    def check_meta(self, d: int, n: int, total_rounds: int, config_hash: bytes) -> None:
        """HistoryError unless the file's d, n, T and config hash are these."""
        if (self.d, self.n, self.total_rounds) != (d, n, total_rounds):
            raise HistoryError(
                f"{self.KIND} meta (d={self.d}, n={self.n}, T={self.total_rounds}) does not match "
                + (f"{self.WHOSE} " if self.WHOSE else "") + f"(d={d}, n={n}, T={total_rounds})"
            )
        if self.config_hash != bytes(config_hash):
            raise HistoryError(f"{self.KIND} config hash does not match {self.WHOSE or 'the supplied config'}")


class HistoryStore(_RecordFile):
    """Append-only store of per-round training history: magic "FRH1", and
    per round the model broadcast at that round, the client count n and
    each client's id and update in id order 0..n-1. No record is held in
    memory: `rounds()` reads them back one at a time. `tops` is the run's
    `TopTable` when one is written or loaded with it."""

    MAGIC, HEADER, KIND, WHOSE = b"FRH1", struct.Struct("<4sIQII"), "history", None
    tops = None

    def _fields(self) -> list:
        client = np.dtype([("id", "<u4"), ("u", "<f8", (self.d,))])
        return [("model", "<f8", (self.d,)), ("count", "<u4"), ("clients", client, (self.n,))]

    def _field_bytes(self) -> int:
        return 8 * self.d + 4 + self.n * (4 + 8 * self.d)

    @classmethod
    def create(cls, path, d: int, n: int, total_rounds: int, config_hash: bytes, tops=None) -> "HistoryStore":
        """A new file holding only the header; `append` writes the records.
        `tops`, when given, is the (path, m) of a `TopTable` that `append`
        fills beside the history."""
        store = super().create(path, d, n, total_rounds, config_hash)
        store._rec["count"], store._rec["clients"]["id"] = n, np.arange(n)
        if tops is not None:
            store.tops = TopTable.create(tops[0], d, n, total_rounds, tops[1], config_hash)
        return store

    def append(self, round_idx: int, model: np.ndarray, updates: dict) -> None:
        """Write round `round_idx`: the model broadcast at that round and
        each client's update as reported, keyed by client id 0..n-1.
        `train` appends rounds 0..T-1 in order, each with every client's
        d-vector; `rounds()` checks each record again as it reads it."""
        mat = np.array([updates[c] for c in range(self.n)], dtype=np.float64)
        self._rec["model"], self._rec["clients"]["u"] = model, mat
        self._write(round_idx)
        if self.tops is not None:
            self.tops.append(round_idx, mat)

    @classmethod
    def load(cls, path, tops=None, meta=None) -> "HistoryStore":
        """`_RecordFile.load`, then a check of `meta`, when given: the (d, n,
        T, config hash) the history must have. `tops`, when given, is the
        path of the run's `TopTable`, loaded into `self.tops` and refused,
        naming it, unless its d, n, T and config hash are the history's."""
        store = super().load(path)
        if meta is not None:
            with _naming(store.path):
                store.check_meta(*meta)
        if tops is not None:
            table = store.tops = TopTable.load(tops)
            with _naming(table.path):
                table.check_meta(store.d, store.n, store.total_rounds, store.config_hash)
        return store

    def rounds(self, first: int = 0):
        """Each round's (model, updates) in round order from round `first`
        on, as fresh aligned float64 arrays: the model broadcast at that
        round (d,), and row c of updates (n, d) client c's update as
        reported. The records before `first` are skipped unread. The one
        reader of records, and where they are validated: one whose checksum
        fails, that holds other clients than 0..n-1 or a non-finite value,
        or that is out of round order raises HistoryError, so recovery can
        trust it."""
        for rec in self._records(first):
            yield np.array(rec["model"], np.float64), np.array(rec["clients"]["u"], np.float64)

    def _check(self, rec, where: str) -> None:
        clients = rec["clients"]
        if rec["count"] != self.n or not np.array_equal(clients["id"], np.arange(self.n)):
            raise HistoryError(f"{where} does not hold clients 0..{self.n - 1}")
        if not (np.isfinite(rec["model"]).all() and np.isfinite(clients["u"]).all()):
            raise HistoryError(f"{where} holds non-finite values")


class TopTable(_RecordFile):
    """Per round, each client's m largest update coordinates in descending
    order (row c for client c): all that `recovery.compute_threshold`
    reads, so a recovery that derives its threshold reads the history
    itself once. Magic "FRT1", and m after T in the header.
    `HistoryStore.append` writes it beside the history."""

    MAGIC, HEADER, KIND, WHOSE = b"FRT1", struct.Struct("<4sIQIII"), "table", "the history's"

    def __init__(self, path, d: int, n: int, total_rounds: int, m: int, config_hash: bytes):
        super().__init__(path, d, n, total_rounds, config_hash)
        if not 1 <= m <= d:
            raise HistoryError(f"m={m} outside 1..d={d}")
        self.m = m

    def _fields(self) -> list:
        return [("top", "<f8", (self.n, self.m))]

    def _field_bytes(self) -> int:
        return 8 * self.n * self.m

    def append(self, round_idx: int, mat: np.ndarray) -> None:
        """Write round `round_idx` from its (n, d) updates: each row's m
        largest values, found by selection and sorted descending, so the
        bytes do not depend on the selection's order."""
        cut = self.d - self.m
        top = np.partition(mat, cut, axis=1)[:, cut:]
        self._rec["top"] = np.sort(top, axis=1)[:, ::-1]
        self._write(round_idx)

    def rounds(self):
        """Each round's (n, m) values in round order, as a fresh array, row
        c client c's m largest update coordinates in descending order. A
        record whose checksum fails, that holds a non-finite value or that
        is out of round order raises HistoryError."""
        for rec in self._records():
            yield np.array(rec["top"], np.float64)

    def _check(self, rec, where: str) -> None:
        if not np.isfinite(rec["top"]).all():
            raise HistoryError(f"{where} holds non-finite values")


@dataclass
class FlSetup:
    """Everything the round loop needs, resolved once up front.

    `shards[c]` is client c's clean `(inputs, labels)`; the client ids are
    0..n-1. Each client's record is `clients[c]`, `(inputs, labels,
    sampler)` as `client_local_update` takes them, and each backdoor
    attacker's poisoned copy is `poisoned[c]`. FedAvg weighs a client by
    its shard length.
    """

    spec: models.ModelSpec
    rule: AggregationRule
    eta: float
    batch_size: int
    l: int
    seed: int
    shards: InitVar[list]
    attack: attacks.AttackConfig | None = None
    malicious: frozenset = frozenset()
    client_ids: range = field(init=False)
    clients: list = field(init=False, repr=False)
    poisoned: dict = field(init=False, repr=False)

    def __post_init__(self, shards):
        """Stores the shards as given: `config.build_setup` guarantees
        nonempty shards of a `Dataset` that `config.build_datasets` matched
        to the spec."""
        self.client_ids = range(len(shards))
        self.clients, self.poisoned = [], {}
        atk, size = self.attack, self.batch_size
        for cid, (x, y) in enumerate(shards):
            self.clients.append((x, y, BatchSampler(self.seed, cid, len(y), size)))
            if atk is not None and atk.kind == "backdoor" and cid in self.malicious:
                px, py = attacks.poison_shard_backdoor(x, y, atk.trigger, atk.target_label)
                self.poisoned[cid] = (px, py, BatchSampler(self.seed, cid, len(py), size))

    def reported_updates(
        self, w: np.ndarray, round_idx: int, participants, attackers, lam=None, asked=None
    ) -> dict:
        """Updates the server receives at this round from the `asked`
        clients, all of `participants` when not given.

        Clients in `attackers`, a subset of `participants`, substitute
        crafted updates. The trim attack is computed in the full-knowledge
        setting from every participant's honest update, so asking any trim
        attacker computes them all once; otherwise only the asked clients
        compute, a backdoor attacker scaling its update by `lam` (the
        attack's own scale when not given).
        """
        participants = sorted(participants)
        asked = participants if asked is None else asked
        attackers = sorted(attackers) if self.attack else []
        spec, l, eta = self.spec, self.l, self.eta
        if self.attack and self.attack.kind == "trim" and not set(attackers).isdisjoint(asked):
            reported = {
                cid: client_local_update(spec, w, *self.clients[cid], round_idx, l, eta)
                for cid in participants
            }
            rng = RngStream(derive_seed(self.seed, STREAM_ATTACK, 0, round_idx))
            crafted = attacks.trim_attack_updates(
                [reported[cid] for cid in participants], len(attackers), self.attack.b, rng
            )
            reported.update(zip(attackers, crafted))
            return {cid: reported[cid] for cid in asked}
        if lam is None and attackers:
            lam = self.attack.lam
        return {
            cid: attacks.backdoor_update(spec, w, *self.poisoned[cid], round_idx, l, eta, lam)
            if cid in attackers
            else client_local_update(spec, w, *self.clients[cid], round_idx, l, eta)
            for cid in asked
        }

    def aggregate_step(self, w: np.ndarray, reported: dict) -> np.ndarray:
        ids = sorted(reported)
        sizes = [len(self.clients[c][1]) for c in ids]
        agg = aggregate(self.rule, [reported[c] for c in ids], sizes)
        return apply_update(w, agg, self.eta)


def train(setup: FlSetup, total_rounds: int, path, config_hash: bytes, keep, tops=None) -> dict:
    """Run the original training for total_rounds rounds, appending every
    round to a fresh history store at `path` and, when `tops` (the path and
    m of a `TopTable`) is given, to that table. Returns {t: w_t}, the global
    model after t rounds (w_T the final model), for each t in `keep`."""
    w = models.init_params(setup.spec, derive_seed(setup.seed, STREAM_INIT, 0, 0))
    store = HistoryStore.create(
        path, setup.spec.param_dim, len(setup.client_ids), total_rounds, config_hash, tops
    )
    kept = {0: w} if 0 in keep else {}
    for t in range(total_rounds):
        reported = setup.reported_updates(w, t, setup.client_ids, setup.malicious)
        store.append(t, w, reported)
        w = setup.aggregate_step(w, reported)
        if t + 1 in keep:
            kept[t + 1] = w
    return kept
