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

MAGIC = b"FRH1"
VERSION = 1
_HEADER = struct.Struct("<4sIQII")  # magic, version, d, n, T
TOPS_MAGIC = b"FRT1"
_TOPS_HEADER = struct.Struct("<4sIQIII")  # magic, version, d, n, T, m


class HistoryError(ValueError):
    """Structural problem in a history file (corruption, bad order, meta)."""


def _checksum(payload) -> int:
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "little")


def _record_buffer(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A one-record byte buffer and the record viewed over it. One dtype
    both writes and reads a record, packed and little-endian: the round
    index, the model broadcast at that round, the client count n, each
    client's id and update in id order 0..n-1, and a 64-bit checksum of
    the bytes before it."""
    client = np.dtype([("id", "<u4"), ("u", "<f8", (d,))])
    dtype = np.dtype(
        [("round", "<u4"), ("model", "<f8", (d,)), ("count", "<u4"), ("clients", client, (n,)),
         ("checksum", "<u8")]
    )
    buf = np.zeros(dtype.itemsize, dtype=np.uint8)
    return buf, buf.view(dtype).reshape(())


def _tops_buffer(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A one-record byte buffer of the top-value table and the record
    viewed over it: the round index, each client's m largest update
    coordinates in descending order (row c for client c), and a 64-bit
    checksum of the bytes before it."""
    dtype = np.dtype([("round", "<u4"), ("top", "<f8", (n, m)), ("checksum", "<u8")])
    buf = np.zeros(dtype.itemsize, dtype=np.uint8)
    return buf, buf.view(dtype).reshape(())


def _read_header(f, header=_HEADER, magic=MAGIC) -> tuple:
    """The fields after magic and version of `header` at the start of `f`
    ((d, n, T) for a history), then the config hash."""
    head = f.read(header.size)
    if len(head) < header.size:
        raise HistoryError("truncated header")
    found, version, *fields = header.unpack(head)
    if found != magic:
        raise HistoryError(f"bad magic {found!r}")
    if version != VERSION:
        raise HistoryError(f"unsupported version {version}")
    config_hash = f.read(32)
    if len(config_hash) != 32:
        raise HistoryError("truncated header (config hash)")
    return (*fields, config_hash)


def _count_records(f, record_size: int, total: int, what: str) -> None:
    """HistoryError unless exactly `total` complete records follow the
    header `f` has just been read past."""
    count, partial = divmod(os.fstat(f.fileno()).st_size - f.tell(), record_size)
    if partial:
        raise HistoryError("truncated record")
    if count != total:
        raise HistoryError(f"{what} holds {count} complete records, header says T={total}")


def _checked_records(f, buf: np.ndarray, rec: np.ndarray, first: int, total: int):
    """Reads records `first`..`total`-1 from `f`, positioned at `first`,
    into `buf` one at a time, yielding each round index once its record is
    whole and its checksum holds; the caller checks the rest of `rec`."""
    for t in range(first, total):
        if f.readinto(buf) != buf.size:
            raise HistoryError("truncated record")
        if _checksum(buf[:-8]) != rec["checksum"]:
            raise HistoryError("record checksum mismatch")
        yield t


class HistoryStore:
    """Append-only store of per-round training history.

    Layout: a fixed header (magic, version, d, n, T, 32-byte config hash)
    followed by one fixed-size record per round (see `_record_buffer`),
    appended in round order. The store holds no records in memory:
    `rounds()` reads them back one at a time. `tops` is the run's
    `TopTable` when one is written or loaded with it. Every fault `load`
    and `rounds()` report names its file.
    """

    def __init__(self, path, d: int, n: int, total_rounds: int, config_hash: bytes):
        """`config_hash` is 32 bytes: `config.config_hash`'s digest, or the header's."""
        self.path = os.fspath(path)
        self.d = d
        self.n = n
        self.total_rounds = total_rounds
        self.config_hash = bytes(config_hash)
        self.tops = None

    @classmethod
    def create(
        cls, path, d: int, n: int, total_rounds: int, config_hash: bytes, tops=None
    ) -> "HistoryStore":
        """A new file holding only the header; `append` writes the records.
        `tops`, when given, is the (path, m) of a `TopTable` that `append`
        fills beside the history."""
        store = cls(path, d, n, total_rounds, config_hash)
        store._buf, store._rec = _record_buffer(d, n)
        with open(store.path, "wb") as f:
            f.write(_HEADER.pack(MAGIC, VERSION, d, n, total_rounds))
            f.write(store.config_hash)
        if tops is not None:
            store.tops = TopTable.create(tops[0], d, n, total_rounds, tops[1], config_hash)
        return store

    def append(self, round_idx: int, model: np.ndarray, updates: dict) -> None:
        """Write round `round_idx`: the model broadcast at that round and
        each client's update as reported, keyed by client id 0..n-1.
        `train` appends rounds 0..T-1 in order, each with every client's
        d-vector; `rounds()` checks each record again as it reads it."""
        mat = np.array([updates[c] for c in range(self.n)], dtype=np.float64)
        buf, rec = self._buf, self._rec
        rec["round"], rec["model"], rec["count"] = round_idx, model, self.n
        rec["clients"]["id"], rec["clients"]["u"] = np.arange(self.n), mat
        rec["checksum"] = _checksum(buf[:-8])
        with open(self.path, "ab") as f:
            f.write(buf)
        if self.tops is not None:
            self.tops.append(round_idx, mat)

    @classmethod
    def load(cls, path, tops=None, meta=None) -> "HistoryStore":
        """The header, and a check of the file size: exactly T complete
        records follow it. `rounds()` checks each record as it reads it.
        `meta`, when given, is the (d, n, T, config hash) the history must
        have (`check_meta`). `tops`, when given, is the path of the run's
        `TopTable`, loaded into `self.tops` after that check and refused,
        naming it, unless its d, n, T and config hash are the history's."""
        with _naming(os.fspath(path)), open(path, "rb") as f:
            store = cls(path, *_read_header(f))
            record_size = _record_buffer(store.d, store.n)[0].size
            _count_records(f, record_size, store.total_rounds, "history")
            if meta is not None:
                store.check_meta(*meta)
        if tops is not None:
            table = store.tops = TopTable.load(tops)
            with _naming(table.path):
                store.check_meta(table.d, table.n, table.total_rounds, table.config_hash)
        return store

    def rounds(self, first: int = 0):
        """Each round's (model, updates) in round order from round `first`
        on, as fresh aligned float64 arrays: the model broadcast at that
        round (d,), and row c of updates (n, d) client c's update as
        reported. The records before `first` are skipped unread.

        The one reader of records, and where they are validated: each is
        read into a one-record buffer, and one whose checksum fails, that
        holds other clients than 0..n-1 or a non-finite value, or that is
        out of round order raises HistoryError, so recovery can trust it.
        """
        buf, rec = _record_buffer(self.d, self.n)
        ids = np.arange(self.n)
        with _naming(self.path), open(self.path, "rb") as f:
            f.seek(_HEADER.size + 32 + first * buf.size)
            for t in _checked_records(f, buf, rec, first, self.total_rounds):
                round_idx, clients = int(rec["round"]), rec["clients"]
                where = f"record for round {round_idx}"
                if rec["count"] != self.n or not np.array_equal(clients["id"], ids):
                    raise HistoryError(f"{where} does not hold clients 0..{self.n - 1}")
                if not (np.isfinite(rec["model"]).all() and np.isfinite(clients["u"]).all()):
                    raise HistoryError(f"{where} holds non-finite values")
                if round_idx != t:
                    raise HistoryError(f"{where} where {t} expected")
                yield np.array(rec["model"], np.float64), np.array(clients["u"], np.float64)

    def check_meta(self, d: int, n: int, total_rounds: int, config_hash: bytes) -> None:
        if (self.d, self.n, self.total_rounds) != (d, n, total_rounds):
            raise HistoryError(
                f"history meta (d={self.d}, n={self.n}, T={self.total_rounds}) does not match "
                f"(d={d}, n={n}, T={total_rounds})"
            )
        if self.config_hash != bytes(config_hash):
            raise HistoryError("history config hash does not match the supplied config")


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


class TopTable:
    """Per round, each client's m largest update coordinates: all that
    `recovery.compute_threshold` reads, so a recovery that derives its
    threshold reads the history itself once.

    Layout: a header (magic "FRT1", version, d, n, T, m, 32-byte config
    hash) followed by one fixed-size record per round (see `_tops_buffer`).
    `HistoryStore.append` writes it beside the history. Every fault it
    reports names its file.
    """

    def __init__(self, path, d: int, n: int, total_rounds: int, m: int, config_hash: bytes):
        self.path = os.fspath(path)
        self.d, self.n, self.total_rounds, self.m = d, n, total_rounds, m
        self.config_hash = bytes(config_hash)

    @classmethod
    def create(cls, path, d: int, n: int, total_rounds: int, m: int, config_hash: bytes) -> "TopTable":
        """A new file holding only the header; `append` writes the records."""
        table = cls(path, d, n, total_rounds, m, config_hash)
        table._buf, table._rec = _tops_buffer(n, m)
        with open(table.path, "wb") as f:
            f.write(_TOPS_HEADER.pack(TOPS_MAGIC, VERSION, d, n, total_rounds, m))
            f.write(table.config_hash)
        return table

    def append(self, round_idx: int, mat: np.ndarray) -> None:
        """Write round `round_idx` from its (n, d) updates: each row's m
        largest values, found by selection and sorted descending, so the
        bytes do not depend on the selection's order."""
        cut = self.d - self.m
        top = np.partition(mat, cut, axis=1)[:, cut:]
        buf, rec = self._buf, self._rec
        rec["round"], rec["top"] = round_idx, np.sort(top, axis=1)[:, ::-1]
        rec["checksum"] = _checksum(buf[:-8])
        with open(self.path, "ab") as f:
            f.write(buf)

    @classmethod
    def load(cls, path) -> "TopTable":
        """The header, 1 <= m <= d, and a check of the file size: exactly T
        complete records follow the header."""
        with _naming(os.fspath(path)), open(path, "rb") as f:
            table = cls(path, *_read_header(f, _TOPS_HEADER, TOPS_MAGIC))
            if not 1 <= table.m <= table.d:
                raise HistoryError(f"m={table.m} outside 1..d={table.d}")
            _count_records(f, _tops_buffer(table.n, table.m)[0].size, table.total_rounds, "table")
        return table

    def rounds(self):
        """Each round's (n, m) values in round order, as a fresh array, row
        c client c's m largest update coordinates in descending order. A
        record whose checksum fails, that holds a non-finite value or that
        is out of round order raises HistoryError."""
        buf, rec = _tops_buffer(self.n, self.m)
        with _naming(self.path), open(self.path, "rb") as f:
            f.seek(_TOPS_HEADER.size + 32)
            for t in _checked_records(f, buf, rec, 0, self.total_rounds):
                where = f"record for round {int(rec['round'])}"
                if not np.isfinite(rec["top"]).all():
                    raise HistoryError(f"{where} holds non-finite values")
                if rec["round"] != t:
                    raise HistoryError(f"{where} where {t} expected")
                yield np.array(rec["top"], np.float64)


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

        Clients in `attackers` substitute crafted updates. The trim attack
        is computed in the full-knowledge setting from every participant's
        honest update, so asking any trim attacker computes them all once;
        otherwise only the asked clients compute, a backdoor attacker
        scaling its update by `lam` (the attack's own scale when not given).
        """
        participants = sorted(participants)
        asked = participants if asked is None else asked
        attackers = sorted(set(attackers) & set(participants)) if self.attack else []
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
