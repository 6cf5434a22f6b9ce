"""Round loop of the original federated training and the append-only
on-disk history of global models and reported client updates.

Every round stores the broadcast global model and each client's update
exactly as reported (malicious updates included), which is what a real
server would have on disk when a detector later flags clients.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import attacks, models
from .aggregation import AggregationRule, aggregate, apply_update
from .clients import BatchSampler, client_local_update
from .numcore import STREAM_ATTACK, STREAM_INIT, RngStream, derive_seed

MAGIC = b"FRH1"
VERSION = 1
_HEADER = struct.Struct("<4sIQII")  # magic, version, d, n, T


class HistoryError(ValueError):
    """Structural problem in a history file (corruption, bad order, meta)."""


@dataclass(frozen=True)
class RoundRecord:
    round_idx: int
    global_model: np.ndarray
    updates: dict  # client_id -> update vector

    def __post_init__(self):
        d = self.global_model.size
        for cid, u in self.updates.items():
            if u.size != d:
                raise ValueError(f"update of client {cid} has dim {u.size}, expected {d}")


def _checksum(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


class HistoryStore:
    """Append-only store of per-round training history.

    Layout: a fixed header (magic, version, d, n, T, 32-byte config hash)
    followed by one record per round. Each record is the round index, the
    global model, and the clients' updates as little-endian float64
    payloads, closed by a 64-bit checksum of the record bytes. Records
    must be appended in round order; loading verifies every checksum.
    """

    def __init__(self, path, d: int, n: int, total_rounds: int, config_hash: bytes):
        if len(config_hash) != 32:
            raise ValueError("config hash must be 32 bytes")
        self.path = os.fspath(path)
        self.d = d
        self.n = n
        self.total_rounds = total_rounds
        self.config_hash = bytes(config_hash)
        self.records: list[RoundRecord] = []

    @classmethod
    def create(cls, path, d: int, n: int, total_rounds: int, config_hash: bytes) -> "HistoryStore":
        store = cls(path, d, n, total_rounds, config_hash)
        with open(store.path, "wb") as f:
            f.write(_HEADER.pack(MAGIC, VERSION, d, n, total_rounds))
            f.write(store.config_hash)
        return store

    def _encode(self, record: RoundRecord) -> bytes:
        parts = [struct.pack("<I", record.round_idx)]
        parts.append(np.ascontiguousarray(record.global_model, dtype="<f8").tobytes())
        parts.append(struct.pack("<I", len(record.updates)))
        for cid in sorted(record.updates):
            parts.append(struct.pack("<I", cid))
            parts.append(np.ascontiguousarray(record.updates[cid], dtype="<f8").tobytes())
        payload = b"".join(parts)
        return payload + struct.pack("<Q", _checksum(payload))

    def append(self, record: RoundRecord) -> None:
        expected = self.records[-1].round_idx + 1 if self.records else 0
        if record.round_idx != expected:
            raise HistoryError(f"out-of-order append: round {record.round_idx}, expected {expected}")
        if record.global_model.size != self.d:
            raise HistoryError(f"model dim {record.global_model.size} != store dim {self.d}")
        with open(self.path, "ab") as f:
            f.write(self._encode(record))
        self.records.append(record)

    @classmethod
    def _read_header(cls, f, path) -> "HistoryStore":
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise HistoryError("truncated header")
        magic, version, d, n, total = _HEADER.unpack(head)
        if magic != MAGIC:
            raise HistoryError(f"bad magic {magic!r}")
        if version != VERSION:
            raise HistoryError(f"unsupported version {version}")
        config_hash = f.read(32)
        if len(config_hash) != 32:
            raise HistoryError("truncated header (config hash)")
        return cls(path, d, n, total, config_hash)

    @classmethod
    def load_header(cls, path) -> "HistoryStore":
        """The store's header (d, n, T, config hash) with no records read."""
        with open(path, "rb") as f:
            return cls._read_header(f, path)

    @classmethod
    def load(cls, path) -> "HistoryStore":
        """Every record, checksums verified; exactly T of them.

        This is where stored vectors are validated: a record holding a
        non-finite value is rejected, so recovery can trust what it reads.
        Each record's updates are rows of one (count, d) float64 matrix.
        """
        with open(path, "rb") as f:
            store = cls._read_header(f, path)
            d = store.d
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
                expected = store.records[-1].round_idx + 1 if store.records else 0
                if round_idx != expected:
                    raise HistoryError(f"record for round {round_idx} where {expected} expected")
                store.records.append(RoundRecord(round_idx, w, updates))
        if len(store.records) != store.total_rounds:
            raise HistoryError(
                f"history holds {len(store.records)} complete records, header says "
                f"T={store.total_rounds}"
            )
        return store

    def check_meta(self, d: int, n: int, total_rounds: int, config_hash: bytes) -> None:
        if (self.d, self.n, self.total_rounds) != (d, n, total_rounds):
            raise HistoryError(
                f"history meta (d={self.d}, n={self.n}, T={self.total_rounds}) does not match "
                f"(d={d}, n={n}, T={total_rounds})"
            )
        if self.config_hash != bytes(config_hash):
            raise HistoryError("history config hash does not match the supplied config")


@dataclass
class TrainState:
    round_idx: int
    global_model: np.ndarray


@dataclass
class FlSetup:
    """Everything the round loop needs, resolved once up front."""

    spec: models.ModelSpec
    rule: AggregationRule
    eta: float
    batch_size: int
    l: int
    seed: int
    client_ids: list
    local_inputs: dict  # client_id -> inputs (clean)
    local_labels: dict
    sizes: dict  # client_id -> |D_i| used for FedAvg weighting
    attack: attacks.AttackConfig | None = None
    malicious: frozenset = frozenset()
    poisoned_inputs: dict = field(default_factory=dict)
    poisoned_labels: dict = field(default_factory=dict)
    samplers: dict = field(default_factory=dict)
    poisoned_samplers: dict = field(default_factory=dict)

    def __post_init__(self):
        for cid in self.client_ids:
            n_i = self.local_inputs[cid].shape[0]
            if n_i == 0:
                raise ValueError(f"client {cid} has an empty shard")
            self.samplers[cid] = BatchSampler(self.seed, cid, n_i, self.batch_size)
        if self.attack is not None and self.attack.kind == "backdoor":
            for cid in sorted(self.malicious):
                px, py = attacks.poison_shard_backdoor(
                    self.local_inputs[cid],
                    self.local_labels[cid],
                    self.attack.trigger,
                    self.attack.target_label,
                )
                self.poisoned_inputs[cid] = px
                self.poisoned_labels[cid] = py
                self.poisoned_samplers[cid] = BatchSampler(
                    self.seed, cid, px.shape[0], self.batch_size
                )

    def honest_update(self, cid, w: np.ndarray, round_idx: int) -> np.ndarray:
        return client_local_update(
            self.spec,
            w,
            self.local_inputs[cid],
            self.local_labels[cid],
            self.samplers[cid],
            round_idx,
            self.l,
            self.eta,
        )

    def backdoor_update(self, cid, w: np.ndarray, round_idx: int, lam: float) -> np.ndarray:
        return attacks.backdoor_update(
            self.spec,
            w,
            self.poisoned_inputs[cid],
            self.poisoned_labels[cid],
            self.poisoned_samplers[cid],
            round_idx,
            self.l,
            self.eta,
            lam,
        )

    def reported_updates(
        self, w: np.ndarray, round_idx: int, participants, attackers, lam_override=None
    ) -> dict:
        """Updates the server receives from `participants` at this round.

        Clients in `attackers` substitute crafted updates; the trim attack
        is computed in the full-knowledge setting from the participants'
        honest updates.
        """
        participants = sorted(participants)
        attackers = sorted(set(attackers) & set(participants))
        honest_needed = (
            participants
            if (self.attack is None or self.attack.kind == "trim" or not attackers)
            else [c for c in participants if c not in attackers]
        )
        reported = {cid: self.honest_update(cid, w, round_idx) for cid in honest_needed}
        if not attackers or self.attack is None:
            return reported
        if self.attack.kind == "trim":
            rng = RngStream(derive_seed(self.seed, STREAM_ATTACK, 0, round_idx))
            crafted = attacks.trim_attack_updates(
                [reported[cid] for cid in participants], len(attackers), self.attack.b, rng
            )
            for cid, u in zip(attackers, crafted):
                reported[cid] = u
        else:
            lam = self.attack.lam if lam_override is None else lam_override
            for cid in attackers:
                reported[cid] = self.backdoor_update(cid, w, round_idx, lam)
        return reported

    def aggregate_step(self, w: np.ndarray, reported: dict) -> np.ndarray:
        ids = sorted(reported)
        agg = aggregate(self.rule, [reported[c] for c in ids], [self.sizes[c] for c in ids])
        return apply_update(w, agg, self.eta)


def run_round(state: TrainState, setup: FlSetup) -> tuple[TrainState, RoundRecord]:
    """One full round: broadcast, per-client updates (attack-aware),
    aggregate, apply. The record carries the updates as reported."""
    w = state.global_model
    reported = setup.reported_updates(w, state.round_idx, setup.client_ids, setup.malicious)
    record = RoundRecord(state.round_idx, w, reported)
    new_w = setup.aggregate_step(w, reported)
    return TrainState(state.round_idx + 1, new_w), record


def train(
    setup: FlSetup, total_rounds: int, history_path, config_hash: bytes
) -> tuple[HistoryStore, np.ndarray]:
    """Run the original training for total_rounds rounds, appending every
    round to a fresh history store at history_path."""
    w0 = models.init_params(setup.spec, derive_seed(setup.seed, STREAM_INIT, 0, 0))
    store = HistoryStore.create(
        history_path, setup.spec.param_dim, len(setup.client_ids), total_rounds, config_hash
    )
    state = TrainState(0, w0)
    for _ in range(total_rounds):
        state, record = run_round(state, setup)
        store.append(record)
    return store, state.global_model
