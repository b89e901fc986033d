"""Per-shard replication: log shipping, bounded-staleness followers,
failover promotion.

PR 6 gave every shard a durable op log (WAL + snapshots); replication is
the same op stream pointed at a second consumer.  Each primary's
persistence is wrapped in a :class:`ReplicationLog` — a
:class:`~repro.persistence.backend.PersistenceBackend` that forwards to
the real (optional) durable backend and additionally retains every
**acknowledged** op in an in-memory ship buffer.  The acknowledged
watermark is the group-commit boundary: ``append`` only stages an op,
``sync`` (called once per acknowledged operation by
:meth:`~repro.runtime.app.WebApp.commit`) promotes everything staged to
shippable.  A ``kill`` drops whatever was staged but never synced —
exactly the writes a real crash loses — so a follower can never apply
an op the client was not yet promised.

A follower is a structurally identical :class:`WebApp` (same entities,
forms, policies, users — confidentiality is enforced by the same code
path, not re-implemented) that catches up by *pulling* the primary's
acked op dicts straight out of the ship buffer and replaying them
through :func:`repro.persistence.apply_ops` — crash recovery's replay
path, with contiguous record admissions batched — so replicated state
is rebuilt the same way recovered state is.  In-process followers never
encode anything; :meth:`ReplicationLog.ship_frame` is the wire form of
the same tail.  Catch-up happens at read time, never on a
background thread, which keeps seeded chaos runs byte-identical.

Failover inverts the roles: the most caught-up follower applies every
acked op it has not seen, takes over the primary's durable backend
(a fresh handle recovered over the same directory), and starts serving.
Acked-write durability holds by construction: acked ⇒ synced ⇒ shipped,
so the promoted follower's state equals the dead primary's acknowledged
state — :func:`repro.persistence.capture_state` equality is the test.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro import interchange
from repro.persistence import (
    RecoveredState,
    apply_ops,
    capture_state,
    op_tick,
)
from repro.persistence.backend import PersistenceBackend

#: Bounded catch-up retry: how many ship attempts (each preceded by a
#: bootstrap after the first truncation) before giving up.  A prune can
#: race a slow follower at most once per external ``prune_to`` call, so
#: three attempts is already generous.
CATCHUP_ATTEMPTS = 3


class ReplicationLog(PersistenceBackend):
    """A persistence wrapper that tees acked ops to an in-memory ship
    buffer for follower catch-up.

    ``durable`` is ``True`` even with no inner backend: the stores only
    emit ops to durable backends, and replication needs the op stream
    regardless of whether anything reaches disk.  With an inner durable
    backend, sequence numbers are the inner backend's (so recovery and
    shipping agree on one numbering); without one, the log numbers ops
    itself.
    """

    durable = True

    def __init__(
        self,
        inner: Optional[PersistenceBackend] = None,
        inner_factory: Optional[Callable[[], PersistenceBackend]] = None,
    ):
        self.inner = inner
        self._inner_factory = inner_factory
        self._lock = threading.Lock()
        self._seq = 0
        self._staged: list[tuple[int, dict]] = []
        self._shippable: list[tuple[int, dict]] = []
        self._acked_seq = 0
        self._base_seq = 0

    @property
    def name(self) -> str:
        return f"repl+{self.inner.name}" if self.inner is not None else "repl"

    # -- the backend contract ---------------------------------------------

    def append(self, op: dict) -> int:
        if self.inner is not None:
            seq = self.inner.append(op)
        else:
            with self._lock:
                self._seq += 1
                seq = self._seq
        with self._lock:
            self._seq = max(self._seq, seq)
            self._staged.append((seq, dict(op)))
        return seq

    def sync(self) -> None:
        if self.inner is not None:
            self.inner.sync()
        with self._lock:
            if self._staged:
                self._shippable.extend(self._staged)
                self._acked_seq = self._staged[-1][0]
                self._staged = []

    def should_compact(self) -> bool:
        return self.inner is not None and self.inner.should_compact()

    def checkpoint(self, state: dict) -> None:
        # the ship buffer is NOT truncated here: a checkpoint compacts
        # the durable log, but a lagging follower may still need the
        # tail — pruning is the replica set's call (``prune``)
        if self.inner is not None:
            self.inner.checkpoint(state)

    def recover(self) -> RecoveredState:
        if self.inner is None:
            return RecoveredState()
        recovered = self.inner.recover()
        top = max(
            recovered.snapshot_seq,
            max((op.get("seq", 0) for op in recovered.ops), default=0),
        )
        with self._lock:
            self._seq = max(self._seq, top)
            self._acked_seq = max(self._acked_seq, top)
            self._base_seq = max(self._base_seq, top)
        return recovered

    def kill(self) -> None:
        """Simulated ``kill -9``: staged-but-unsynced ops are gone."""
        if self.inner is not None:
            self.inner.kill()
        with self._lock:
            self._staged = []

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()

    def stats(self) -> dict:
        with self._lock:
            shippable = len(self._shippable)
            acked = self._acked_seq
        stats = {
            "backend": self.name,
            "durable": True,
            "acked_seq": acked,
            "shippable": shippable,
        }
        if self.inner is not None:
            stats["inner"] = self.inner.stats()
        return stats

    # -- log shipping ------------------------------------------------------

    @property
    def acked_seq(self) -> int:
        with self._lock:
            return self._acked_seq

    @property
    def base_seq(self) -> int:
        """Ops at or below this seq are no longer shippable (pruned or
        predating this log handle); a follower behind it must bootstrap
        from a snapshot instead of replaying the tail."""
        with self._lock:
            return self._base_seq

    def ship(self, after_seq: int) -> list[tuple[int, dict]]:
        """Every acked ``(seq, op)`` with ``seq > after_seq``, in order."""
        with self._lock:
            if after_seq < self._base_seq:
                raise LogTruncated(
                    f"ops after seq {after_seq} are gone "
                    f"(base is {self._base_seq}); bootstrap from snapshot"
                )
            return [
                (seq, op) for seq, op in self._shippable if seq > after_seq
            ]

    def ship_frame(self, after_seq: int) -> bytes:
        """The acked tail after ``after_seq`` as one length+CRC framed
        interchange batch, contiguous insert runs coalesced
        (:func:`repro.interchange.decode_op_batch` inverts it).

        Catch-up does not use it — followers apply :meth:`ship`'s op
        dicts in place; this is the encoded form of the same tail for a
        consumer on the far side of a wire."""
        return interchange.encode_op_batch(
            interchange.coalesce_insert_runs(self.ship(after_seq))
        )

    def prune(self, up_to_seq: int) -> None:
        """Drop shippable ops every follower has applied (the replica
        set calls this behind the slowest follower's watermark)."""
        self.prune_to(up_to_seq)

    def prune_to(self, seq: int) -> None:
        """Explicitly truncate the ship buffer at ``seq``.

        ``catch_up`` prunes behind ``min(applied)``, which a follower
        that **never** catches up pins at its bootstrap watermark — the
        ship buffer then grows without bound.  Operators (or the
        gateway's retention policy) call this with the acked watermark
        to cap memory; a follower whose tail falls below the new base
        simply re-bootstraps from a snapshot on its next catch-up.
        """
        with self._lock:
            self._shippable = [
                (kept_seq, op)
                for kept_seq, op in self._shippable
                if kept_seq > seq
            ]
            self._base_seq = max(self._base_seq, seq)

    def successor(self) -> "ReplicationLog":
        """A fresh log over the same durable location, for the promoted
        follower after this log's primary died.  The durable sequence
        numbering continues (the new inner handle recovers its counter
        from disk); the ship buffer starts empty at the acked watermark,
        so existing followers bootstrap rather than replay a hole."""
        if self._inner_factory is not None:
            inner = self._inner_factory()
            log = ReplicationLog(inner, self._inner_factory)
            log.recover()
            return log
        log = ReplicationLog()
        with self._lock:
            log._seq = self._acked_seq
            log._acked_seq = self._acked_seq
            log._base_seq = self._acked_seq
        return log


class LogTruncated(RuntimeError):
    """The requested log tail has been pruned; bootstrap instead."""


def restore_snapshot(app, snapshot: dict) -> None:
    """Load a :func:`capture_state` snapshot into a structurally built,
    empty app — the bootstrap path for a brand-new (or fallen-behind)
    follower.  Mirrors the snapshot phase of
    :func:`repro.persistence.recover_app`: records with exact metadata
    sidecars and versions, allocator state verbatim, the audit trail,
    and the clock fast-forwarded past every recovered tick."""
    max_tick = snapshot.get("tick", 0)
    for name, state in snapshot.get("entities", {}).items():
        entity = app.store.entity(name)
        for record_id, data, meta_state, version in state["records"]:
            entity.restore_record(
                record_id, data,
                metadata_state=meta_state, version=version, reserve=None,
            )
        entity.restore_allocator(state["allocator"])
    for tick, kind, user, entity_name, record_id, detail in (
        snapshot.get("audit", ())
    ):
        app.audit.restore_event(
            tick, kind, user, entity_name, record_id, detail
        )
        max_tick = max(max_tick, tick)
    app.clock.advance_to(max_tick)


class ReplicaSet:
    """One shard's followers, caught up by pulling the primary's log.

    Determinism contract: nothing here runs on its own thread.
    ``catch_up`` is invoked by the serving path (follower reads, score-
    cards, promotion), applies acked ops in sequence order under the
    set's lock, and prunes the ship buffer behind the slowest follower.
    """

    def __init__(
        self,
        make_follower: Callable[[], object],
        log: ReplicationLog,
        count: int = 1,
    ):
        if count < 1:
            raise ValueError("a replica set needs at least one follower")
        self._make_follower = make_follower
        self._lock = threading.RLock()
        self.log = log
        self.followers = [make_follower() for _ in range(count)]
        self._applied = [0] * count

    # -- catch-up ----------------------------------------------------------

    def catch_up(self, now: Optional[int] = None) -> None:
        """Apply every acked op each follower has not seen yet.

        ``now`` (the primary's current clock tick) additionally fast-
        forwards each follower's clock, so Currentness measured on a
        fully caught-up follower matches the primary to float tolerance.
        A pruned tail (follower fell behind the ship buffer) falls back
        to a full snapshot bootstrap off the lead follower's state, with
        a bounded retry (``CATCHUP_ATTEMPTS``) so a prune racing the
        bootstrap cannot escape as a second :class:`LogTruncated`.

        Each follower applies the shipped op dicts in place through
        :func:`repro.persistence.apply_ops` — contiguous record
        admissions land batched via ``restore_records`` under one lock
        trip, every other op replays exactly as crash recovery does.
        The stores copy each row dict on admission, so followers fed
        the same tail never alias each other or the primary.
        """
        with self._lock:
            for index in range(len(self.followers)):
                tail = self._ship_tail(index)
                # the bootstrap may have replaced the follower object —
                # re-read it so the tail lands on the live one
                follower = self.followers[index]
                if tail:
                    ops = [op for _, op in tail]
                    apply_ops(follower, ops)
                    # sequential per-op advance_to is monotone, so one
                    # advance to the run's maximum tick is equivalent
                    follower.clock.advance_to(
                        max(op_tick(op) for op in ops)
                    )
                    self._applied[index] = tail[-1][0]
                if now is not None:
                    follower.clock.advance_to(now)
            self.log.prune_to(min(self._applied))

    def _ship_tail(self, index: int) -> list[tuple[int, dict]]:
        """Pull follower ``index``'s missing tail, bootstrapping over a
        pruned log — retried up to ``CATCHUP_ATTEMPTS`` times because an
        external ``prune_to`` can advance the base again between the
        bootstrap and the re-ship."""
        truncated: Optional[LogTruncated] = None
        for _ in range(CATCHUP_ATTEMPTS):
            try:
                return self.log.ship(self._applied[index])
            except LogTruncated as exc:
                truncated = exc
                self._bootstrap(index)
        raise LogTruncated(
            f"follower {index} could not outrun pruning after "
            f"{CATCHUP_ATTEMPTS} bootstrap attempts"
        ) from truncated

    def _bootstrap(self, index: int) -> None:
        """Rebuild follower ``index`` from scratch at the log's base."""
        fresh = self._make_follower()
        base = self.log.base_seq
        lead = max(
            (i for i in range(len(self.followers)) if i != index),
            key=lambda i: self._applied[i],
            default=None,
        )
        if lead is not None and self._applied[lead] >= base:
            restore_snapshot(fresh, capture_state(self.followers[lead]))
            self._applied[index] = self._applied[lead]
        else:
            self._applied[index] = base
        self.followers[index] = fresh

    def seed_from(self, app) -> None:
        """Bootstrap every follower from a primary snapshot (used when a
        replica set is created for a shard that already holds state —
        recovery from disk, or a freshly promoted primary)."""
        with self._lock:
            snapshot = capture_state(app)
            base = self.log.acked_seq
            for index in range(len(self.followers)):
                fresh = self._make_follower()
                if snapshot.get("records_total") or snapshot.get("audit"):
                    restore_snapshot(fresh, snapshot)
                self.followers[index] = fresh
                self._applied[index] = base
            self.log.prune(base)

    # -- reads -------------------------------------------------------------

    def lag(self, index: int = 0) -> int:
        """Acked ops follower ``index`` has not applied yet."""
        with self._lock:
            return max(0, self.log.acked_seq - self._applied[index])

    def follower(self, index: int = 0):
        with self._lock:
            return self.followers[index]

    def __len__(self) -> int:
        return len(self.followers)

    # -- failover ----------------------------------------------------------

    def promote(self) -> tuple[object, int]:
        """Detach and return ``(most caught-up follower, its index)``.

        The caller must have caught the set up against the acked
        watermark first (:meth:`catch_up`); promotion then just picks
        the lead follower and replaces it with a fresh one seeded from
        the promoted state, so the set keeps its size.
        """
        with self._lock:
            lead = max(
                range(len(self.followers)), key=lambda i: self._applied[i]
            )
            promoted = self.followers[lead]
            fresh = self._make_follower()
            snapshot = capture_state(promoted)
            if snapshot.get("records_total") or snapshot.get("audit"):
                restore_snapshot(fresh, snapshot)
            self.followers[lead] = fresh
            return promoted, lead

    def rebind(self, log: ReplicationLog) -> None:
        """Point the set at a new primary log (post-failover/restart).
        Followers keep their state; applied watermarks reset to the new
        log's base so the next catch-up ships only genuinely new ops."""
        with self._lock:
            self.log = log
            base = log.base_seq
            for index in range(len(self.followers)):
                self._applied[index] = base
