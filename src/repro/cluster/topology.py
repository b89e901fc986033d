"""Elastic topology: the replicated ring gateway and its chaos harness.

:class:`RingGateway` upgrades the fixed-N :class:`ShardedGateway` along
three axes at once, each riding the machinery an earlier layer already
proved out:

* **Placement** moves from ``fnv1a mod N`` to the consistent-hash ring
  (:class:`~repro.cluster.ring.RingRouter`), so the fleet can grow and
  shrink while roughly ``1/N`` of the keys move instead of ``(N-1)/N``.
* **Replication** gives every shard a set of followers fed by the
  primary's op log (:class:`~repro.cluster.replication.ReplicaSet` over
  the PR-6 WAL stream).  Reads are served from followers as **203
  Non-Authoritative** responses carrying the observed lag and the
  configured staleness bound — the same explicit-degradation idiom the
  resilience layer already uses, so stale data is never silent.  A read
  never serves lag beyond the bound: past it the follower is forcibly
  caught up first.
* **Elasticity** adds live ``split_shard`` / ``merge_shard``: records
  stream donor→recipient in WAL ``adopt``/``retire`` ops while the
  gateway keeps serving, with per-record routing overrides pinning each
  record to whichever shard actually holds it mid-move.

Failover (the new ``FAILOVER`` fault) promotes the most caught-up
follower under the dead primary's shard lock: the follower drains every
*acked* op, takes over the durable log via
:meth:`~repro.cluster.replication.ReplicationLog.successor`, and serves
— no acknowledged write is lost, by construction (acked ⇒ synced ⇒
shipped).  Without replication the fault degrades to the kill-restart
semantics, which is the negative control the chaos battery checks.

:func:`run_topology_chaos` is the seeded harness: one planned workload
executed in segments with a live split at one third and a live merge at
two thirds, under the full fault plan (crashes, kills, replica lag,
failovers).  With ``threads=1`` the whole run — report, applied faults,
final cluster state checksum — is a pure function of the seed, and a
faultless topology run is byte-for-byte equal (report and checksum) to
its fixed-topology twin: clients cannot tell a reshard happened.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.errors import AuthorizationError
from repro.dq.metadata import Clock
from repro.persistence import op_tick
from repro.runtime import audit as audit_events
from repro.runtime.http import (
    forbidden,
    not_found,
    ok,
    replica_read,
    unavailable,
)

from .gateway import ShardedGateway
from .replication import ReplicaSet, ReplicationLog
from .resilience import CircuitBreaker, FaultPlan, ShardUnavailable
from .ring import DEFAULT_VNODES, HashRing, RingRouter
from .sharding import fnv1a

#: Default follower-read staleness bound (acked-but-unapplied ops).
DEFAULT_STALENESS_BOUND = 16


class RingGateway(ShardedGateway):
    """A :class:`ShardedGateway` with ring placement, follower reads and
    live split/merge.

    ``replicas`` followers per shard serve reads (0 disables replication
    entirely — ring routing only); ``staleness_bound`` caps the
    acked-ops lag a follower read may serve.  Build through
    :meth:`from_design`, which wraps every shard's persistence in a
    :class:`ReplicationLog` so the op stream exists even on otherwise
    memory-backed fleets.
    """

    def __init__(
        self,
        shards,
        replicas: int = 1,
        staleness_bound: int = DEFAULT_STALENESS_BOUND,
        vnodes: int = DEFAULT_VNODES,
        **gateway_options,
    ):
        super().__init__(shards, **gateway_options)
        if staleness_bound < 0:
            raise ValueError("staleness_bound must be >= 0")
        self.router = RingRouter(len(self.shards), vnodes=vnodes)
        self.replicas = replicas
        self.staleness_bound = staleness_bound
        self.replica_sets: list[Optional[ReplicaSet]] = (
            [None] * len(self.shards)
        )
        self._follower_factory = None
        self._topology_lock = threading.RLock()
        self._lag_lock = threading.Lock()
        self._lag_inhibit = [False] * len(self.shards)
        # deterministic counters the chaos report renders
        self.splits = 0
        self.merges = 0
        self.migrated = 0
        self.failovers = 0
        self.replica_reads = 0
        self.stale_serves = 0
        self.max_served_lag = 0

    # -- assembly ---------------------------------------------------------

    @classmethod
    def from_design(
        cls,
        design_model,
        shard_count: int = 4,
        users: Sequence[tuple] = (),
        persistence=None,
        replicas: int = 1,
        staleness_bound: int = DEFAULT_STALENESS_BOUND,
        vnodes: int = DEFAULT_VNODES,
        **gateway_options,
    ) -> "RingGateway":
        """Build a replicated ring fleet from a design model.

        ``persistence`` is the same per-shard durable-backend factory the
        base gateway takes; every shard's backend (or, without one, a
        pure in-memory log) is wrapped in a :class:`ReplicationLog`, so
        followers always have an op stream to pull.
        """
        from repro.runtime.dqengine import build_app
        from repro.runtime.vpipeline import PlanCache

        def wrapped(index: int) -> ReplicationLog:
            if persistence is None:
                return ReplicationLog()
            return ReplicationLog(
                persistence(index), lambda index=index: persistence(index)
            )

        gateway = super().from_design(
            design_model,
            shard_count=shard_count,
            users=users,
            baseline=False,
            persistence=wrapped,
            replicas=replicas,
            staleness_bound=staleness_bound,
            vnodes=vnodes,
            **gateway_options,
        )
        if replicas > 0:
            # followers are structurally identical apps with no durable
            # backend of their own — they replay the primary's log, so
            # confidentiality buckets, indexes and telemetry are rebuilt
            # by the same restore paths crash recovery uses
            follower_cache = PlanCache()

            def make_follower():
                app = build_app(
                    design_model, clock=Clock(), plan_cache=follower_cache
                )
                for name, level, roles in users:
                    app.add_user(name, level, roles)
                return app

            gateway._follower_factory = make_follower
            for index, shard in enumerate(gateway.shards):
                replica_set = ReplicaSet(
                    make_follower, shard.persistence, count=replicas
                )
                # covers the recovered-from-disk case: followers start
                # from the primary's snapshot at the acked watermark
                replica_set.seed_from(shard)
                gateway.replica_sets[index] = replica_set
        return gateway

    @property
    def _replicated(self) -> bool:
        return self._follower_factory is not None

    def _make_breaker(self, shard_index: int) -> CircuitBreaker:
        clock = (
            self.fault_injector.clock
            if self.fault_injector is not None else None
        )
        return CircuitBreaker(
            failure_threshold=self.resilience.breaker_failure_threshold,
            cooldown=self.resilience.breaker_cooldown,
            clock=clock,
            on_transition=(
                lambda origin, to, shard=shard_index:
                self.metrics.observe_breaker(shard, origin, to)
            ),
        )

    # -- follower reads ---------------------------------------------------

    def _refresh_followers(self, shard_index: int, primary) -> int:
        """Catch the shard's followers up (honoring one pending injected
        lag window) and return the lag a read may serve.

        The staleness bound is enforced here by construction: a lag
        window only survives when the follower is within the bound —
        past it the catch-up happens anyway, so no replica read can ever
        serve more than ``staleness_bound`` acked-but-unapplied ops.
        """
        replica_set = self.replica_sets[shard_index]
        with self._lag_lock:
            inhibited = self._lag_inhibit[shard_index]
            self._lag_inhibit[shard_index] = False
        if inhibited:
            lag = replica_set.lag()
            if lag <= self.staleness_bound:
                with self._lag_lock:
                    self.replica_reads += 1
                    if lag:
                        self.stale_serves += 1
                        if lag > self.max_served_lag:
                            self.max_served_lag = lag
                return lag
        replica_set.catch_up(now=primary.clock.peek())
        with self._lag_lock:
            self.replica_reads += 1
        return replica_set.lag()

    def _on_replica_lag_fault(self, shard_index: int) -> None:
        """Arm one skipped catch-up: the next follower read on this
        shard serves whatever the follower already has (within the
        staleness bound) instead of pulling the log first."""
        if (
            shard_index < len(self.replica_sets)
            and self.replica_sets[shard_index] is not None
        ):
            with self._lag_lock:
                self._lag_inhibit[shard_index] = True

    def _replica_view(self, shard_index, primary, entity, record_id, user):
        """One follower-served record read, audited on the primary."""
        replica_set = self.replica_sets[shard_index]
        lag = self._refresh_followers(shard_index, primary)
        follower = replica_set.follower()
        try:
            stored = follower.store.entity(entity).get(record_id)
        except KeyError:
            # behind the primary (or truly absent): answer authoritatively
            try:
                stored = primary.read_record(entity, record_id, user)
            except AuthorizationError as exc:
                return forbidden(str(exc))
            except KeyError:
                return not_found(f"no record {record_id}")
            return ok({
                "id": stored.record_id,
                "version": stored.version,
                **stored.data,
            })
        account = follower.users.get(user)
        if not stored.metadata.accessible_by(user, account.level):
            primary.audit.record(
                audit_events.REJECT_AUTH, user, entity, record_id,
                detail="read denied by confidentiality policy",
            )
            return forbidden(f"user {user!r} may not read {entity}#{record_id}")
        primary.audit.record(audit_events.READ, user, entity, record_id)
        return replica_read(
            {"id": stored.record_id, "version": stored.version, **stored.data},
            lag=lag,
            bound=self.staleness_bound,
        )

    def view(self, entity: str, record_id: int, user: str):
        if not self._replicated:
            return super().view(entity, record_id, user)
        if self._closed:
            self.metrics.observe_unavailable()
            return unavailable("gateway is closed")
        shard_index = self.router.shard_for(entity, record_id)
        base_key = self.cache.view_key(
            entity, record_id, user, self._clearance(user)
        )

        def work():
            target = shard_index
            for _attempt in range(2):
                try:
                    response = self._call_shard(
                        "view", target,
                        lambda primary, target=target: self._replica_view(
                            target, primary, entity, record_id, user
                        ),
                    )
                except ShardUnavailable as exc:
                    return self._degraded_read("view", entity, base_key, exc)
                if response.status != 404:
                    return response
                # a migration may have moved the record between routing
                # and serving; re-resolve once and retry
                current = self.router.shard_for(entity, record_id)
                if current == target:
                    return response
                target = current
            return response

        return self._dispatch("view", (shard_index,), work)

    def _replica_list(self, shard_index, primary, entity, user):
        """One shard's follower-served listing chunk, audited on the
        primary (same READ event the authoritative path records)."""
        replica_set = self.replica_sets[shard_index]
        lag = self._refresh_followers(shard_index, primary)
        follower = replica_set.follower()
        account = follower.users.get(user)
        visible = follower.store.readable_by(entity, user, account.level)
        primary.audit.record(
            audit_events.READ, user, entity,
            detail=f"{len(visible)} record(s) visible",
        )
        rows = [
            {"id": s.record_id, "version": s.version, **s.data}
            for s in visible
        ]
        return rows, lag

    def list(self, entity: str, user: str):
        if not self._replicated:
            return super().list(entity, user)
        if self._closed:
            self.metrics.observe_unavailable()
            return unavailable("gateway is closed")
        base_key = self.cache.list_key(entity, user, self._clearance(user))

        def work():
            body: list[dict] = []
            max_lag = 0
            try:
                for shard_index in self.router.all_shards():
                    rows, lag = self._call_shard(
                        "list", shard_index,
                        lambda primary, shard_index=shard_index:
                        self._replica_list(shard_index, primary, entity, user),
                    )
                    body.extend(rows)
                    max_lag = max(max_lag, lag)
            except ShardUnavailable as exc:
                return self._degraded_read("list", entity, base_key, exc)
            body.sort(key=lambda row: row["id"])
            # a record mid-migration can briefly exist on two shards
            # (adopted by the recipient, retire not yet replayed on a
            # lagging donor follower) — keep the newest version per id
            deduped: list[dict] = []
            for row in body:
                if deduped and deduped[-1]["id"] == row["id"]:
                    if row["version"] > deduped[-1]["version"]:
                        deduped[-1] = row
                else:
                    deduped.append(row)
            self._remember_good(
                base_key, deduped, self._entity_version(entity)
            )
            return replica_read(
                deduped, lag=max_lag, bound=self.staleness_bound
            )

        return self._dispatch("list", tuple(self.router.all_shards()), work)

    def _scorecard_apps(self):
        """Live scorecards are served from the followers: each one is
        caught up (honoring a pending lag window) and read in place of
        its primary — the cheap path for the expensive question."""
        if not self._replicated:
            return self.shards
        apps = []
        for index, shard in enumerate(self.shards):
            replica_set = (
                self.replica_sets[index]
                if index < len(self.replica_sets) else None
            )
            if replica_set is None:
                apps.append(shard)
            else:
                self._refresh_followers(index, shard)
                apps.append(replica_set.follower())
        return apps

    # -- failover ----------------------------------------------------------

    def _on_failover_fault(self, shard_index: int) -> None:
        """The primary dies mid-fleet: promote the most caught-up
        follower under the shard lock.

        The dead primary's staged-but-unsynced ops are dropped (exactly
        what a crash loses); everything acked was shipped, so the
        follower drains the log tail and takes over the primary's
        durable location with no acknowledged write lost.  Without a
        replica set the fault degrades to the base kill-restart."""
        replica_set = (
            self.replica_sets[shard_index]
            if shard_index < len(self.replica_sets) else None
        )
        if replica_set is None:
            return super()._on_failover_fault(shard_index)
        with self._shard_locks[shard_index]:
            old = self.shards[shard_index]
            log: ReplicationLog = old.persistence
            log.kill()
            replica_set.catch_up()
            promoted, _lead = replica_set.promote()
            successor = log.successor()
            promoted.attach_persistence(successor)
            self.shards[shard_index] = promoted
            replica_set.rebind(successor)
            self.shard_restarts[shard_index] += 1
            with self._lag_lock:
                self.failovers += 1

    def fail_over(self, shard_index: int) -> None:
        """Deliberately lose one primary (failover drills)."""
        self._on_failover_fault(shard_index)

    def _kill_and_restart(self, shard_index: int) -> None:
        super()._kill_and_restart(shard_index)
        replica_set = (
            self.replica_sets[shard_index]
            if shard_index < len(self.replica_sets) else None
        )
        if replica_set is not None:
            with self._shard_locks[shard_index]:
                restarted = self.shards[shard_index]
                replica_set.rebind(restarted.persistence)
                replica_set.seed_from(restarted)

    # -- live topology changes --------------------------------------------

    def split_shard(self) -> int:
        """Join a fresh shard and stream its ring share to it, live.

        Every record the grown ring assigns to the new node is first
        pinned (via a routing override) to the shard that holds it, so
        lookups keep resolving correctly from the instant the ring
        changes until each record finishes streaming."""
        if self._shard_factory is None:
            raise RuntimeError(
                "split_shard needs a shard factory (build via from_design)"
            )
        with self._topology_lock:
            new_index = len(self.shards)
            new_name = RingRouter.node_name(new_index)
            live = self.router.all_shards()
            probe = HashRing(
                [RingRouter.node_name(i) for i in live] + [new_name],
                vnodes=self.router.vnodes,
            )
            for donor in live:
                app = self.shards[donor]
                with self._shard_locks[donor]:
                    for entity_name in app.store.entity_names:
                        for stored in app.store.entity(entity_name).all():
                            key = f"{entity_name}#{stored.record_id}"
                            if probe.owner_of(key) == new_name:
                                self.router.route_override(
                                    entity_name, stored.record_id, donor
                                )
            app = self._shard_factory(new_index)
            self.shards.append(app)
            self._shard_locks.append(threading.RLock())
            self.shard_restarts.append(0)
            if self._breakers is not None:
                self._breakers.append(self._make_breaker(new_index))
            self.metrics.shard_count += 1
            if self._replicated:
                replica_set = ReplicaSet(
                    self._follower_factory, app.persistence,
                    count=self.replicas,
                )
                replica_set.seed_from(app)
                self.replica_sets.append(replica_set)
            else:
                self.replica_sets.append(None)
            with self._lag_lock:
                self._lag_inhibit.append(False)
            admitted = self.router.add_shard()
            assert admitted == new_index
            self._migrate_to_ring()
            self.splits += 1
            return new_index

    def merge_shard(self, victim: int) -> None:
        """Retire one shard, streaming its records to the survivors.

        The victim's index stays a valid (empty) slot — audit history
        and metrics keep their shard identities — but the ring stops
        assigning it keys and ``all_shards`` stops listing it."""
        with self._topology_lock:
            live = self.router.all_shards()
            if victim not in live:
                raise ValueError(f"shard {victim} is not live")
            if len(live) < 2:
                raise ValueError("cannot merge the last live shard")
            app = self.shards[victim]
            with self._shard_locks[victim]:
                for entity_name in app.store.entity_names:
                    for stored in app.store.entity(entity_name).all():
                        self.router.route_override(
                            entity_name, stored.record_id, victim
                        )
            self.router.remove_shard(victim)
            self._migrate_to_ring()
            self.merges += 1

    def _migrate_to_ring(self) -> None:
        """Stream every record to its ring owner until placement settles.

        Sweeps repeatedly because a write can land on a donor between
        the planning scan and the ring change; the loop terminates
        because post-change allocations already route to ring owners."""
        while True:
            moves: list[tuple[str, int, int, int]] = []
            for index in range(len(self.shards)):
                app = self.shards[index]
                with self._shard_locks[index]:
                    for entity_name in app.store.entity_names:
                        for stored in app.store.entity(entity_name).all():
                            owner = self.router.ring_owner(
                                entity_name, stored.record_id
                            )
                            if owner != index:
                                moves.append(
                                    (entity_name, stored.record_id,
                                     index, owner)
                                )
            if not moves:
                return
            for entity_name, record_id, donor, recipient in moves:
                self._stream_record(entity_name, record_id, donor, recipient)

    def _stream_record(
        self, entity_name: str, record_id: int, donor: int, recipient: int
    ) -> None:
        """Move one record donor→recipient under both shard locks.

        The handoff is durable on both sides: the recipient logs an
        ``adopt`` op (data + metadata sidecar + version, id pinned), the
        donor logs a ``retire`` — both group-committed — and each side's
        followers replay the same ops.  The routing override is cleared
        between the two, so the record is always served from a shard
        that holds it: before the clear lookups resolve to the donor,
        after it to the recipient.  Audit history stays on the donor."""
        first, second = sorted((donor, recipient))
        with self._shard_locks[first], self._shard_locks[second]:
            donor_app = self.shards[donor]
            recipient_app = self.shards[recipient]
            try:
                stored = donor_app.store.entity(entity_name).get(record_id)
            except KeyError:  # raced away (already moved): nothing to do
                self.router.clear_override(entity_name, record_id)
                return
            meta_state = stored.metadata.to_state()
            adopt = {
                "op": "adopt",
                "entity": entity_name,
                "id": record_id,
                "data": dict(stored.data),
                "meta": meta_state,
                "version": stored.version,
            }
            recipient_app.store.entity(entity_name).restore_record(
                record_id,
                dict(stored.data),
                metadata_state=meta_state,
                version=stored.version,
                reserve=True,
            )
            # the adopted record's stamps may postdate the recipient's
            # clock; currentness must never see a negative age
            recipient_app.clock.advance_to(op_tick(adopt))
            recipient_app.persistence.append(adopt)
            recipient_app.commit()
            self.router.clear_override(entity_name, record_id)
            donor_app.store.entity(entity_name).restore_delete(record_id)
            donor_app.persistence.append(
                {"op": "retire", "entity": entity_name, "id": record_id}
            )
            donor_app.commit()
            with self._lag_lock:
                self.migrated += 1

    # -- introspection ----------------------------------------------------

    def describe(self) -> str:
        lines = [super().describe()]
        live = self.router.all_shards()
        lines.append(
            f"  ring: {len(live)} live shard(s) x {self.router.vnodes} "
            f"vnode(s), {self.replicas} follower(s)/shard, "
            f"staleness bound {self.staleness_bound}"
        )
        return "\n".join(lines)


# -- cluster-state oracle ----------------------------------------------------


def cluster_state(gateway: ShardedGateway) -> list[tuple]:
    """Every record in the fleet as placement-independent sorted rows.

    ``(entity, id, version, sorted field items)`` across all shards —
    two fleets holding the same data produce equal states no matter how
    the ring scattered the records, so a resharded run can be compared
    row-for-row against its fixed-topology twin."""
    rows = []
    for shard in gateway.shards:
        for entity_name in shard.store.entity_names:
            for stored in shard.store.entity(entity_name).all():
                rows.append((
                    entity_name,
                    stored.record_id,
                    stored.version,
                    tuple(sorted(
                        (key, repr(value))
                        for key, value in stored.data.items()
                    )),
                ))
    rows.sort()
    return rows


def state_checksum(rows: list[tuple]) -> int:
    """A 64-bit FNV-1a digest of a :func:`cluster_state` dump."""
    return fnv1a(repr(rows))


# -- the topology-chaos harness ----------------------------------------------


@dataclass
class TopologyChaosResult:
    """Everything one seeded topology-chaos run produced."""

    seed: int
    plan: FaultPlan
    report: object  # LoadReport
    violations: list
    applied: Counter
    preloaded: frozenset
    backend: str
    replicas: int
    staleness_bound: int
    initial_shards: int
    final_shards: int
    splits: int
    merges: int
    migrated: int
    failovers: int
    restarts: int
    max_served_lag: int
    replica_reads: int
    records: int
    checksum: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """Counters only — a same-seed single-threaded run re-renders
        byte-for-byte (the chaos determinism contract)."""
        sections = [
            f"topology chaos run — seed {self.seed}, "
            f"{len(self.preloaded)} record(s) preloaded",
            self.plan.render(),
            self.report.render(),
        ]
        if self.applied:
            sections.append(
                "faults applied: " + ", ".join(
                    f"{kind}×{count}"
                    for kind, count in sorted(self.applied.items())
                )
            )
        sections.append(
            f"topology: {self.initial_shards} -> {self.final_shards} live "
            f"shard(s), {self.splits} split(s), {self.merges} merge(s), "
            f"{self.migrated} record(s) migrated"
        )
        sections.append(
            f"replication: {self.replicas} follower(s)/shard on "
            f"{self.backend}, staleness bound {self.staleness_bound}, "
            f"max served lag {self.max_served_lag}, "
            f"{self.failovers} failover(s), {self.restarts} restart(s)"
        )
        sections.append(
            f"cluster state: {self.records} record(s), "
            f"checksum {self.checksum:016x}"
        )
        if self.violations:
            sections.append(
                f"guarantee report: {len(self.violations)} VIOLATION(S)"
            )
            sections.extend(f"  !! {v}" for v in self.violations)
        else:
            sections.append(
                "guarantee report: zero violations (no lost acknowledged "
                "writes, no double-applied retries, no confidentiality "
                "leaks, no untagged stale reads)"
            )
        return "\n".join(sections)


def run_topology_chaos(
    seed: int = 0,
    *,
    shard_count: int = 3,
    count: int = 300,
    preload: int = 24,
    threads: int = 1,
    replicas: int = 1,
    staleness_bound: int = DEFAULT_STALENESS_BOUND,
    vnodes: int = 64,
    mix: Optional[dict] = None,
    design_model=None,
    users: Optional[Sequence[tuple]] = None,
    config=None,
    plan: Optional[FaultPlan] = None,
    persistence: Optional[str] = None,
    data_dir=None,
    kills: int = 0,
    replica_lags: int = 2,
    failovers: int = 1,
    topology: bool = True,
) -> TopologyChaosResult:
    """One seeded chaos run over a replicated ring fleet with a live
    split at one third of the workload and a live merge (of shard 0) at
    two thirds.

    Mirrors :func:`repro.cluster.resilience.run_chaos` — preload clean,
    inject the seeded plan over the mixed workload, verify every DQ
    guarantee — plus the topology storm.  ``topology=False`` runs the
    identical plan against a fixed ring: the faultless oracle twin, whose
    report and state checksum a faultless topology run must reproduce
    exactly.  With ``threads=1`` the result is a pure function of the
    arguments.
    """
    import tempfile

    from repro.casestudy import easychair
    from repro.persistence import persistence_factory

    from .loadgen import (
        CHAOS_MIX,
        LoadGenerator,
        LoadReport,
        verify_guarantees,
    )
    from .resilience import ResilienceConfig

    if design_model is None:
        design_model = easychair.build_design()
    if users is None:
        users = easychair.USERS
    if config is None:
        config = ResilienceConfig()
    if plan is None:
        horizon = preload + count * 2
        plan = FaultPlan.seeded(
            seed,
            shard_count=shard_count,
            horizon=horizon,
            start=preload,
            operation_timeout=config.operation_timeout,
            kills=kills,
            replica_lags=replica_lags,
            failovers=failovers,
        )
    factory = None
    tempdir = None
    if persistence is not None:
        if data_dir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-topology-")
            data_dir = tempdir.name
        factory = persistence_factory(data_dir, kind=persistence)
    generator = LoadGenerator(seed=seed, mix=dict(mix or CHAOS_MIX))
    gateway = RingGateway.from_design(
        design_model,
        shard_count=shard_count,
        users=users,
        fault_plan=plan,
        resilience=config,
        max_queue_depth=max(512, count),
        persistence=factory,
        replicas=replicas,
        staleness_bound=staleness_bound,
        vnodes=vnodes,
    )
    try:
        spec = generator.spec
        import random as _random

        rng = _random.Random(seed)
        preloaded = set()
        for _ in range(preload):
            response = gateway.submit(
                spec.form, spec.clean_payload(rng), spec.cleared_users[0]
            )
            if response.status != 201:  # pragma: no cover - preload is clean
                raise RuntimeError(f"preload write failed: {response.status}")
            preloaded.add(response.body["id"])
        operations = generator.plan(count)
        report = LoadReport(spec=spec)
        if topology and count >= 3:
            first_cut = count // 3
            second_cut = (2 * count) // 3
            generator.run(
                gateway, operations=operations[:first_cut],
                threads=threads, report=report,
            )
            gateway.split_shard()
            generator.run(
                gateway, operations=operations[first_cut:second_cut],
                threads=threads, report=report,
            )
            gateway.merge_shard(0)
            generator.run(
                gateway, operations=operations[second_cut:],
                threads=threads, report=report,
            )
        else:
            generator.run(
                gateway, operations=operations,
                threads=threads, report=report,
            )
        violations = verify_guarantees(
            gateway, report, ignore_ids=frozenset(preloaded)
        )
        if gateway.router.overrides_active():
            violations.append(
                f"{gateway.router.overrides_active()} unresolved migration "
                f"override(s) after the run"
            )
        applied = Counter(
            gateway.fault_injector.applied
        ) if gateway.fault_injector else Counter()
        rows = cluster_state(gateway)
        result = TopologyChaosResult(
            seed=seed,
            plan=plan,
            report=report,
            violations=violations,
            applied=applied,
            preloaded=frozenset(preloaded),
            backend=gateway.shards[0].persistence.name,
            replicas=replicas,
            staleness_bound=staleness_bound,
            initial_shards=shard_count,
            final_shards=len(gateway.router.all_shards()),
            splits=gateway.splits,
            merges=gateway.merges,
            migrated=gateway.migrated,
            failovers=gateway.failovers,
            restarts=sum(gateway.shard_restarts),
            max_served_lag=gateway.max_served_lag,
            replica_reads=gateway.replica_reads,
            records=len(rows),
            checksum=state_checksum(rows),
        )
    finally:
        gateway.close()
        if tempdir is not None:
            tempdir.cleanup()
    return result
