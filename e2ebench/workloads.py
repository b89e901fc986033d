"""The three workloads: review-serve, browse-hot and ingest-durable.

Each one builds its fleet through the public API of ``repro.cluster``
with the program's own defaults, drives it from one client thread with
operations planned by ``repro.cluster.loadgen`` from the seed, and
returns a :class:`Outcome`: end-to-end metrics, deterministic counts,
correctness gates and (when traced) the tracer.

``seconds`` sets the *amount of work* (a nominal rate times seconds), not
a wall-clock deadline, so every count of a run is a pure function of
``(workload, seed, seconds)``.  On the reference machine (2 cores,
Python 3.11) each workload's timed part takes about ``seconds``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter, sleep
from types import SimpleNamespace
from typing import Callable, Optional

from harness import (
    Gate, Metrics, OpLog, peak_rss_mb, process_bytes_written,
)
from tracer import Tracer, instrument_gateway

#: Setup (gateway build + preload) is repeated this often per run; the
#: median is ``setup_s`` and the last build serves the workload.
SETUP_REPEATS = 5

# -- review-serve ----------------------------------------------------------

#: Write-heavy PC-member traffic: no lists, so every op pays dispatch.
REVIEW_MIX = {
    "write": 30,
    "write-defective": 8,
    "write-unauthorized": 6,
    "update": 16,
    "update-stale": 6,
    "view": 26,
    "view-uncleared": 8,
}
#: Open-loop arrival rate (ops/s).  The mix's closed-loop capacity is
#: 5.6k ops/s, but a paced op wakes an idle dispatch-pool worker and costs
#: 300-450 us, so the paced capacity is about 3k ops/s; at 1200 ops/s a
#: host stealing ~30% of the CPU already tipped the queue into an
#: unbounded backlog (2 cores, Python 3.11).  500 keeps a ~6x margin.
REVIEW_RATE = 500
REVIEW_PRELOAD = 2048
#: The fixed latency limit behind ``slo_miss_frac``.
REVIEW_SLO_S = 0.002

# -- browse-hot ------------------------------------------------------------

#: Dashboard reads: Zipf-skewed views, rare lists, ~1% writes.
BROWSE_MIX = {"view": 989, "write": 10, "list": 1}
BROWSE_PRELOAD = 2048  # 8x the gateway's 256-entry read cache
BROWSE_ZIPF_S = 1.6
BROWSE_OPS_PER_S = 10000  # nominal closed-loop rate that sizes the run

# -- ingest-durable --------------------------------------------------------

INGEST_BULK_MIX = {"write": 9, "write-defective": 1}
INGEST_BULK_ROWS_PER_S = 400
INGEST_BULK_CALL = 512  # rows per submit_many call
INGEST_MIX = {"write": 70, "view": 25, "view-uncleared": 5}
INGEST_OPS_PER_S = 1600
INGEST_SCORECARD_EVERY = 800  # phase-2 ops between live scorecards
INGEST_RECOVERIES = 3

SHARDED_EXPECTED = {
    "write": {201},
    "write-defective": {422},
    "write-unauthorized": {403},
    "update": {200},
    "update-stale": {409},
    "view": {200},
    "view-uncleared": {403},
    "list": {200},
}
#: The replicated ring serves views from followers, tagged 203.
RING_EXPECTED = {**SHARDED_EXPECTED, "view": {203}, "scorecard": {200}}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


@dataclass
class Outcome:
    metrics: Metrics
    counts: dict
    gates: list
    attempted: int
    failed: int
    notes: list = field(default_factory=list)
    tracer: Optional[Tracer] = None

    @property
    def correct(self) -> bool:
        return bool(self.gates) and all(gate.ok for gate in self.gates)


def canonical_bytes(payload: dict) -> int:
    return len(json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8"))


def plan_digest(*plans) -> str:
    """A fingerprint of the generated inputs (same seed, same digest)."""
    digest = hashlib.sha256()
    for plan in plans:
        for op in plan:
            digest.update(repr((op.kind, op.user, op.data, op.choice))
                          .encode("utf-8"))
    return digest.hexdigest()[:16]


def timed_setups(build: Callable, close: Callable):
    """Run ``build`` :data:`SETUP_REPEATS` times; keep the last result."""
    times, built = [], None
    for _ in range(SETUP_REPEATS):
        if built is not None:
            close(built)
        start = perf_counter()
        built = build()
        times.append(perf_counter() - start)
    return built, times


class Client:
    """Issues planned operations against a gateway and keeps the
    :class:`~repro.cluster.LoadReport` that ``verify_guarantees`` reads."""

    def __init__(self, gateway, spec, report, ids, pick=None):
        self.gateway = gateway
        self.spec = spec
        self.report = report
        self.ids = ids
        self.versions = {record_id: 1 for record_id in ids}
        self.pick = pick or (lambda op: ids[op.choice % len(ids)])
        self.accepted_bytes = 0

    def execute(self, op):
        """Run one op; ``(status, finish_time)``, finish taken as soon as
        the gateway answers (bookkeeping is not part of the latency)."""
        gateway, spec, kind, user = self.gateway, self.spec, op.kind, op.user
        if kind.startswith("write"):
            response = gateway.submit(spec.form, op.data, user)
            done = perf_counter()
            self.report.observe_write(kind, user, response)
            if response.status == 201:
                record_id = response.body["id"]
                self.ids.append(record_id)
                self.versions[record_id] = 1
                self.accepted_bytes += canonical_bytes(op.data)
        elif kind.startswith("view"):
            response = gateway.view(spec.entity, self.pick(op), user)
            done = perf_counter()
            self.report.observe_read(kind, user, response)
        elif kind == "list":
            response = gateway.list(spec.entity, user)
            done = perf_counter()
            self.report.observe_read(kind, user, response)
        elif kind.startswith("update"):
            record_id = self.pick(op)
            expected = self.versions[record_id] if kind == "update" else -1
            response = gateway.modify(
                spec.form, record_id, op.data, user,
                expected_version=expected,
            )
            done = perf_counter()
            self.report.observe_update(kind, user, record_id, response)
            if response.status == 200:
                self.versions[record_id] += 1
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        return response.status, done


def preload(gateway, spec, seed: int, rows: int) -> list:
    """``rows`` clean reviews through ``submit_many``; their ids."""
    from repro.cluster import LoadGenerator

    plan = LoadGenerator(spec, seed, {"write": 1}).plan(rows)
    ids = []
    for start in range(0, rows, 1024):
        chunk = [op.data for op in plan[start:start + 1024]]
        for response in gateway.submit_many(spec.form, chunk, "pc_member_1"):
            if response.status != 201:
                raise RuntimeError(f"preload answered {response.status}")
            ids.append(response.body["id"])
    return ids


def build_sharded(spec, seed: int, rows: int):
    from repro.casestudy import easychair
    from repro.cluster import ShardedGateway

    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS
    )
    return gateway, preload(gateway, spec, seed, rows)


def guarantee_gate(gateway, report, preloaded) -> Gate:
    from repro.cluster import verify_guarantees

    gate = Gate("dq-guarantees")
    violations = verify_guarantees(
        gateway, report, ignore_ids=frozenset(preloaded)
    )
    # items checked: every observed op (leaks, tags) plus every accepted
    # write and applied update (audit and version accounting)
    gate.checked = (
        report.total + len(report.accepted_ids) + len(report.updates_applied)
    )
    gate.failures = violations
    return gate


def gateway_counts(gateway, since: Optional[dict] = None) -> dict:
    """Cache, audit and admission counters, less those in ``since``
    (taken after set-up, so only the workload's own work is counted)."""
    stats = gateway.cache.stats
    counts = {
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_evictions": stats.evictions,
        "cache_invalidations": stats.invalidations,
        "audit_events": sum(len(shard.audit) for shard in gateway.shards),
        "rejected_429": gateway.metrics.rejected_backpressure,
        "shed_503": sum(gateway.metrics.shed.values()),
        "plan_cache_hits": sum(shard.plan_cache.hits
                               for shard in gateway.shards[:1]),
        "plan_cache_misses": sum(shard.plan_cache.misses
                                 for shard in gateway.shards[:1]),
    }
    if since is not None:
        counts = {key: value - since[key] for key, value in counts.items()}
    return counts


def common_metrics(metrics: Metrics, log: OpLog, setup_times) -> None:
    metrics.put("setup_s", statistics.median(setup_times), "s",
                len(setup_times))
    metrics.put("error_frac", log.errors / log.attempted, "frac",
                log.attempted)


# -- review-serve ------------------------------------------------------------


def review_serve(seed: int, seconds: float, tracer=None) -> Outcome:
    from repro.cluster import LoadGenerator, LoadReport, easychair_spec

    spec = easychair_spec()
    (gateway, preloaded), setup_times = timed_setups(
        lambda: build_sharded(spec, seed + 1, REVIEW_PRELOAD),
        lambda built: built[0].close(),
    )
    count = max(1, int(REVIEW_RATE * seconds))
    plan = LoadGenerator(spec, seed, REVIEW_MIX).plan(count)
    report = LoadReport(spec)
    client = Client(gateway, spec, report, list(preloaded))
    log = OpLog(SHARDED_EXPECTED, slo_s=REVIEW_SLO_S)
    if tracer is not None:
        instrument_gateway(tracer, gateway)
    since = gateway_counts(gateway)
    interval = 1.0 / REVIEW_RATE
    origin = perf_counter() + 0.01
    last_done = origin
    for index, op in enumerate(plan):
        due = origin + index * interval
        ahead = due - perf_counter()
        if ahead > 0.002:
            sleep(ahead - 0.001)
        while perf_counter() < due:
            # wait with the GIL released (the dispatch pool needs it) but
            # without idling the CPU, whose wake-up would show as latency
            sleep(0)
        log.late.append(perf_counter() - due)
        status, last_done = client.execute(op)
        log.record(op.kind, status, last_done - due)
    elapsed = last_done - origin
    gates = [log.status_gate(), guarantee_gate(gateway, report, preloaded)]
    counts = gateway_counts(gateway, since)
    gateway.close()

    metrics = Metrics()
    common_metrics(metrics, log, setup_times)
    metrics.timing("write_p50_us", log.samples("write", 201), 0.5, "us")
    metrics.timing("write_p99_us", log.samples("write", 201), 0.99, "us")
    metrics.timing("update_p50_us", log.samples("update", 200), 0.5, "us")
    metrics.timing("view_p50_us", log.samples("view", 200, 203), 0.5, "us")
    metrics.timing("view_p99_us", log.samples("view", 200, 203), 0.99, "us")
    metrics.put("ops_per_s", log.attempted / elapsed, "1/s", log.attempted)
    metrics.put("slo_miss_frac", log.slo_misses / log.attempted, "frac",
                log.attempted)
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    metrics.timing("loadgen.late_us.p99", log.late, 0.99, "us")
    counts.update(inputs=plan_digest(plan), ops_attempted=log.attempted,
                  errors=log.errors)
    notes = [
        f"open loop at {REVIEW_RATE} ops/s for {count} ops, one client "
        f"thread; latency timed from each op's due time; SLO "
        f"{REVIEW_SLO_S * 1e3:g} ms",
    ]
    return Outcome(metrics, counts, gates, log.attempted, log.errors,
                   notes, tracer)


# -- browse-hot --------------------------------------------------------------


def zipf_picker(ids: list, seed: int, s: float):
    """Map an op's uniform ``choice`` to a Zipf(s)-ranked preload id."""
    order = list(ids)
    random.Random(seed).shuffle(order)
    cumulative, total = [], 0.0
    for rank in range(1, len(order) + 1):
        total += rank ** -s
        cumulative.append(total)

    def pick(op):
        point = (op.choice / (1 << 30)) * total
        return order[min(bisect.bisect_left(cumulative, point),
                         len(order) - 1)]

    return pick


def browse_hot(seed: int, seconds: float, tracer=None) -> Outcome:
    from repro.cluster import LoadGenerator, LoadReport, easychair_spec

    spec = easychair_spec()
    (gateway, preloaded), setup_times = timed_setups(
        lambda: build_sharded(spec, seed + 1, BROWSE_PRELOAD),
        lambda built: built[0].close(),
    )
    count = max(1, int(BROWSE_OPS_PER_S * seconds))
    plan = LoadGenerator(spec, seed, BROWSE_MIX).plan(count)
    report = LoadReport(spec)
    client = Client(gateway, spec, report, list(preloaded),
                    pick=zipf_picker(preloaded, seed + 2, BROWSE_ZIPF_S))
    log = OpLog(SHARDED_EXPECTED)
    if tracer is not None:
        instrument_gateway(tracer, gateway)
    since = gateway_counts(gateway)
    origin = perf_counter()
    for op in plan:
        start = perf_counter()
        status, done = client.execute(op)
        log.record(op.kind, status, done - start)
    elapsed = perf_counter() - origin
    gates = [log.status_gate(), guarantee_gate(gateway, report, preloaded)]
    counts = gateway_counts(gateway, since)
    gateway.close()

    metrics = Metrics()
    common_metrics(metrics, log, setup_times)
    metrics.timing("write_p50_us", log.samples("write", 201), 0.5, "us")
    metrics.timing("view_p50_us", log.samples("view", 200), 0.5, "us")
    metrics.timing("view_p99_us", log.samples("view", 200), 0.99, "us")
    metrics.timing("list_p50_us", log.samples("list", 200), 0.5, "us")
    metrics.timing("list_p99_us", log.samples("list", 200), 0.99, "us")
    metrics.put("ops_per_s", log.attempted / elapsed, "1/s", log.attempted)
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    lookups = counts["cache_hits"] + counts["cache_misses"]
    metrics.put("cache.hit_ratio", counts["cache_hits"] / lookups, "frac",
                lookups)
    counts.update(inputs=plan_digest(plan), ops_attempted=log.attempted,
                  errors=log.errors)
    notes = [
        f"closed loop, one client thread, {count} ops; views Zipf(s="
        f"{BROWSE_ZIPF_S}) over {BROWSE_PRELOAD} preloaded reviews",
    ]
    return Outcome(metrics, counts, gates, log.attempted, log.errors,
                   notes, tracer)


# -- ingest-durable ----------------------------------------------------------


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path) for name in names
    )


def build_ring(data_dir: str):
    """The replicated, file-backed ring fleet with the program defaults
    (``compact_every``, ``real_fsync``) — recovered from ``data_dir``."""
    from repro.casestudy import easychair
    from repro.cluster import RingGateway
    from repro.persistence import persistence_factory

    return RingGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS,
        persistence=persistence_factory(data_dir, "file"), replicas=1,
    )


def state_bytes(app) -> bytes:
    """An app's complete durable state, encoded: equal bytes are the
    program's own recovery and replication oracle."""
    from repro.persistence import capture_state, encode_payload

    return encode_payload(capture_state(app))


def wal_counts(gateway) -> dict:
    stats = [shard.persistence.inner.stats() for shard in gateway.shards]
    return {
        "wal_appends": sum(s["appended"] for s in stats),
        "wal_syncs": sum(s["syncs"] for s in stats),
        "wal_checkpoints": sum(s["checkpoints"] for s in stats),
        "min_shard_checkpoints": min(s["checkpoints"] for s in stats),
    }


def scorecard_gate_check(gate: Gate, gateway, entity: str, lines) -> None:
    from repro.dq.streaming import scores_close

    rescan = gateway.rescan_scorecard(entity)
    gate.check(len(lines) == len(rescan),
               f"{len(lines)} live line(s) vs {len(rescan)} rescanned")
    for live, oracle in zip(lines, rescan):
        gate.check(
            live.characteristic == oracle.characteristic
            and scores_close(live.score, oracle.score),
            f"{live.characteristic}: live {live.score!r} vs rescan "
            f"{oracle.characteristic} {oracle.score!r}",
        )


def ingest_durable(seed: int, seconds: float, tracer=None) -> Outcome:
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ingest-", dir=OUT_DIR)
    try:
        builds = iter(range(SETUP_REPEATS))
        gateway, setup_times = timed_setups(
            lambda: build_ring(os.path.join(scratch, f"fleet-{next(builds)}")),
            lambda built: built.close(),
        )
        data_dir = os.path.join(scratch, f"fleet-{SETUP_REPEATS - 1}")
        return _ingest_phases(gateway, data_dir, seed, seconds, tracer,
                              setup_times)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _ingest_phases(gateway, data_dir, seed, seconds, tracer, setup_times):
    from repro.cluster import LoadGenerator, LoadReport, easychair_spec

    spec = easychair_spec()
    bulk_rows = max(1, int(INGEST_BULK_ROWS_PER_S * seconds))
    bulk = LoadGenerator(spec, seed + 1, INGEST_BULK_MIX).plan(bulk_rows)
    count = max(1, int(INGEST_OPS_PER_S * seconds))
    plan = LoadGenerator(spec, seed, INGEST_MIX).plan(count)
    report = LoadReport(spec)
    log = OpLog(RING_EXPECTED)
    if tracer is not None:
        instrument_gateway(tracer, gateway)
    since = gateway_counts(gateway)
    written_before = process_bytes_written()

    # phase 1: bulk import through submit_many (time per call, never
    # divided into per-row latencies)
    ids: list = []
    accepted_bytes = 0
    call_times = []
    for start in range(0, bulk_rows, INGEST_BULK_CALL):
        chunk = bulk[start:start + INGEST_BULK_CALL]
        begin = perf_counter()
        responses = gateway.submit_many(
            spec.form, [op.data for op in chunk], "pc_member_1"
        )
        call_times.append(perf_counter() - begin)
        for op, response in zip(chunk, responses):
            log.attempted += 1
            log.statuses[(op.kind, response.status)] += 1
            if response.status not in log.expected[op.kind]:
                log.errors += 1
                if len(log.unexpected) < 5:
                    log.unexpected.append(
                        f"bulk {op.kind} answered {response.status}")
            report.observe_write(op.kind, "pc_member_1", response)
            if response.status == 201:
                ids.append(response.body["id"])
                accepted_bytes += canonical_bytes(op.data)
    bulk_accepted = len(ids)
    bulk_elapsed = sum(call_times)

    # phase 2: single durable writes, follower views, live scorecards
    client = Client(gateway, spec, report, ids)
    client.accepted_bytes = accepted_bytes
    scorecard_gate = Gate("live-scorecard-equals-rescan")
    scorecard_times = []
    checked = {1, count // (2 * INGEST_SCORECARD_EVERY)}
    origin = perf_counter()
    for index, op in enumerate(plan, start=1):
        start = perf_counter()
        status, done = client.execute(op)
        log.record(op.kind, status, done - start)
        if index % INGEST_SCORECARD_EVERY == 0 or index == count:
            start = perf_counter()
            lines = gateway.live_scorecard(spec.entity)
            elapsed = perf_counter() - start
            log.record("scorecard", 200 if lines else 500, elapsed)
            scorecard_times.append(elapsed)
            taken = len(scorecard_times)
            if lines and (taken in checked or index == count):
                pause = perf_counter()
                scorecard_gate_check(scorecard_gate, gateway, spec.entity,
                                     lines)
                origin += perf_counter() - pause  # not part of the run
    phase2_elapsed = perf_counter() - origin

    replica_gate = Gate("follower-state-equals-primary")
    for index, (primary, replica_set) in enumerate(
        zip(gateway.shards, gateway.replica_sets)
    ):
        # read audits are logged but ride the next group commit; commit
        # them so primary and followers are compared at one watermark
        primary.commit()
        replica_set.catch_up(now=primary.clock.peek())
        want = state_bytes(primary)
        for follower in replica_set.followers:
            replica_gate.check(state_bytes(follower) == want,
                               f"shard {index}: follower state differs")
    gates = [log.status_gate(), scorecard_gate, replica_gate,
             guarantee_gate(gateway, report, ())]
    counts = gateway_counts(gateway, since)
    counts.update(wal_counts(gateway))

    # phase 3: close, then rebuild the fleet from the same directory
    before = [state_bytes(shard) for shard in gateway.shards]
    gateway.close()
    accepted_bytes = client.accepted_bytes
    gateway = client = report = None  # let the closed fleet be freed
    written_after = process_bytes_written()
    if written_before is not None and written_after is not None:
        counts["process_bytes_written"] = written_after - written_before
    disk = dir_bytes(data_dir)
    recover_gate = Gate("recovered-state-equals-pre-close")
    recover_times = []
    probe_id = ids[0]
    for attempt in range(INGEST_RECOVERIES):
        if tracer is not None:
            with tracer.span("harness.recover"):
                status, after, elapsed = _recover(data_dir, spec, probe_id,
                                                  tracer)
        else:
            status, after, elapsed = _recover(data_dir, spec, probe_id, None)
        recover_times.append(elapsed)
        if attempt == 0:
            for index, (got, want) in enumerate(zip(after, before)):
                recover_gate.check(got == want,
                                   f"shard {index}: recovered state differs")
        recover_gate.check(status == 203,
                           f"first view after recovery answered {status}")
    gates.append(recover_gate)

    metrics = Metrics()
    common_metrics(metrics, log, setup_times)
    metrics.timing("write_p50_us", log.samples("write", 201), 0.5, "us")
    metrics.timing("write_p99_us", log.samples("write", 201), 0.99, "us")
    metrics.timing("view_p50_us", log.samples("view", 203), 0.5, "us")
    metrics.timing("view_p99_us", log.samples("view", 203), 0.99, "us")
    phase2_ops = count + len(scorecard_times)
    metrics.put("ops_per_s", phase2_ops / phase2_elapsed, "1/s", phase2_ops)
    metrics.put("batch_rows_per_s", bulk_accepted / bulk_elapsed, "1/s",
                len(call_times))
    metrics.timing("batch_call_ms", call_times, 0.5, "ms")
    metrics.timing("scorecard_p50_ms", scorecard_times, 0.5, "ms")
    metrics.put("recover_s", statistics.median(recover_times), "s",
                len(recover_times))
    metrics.put("disk_bytes_per_user_byte", disk / accepted_bytes,
                "ratio", 1)
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    counts.update(
        inputs=plan_digest(bulk, plan), ops_attempted=log.attempted,
        errors=log.errors, data_dir_bytes=disk,
        user_bytes=accepted_bytes,
    )
    notes = [
        f"closed loop, one client thread: {bulk_rows} bulk rows in "
        f"{len(call_times)} submit_many call(s), then {count} ops with a "
        f"live scorecard every {INGEST_SCORECARD_EVERY}, then "
        f"{INGEST_RECOVERIES} recoveries",
    ]
    if counts["min_shard_checkpoints"] < 2:
        notes.append(
            f"some shard checkpointed only {counts['min_shard_checkpoints']}"
            " time(s): run with more --seconds for a levelled-off "
            "disk_bytes_per_user_byte"
        )
    return Outcome(metrics, counts, gates, log.attempted, log.errors,
                   notes, tracer)


def _recover(data_dir, spec, probe_id, tracer):
    """Rebuild the fleet from ``data_dir`` until it serves one view, then
    close it: ``(first view's status, encoded shard states, seconds)``."""
    import repro.persistence as persistence

    original = persistence.recover_app
    if tracer is not None:
        def counted(report):
            tracer.add("recovery.ops_replayed", report.replayed_ops)

        holder = SimpleNamespace(recover_app=original)
        tracer.wrap(holder, "recover_app", "recovery.recover_app",
                    after=counted)
        persistence.recover_app = holder.recover_app
    try:
        start = perf_counter()
        gateway = build_ring(data_dir)
        built = perf_counter()
        after = [state_bytes(shard) for shard in gateway.shards]
        paused = perf_counter() - built
        status = gateway.view(spec.entity, probe_id, "chair").status
        elapsed = perf_counter() - start - paused
    finally:
        persistence.recover_app = original
    gateway.close()
    return status, after, elapsed


WORKLOADS = {
    "review-serve": review_serve,
    "browse-hot": browse_hot,
    "ingest-durable": ingest_durable,
}
