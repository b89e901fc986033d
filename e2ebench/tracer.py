"""Span tracing from outside the program: wrap the public methods of the
live gateway, shard apps, forms, stores, backends and replica sets, and
record one span per call.

A span is ``(span_id, parent_id, request_id, name, start, end)``.  The
benchmark drives the gateway from one client thread, so at most one
request is open at a time: a span opened on a thread with no open span of
its own (the gateway's dispatch-pool workers) is parented to that open
request.  Spans stay in memory until :meth:`Tracer.dump`.

Self time is a span's duration minus the part of its interval that its
child spans cover (the union, so children that overlap on several pool
threads are not subtracted twice).
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Span-name prefix -> the program module (layer) it times.
LAYERS = {
    "gateway": "cluster.gateway",
    "cache": "cluster.cache",
    "app": "runtime.app",
    "forms": "runtime.forms",
    "vpipeline": "runtime.vpipeline",
    "storage": "runtime.storage",
    "audit": "runtime.audit",
    "persistence": "persistence",
    "recovery": "persistence.recovery",
    "telemetry": "dq.streaming",
    "replication": "cluster.replication",
    "harness": "harness",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None  # (span_id, request_id) of the open request

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        if parent is None:
            frame = (span_id, span_id)
            self._root = frame
            parent_id = 0
        else:
            frame = (span_id, parent[1])
            parent_id = parent[0]
        stack.append(frame)
        return frame, parent_id

    def _exit(self, frame, parent_id, name, start, end) -> None:
        self._stack().pop()
        self.spans.append((frame[0], parent_id, frame[1], name, start, end))
        if parent_id == 0:
            self._root = None

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame, parent_id = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, parent_id, name, start, perf_counter())

    def wrap(self, obj, method: str, name: str, before=None, after=None):
        """Shadow ``obj.method`` with a timed instance attribute.

        ``before(*args)`` runs just ahead of the call (to sample counts
        the call is about to consume); ``after(result)`` sees its result.
        """
        inner = getattr(obj, method)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame, parent_id = tracer._enter()
            start = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer._exit(frame, parent_id, name, start, perf_counter())
            if after is not None:
                after(result)
            return result

        setattr(obj, method, traced)

    def add(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount

    def high(self, counter: str, value: int) -> None:
        if value > self.maxima[counter]:
            self.maxima[counter] = value

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[tuple]:
        """``(name, duration_s, self_s, parent_id)`` for every span."""
        children = defaultdict(list)
        for span in self.spans:
            if span[1]:
                children[span[1]].append((span[4], span[5]))
        out = []
        for span_id, parent_id, _rid, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                lo = max(child_start, reach)
                hi = min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((name, end - start, end - start - covered, parent_id))
        return out

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; the number written."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, rid, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent_id, "request": rid,
                    "name": name, "start": start, "end": end,
                }) + "\n")
        return len(self.spans)


def instrument_gateway(tracer: Tracer, gateway) -> None:
    """Wrap the public methods of a live gateway and everything under it."""
    for method in ("submit", "submit_many", "modify", "view", "list",
                   "live_scorecard"):
        tracer.wrap(gateway, method, f"gateway.{method}")
    for method in ("lookup", "fill", "invalidate_entity"):
        tracer.wrap(gateway.cache, method, f"cache.{method}")
    for app in gateway.shards:
        instrument_app(tracer, app)
    for replica_set in getattr(gateway, "replica_sets", ()):
        if replica_set is None:
            continue

        def lag_before(*_args, replica_set=replica_set, **_kwargs):
            lag = sum(replica_set.lag(i) for i in range(len(replica_set)))
            tracer.add("replication.ops_applied", lag)
            tracer.high("replication.lag_max", lag)

        tracer.wrap(replica_set, "catch_up", "replication.catch_up",
                    before=lag_before)
        tracer.wrap(replica_set.log, "ship_frame", "replication.ship_frame")
        for follower in replica_set.followers:
            instrument_telemetry(tracer, follower)


def instrument_app(tracer: Tracer, app) -> None:
    """One shard app: its pipeline, forms, stores, audit trail, backend."""
    for method in ("submit", "modify", "read", "read_record"):
        tracer.wrap(app, method, f"app.{method}")
    tracer.wrap(app, "submit_batch", "app.submit_batch",
                before=rows_counter(tracer, "app.submit_batch", 1))
    for form in app.forms:
        tracer.wrap(form, "bind", "forms.bind")
        tracer.wrap(form, "validate", "vpipeline.validate")
        tracer.wrap(form, "validate_batch", "vpipeline.validate_batch",
                    before=rows_counter(tracer, "vpipeline.validate_batch",
                                        0))
    for method in ("store", "modify", "readable_by"):
        tracer.wrap(app.store, method, f"storage.{method}")
    tracer.wrap(app.store, "store_many", "storage.store_many",
                before=rows_counter(tracer, "storage.store_many", 1))
    tracer.wrap(app.audit, "record", "audit.record")
    tracer.wrap(app.audit, "record_many", "audit.record_many")
    from repro.cluster import ReplicationLog

    backend = app.persistence
    if isinstance(backend, ReplicationLog):
        tracer.wrap(backend, "append", "replication.tee")
        tracer.wrap(backend, "sync", "replication.tee_sync")
        backend = backend.inner
    if backend is not None:
        for method in ("append", "sync", "checkpoint"):
            tracer.wrap(backend, method, f"persistence.{method}")
    instrument_telemetry(tracer, app)


def rows_counter(tracer: Tracer, name: str, position: int):
    """A ``before`` hook counting the rows a batched call receives as its
    ``position``-th argument, for per-row figures of batch calls."""

    def count(*args, **_kwargs):
        tracer.add(f"rows.{name}", len(args[position]))

    return count


def instrument_telemetry(tracer: Tracer, app) -> None:
    """The streaming-telemetry reads a live scorecard makes on ``app``."""
    for name in app.store.entity_names:
        store = app.store.entity(name)

        def pending_before(*_args, store=store, **_kwargs):
            # observed, not consumed: the length of the deferred queue
            # the read is about to absorb
            tracer.add(
                "telemetry.pending_ops_at_read",
                len(getattr(store, "_telemetry_pending", ())),
            )

        tracer.wrap(store, "telemetry_frame", "telemetry.frame",
                    before=pending_before)
        tracer.wrap(store, "measure_telemetry", "telemetry.measure",
                    before=pending_before)


def layer_metrics(tracer: Tracer, counts: dict, metrics) -> None:
    """Fill ``metrics`` (a :class:`harness.Metrics`) with the per-layer
    numbers of one traced run: each layer's call count, total self time
    and share of the end-to-end span, plus the named per-call figures."""
    rows = tracer.self_times()
    duration = defaultdict(list)
    self_time = defaultdict(list)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    end_to_end = 0.0
    for name, elapsed, own, parent_id in rows:
        duration[name].append(elapsed)
        self_time[name].append(own)
        prefix = name.split(".", 1)[0]
        layer_self[prefix] += own
        layer_calls[prefix] += 1
        if parent_id == 0:
            end_to_end += elapsed
    for prefix in LAYERS:
        metrics.count(f"{prefix}.calls", layer_calls[prefix])
        metrics.put(f"{prefix}.self_ms", layer_self[prefix] * 1e3, "ms",
                    layer_calls[prefix])
        share = 100.0 * layer_self[prefix] / end_to_end if end_to_end else 0.0
        metrics.put(f"{prefix}.share_pct", share, "%", layer_calls[prefix])

    def by_prefix(table, prefix):
        return [v for name, values in table.items()
                if name.startswith(prefix + ".") for v in values]

    def per_row(name, rows_counter):
        total = sum(duration[name])
        rows_seen = tracer.counters[rows_counter]
        metrics.put(f"{name}_us_per_row",
                    total * 1e6 / rows_seen if rows_seen else None, "us",
                    rows_seen)

    # cluster.gateway: self time per op kind (call minus shard-app work)
    metrics.timing("gateway.self_us.p50", by_prefix(self_time, "gateway"),
                   0.5, "us")
    for name in sorted(n for n in self_time if n.startswith("gateway.")):
        kind = name.split(".", 1)[1]
        metrics.timing(f"gateway.self_us.p50.{kind}", self_time[name], 0.5,
                       "us")
    metrics.count("gateway.rejected_429", counts["rejected_429"])
    metrics.count("gateway.shed_503", counts["shed_503"])
    # cluster.cache
    lookups = counts["cache_hits"] + counts["cache_misses"]
    metrics.count("cache.hits", counts["cache_hits"])
    metrics.count("cache.misses", counts["cache_misses"])
    metrics.put("cache.hit_ratio",
                counts["cache_hits"] / lookups if lookups else None, "frac",
                lookups)
    metrics.timing("cache.lookup_us.p50", duration["cache.lookup"], 0.5, "us")
    metrics.count("cache.evictions", counts["cache_evictions"])
    metrics.count("cache.invalidations", counts["cache_invalidations"])
    # runtime.app
    for method in ("submit", "modify", "read_record", "read"):
        metrics.timing(f"app.{method}_us.p50", duration[f"app.{method}"],
                       0.5, "us")
    per_row("app.submit_batch", "rows.app.submit_batch")
    metrics.timing("app.self_us.p50", by_prefix(self_time, "app"), 0.5, "us")
    # runtime.forms / runtime.vpipeline
    metrics.timing("forms.bind_us.p50", duration["forms.bind"], 0.5, "us")
    metrics.timing("vpipeline.validate_us.p50",
                   duration["vpipeline.validate"], 0.5, "us")
    per_row("vpipeline.validate_batch", "rows.vpipeline.validate_batch")
    plans = counts["plan_cache_hits"] + counts["plan_cache_misses"]
    metrics.count("vpipeline.plan_lookups", plans)
    metrics.put("vpipeline.plan_hit_ratio",
                counts["plan_cache_hits"] / plans if plans else None, "frac",
                plans)
    # runtime.storage / colkernels
    metrics.timing("storage.store_us.p50", duration["storage.store"], 0.5,
                   "us")
    per_row("storage.store_many", "rows.storage.store_many")
    metrics.timing("storage.modify_us.p50", duration["storage.modify"], 0.5,
                   "us")
    metrics.timing("storage.readable_by_us.p50",
                   duration["storage.readable_by"], 0.5, "us")
    # runtime.audit
    metrics.count("audit.records", counts["audit_events"])
    metrics.timing("audit.record_us.p50", duration["audit.record"], 0.5,
                   "us")
    # persistence
    metrics.count("persistence.appends", len(duration["persistence.append"]))
    metrics.timing("persistence.append_us.p50",
                   duration["persistence.append"], 0.5, "us")
    metrics.count("persistence.syncs", len(duration["persistence.sync"]))
    metrics.timing("persistence.sync_us.p50", duration["persistence.sync"],
                   0.5, "us")
    metrics.count("persistence.checkpoints",
                  len(duration["persistence.checkpoint"]))
    metrics.timing("persistence.checkpoint_ms.p50",
                   duration["persistence.checkpoint"], 0.5, "ms")
    metrics.put("persistence.bytes_written",
                counts.get("process_bytes_written", 0), "bytes", 1)
    # persistence.recovery
    recoveries = len(duration["harness.recover"])
    metrics.put("recovery.recover_app_s",
                sum(duration["recovery.recover_app"]) / recoveries
                if recoveries else None, "s", recoveries)
    metrics.count("recovery.ops_replayed",
                  tracer.counters["recovery.ops_replayed"])
    # dq.streaming
    metrics.count("telemetry.pending_ops_at_read",
                  tracer.counters["telemetry.pending_ops_at_read"])
    metrics.timing("telemetry.frame_us.p50", duration["telemetry.frame"],
                   0.5, "us")
    # cluster.replication
    metrics.timing("replication.catch_up_us.p50",
                   duration["replication.catch_up"], 0.5, "us")
    metrics.count("replication.ops_applied",
                  tracer.counters["replication.ops_applied"])
    metrics.timing("replication.ship_frame_us.p50",
                   duration["replication.ship_frame"], 0.5, "us")
    metrics.count("replication.lag_max", tracer.maxima["replication.lag_max"])
    metrics.count("trace.spans", len(rows))
