"""Concurrency soak: the DQ guarantees must hold under real thread load.

The acceptance bar from the cluster issue: >= 8 client threads, >= 1000
requests through the load generator against a 4-shard gateway, with zero
DQ-guarantee violations —

* every accepted write audited exactly once,
* no confidential record ever returned to an uncleared user (including
  via the cache),
* version conflicts surface as 409s, never as lost updates.
"""

import random
import threading

import pytest

from repro.casestudy import easychair
from repro.cluster import (
    LoadGenerator,
    LoadReport,
    Operation,
    SOAK_MIX,
    ShardedGateway,
    verify_guarantees,
)
from repro.cluster.loadgen import WRITE

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"


@pytest.mark.slow
def test_soak_eight_threads_thousand_requests_zero_violations():
    gateway = ShardedGateway.from_design(
        easychair.build_design(),
        shard_count=4,
        users=easychair.USERS,
        max_queue_depth=256,
    )
    try:
        # preload so reads and updates have targets from the first tick
        preloaded = frozenset(
            gateway.submit(
                FORM, easychair.complete_review(), "pc_member_1"
            ).body["id"]
            for _ in range(40)
        )
        generator = LoadGenerator(seed=101, mix=SOAK_MIX)
        report = generator.run(gateway, count=1200, threads=8)

        assert report.total == 1200
        assert report.accepted_writes() > 100
        assert report.conflicts > 0  # stale updates did surface as 409s
        assert report.leaks == []
        violations = verify_guarantees(gateway, report, ignore_ids=preloaded)
        assert violations == [], "\n".join(violations)

        # traceability held globally: one store event per accepted write
        stores = sum(
            len(shard.audit.by_kind("store")) for shard in gateway.shards
        )
        assert stores == len(preloaded) + len(report.accepted_ids)

        # the cache worked and never leaked: uncleared list reads all empty
        assert gateway.cache.stats.hits > 0
        snap = gateway.metrics.snapshot(gateway.cache.stats)
        assert snap["requests"] >= 1200 - report.backpressured
    finally:
        gateway.close()


@pytest.mark.slow
def test_soak_tiny_queue_backpressures_instead_of_queueing_unbounded():
    """Park ``max_queue_depth`` writes inside the shards: every request
    that arrives while they hold the queue must be refused with a 429
    at once, and the guarantees must hold once the writes resume."""
    depth = 2
    gateway = ShardedGateway.from_design(
        easychair.build_design(),
        shard_count=2,
        users=easychair.USERS,
        max_queue_depth=depth,
    )
    release = threading.Event()
    parked = threading.Semaphore(0)
    for app in gateway.shards:
        def gated(*args, inner=app.submit, **kwargs):
            if not release.is_set():
                parked.release()
                release.wait()
            return inner(*args, **kwargs)

        app.submit = gated
    generator = LoadGenerator(seed=7)
    report = LoadReport(spec=generator.spec)
    rng = random.Random(7)
    held_writes = [
        Operation(WRITE, "pc_member_1", generator.spec.clean_payload(rng))
        for _ in range(depth)
    ]
    holder = threading.Thread(
        target=generator.run,
        kwargs=dict(
            gateway=gateway, operations=held_writes, threads=depth,
            report=report,
        ),
    )
    holder.start()
    try:
        for _ in range(depth):
            assert parked.acquire(timeout=30), "a held write never parked"
        refused = gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        )
        report.observe_write(WRITE, "pc_member_1", refused)
        assert refused.status == 429
        assert refused.headers.get("Retry-After")
        generator.run(gateway, count=200, threads=8, report=report)
        assert report.backpressured == 1 + 200  # nothing got past the queue

        release.set()
        holder.join(timeout=30)
        assert not holder.is_alive()
        generator.run(gateway, count=200, threads=8, report=report)
        assert report.backpressured > 0
        assert len(report.accepted_ids) >= depth  # the held writes landed
        assert (
            gateway.metrics.rejected_backpressure == report.backpressured
        )
        # backpressured requests changed nothing and audited nothing
        assert verify_guarantees(gateway, report) == []
    finally:
        release.set()
        holder.join(timeout=30)
        gateway.close()
