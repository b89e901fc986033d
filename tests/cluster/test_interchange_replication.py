"""Interchange on the replication and telemetry paths.

The pinned contracts: batched frame catch-up lands followers in
``capture_state`` **byte-identical** state to the per-op replay
(coalesced insert runs included), a second ``LogTruncated`` during
bootstrap cannot escape ``catch_up``, explicit ``prune_to`` caps a
ship buffer pinned by a never-caught-up follower (and evicts the
coalesced-run payload cache), telemetry op frames absorb to the same
accumulator state as the in-process queue, and the shareable
certification chain never over-claims.
"""

import random

import pytest

from repro import interchange
from repro.casestudy import easychair
from repro.cluster import easychair_spec
from repro.cluster.replication import (
    CATCHUP_ATTEMPTS,
    LogTruncated,
    ReplicaSet,
    ReplicationLog,
)
from repro.dq.metadata import Clock
from repro.interchange import forced_interchange
from repro.persistence import capture_state, encode_payload
from repro.runtime.dqengine import build_app
from repro.runtime.storage import _values_shareable

pytestmark = pytest.mark.replication


def _make_app(persistence=None):
    app = build_app(
        easychair.build_design(), clock=Clock(), persistence=persistence
    )
    for name, level, roles in easychair.USERS:
        app.add_user(name, level, roles)
    return app


def _seed_primary(log, inserts=40, batches=2, batch_rows=8, seed=7):
    """A primary with a mixed tail: a coalescible insert run, batched
    writes, plus updates / metadata stamps / deletes."""
    spec = easychair_spec()
    primary = _make_app(log)
    entity = primary.store.entity(spec.entity)
    rng = random.Random(seed)
    stored = [
        entity.insert(spec.clean_payload(rng)) for _ in range(inserts)
    ]
    for _ in range(batches):
        # stamped chunk: one by-form rows op with shared provenance
        primary.store.store_many(
            spec.entity,
            [spec.clean_payload(rng) for _ in range(batch_rows)],
            user="chair", security_level=1,
        )
    # a stamped single insert (insert + meta ops) with grants
    primary.store.store(
        spec.entity, spec.clean_payload(rng), user="chair",
        security_level=2, available_to={"pc-member"},
    )
    entity.update(
        stored[0].record_id, {"detailed_comments": "revised"}
    )
    entity.delete(stored[2].record_id)
    log.sync()
    return primary, spec


def _state(app) -> bytes:
    return encode_payload(capture_state(app))


# -- batched catch-up byte-equality ----------------------------------------


def test_batched_catch_up_is_byte_identical_to_per_op():
    log = _seed_primary(ReplicationLog())[0].persistence
    tail = log.ship(0)

    def lane(batched: bool):
        fresh = ReplicationLog()
        for _seq, op in tail:
            fresh.append(op)
        fresh.sync()
        replicas = ReplicaSet(_make_app, fresh, count=1)
        with forced_interchange(batched):
            replicas.catch_up()
        return _state(replicas.follower(0))

    assert lane(True) == lane(False)


def test_batched_catch_up_matches_the_primary():
    log = ReplicationLog()
    primary, _spec = _seed_primary(log)
    replicas = ReplicaSet(_make_app, log, count=2)
    with forced_interchange(True):
        replicas.catch_up()
    assert _state(replicas.follower(0)) == _state(primary)
    assert _state(replicas.follower(1)) == _state(primary)


def test_coalesced_run_is_replayed_record_for_record():
    # a pure insert run well past COALESCE_MIN ships as one synthetic
    # rows op; the follower must be indistinguishable from per-op replay
    log = ReplicationLog()
    primary, spec = _seed_primary(
        log, inserts=interchange.COALESCE_MIN * 3, batches=0
    )
    replicas = ReplicaSet(_make_app, log, count=1)
    with forced_interchange(True):
        replicas.catch_up()
    follower = replicas.follower(0)
    assert _state(follower) == _state(primary)
    records = follower.store.entity(spec.entity)._records
    originals = primary.store.entity(spec.entity)._records
    assert set(records) == set(originals)


# -- shareable certification ------------------------------------------------


def test_certified_records_match_the_walk():
    spec = easychair_spec()
    log = ReplicationLog()
    primary = _make_app(log)
    entity = primary.store.entity(spec.entity)
    rng = random.Random(3)
    for _ in range(interchange.COALESCE_MIN):
        entity.insert(spec.clean_payload(rng))
    # one payload smuggles a mutable value into the run: the whole
    # shipped run loses certification, and the follower's walk must
    # still mark every record correctly
    dirty = spec.clean_payload(rng)
    dirty["detailed_comments"] = ["not", "a", "scalar"]
    entity.insert(dirty)
    for _ in range(interchange.COALESCE_MIN):
        entity.insert(spec.clean_payload(rng))
    log.sync()

    replicas = ReplicaSet(_make_app, log, count=1)
    with forced_interchange(True):
        replicas.catch_up()
    follower_records = replicas.follower(0).store.entity(
        spec.entity
    )._records
    assert follower_records
    for stored in follower_records.values():
        assert stored.shareable == _values_shareable(stored.data)
    assert sum(
        1 for s in follower_records.values() if not s.shareable
    ) == 1


# -- bounded bootstrap retry ------------------------------------------------


class _PruningLog(ReplicationLog):
    """Advances its own base right before each ship — the race where an
    external ``prune_to`` outruns a bootstrapping follower."""

    def __init__(self, truncations: int):
        super().__init__()
        self._remaining = truncations

    def _maybe_truncate(self):
        if self._remaining > 0:
            self._remaining -= 1
            raise LogTruncated("pruned again while bootstrapping")

    def ship(self, after_seq):
        self._maybe_truncate()
        return super().ship(after_seq)

    def ship_frame(self, after_seq):
        self._maybe_truncate()
        return super().ship_frame(after_seq)


@pytest.mark.parametrize("batched", [False, True])
def test_second_truncation_is_absorbed_by_the_retry(batched):
    log = _PruningLog(truncations=CATCHUP_ATTEMPTS - 1)
    primary, _spec = _seed_primary(log, inserts=8, batches=0)
    replicas = ReplicaSet(_make_app, log, count=1)
    with forced_interchange(batched):
        replicas.catch_up()  # must not raise
    assert _state(replicas.follower(0)) == _state(primary)


@pytest.mark.parametrize("batched", [False, True])
def test_unbounded_pruning_surfaces_after_bounded_attempts(batched):
    log = _PruningLog(truncations=10 ** 9)
    _seed_primary(log, inserts=8, batches=0)
    replicas = ReplicaSet(_make_app, log, count=1)
    with forced_interchange(batched):
        with pytest.raises(LogTruncated, match="could not outrun"):
            replicas.catch_up()


# -- prune_to and the never-caught-up follower ------------------------------


def test_prune_to_caps_a_buffer_pinned_by_a_lagging_follower():
    spec = easychair_spec()
    log = ReplicationLog()
    primary = _make_app(log)
    entity = primary.store.entity(spec.entity)
    rng = random.Random(11)
    replicas = ReplicaSet(_make_app, log, count=2)

    def shippable() -> int:
        return len(log.ship(log.base_seq))

    # follower 1 never catches up: catch_up prunes behind min(applied),
    # which that follower pins at 0 — the buffer grows without bound
    sizes = []
    for _round in range(3):
        for _ in range(interchange.COALESCE_MIN + 4):
            entity.insert(spec.clean_payload(rng))
        log.sync()
        with forced_interchange(True):
            tail = replicas._ship_tail(0)
            follower = replicas.followers[0]
            from repro.persistence import apply_ops

            apply_ops(follower, [op for _s, op in tail], adopt=True)
            replicas._applied[0] = tail[-1][0]
        sizes.append(shippable())
    assert sizes[0] < sizes[1] < sizes[2]  # monotone growth while pinned

    # the operator caps it at the acked watermark
    log.prune_to(log.acked_seq)
    assert shippable() == 0
    assert not log._encoded  # per-op payload cache evicted
    assert not log._coalesced  # coalesced-run payload cache evicted

    # the starved follower re-bootstraps off the lead on next catch-up
    with forced_interchange(True):
        replicas.catch_up()
    assert _state(replicas.follower(1)) == _state(primary)


def test_coalesced_cache_evicts_only_pruned_spans():
    spec = easychair_spec()
    log = ReplicationLog()
    primary = _make_app(log)
    entity = primary.store.entity(spec.entity)
    rng = random.Random(13)
    for _ in range(interchange.COALESCE_MIN):
        entity.insert(spec.clean_payload(rng))
    first_run_end = None
    log.sync()
    log.ship_frame(0)
    assert len(log._coalesced) == 1
    (first_span,) = log._coalesced
    first_run_end = first_span[1]
    entity.update(1, {"detailed_comments": "break the run"})
    for _ in range(interchange.COALESCE_MIN):
        entity.insert(spec.clean_payload(rng))
    log.sync()
    log.ship_frame(0)
    assert len(log._coalesced) == 2
    log.prune_to(first_run_end)
    assert list(log._coalesced) == [
        span for span in log._coalesced if span[0] > first_run_end
    ]
    assert len(log._coalesced) == 1


# -- telemetry equivalence --------------------------------------------------


def test_telemetry_frame_absorbs_to_in_process_state():
    from repro.interchange import accumulator_fingerprint

    spec = easychair_spec()
    shipper = _make_app()
    mirror_framed = _make_app()
    mirror_in_process = _make_app()
    entity = shipper.store.entity(spec.entity)
    rng = random.Random(29)
    with forced_interchange(True):
        stored = [
            entity.insert(spec.clean_payload(rng)) for _ in range(12)
        ]
        entity.insert_many(
            [spec.clean_payload(rng) for _ in range(6)]
        )
        entity.update(
            stored[0].record_id, {"detailed_comments": "edited"}
        )
        entity.delete(stored[1].record_id)
        frame = entity.ship_telemetry_ops()
    assert frame is not None
    mirror_framed.store.entity(spec.entity).absorb_telemetry_frame(frame)
    mirror_in_process.store.entity(spec.entity).telemetry.absorb(
        interchange.decode_telemetry_ops(frame)
    )
    fingerprints = {
        accumulator_fingerprint(
            app.store.entity(spec.entity).telemetry
        )
        for app in (shipper, mirror_framed, mirror_in_process)
    }
    assert len(fingerprints) == 1
