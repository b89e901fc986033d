"""Replication catch-up and the interchange codec on its edges.

The pinned contracts: batched in-memory catch-up lands followers in
``capture_state`` **byte-identical** state to a per-op replay, and
followers fed one shipped tail never alias each other or the primary;
the framed wire form (coalesced insert runs included) replays to the
primary's state; a second ``LogTruncated`` during bootstrap cannot
escape ``catch_up``; explicit ``prune_to`` caps a ship buffer pinned by
a never-caught-up follower; telemetry op frames absorb to the same
accumulator state as the in-process queue; and the shareable
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
from repro.persistence import (
    apply_op,
    apply_ops,
    capture_state,
    encode_payload,
    op_tick,
)
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
    tail = log.ship(0)  # catch_up prunes what it applied
    replicas = ReplicaSet(_make_app, log, count=1)
    replicas.catch_up()

    per_op = _make_app()
    for _seq, op in tail:
        apply_op(per_op, op)
        per_op.clock.advance_to(op_tick(op))
    assert _state(replicas.follower(0)) == _state(per_op)


def test_batched_catch_up_matches_the_primary():
    log = ReplicationLog()
    primary, _spec = _seed_primary(log)
    replicas = ReplicaSet(_make_app, log, count=2)
    replicas.catch_up()
    assert _state(replicas.follower(0)) == _state(primary)
    assert _state(replicas.follower(1)) == _state(primary)


def test_followers_never_alias_shipped_row_dicts():
    log = ReplicationLog()
    primary, spec = _seed_primary(log)
    replicas = ReplicaSet(_make_app, log, count=2)
    replicas.catch_up()
    first, second = (
        replicas.follower(index).store.entity(spec.entity)._records
        for index in range(2)
    )
    originals = primary.store.entity(spec.entity)._records
    assert set(first) == set(second) == set(originals)
    for record_id, stored in first.items():
        assert stored.data is not second[record_id].data
        assert stored.data is not originals[record_id].data

    primary_before = _state(primary)
    second_before = _state(replicas.follower(1))
    for stored in first.values():
        stored.data["detailed_comments"] = "mutated on follower 0"
    assert _state(replicas.follower(0)) != second_before
    assert _state(replicas.follower(1)) == second_before
    assert _state(primary) == primary_before


def test_coalesced_run_is_replayed_record_for_record():
    # a pure insert run well past COALESCE_MIN ships on the wire as one
    # synthetic rows op; the decoded frame must replay to the primary
    log = ReplicationLog()
    primary, spec = _seed_primary(
        log, inserts=interchange.COALESCE_MIN * 3, batches=0
    )
    decoded = interchange.decode_op_batch(log.ship_frame(0))
    assert any(op["op"] == "rows" for _seq, op in decoded)
    follower = _make_app()
    apply_ops(follower, [op for _seq, op in decoded])
    follower.clock.advance_to(max(op_tick(op) for _seq, op in decoded))
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

    def ship(self, after_seq):
        if self._remaining > 0:
            self._remaining -= 1
            raise LogTruncated("pruned again while bootstrapping")
        return super().ship(after_seq)


@pytest.mark.parametrize("rows_ops", [False, True])
def test_second_truncation_is_absorbed_by_the_retry(rows_ops):
    # with and without compact ``rows`` ops in the bootstrapped tail
    log = _PruningLog(truncations=CATCHUP_ATTEMPTS - 1)
    primary, _spec = _seed_primary(log, inserts=8, batches=2 * rows_ops)
    replicas = ReplicaSet(_make_app, log, count=1)
    replicas.catch_up()  # must not raise
    assert _state(replicas.follower(0)) == _state(primary)


@pytest.mark.parametrize("rows_ops", [False, True])
def test_unbounded_pruning_surfaces_after_bounded_attempts(rows_ops):
    log = _PruningLog(truncations=10 ** 9)
    _seed_primary(log, inserts=8, batches=2 * rows_ops)
    replicas = ReplicaSet(_make_app, log, count=1)
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
        tail = replicas._ship_tail(0)
        apply_ops(replicas.followers[0], [op for _s, op in tail])
        replicas._applied[0] = tail[-1][0]
        sizes.append(shippable())
    assert sizes[0] < sizes[1] < sizes[2]  # monotone growth while pinned

    # the operator caps it at the acked watermark
    log.prune_to(log.acked_seq)
    assert shippable() == 0

    # the starved follower re-bootstraps off the lead on next catch-up
    replicas.catch_up()
    assert _state(replicas.follower(1)) == _state(primary)


# -- telemetry equivalence --------------------------------------------------


def test_telemetry_frame_absorbs_to_in_process_state():
    from repro.interchange import accumulator_fingerprint

    spec = easychair_spec()
    shipper = _make_app()
    mirror_framed = _make_app()
    mirror_in_process = _make_app()
    entity = shipper.store.entity(spec.entity)
    rng = random.Random(29)
    stored = [entity.insert(spec.clean_payload(rng)) for _ in range(12)]
    entity.insert_many([spec.clean_payload(rng) for _ in range(6)])
    entity.update(stored[0].record_id, {"detailed_comments": "edited"})
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
