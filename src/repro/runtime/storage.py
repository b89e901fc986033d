"""The content store: entities, records, and their DQ metadata sidecars.

This plays the role of the paper's ``Content`` elements at runtime: each
entity (table) stores plain-dict records; every record carries a
:class:`~repro.dq.metadata.DQMetadataRecord` sidecar where the generated
``Add_DQ_Metadata`` activities put traceability and confidentiality
metadata.

Concurrency contract (used by :mod:`repro.cluster`): every public
operation is guarded by a per-entity re-entrant lock, and the **read path**
(:meth:`EntityStore.get`, :meth:`EntityStore.all`,
:meth:`EntityStore.query`, :meth:`ContentStore.readable_by`) hands out
defensive *snapshots* — mutating a snapshot (or updating the store after
taking one) never changes the other side.  The **write path**
(:meth:`EntityStore.insert`, :meth:`EntityStore.update`,
:meth:`ContentStore.store`, :meth:`ContentStore.modify`) keeps returning
the live record so metadata stamping works as before.

Hot-path design (copy-on-write snapshots): the *store* side of the read
path is copy-on-write — :meth:`EntityStore.update` never mutates a
published data dict in place, it publishes a fresh merged dict — so a
snapshot whose values are all immutable (the common case: form records
are flat dicts of scalars) can be a **shallow** dict copy that shares
every value structurally with the store.  Records holding nested mutable
values fall back to the original ``deepcopy`` path, and
``snapshot(deep=True)`` forces it, so the isolation contract above is
identical in every case — only the allocation cost changes.  The
equivalence is pinned by property tests
(``tests/runtime/test_storage_hotpath.py``).
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from repro import colkernels
from repro.colkernels import (
    TypedColumn,
    equal_slots,
    extend_typed,
    promote_column,
    set_typed,
)
from repro.dq.metadata import Clock, DQMetadataRecord
from repro.dq.streaming import EntityAccumulator

#: Value types a snapshot may share with the live record: immutable
#: scalars, plus immutable containers of the same.
_FROZEN_SCALARS = (str, int, float, bool, bytes, complex, type(None))


def _value_shareable(value) -> bool:
    if isinstance(value, _FROZEN_SCALARS):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_value_shareable(item) for item in value)
    return False


def _values_shareable(data: dict) -> bool:
    """May a shallow copy of ``data`` share every value with the store?"""
    return all(_value_shareable(value) for value in data.values())


class IdAllocator:
    """A thread-safe record-id counter.

    Replaces the bare ``itertools.count`` the store used to rely on: two
    threads calling ``next(count)`` concurrently could observe torn
    increments on some interpreters, and a bare counter cannot be kept
    ahead of externally assigned ids (the sharded gateway allocates global
    ids itself and pushes them down via ``insert(..., record_id=...)``).

    Reserved ids are tracked as a contiguous **watermark** plus a sparse
    tail, not an ever-growing set: every id at or below the watermark
    counts as reserved, and whenever the tail exceeds
    ``compact_threshold`` its oldest half is folded into the watermark.
    A soak run that reserves millions of ids therefore holds O(threshold)
    memory while the duplicate-reservation guard still fires.  Folding is
    safe for the intended callers — a sharded store only ever sees the
    ids routed to it, in roughly increasing order, so an id that falls
    into a folded gap is one that can never legitimately arrive late.
    """

    def __init__(self, start: int = 1, compact_threshold: int = 1024):
        if compact_threshold < 2:
            raise ValueError("compact_threshold must be >= 2")
        self._next = start
        self._watermark = 0          # every id <= this counts as reserved
        self._tail: set[int] = set()  # reserved ids above the watermark
        self._compact_threshold = compact_threshold
        self._lock = threading.Lock()

    def allocate(self) -> int:
        with self._lock:
            value = self._next
            self._next += 1
            return value

    def reserve(self, record_id: int) -> None:
        """Keep the counter ahead of an externally assigned id.

        Each id may be reserved exactly once: a second reservation means
        the same externally routed write is being applied twice (a
        replayed worker task that slipped past the idempotency layer) and
        must fail loudly rather than silently double-apply.
        """
        with self._lock:
            if record_id <= self._watermark or record_id in self._tail:
                raise ValueError(
                    f"record id {record_id} already reserved "
                    "(duplicate task replay?)"
                )
            self._tail.add(record_id)
            # absorb any contiguous run into the watermark
            while self._watermark + 1 in self._tail:
                self._watermark += 1
                self._tail.discard(self._watermark)
            if len(self._tail) > self._compact_threshold:
                self._fold_tail()
            if record_id >= self._next:
                self._next = record_id + 1

    def bump_to(self, record_id: int) -> None:
        """Keep the counter ahead of a **replayed** ``allocate``-style id.

        Crash recovery re-inserts records whose ids originally came from
        :meth:`allocate`; those must not enter the sparse reservation
        tail (they were never externally reserved), but the counter must
        still end up past them so post-recovery allocations never
        collide.
        """
        with self._lock:
            if record_id >= self._next:
                self._next = record_id + 1

    def _fold_tail(self) -> None:
        """Fold the oldest half of the sparse tail into the watermark."""
        ordered = sorted(self._tail)
        cut = ordered[len(ordered) // 2]
        self._watermark = cut
        tail = {rid for rid in ordered if rid > cut}
        # Re-establish the class invariant that the tail never touches
        # the watermark: a fold can leave a contiguous run starting at
        # ``cut + 1``, and a snapshot taken in that state used to
        # round-trip those ids into the *gap* side of the watermark,
        # where the duplicate-reservation guard no longer distinguishes
        # them.  Absorbing the run keeps (watermark, tail) canonical for
        # any given reserved-id set, so ``from_state(to_state())`` is an
        # exact restore.
        while self._watermark + 1 in tail:
            self._watermark += 1
            tail.discard(self._watermark)
        self._tail = tail

    def reserved_footprint(self) -> int:
        """How many sparse entries the reservation guard is holding."""
        with self._lock:
            return len(self._tail)

    def peek(self) -> int:
        with self._lock:
            return self._next

    def high_water(self) -> int:
        """The highest id this allocator knows about — allocated, folded
        into the watermark, or reserved above the counter.  An external
        allocator (the gateway router) must hand out ids strictly beyond
        this or a recovered store will refuse them as duplicates."""
        with self._lock:
            tail_top = max(self._tail) if self._tail else 0
            return max(self._next - 1, self._watermark, tail_top)

    # -- durable state -----------------------------------------------------

    def to_state(self) -> dict:
        """The full allocator state, snapshot-ready.

        Captures the watermark *and* the sparse tail explicitly:
        rebuilding an allocator from surviving records alone would lose
        reserved-but-unused ids (reserved for a record that was later
        retired, or folded into the watermark), silently disarming the
        duplicate-replay guard after a restore.
        """
        with self._lock:
            return {
                "next": self._next,
                "watermark": self._watermark,
                "tail": sorted(self._tail),
                "compact_threshold": self._compact_threshold,
            }

    @classmethod
    def from_state(cls, state: dict) -> "IdAllocator":
        allocator = cls(
            start=state["next"],
            compact_threshold=state.get("compact_threshold", 1024),
        )
        allocator._watermark = state.get("watermark", 0)
        allocator._tail = set(state.get("tail", ()))
        return allocator


@dataclass
class StoredRecord:
    """One record plus its DQ metadata sidecar.

    ``version`` starts at 1 and increments on every update — the handle
    for optimistic-concurrency checks on modification.  ``shareable``
    (internal) records whether every data value is immutable, i.e.
    whether a snapshot may structurally share them.
    """

    record_id: int
    data: dict
    metadata: DQMetadataRecord = field(default_factory=DQMetadataRecord)
    version: int = 1
    shareable: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.shareable:
            self.shareable = _values_shareable(self.data)

    def snapshot(self, deep: bool = False) -> "StoredRecord":
        """A defensive copy: mutating it never leaks into the store.

        The default is the copy-on-write fast path — a shallow dict copy
        sharing the (immutable) values — whenever the record qualifies;
        ``deep=True`` is the escape hatch that forces the original
        ``deepcopy`` behaviour, and records holding nested mutable values
        always take it.
        """
        meta = self.metadata
        if deep or not self.shareable:
            return StoredRecord(
                self.record_id,
                copy.deepcopy(self.data),
                replace(
                    meta,
                    available_to=set(meta.available_to),
                    extra=copy.deepcopy(meta.extra),
                ),
                self.version,
            )
        extra = meta.extra
        if extra:
            extra = (
                dict(extra) if _values_shareable(extra)
                else copy.deepcopy(extra)
            )
        else:
            extra = {}
        # ``__new__``-based clone: every field is assigned below, so
        # this is the ``StoredRecord(...)`` constructor minus the
        # ``__init__``/``__post_init__`` machinery — the dominant cost
        # when a scan materializes hundreds of matches.
        clone = object.__new__(StoredRecord)
        clone.record_id = self.record_id
        clone.data = dict(self.data)
        clone.metadata = meta.replica(extra)
        clone.version = self.version
        clone.shareable = True
        return clone


_NUMERIC_ZONE_KINDS = frozenset((int, float))

#: Probe types whose ``==`` against an all-numeric column is decided
#: purely numerically — the only ones a zone map may prune (any other
#: type may carry an arbitrary ``__eq__``, e.g. ``Fraction``).
_NUMERIC_PROBE_KINDS = (int, float, bool)


class ColumnStats:
    """**Zone map** of one column (the classic columnar trick: summary
    statistics that let a whole-column predicate be answered without
    scanning a single cell).

    Maintained *incrementally*: the store folds every admitted value
    into the map — chunk admissions via one vectorizable
    :meth:`observe_chunk`, in-place cell writes via :meth:`observe` —
    so a sweep never rescans a column to refresh its map (the cost that
    used to sink cold sweeps).  The map is a **sticky superset
    envelope**: deletes and overwrites never shrink it, so it bounds
    every *live* cell (plus possibly values that are gone).  That keeps
    every claim exact-or-conservative: a zone map may fail to prove a
    column clean (demoting the check to the real column pass) but can
    never claim clean wrongly.  ``kinds`` is the admitted type census,
    ``missing`` whether a missing value (None / blank string / exotic
    type) was ever admitted, ``zmin``/``zmax`` bound the numeric
    values, ``nan`` whether a NaN was admitted.
    """

    __slots__ = ("kinds", "missing", "nan", "zmin", "zmax")

    def __init__(self):
        self.kinds: set = set()
        self.missing = False
        self.nan = False
        self.zmin = None
        self.zmax = None

    def observe(self, value) -> None:
        """Fold one value into the envelope (idempotent)."""
        kind = type(value)
        self.kinds.add(kind)
        if kind is int or kind is float:
            if value != value:
                self.nan = True
            else:
                if self.zmin is None or value < self.zmin:
                    self.zmin = value
                if self.zmax is None or value > self.zmax:
                    self.zmax = value
        elif kind is str:
            if value == "" or value.isspace():
                self.missing = True
        else:
            # None / bool / exotic: claim nothing (missing=True keeps
            # completeness checks on the real column pass — sound)
            self.missing = True

    def observe_chunk(self, values, census: set) -> None:
        """Fold a chunk into the envelope with C-level passes.

        ``census`` is the chunk's exact type census (the caller already
        has it for buffer promotion).  Bit-identical to folding the
        chunk value by value through :meth:`observe`, for any chunking
        of the same value sequence — the admission tests pin this.
        """
        self.kinds |= census
        if census <= _NUMERIC_ZONE_KINDS:
            total = sum(values)
            if total != total:
                # ``sum`` met a NaN — or an inf/-inf cancellation, which
                # has no NaN at all; census the cells to tell them apart
                finite = [value for value in values if value == value]
                if len(finite) != len(values):
                    self.nan = True
                values = finite
            if values:
                lowest = min(values)
                highest = max(values)
                if self.zmin is None or lowest < self.zmin:
                    self.zmin = lowest
                if self.zmax is None or highest > self.zmax:
                    self.zmax = highest
        elif census == {str}:
            if not self.missing:
                self.missing = "" in values or any(
                    map(str.isspace, values)
                )
        else:
            for value in values:
                self.observe(value)

    @classmethod
    def of_column(cls, column) -> "ColumnStats":
        """A fresh envelope of exactly ``column`` (compaction rebuilds
        and the equivalence tests)."""
        stats = cls()
        if column:
            stats.observe_chunk(column, set(map(type, column)))
        return stats

    def as_dict(self) -> dict:
        return {
            "kinds": sorted(kind.__name__ for kind in self.kinds),
            "missing": self.missing,
            "nan": self.nan,
            "zmin": self.zmin,
            "zmax": self.zmax,
        }


class _ConfidentialityIndex:
    """Who may read what, as hash lookups instead of per-record predicates.

    Mirrors :meth:`DQMetadataRecord.accessible_by` exactly: a record is
    readable by ``(user, level)`` when ``level >= security_level`` *or*
    the user holds an explicit grant.  Maintained under the entity lock by
    the write path; ``readable_ids`` unions a handful of sets instead of
    calling a Python predicate per record.
    """

    #: readable-id cache entries kept before a wholesale clear — reads
    #: come from a handful of distinct principals, so this is generous.
    _CACHE_LIMIT = 128

    def __init__(self):
        self._by_level: dict[int, set[int]] = {}
        self._by_grant: dict[str, set[int]] = {}
        self._state: dict[int, tuple[int, frozenset]] = {}
        # Readable-id sets are memoized per ``(user, level)`` and
        # invalidated wholesale by bumping the generation on any index
        # change: stores mutate in bursts and are then read repeatedly
        # by the same principals, so the union rebuild amortizes to
        # zero on the read-heavy mixes.
        self._generation = 0
        self._readable_cache: dict[tuple[str, int], tuple[int, frozenset]] = {}

    def index(self, record_id: int, metadata: DQMetadataRecord) -> None:
        self.unindex(record_id)
        level = metadata.security_level
        grants = frozenset(metadata.available_to)
        self._by_level.setdefault(level, set()).add(record_id)
        for user in grants:
            self._by_grant.setdefault(user, set()).add(record_id)
        self._state[record_id] = (level, grants)
        self._generation += 1

    def index_chunk(self, stored_list) -> None:
        """Batched :meth:`index` for freshly admitted records: the
        caller's duplicate-id guard already proved every id is new, so
        the unindex probe is skipped and the readable-cache generation
        bumps once for the whole chunk instead of per record."""
        by_level = self._by_level
        by_grant = self._by_grant
        state = self._state
        for stored in stored_list:
            metadata = stored.metadata
            record_id = stored.record_id
            grants = frozenset(metadata.available_to)
            bucket = by_level.get(metadata.security_level)
            if bucket is None:
                bucket = by_level[metadata.security_level] = set()
            bucket.add(record_id)
            for user in grants:
                by_grant.setdefault(user, set()).add(record_id)
            state[record_id] = (metadata.security_level, grants)
        self._generation += 1

    def unindex(self, record_id: int) -> None:
        state = self._state.pop(record_id, None)
        if state is None:
            return
        self._generation += 1
        level, grants = state
        bucket = self._by_level.get(level)
        if bucket is not None:
            bucket.discard(record_id)
            if not bucket:
                del self._by_level[level]
        for user in grants:
            granted = self._by_grant.get(user)
            if granted is not None:
                granted.discard(record_id)
                if not granted:
                    del self._by_grant[user]

    def readable_ids(self, user: str, user_level: int) -> frozenset:
        """The ids ``(user, user_level)`` may read, as a **shared**
        frozenset — callers must treat it as immutable (it is reused
        across calls until the next index change)."""
        key = (user, user_level)
        generation = self._generation
        cached = self._readable_cache.get(key)
        if cached is not None and cached[0] == generation:
            return cached[1]
        readable: set[int] = set()
        for level, ids in self._by_level.items():
            if level <= user_level:
                readable |= ids
        granted = self._by_grant.get(user)
        if granted:
            readable |= granted
        result = frozenset(readable)
        cache = self._readable_cache
        if len(cache) >= self._CACHE_LIMIT:
            cache.clear()
        cache[key] = (generation, result)
        return result


class EntityStore:
    """All records of one entity (one ``Content`` element).

    ``deep_snapshots`` forces every snapshot through the ``deepcopy``
    escape hatch — the pre-COW behaviour, kept so benchmarks can measure
    both paths in one run and tests can diff them.
    """

    def __init__(self, name: str, fields: Sequence[str] = (), backend=None):
        self.name = name
        self.fields = tuple(fields)
        self.deep_snapshots = False
        self._records: dict[int, StoredRecord] = {}
        self._ids = IdAllocator()
        self._lock = threading.RLock()
        # Durable write-ahead logging: ``None`` (the default, and any
        # non-durable backend) keeps the write path exactly as it was;
        # a durable backend gets one op appended per mutation, under the
        # entity lock so WAL order == apply order.  Syncing is the
        # application's job (group commit via ``WebApp.commit``).
        self._backend = (
            backend if backend is not None and backend.durable else None
        )
        self._field_indexes: dict[str, dict[object, set[int]]] = {}
        self._confidentiality = _ConfidentialityIndex()
        # Columnar spine: one append-only value array per layout field,
        # a parallel row-id array (``None`` marks a tombstone) and a
        # record-id → slot map, all maintained under the entity lock.
        # The layout is the declared field tuple (or adopted from the
        # first insert when none was declared); a record whose key tuple
        # deviates from it is tracked in ``_irregular`` and every
        # column-answered read falls back to the dict scan while any
        # such record exists.  Row dicts stay authoritative — the spine
        # only mirrors them so the hot paths (vectorized validation,
        # telemetry absorption, equality scans) can run down columns.
        self._layout: Optional[tuple[str, ...]] = self.fields or None
        self._cols: dict[str, list] = {name: [] for name in self.fields}
        self._col_list: list[list] = list(self._cols.values())
        # Admission compares ``data.keys()`` against this frozenset — a
        # single C set comparison, no tuple allocation per insert.  The
        # spine extracts values by name, so key *order* never matters
        # (``None`` — e.g. a duplicated declared field — admits nothing).
        self._layout_keys: Optional[frozenset] = (
            frozenset(self._layout)
            if self._layout is not None
            and len(self._layout) == len(self._cols)
            else None
        )
        self._col_pairs: list[tuple[str, list]] = list(self._cols.items())
        self._col_ids: list[Optional[int]] = []
        self._slots: dict[int, int] = {}
        self._irregular: set[int] = set()
        self._tombstones = 0
        self._col_epoch = 0
        # Column kernels: the zone maps (sticky per-column ColumnStats
        # envelopes) and the typed buffers (machine-scalar mirrors of
        # homogeneous numeric columns, ``repro.colkernels``).  Both are
        # maintained *incrementally*: ``_kernel_upto`` counts the
        # leading spine slots already folded in; chunk admission folds
        # its tail eagerly, single inserts defer to the next columnar
        # read (``_sync_kernels``), and in-place cell writes below the
        # watermark are folded at write time.  ``_demoted`` columns
        # stay plain lists until compaction rebuilds the kernel state.
        self._col_stats: dict[str, ColumnStats] = {
            name: ColumnStats() for name in self._cols
        }
        self._typed: dict[str, TypedColumn] = {}
        self._demoted: set[str] = set()
        self._kernel_upto = 0
        self._kernel_promotions = 0
        self._kernel_demotions = 0
        # Streaming DQ telemetry: maintained under the entity lock next
        # to the field indexes, default-on.  ``None`` while disabled (or
        # pending a rebuild after re-enabling).  Writes only enqueue
        # compact op tuples on ``_telemetry_pending``; the accumulator
        # absorbs the queue on the next telemetry read, so the write
        # path never pays the per-value accounting.
        self._telemetry_enabled = True
        self._telemetry: Optional[EntityAccumulator] = EntityAccumulator(name)
        self._telemetry_pending: list[tuple] = []
        self.telemetry_rebuilds = 0

    def attach_backend(self, backend) -> None:
        """Swap the durable backend in place (replication failover).

        Same durability gate as construction: a non-durable backend
        detaches logging entirely, keeping the hot path untouched.
        """
        with self._lock:
            self._backend = (
                backend if backend is not None and backend.durable else None
            )

    # -- streaming DQ telemetry -------------------------------------------

    def set_telemetry(self, enabled: bool) -> None:
        """Enable or disable streaming DQ telemetry for this entity.

        Disabling drops the accumulator (writes stop paying for it);
        re-enabling rebuilds it lazily from the stored records on the
        next telemetry read.
        """
        with self._lock:
            self._telemetry_enabled = enabled
            if not enabled:
                self._telemetry = None
                self._telemetry_pending.clear()

    @property
    def telemetry(self) -> Optional[EntityAccumulator]:
        """The **live**, fully-drained accumulator (entity-lock
        discipline applies) — ``None`` while telemetry is disabled.
        Prefer :meth:`telemetry_snapshot` / :meth:`measure_telemetry`
        outside the store."""
        with self._lock:
            accumulator = self._telemetry
            if accumulator is None:
                if not self._telemetry_enabled:
                    return None
                # Rebuild from the stored records; nothing can be
                # pending (hooks only enqueue while an accumulator
                # exists, and disabling cleared the queue).
                accumulator = EntityAccumulator(self.name)
                for stored in self._records.values():
                    accumulator.observe_insert(stored)
                self._telemetry = accumulator
                self.telemetry_rebuilds += 1
                return accumulator
            pending = self._telemetry_pending
            if pending:
                self._telemetry_pending = []
                accumulator.absorb(pending)
            return accumulator

    def telemetry_snapshot(self) -> Optional[EntityAccumulator]:
        """A mergeable point-in-time copy of the accumulator (``None``
        while telemetry is disabled)."""
        with self._lock:
            accumulator = self.telemetry
            return accumulator.snapshot() if accumulator is not None else None

    def measure_telemetry(self, fn):
        """Run a read ``fn(accumulator)`` under the entity lock, without
        paying for a snapshot copy; ``None`` while disabled."""
        with self._lock:
            accumulator = self.telemetry
            if accumulator is None:
                return None
            return fn(accumulator)

    def telemetry_frame(self) -> Optional[tuple]:
        """The accumulator snapshot as an encoded interchange frame —
        ``(key, frame_bytes)``, or ``None`` while disabled.

        The key is the accumulator's identity plus its ``(updates,
        records)`` counters (every absorbed mutation ticks ``updates``),
        so equal keys name an identical frame.
        """
        from repro import interchange

        with self._lock:
            accumulator = self.telemetry
            if accumulator is None:
                return None
            key = (id(accumulator), accumulator.updates, accumulator.records)
            return key, interchange.encode_accumulator(accumulator)

    def ship_telemetry_ops(self) -> Optional[bytes]:
        """Drain the deferred telemetry queue into one encoded
        interchange frame while absorbing it locally — the op-stream
        lane of telemetry shipping.

        ``cols`` ops captured off promoted kernel buffers carry typed
        ``array('q'/'d')`` slices; the codec ships them as raw
        little-endian buffers and the remote absorb hands the decoded
        columns straight to ``observe_columns`` — the census and
        str-lane kernels run on the shipped slices without
        re-transposing rows.  Metadata sidecars are snapshotted at ship
        time (the local queue holds live references read at absorb
        time; a frame cannot).  ``None`` when telemetry is disabled or
        nothing is pending.
        """
        from repro import interchange

        with self._lock:
            accumulator = self._telemetry
            if accumulator is None or not self._telemetry_pending:
                return None
            pending = self._telemetry_pending
            self._telemetry_pending = []
            frame = interchange.encode_telemetry_ops(pending)
            accumulator.absorb(pending)
            return frame

    def absorb_telemetry_frame(self, frame: bytes) -> int:
        """Absorb one :meth:`ship_telemetry_ops` frame into this
        store's accumulator (the mirror side of telemetry shipping);
        returns the op count, 0 while telemetry is disabled."""
        from repro import interchange

        ops = interchange.decode_telemetry_ops(frame)
        with self._lock:
            accumulator = self.telemetry
            if accumulator is None:
                return 0
            accumulator.absorb(ops)
            return len(ops)

    # -- secondary indexes -------------------------------------------------

    def create_index(self, field_name: str) -> "EntityStore":
        """Declare a hash index on one data field.

        Maintained transactionally under the entity lock by every write;
        existing records are indexed immediately.  Unhashable field
        values simply stay out of the index (``find_by`` then falls back
        to the scan for them).
        """
        with self._lock:
            if field_name in self._field_indexes:
                return self
            index: dict[object, set[int]] = {}
            self._field_indexes[field_name] = index
            for record_id, stored in self._records.items():
                self._index_field_value(field_name, stored, record_id)
            return self

    @property
    def indexed_fields(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._field_indexes)

    def _index_field_value(
        self, field_name: str, stored: StoredRecord, record_id: int
    ) -> None:
        try:
            value = stored.data.get(field_name)
            self._field_indexes[field_name].setdefault(
                value, set()
            ).add(record_id)
        except TypeError:  # unhashable value: stays scannable only
            pass

    def _index_record(self, stored: StoredRecord) -> None:
        for field_name in self._field_indexes:
            self._index_field_value(field_name, stored, stored.record_id)
        self._confidentiality.index(stored.record_id, stored.metadata)

    def _unindex_field_values(
        self, record_id: int, stored: StoredRecord
    ) -> None:
        for field_name, index in self._field_indexes.items():
            value = stored.data.get(field_name)
            try:
                bucket = index.get(value)
            except TypeError:  # was never indexed
                continue
            if bucket is not None:
                bucket.discard(record_id)
                if not bucket:
                    del index[value]

    def reindex_metadata(self, record_id: int, log: bool = True) -> None:
        """Refresh the confidentiality index after metadata changed.

        Confidentiality metadata is stamped *after* the insert (the write
        path hands the live record to ``restrict``), so
        :meth:`ContentStore.store` calls this once the sidecar is final.
        ``log=False`` skips the per-record WAL op — for batch callers
        whose combined :meth:`log_rows` op already carries the final
        metadata.
        """
        with self._lock:
            stored = self._live(record_id)
            self._confidentiality.index(record_id, stored.metadata)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("meta", record_id, stored.metadata)
                )
            if log and self._backend is not None:
                self._backend.append({
                    "op": "meta",
                    "entity": self.name,
                    "id": record_id,
                    "meta": stored.metadata.to_state(),
                })

    # -- columnar spine (entity lock held by every caller) -----------------

    def _col_add(self, stored: StoredRecord) -> None:
        """Mirror a just-inserted record into the column arrays."""
        data = stored.data
        if self._layout is None:
            if not data:
                self._irregular.add(stored.record_id)
                return
            layout = tuple(data)
            self._layout = layout
            self._cols = {name: [] for name in layout}
            self._col_list = list(self._cols.values())
            self._col_pairs = list(self._cols.items())
            self._layout_keys = frozenset(layout)
            self._col_stats = {name: ColumnStats() for name in layout}
        if tuple(data) == self._layout:
            self._slots[stored.record_id] = len(self._col_ids)
            self._col_ids.append(stored.record_id)
            self._col_epoch += 1
            # ``any`` drains the C-level map (append returns None)
            any(map(list.append, self._col_list, data.values()))
        elif data.keys() == self._layout_keys:
            # same fields, different key order: still regular — the
            # spine extracts by name, so only the probes cost more
            self._slots[stored.record_id] = len(self._col_ids)
            self._col_ids.append(stored.record_id)
            self._col_epoch += 1
            for name, column in self._col_pairs:
                column.append(data[name])
        else:
            self._irregular.add(stored.record_id)

    def _col_add_chunk(self, stored_list: Sequence[StoredRecord]) -> None:
        """Mirror a whole ``insert_many`` chunk into the columns.

        The uniform case (every row carries exactly the layout keys —
        the batched form path always does) admits the chunk with one
        slot/epoch update and a single per-field extend, so the spine
        tax per record is a set comparison and F dict probes instead of
        the per-record bookkeeping of :meth:`_col_add`."""
        if self._layout is None:
            # adopt the layout from the first row, then retry the rest
            self._col_add(stored_list[0])
            stored_list = stored_list[1:]
            if not stored_list:
                return
            if self._layout is None:
                for stored in stored_list:
                    self._col_add(stored)
                return
        keys = self._layout_keys
        datas = [stored.data for stored in stored_list]
        if all(d.keys() == keys for d in datas):
            col_ids = self._col_ids
            base = len(col_ids)
            self._col_epoch += 1
            rids = [stored.record_id for stored in stored_list]
            col_ids.extend(rids)
            self._slots.update(zip(rids, range(base, base + len(rids))))
            for name, column in self._col_pairs:
                column.extend(map(itemgetter(name), datas))
            # Chunk admissions fold into the kernels eagerly: the chunk
            # is in hand and homogeneous, so the zone-map/buffer update
            # is one vectorizable pass — and sweeps right after a bulk
            # load (the cold-sweep case) find the kernels already warm.
            self._sync_kernels()
        else:
            for stored in stored_list:
                self._col_add(stored)

    def _col_update(self, record_id: int, stored: StoredRecord, delta: dict) -> None:
        """Mirror an update.  A merge can only add keys, so an unchanged
        dict length means the key tuple still equals the layout and the
        changed cells are written in place; a widened record is demoted
        to the irregular set (its slot becomes a tombstone)."""
        slot = self._slots.get(record_id)
        if slot is None:
            return  # irregular records stay dict-served
        if len(stored.data) == len(self._layout):
            cols = self._cols
            stats = self._col_stats
            self._col_epoch += 1
            synced = slot < self._kernel_upto
            for name, value in delta.items():
                column = cols[name]
                if synced:
                    # the cell is inside the kernels: widen the sticky
                    # envelope with the new value and patch the buffer
                    # (or demote it if the value changed type)
                    stats[name].observe(value)
                    typed = self._typed.get(name)
                    if typed is not None and not set_typed(
                        typed, slot, value
                    ):
                        del self._typed[name]
                        self._demoted.add(name)
                        self._kernel_demotions += 1
                else:
                    # the old cell would be lost before the next sync —
                    # fold it into the envelope now, exactly as if the
                    # sync had run before this write (idempotent, so
                    # eager and lazy admission styles stay identical)
                    stats[name].observe(column[slot])
                column[slot] = value
            return
        del self._slots[record_id]
        self._irregular.add(record_id)
        self._col_tombstone(slot)

    def _col_remove(self, record_id: int) -> None:
        """Mirror a delete: tombstone the slot (or drop the irregular)."""
        slot = self._slots.pop(record_id, None)
        if slot is None:
            self._irregular.discard(record_id)
            return
        self._col_tombstone(slot)

    def _col_tombstone(self, slot: int) -> None:
        self._col_epoch += 1
        self._col_ids[slot] = None
        if slot >= self._kernel_upto:
            # the dying cells never reached the kernels — fold them into
            # the envelopes first (as the sync would have), so eager and
            # lazy admission styles keep bit-identical zone maps
            for name, column in self._col_pairs:
                self._col_stats[name].observe(column[slot])
        for column in self._col_list:
            column[slot] = None
        self._tombstones += 1
        if self._tombstones > 64 and self._tombstones * 2 > len(self._col_ids):
            self._compact_columns()

    def _compact_columns(self) -> None:
        """Drop tombstoned slots, preserving live-slot (insertion) order."""
        keep = [
            slot for slot, rid in enumerate(self._col_ids) if rid is not None
        ]
        self._col_ids = [self._col_ids[slot] for slot in keep]
        for name, column in self._cols.items():
            self._cols[name] = [column[slot] for slot in keep]
        self._col_list = list(self._cols.values())
        self._col_pairs = list(self._cols.items())
        self._slots = {rid: slot for slot, rid in enumerate(self._col_ids)}
        self._tombstones = 0
        # Compaction is the one event that sheds dead weight from the
        # kernels: reset them so the next sync rebuilds zone maps and
        # buffers from exactly the surviving cells (this is also what
        # clears a sticky demotion once the offending cells are gone).
        self._col_stats = {name: ColumnStats() for name in self._cols}
        self._typed = {}
        self._demoted = set()
        self._kernel_upto = 0

    def _sync_kernels(self) -> None:
        """Fold the unsynced spine tail into the zone maps and typed
        buffers (entity lock held).

        ``_kernel_upto`` counts the leading slots already folded in;
        everything past it is absorbed here in one pass per column —
        census, chunked zone-map fold, buffer extend (or first
        promotion, or demotion when the tail breaks the column's type).
        Tombstoned tail slots are skipped for the envelope (their cells
        are dead ``None``s) and padded with fillers in the buffers so
        buffer index == spine slot always holds.
        """
        ids = self._col_ids
        upto = self._kernel_upto
        total = len(ids)
        if upto == total:
            return
        live = None
        if self._tombstones:
            live = [
                slot for slot in range(upto, total)
                if ids[slot] is not None
            ]
            if len(live) == total - upto:
                live = None
        typed_map = self._typed
        demoted = self._demoted
        for name, column in self._col_pairs:
            if live is None:
                tail = column[upto:]
            else:
                tail = [column[slot] for slot in live]
            census = set(map(type, tail))
            stats = self._col_stats[name]
            if tail:
                stats.observe_chunk(tail, census)
            typed = typed_map.get(name)
            if typed is not None:
                if not tail:
                    typed.pad(total - upto)
                else:
                    if live is not None:
                        filler = typed.filler
                        tail = [
                            column[slot] if ids[slot] is not None
                            else filler
                            for slot in range(upto, total)
                        ]
                    if not extend_typed(typed, census, tail):
                        del typed_map[name]
                        demoted.add(name)
                        self._kernel_demotions += 1
            elif tail and name not in demoted:
                promoted = promote_column(column, ids)
                if promoted is not None:
                    typed_map[name] = promoted
                    self._kernel_promotions += 1
                else:
                    demoted.add(name)
        self._kernel_upto = total

    def columnar_stats(self) -> dict:
        """Introspection for tests and the columnar bench."""
        with self._lock:
            self._sync_kernels()
            typed = self._typed
            return {
                "layout": list(self._layout) if self._layout else None,
                "slots": len(self._slots),
                "tombstones": self._tombstones,
                "irregular": len(self._irregular),
                "epoch": self._col_epoch,
                "zone_maps": {
                    name: stats.as_dict()
                    for name, stats in self._col_stats.items()
                },
                "kernels": {
                    "mode": colkernels.kernel_mode(),
                    "columns": {
                        name: (
                            typed[name].mode if name in typed else "list"
                        )
                        for name in self._cols
                    },
                    "promotions": self._kernel_promotions,
                    "demotions": self._kernel_demotions,
                },
            }

    def revalidate(self, plan) -> dict[int, list]:
        """Re-run a compiled plan over every live record, answering from
        the columnar spine: findings keyed by record id.

        This is the full-entity DQ sweep (scorecard-style re-audit of
        already-admitted data).  When the plan carries a column-sliced
        body and every record sits in the spine, each scan term runs
        down whole columns — and the zone maps (refreshed lazily per
        mutation epoch) usually answer a column in O(1) without
        touching a single cell.  Any irregular record, plan without a
        columnar body, or field mismatch falls back to the fused row
        scan over the authoritative dicts, so the result is identical
        either way (the row path is the oracle).
        """
        with self._lock:
            check_columns = getattr(plan, "check_columns", None)
            layout = self._layout
            if (
                check_columns is not None
                and layout is not None
                and not self._irregular
                and set(plan.bound_fields) <= set(self._cols)
            ):
                self._sync_kernels()
                bound = plan.bound_fields
                columns = [self._cols[name] for name in bound]
                stats = [self._col_stats[name] for name in bound]
                typed = self._typed
                buffers = [typed.get(name) for name in bound]
                results = check_columns(
                    columns, len(self._col_ids), stats, buffers
                )
                ids = self._col_ids
                if self._tombstones:
                    # dead slots ride along in the column pass (their
                    # cells are ``None``) and are dropped here — only
                    # live records answer the sweep
                    return {
                        rid: findings
                        for rid, findings in zip(ids, results)
                        if rid is not None
                    }
                return dict(zip(ids, results))
            rows = [stored.data for stored in self._records.values()]
            ids = list(self._records.keys())
            return dict(zip(ids, plan.check_batch(rows, False)))

    # -- writes ------------------------------------------------------------

    def insert(self, data: dict, record_id: Optional[int] = None) -> StoredRecord:
        """Insert a record; returns the **live** stored record.

        ``record_id`` lets a caller that allocates ids globally (the
        sharded gateway) pin the id; the local allocator is kept ahead so
        unpinned inserts never collide with pinned ones.
        """
        with self._lock:
            pinned = record_id is not None
            if record_id is None:
                record_id = self._ids.allocate()
            else:
                if record_id in self._records:
                    raise ValueError(
                        f"{self.name}: record id {record_id} already in use"
                    )
                self._ids.reserve(record_id)
            stored = StoredRecord(record_id, dict(data))
            self._records[record_id] = stored
            self._index_record(stored)
            self._col_add(stored)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("row", record_id, stored.data, stored.metadata)
                )
            if self._backend is not None:
                # ``pinned`` tells replay which allocation style to
                # reproduce: reserve() for externally assigned ids,
                # bump_to() for locally allocated ones — so the
                # recovered allocator matches the original exactly.
                # ``shareable`` re-exports the walk insert already ran,
                # so ship-time coalescing can certify a folded run
                # without re-walking every value.
                self._backend.append({
                    "op": "insert",
                    "entity": self.name,
                    "id": record_id,
                    "data": dict(stored.data),
                    "pinned": pinned,
                    "shareable": stored.shareable,
                })
            return stored

    def insert_many(
        self,
        rows: Sequence[dict],
        record_ids: Optional[Sequence[Optional[int]]] = None,
        log: bool = True,
    ) -> list[StoredRecord]:
        """Insert a whole chunk under one lock trip, **telemetry
        deferred**: the caller stamps metadata on the returned records
        and then hands the chunk to :meth:`observe_inserted` so the
        accumulators absorb it in a single batched update (the ≤10%
        write-overhead contract of ``submit_many``).  ``log=False``
        defers WAL logging to the caller's :meth:`log_rows`, which
        folds the stamped metadata into the same combined op.
        """
        with self._lock:
            if record_ids is None:
                record_ids = (None,) * len(rows)
            stored_list: list[StoredRecord] = []
            pins: list[bool] = []
            for data, record_id in zip(rows, record_ids):
                pinned = record_id is not None
                if record_id is None:
                    record_id = self._ids.allocate()
                else:
                    if record_id in self._records:
                        raise ValueError(
                            f"{self.name}: record id {record_id} "
                            "already in use"
                        )
                    self._ids.reserve(record_id)
                stored = StoredRecord(record_id, dict(data))
                self._records[record_id] = stored
                self._index_record(stored)
                stored_list.append(stored)
                pins.append(pinned)
            if stored_list:
                self._col_add_chunk(stored_list)
            if log and self._backend is not None and stored_list:
                # the shareability walk already ran per record — certify
                # the chunk so a batched replay can skip repeating it
                self._backend.append({
                    "op": "rows",
                    "entity": self.name,
                    "shareable": all(
                        stored.shareable for stored in stored_list
                    ),
                    "rows": [
                        [stored.record_id, dict(stored.data), pinned]
                        for stored, pinned in zip(stored_list, pins)
                    ],
                })
            return stored_list

    def log_rows(
        self,
        stored_list: Sequence[StoredRecord],
        record_ids: Optional[Sequence[Optional[int]]] = None,
        user: Optional[str] = None,
        security_level: int = 0,
        available_to: Iterable[str] = (),
    ) -> None:
        """One combined WAL op for a stamped ``insert_many`` chunk.

        Data and metadata land in a single record, so replay never needs
        the per-row ``meta`` ops.  The chunk's provenance is regular —
        every row was just stamped ``record_store(user)`` +
        ``restrict(security_level, available_to)`` under this entity's
        lock (that is the caller's contract) — so the op carries the
        shared fields once and only each row's tick, which is what keeps
        the durable batch write path within its overhead floor.  Row
        data is stored *columnar*: the field names appear once in the op
        header and each row carries just its value list (a row whose
        keys deviate from the chunk's layout falls back to its full
        dict).  Ops are encoded by ``append`` before the lock is
        released, so row values are passed by reference, not copied.
        """
        if self._backend is None or not stored_list:
            return
        if record_ids is None:
            record_ids = (None,) * len(stored_list)
        fields = tuple(stored_list[0].data)
        entries = []
        for stored, record_id in zip(stored_list, record_ids):
            data = stored.data
            entries.append([
                stored.record_id,
                list(data.values()) if tuple(data) == fields else data,
                record_id is not None,
                stored.metadata.stored_date,
            ])
        self._backend.append({
            "op": "rows",
            "entity": self.name,
            "by": user,
            "level": security_level,
            "grants": sorted(available_to),
            "fields": list(fields),
            # certify the chunk's shareability once (the walk already
            # ran per record on insert) for batched replay
            "shareable": all(
                stored.shareable for stored in stored_list
            ),
            "rows": entries,
        })

    def observe_inserted(self, stored_list: Sequence[StoredRecord]) -> None:
        """Feed an :meth:`insert_many` chunk (metadata already stamped)
        to the telemetry accumulator as one batched update.

        The write path only captures references — the published dicts
        are copy-on-write, so they are frozen the moment they are
        captured.  A chunk that landed contiguously in the columnar
        spine (the batched form path always does) is captured as a
        ``cols`` op — per-column slices of the spine arrays, value
        references only — so absorb never pays the row→column
        transpose; ragged or scattered chunks keep the ``rows`` op and
        absorb-side detection (:meth:`EntityAccumulator.absorb`).
        """
        with self._lock:
            if self._telemetry is None:
                return
            layout = self._layout
            if layout is not None and len(stored_list) >= 8:
                slots = self._slots
                base = slots.get(stored_list[0].record_id)
                if base is not None:
                    expected = base
                    for stored in stored_list:
                        if slots.get(stored.record_id) != expected:
                            expected = None
                            break
                        expected += 1
                    if expected is not None:
                        count = len(stored_list)
                        # Promoted columns hand over *typed* slices —
                        # ``array('q'/'d')`` copies straight off the
                        # kernel buffer, so the absorb-side numeric
                        # census reads machine scalars via the buffer
                        # protocol instead of re-boxing a list.  Exact:
                        # the contiguity walk above proved every slot in
                        # [base, base+count) belongs to a live record
                        # (deleted ids leave ``_slots``), and the synced
                        # watermark proves the buffer mirrors the cells.
                        typed = self._typed
                        stats = self._col_stats
                        upto = self._kernel_upto
                        end = base + count
                        synced = upto >= end
                        self._telemetry_pending.append((
                            "cols",
                            layout,
                            [
                                buffer.buf[base:end]
                                if synced
                                and (buffer := typed.get(name)) is not None
                                else column[base:end]
                                for name, column in zip(
                                    layout, self._col_list
                                )
                            ],
                            [
                                (stored.record_id, stored.metadata)
                                for stored in stored_list
                            ],
                            # Census hints: the zone map's admitted-type
                            # census covers a superset of these cells
                            # (every value ever written, None included),
                            # so ``kinds == {str}`` proves the slice
                            # all-``str`` and absorb skips its type walk.
                            tuple(
                                "str"
                                if synced and stats[name].kinds == {str}
                                else None
                                for name in layout
                            ) if synced else None,
                        ))
                        return
            self._telemetry_pending.append(("rows", [
                (stored.record_id, stored.data, stored.metadata)
                for stored in stored_list
            ]))

    def pending_telemetry_ops(self) -> list[tuple]:
        """Snapshot-and-clear the deferred telemetry queue — bench and
        test introspection for the op shapes the write path captured
        (the accumulator normally drains this via :attr:`telemetry`)."""
        with self._lock:
            ops = self._telemetry_pending
            self._telemetry_pending = []
            return ops

    def update(self, record_id: int, data: dict) -> StoredRecord:
        """Merge ``data`` into a record — by *publishing a fresh dict*.

        The previously published dict is never mutated, so snapshots that
        structurally share its values stay frozen in time (the store-side
        half of the copy-on-write contract).
        """
        with self._lock:
            stored = self._live(record_id)
            if self._field_indexes:
                self._unindex_field_values(record_id, stored)
            old_data = stored.data
            stored.data = {**old_data, **data}
            stored.shareable = stored.shareable and _values_shareable(data)
            stored.version += 1
            for field_name in self._field_indexes:
                self._index_field_value(field_name, stored, record_id)
            self._col_update(record_id, stored, data)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("update", old_data, stored.data)
                )
            if self._backend is not None:
                self._backend.append({
                    "op": "update",
                    "entity": self.name,
                    "id": record_id,
                    "data": dict(data),
                    "version": stored.version,
                })
            return stored

    def delete(self, record_id: int) -> None:
        with self._lock:
            stored = self._live(record_id)
            del self._records[record_id]
            self._unindex_field_values(record_id, stored)
            self._confidentiality.unindex(record_id)
            self._col_remove(record_id)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("delete", record_id, stored.data)
                )
            if self._backend is not None:
                self._backend.append({
                    "op": "retire",
                    "entity": self.name,
                    "id": record_id,
                })

    def _live(self, record_id: int) -> StoredRecord:
        """The live record (write path / internal use only)."""
        try:
            return self._records[record_id]
        except KeyError:
            raise KeyError(
                f"{self.name}: no record with id {record_id}"
            ) from None

    # -- crash recovery (no backend logging, full index rebuild) -----------

    def restore_record(
        self,
        record_id: int,
        data: dict,
        metadata_state: Optional[dict] = None,
        version: int = 1,
        reserve: Optional[bool] = None,
    ) -> StoredRecord:
        """Re-materialize a record from durable state.

        Field indexes, the confidentiality index, and the telemetry
        queue are all fed exactly as a live insert would — only the
        backend logging is skipped (the op is already durable).

        ``reserve`` selects the allocator effect: ``True`` replays a
        pinned (externally assigned) id via :meth:`IdAllocator.reserve`,
        ``False`` replays a locally allocated id via
        :meth:`IdAllocator.bump_to`, and ``None`` (the snapshot path)
        leaves the allocator alone — its full state is restored
        separately via :meth:`restore_allocator`.
        """
        with self._lock:
            if record_id in self._records:
                raise ValueError(
                    f"{self.name}: record id {record_id} already in use"
                )
            if reserve is True:
                self._ids.reserve(record_id)
            elif reserve is False:
                self._ids.bump_to(record_id)
            stored = StoredRecord(record_id, dict(data), version=version)
            if metadata_state is not None:
                stored.metadata = DQMetadataRecord.from_state(metadata_state)
            self._records[record_id] = stored
            self._index_record(stored)
            self._col_add(stored)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("row", record_id, stored.data, stored.metadata)
                )
            return stored

    def restore_records(
        self,
        entries: Sequence[tuple],
        shareable: bool = False,
    ) -> list[StoredRecord]:
        """Batched :meth:`restore_record`: admit a whole run of
        ``(record_id, data, metadata_state, version, reserve)`` entries
        under **one** lock trip, mirrored into the columnar spine via
        :meth:`_col_add_chunk` (one epoch bump and one per-field extend
        for a layout-uniform run) with a single batched telemetry op.
        Field indexing is hoisted column-wise: one pass down the run per
        indexed field instead of a per-record method fan-out.

        Every ``data`` dict is shallow-copied, as
        :meth:`restore_record` does, so one shipped op run can feed
        several followers without aliasing.  ``shareable=True``
        certifies every data value would pass the store's shareability
        walk (the producer already knew — the primary's
        ``stored.shareable``, or the coalescer's scalar check), so the
        per-record walk is skipped with the same conclusion.

        The replicated catch-up path uses this to absorb a shipped op
        run; final store state is identical to replaying the entries
        one at a time through :meth:`restore_record` (the accumulator
        reaches the same state from one ``rows`` op as from N ``row``
        ops — only its ``updates`` tick count differs, which no durable
        or scored state observes).
        """
        with self._lock:
            records = self._records
            ids = self._ids
            make_metadata = DQMetadataRecord.from_state
            stored_list: list[StoredRecord] = []
            append = stored_list.append
            for record_id, data, metadata_state, version, reserve in entries:
                if record_id in records:
                    raise ValueError(
                        f"{self.name}: record id {record_id} already in use"
                    )
                if reserve is True:
                    ids.reserve(record_id)
                elif reserve is False:
                    ids.bump_to(record_id)
                stored = StoredRecord(
                    record_id,
                    dict(data),
                    version=version,
                    shareable=shareable,
                )
                if metadata_state is not None:
                    stored.metadata = make_metadata(metadata_state)
                records[record_id] = stored
                append(stored)
            if self._field_indexes:
                pairs = [
                    (stored.data, stored.record_id)
                    for stored in stored_list
                ]
                for field_name, index in self._field_indexes.items():
                    setdefault = index.setdefault
                    for data, record_id in pairs:
                        try:
                            setdefault(
                                data.get(field_name), set()
                            ).add(record_id)
                        except TypeError:  # unhashable: scannable only
                            pass
            self._confidentiality.index_chunk(stored_list)
            if stored_list:
                self._col_add_chunk(stored_list)
                if self._telemetry is not None:
                    self._telemetry_pending.append(("rows", [
                        (stored.record_id, stored.data, stored.metadata)
                        for stored in stored_list
                    ]))
            return stored_list

    def restore_update(
        self, record_id: int, data: dict, version: Optional[int] = None
    ) -> StoredRecord:
        """Replay a durable update op (same publish-fresh-dict path)."""
        with self._lock:
            stored = self._live(record_id)
            if self._field_indexes:
                self._unindex_field_values(record_id, stored)
            old_data = stored.data
            stored.data = {**old_data, **data}
            stored.shareable = (
                stored.shareable and _values_shareable(data)
            )
            stored.version = (
                version if version is not None else stored.version + 1
            )
            for field_name in self._field_indexes:
                self._index_field_value(field_name, stored, record_id)
            self._col_update(record_id, stored, data)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("update", old_data, stored.data)
                )
            return stored

    def restore_metadata(
        self, record_id: int, metadata_state: dict
    ) -> StoredRecord:
        """Replay a durable metadata re-stamp, index included."""
        with self._lock:
            stored = self._live(record_id)
            stored.metadata = DQMetadataRecord.from_state(metadata_state)
            self._confidentiality.index(record_id, stored.metadata)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("meta", record_id, stored.metadata)
                )
            return stored

    def restore_delete(self, record_id: int) -> None:
        """Replay a durable retire op."""
        with self._lock:
            stored = self._live(record_id)
            del self._records[record_id]
            self._unindex_field_values(record_id, stored)
            self._confidentiality.unindex(record_id)
            self._col_remove(record_id)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("delete", record_id, stored.data)
                )

    def restore_allocator(self, state: dict) -> None:
        with self._lock:
            self._ids = IdAllocator.from_state(state)

    def allocator_state(self) -> dict:
        with self._lock:
            return self._ids.to_state()

    def high_water_id(self) -> int:
        """The highest record id this store would refuse as a duplicate."""
        with self._lock:
            return self._ids.high_water()

    def dump_state(self) -> dict:
        """This entity's full durable state (records + allocator)."""
        with self._lock:
            return {
                "records": [
                    [
                        stored.record_id,
                        dict(stored.data),
                        stored.metadata.to_state(),
                        stored.version,
                    ]
                    for stored in self._records.values()
                ],
                "allocator": self._ids.to_state(),
            }

    # -- reads -------------------------------------------------------------

    def get(self, record_id: int, deep: bool = False) -> StoredRecord:
        """A defensive snapshot of one record."""
        with self._lock:
            return self._live(record_id).snapshot(
                deep or self.deep_snapshots
            )

    def all(self, deep: bool = False) -> list[StoredRecord]:
        deep = deep or self.deep_snapshots
        with self._lock:
            return [s.snapshot(deep) for s in self._records.values()]

    def query(
        self, predicate: Callable[[dict], bool], deep: bool = False
    ) -> list[StoredRecord]:
        deep = deep or self.deep_snapshots
        with self._lock:
            return [
                s.snapshot(deep)
                for s in self._records.values()
                if predicate(s.data)
            ]

    def find_by(
        self, field_name: str, value, deep: bool = False
    ) -> list[StoredRecord]:
        """Records whose ``field_name`` equals ``value`` — O(1) when the
        field is indexed (``create_index``), a column scan otherwise.
        Results come back in insertion order either way, exactly like
        :meth:`query` with an equality predicate."""
        deep = deep or self.deep_snapshots
        with self._lock:
            index = self._field_indexes.get(field_name)
            if index is None:
                return self._scan_by(field_name, value, deep)
            try:
                matches = index.get(value)
            except TypeError:
                # unhashable lookup value: such values never enter the
                # index, so only the scan can answer equality for them
                return self._scan_by(field_name, value, deep)
            if not matches:
                return []
            records = self._records
            if len(matches) == len(records):
                return [s.snapshot(deep) for s in records.values()]
            if not self._irregular and len(matches) * 4 <= len(records):
                # Slot order is insertion order, so sorting the matched
                # ids by slot skips the full-store walk entirely.
                ordered = sorted(matches, key=self._slots.__getitem__)
                return [records[rid].snapshot(deep) for rid in ordered]
            return [
                s.snapshot(deep)
                for record_id, s in records.items()
                if record_id in matches
            ]

    def _scan_by(self, field_name: str, value, deep: bool) -> list[StoredRecord]:
        """Equality scan, answered down the field's column when every
        record is on-layout (entity lock held).

        ``list.index`` compares identity before equality (so NaN finds
        itself), making the candidate set a superset of the dict scan's
        ``==`` matches — each hit is re-checked with a real ``==`` so
        both paths stay exactly equivalent.  Only the matching rows are
        materialized as snapshots.
        """
        records = self._records
        column = self._cols.get(field_name)
        if column is not None and not self._irregular:
            self._sync_kernels()
            ids = self._col_ids
            stat = self._col_stats.get(field_name)
            if (
                stat is not None
                and type(value) in _NUMERIC_PROBE_KINDS
                and stat.kinds <= _NUMERIC_ZONE_KINDS
                and not (
                    stat.zmin is not None
                    and stat.zmin <= value <= stat.zmax
                )
            ):
                # Zone-map prune: every value ever admitted was numeric
                # and the probe falls outside the envelope (or is NaN),
                # so no live cell can ``==`` it — answer without
                # touching a single cell.
                return []
            typed = self._typed.get(field_name)
            if typed is not None:
                slots = equal_slots(typed, value)
                if slots is not None:
                    return [
                        records[rid].snapshot(deep)
                        for slot in slots
                        if (rid := ids[slot]) is not None
                    ]
            matched: list[int] = []
            search = column.index
            position = 0
            try:
                while True:
                    position = search(value, position)
                    rid = ids[position]
                    if rid is not None and column[position] == value:
                        matched.append(rid)
                    position += 1
            except ValueError:
                pass
            return [records[rid].snapshot(deep) for rid in matched]
        return [
            s.snapshot(deep)
            for s in records.values()
            if s.data.get(field_name) == value
        ]

    def select_snapshots(
        self, predicate: Callable[[StoredRecord], bool], deep: bool = False
    ) -> list[StoredRecord]:
        """Snapshots of the records matching a whole-record predicate.

        Unlike :meth:`query` the predicate sees the full record (metadata
        included), and only the matching records pay the copy cost — this
        is the index-free *oracle* for the confidentiality-filtered read
        path (:meth:`readable_snapshots` is the indexed equivalent).
        """
        deep = deep or self.deep_snapshots
        with self._lock:
            return [
                s.snapshot(deep) for s in self._records.values()
                if predicate(s)
            ]

    def readable_snapshots(
        self, user: str, user_level: int, deep: bool = False
    ) -> tuple[StoredRecord, ...]:
        """Confidentiality-filtered snapshots via the hash index.

        Semantically identical to ``select_snapshots(lambda s:
        s.metadata.accessible_by(user, user_level))`` — the property
        tests hold the two paths equal — but the per-record Python
        predicate is replaced by set unions and C-speed membership
        checks.  Insertion order is preserved.  Returns a **tuple**
        (read results are never mutated in place), built straight from
        the cached readable-id set: repeated reads by the same principal
        between writes rebuild neither the id set nor any intermediate
        list, and only matching rows are materialized.
        """
        deep = deep or self.deep_snapshots
        with self._lock:
            readable = self._confidentiality.readable_ids(user, user_level)
            if not readable:
                return ()
            records = self._records
            if len(readable) == len(records):
                return tuple(s.snapshot(deep) for s in records.values())
            if not self._irregular and len(readable) * 4 <= len(records):
                ordered = sorted(readable, key=self._slots.__getitem__)
                return tuple(records[rid].snapshot(deep) for rid in ordered)
            return tuple(
                s.snapshot(deep)
                for record_id, s in records.items()
                if record_id in readable
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, record_id: int) -> bool:
        with self._lock:
            return record_id in self._records

    def __repr__(self) -> str:
        return f"<EntityStore {self.name!r} ({len(self)} records)>"


class ContentStore:
    """All entities of one application."""

    def __init__(self, clock: Optional[Clock] = None, backend=None):
        self.clock = clock or Clock()
        self._entities: dict[str, EntityStore] = {}
        self._lock = threading.RLock()
        self._backend = backend

    def define(self, name: str, fields: Sequence[str] = ()) -> EntityStore:
        with self._lock:
            if name in self._entities:
                raise ValueError(f"entity {name!r} already defined")
            store = EntityStore(name, fields, backend=self._backend)
            self._entities[name] = store
            return store

    def entity(self, name: str) -> EntityStore:
        with self._lock:
            try:
                return self._entities[name]
            except KeyError:
                raise KeyError(f"no entity named {name!r}") from None

    def attach_backend(self, backend) -> None:
        """Swap the durable backend on every entity (failover re-wire)."""
        with self._lock:
            self._backend = backend
            for store in self._entities.values():
                store.attach_backend(backend)

    def has_entity(self, name: str) -> bool:
        with self._lock:
            return name in self._entities

    @property
    def entity_names(self) -> list[str]:
        with self._lock:
            return list(self._entities)

    def set_deep_snapshots(self, enabled: bool) -> None:
        """Force (or release) the deepcopy snapshot path on every entity —
        the benchmark baseline switch."""
        with self._lock:
            for store in self._entities.values():
                store.deep_snapshots = enabled

    def set_telemetry(self, enabled: bool) -> None:
        """Enable or disable streaming DQ telemetry on every entity —
        the write-overhead benchmark baseline switch."""
        with self._lock:
            for store in self._entities.values():
                store.set_telemetry(enabled)

    # -- DQ-aware operations ----------------------------------------------

    def store(
        self,
        entity_name: str,
        data: dict,
        user: str,
        security_level: int = 0,
        available_to: Iterable[str] = (),
        record_id: Optional[int] = None,
    ) -> StoredRecord:
        """Insert with traceability + confidentiality metadata captured."""
        entity = self.entity(entity_name)
        with entity._lock:
            stored = entity.insert(data, record_id=record_id)
            stored.metadata.record_store(user, self.clock)
            stored.metadata.restrict(security_level, available_to)
            entity.reindex_metadata(stored.record_id)
            return stored

    def store_many(
        self,
        entity_name: str,
        rows: Sequence[dict],
        user: str,
        security_level: int = 0,
        available_to: Iterable[str] = (),
        record_ids: Optional[Sequence[Optional[int]]] = None,
    ) -> list[StoredRecord]:
        """Insert a validated chunk with metadata captured — the batched
        equivalent of calling :meth:`store` per row (same per-row clock
        ticks and stamps) with one lock trip and **one** telemetry update
        for the whole chunk.
        """
        entity = self.entity(entity_name)
        with entity._lock:
            stored_list = entity.insert_many(
                rows, record_ids=record_ids, log=False
            )
            for stored in stored_list:
                stored.metadata.record_store(user, self.clock)
                stored.metadata.restrict(security_level, available_to)
                entity.reindex_metadata(stored.record_id, log=False)
            # one WAL op carries the whole stamped chunk (data + metadata)
            entity.log_rows(
                stored_list, record_ids,
                user=user,
                security_level=security_level,
                available_to=available_to,
            )
            entity.observe_inserted(stored_list)
            return stored_list

    def modify(
        self, entity_name: str, record_id: int, data: dict, user: str
    ) -> StoredRecord:
        """Update with traceability metadata captured."""
        entity = self.entity(entity_name)
        with entity._lock:
            stored = entity.update(record_id, data)
            stored.metadata.record_modification(user, self.clock)
            entity.reindex_metadata(record_id)
            return stored

    def restrict(
        self,
        entity_name: str,
        record_id: int,
        security_level: int = 0,
        available_to: Iterable[str] = (),
    ) -> StoredRecord:
        """Re-stamp a record's confidentiality metadata, index included.

        Confidentiality metadata must change through here (or
        :meth:`store`) so the clearance index never drifts from the
        sidecar.
        """
        entity = self.entity(entity_name)
        with entity._lock:
            stored = entity._live(record_id)
            stored.metadata.restrict(security_level, available_to)
            entity.reindex_metadata(record_id)
            return stored

    def readable_by(
        self, entity_name: str, user: str, user_level: int
    ) -> tuple[StoredRecord, ...]:
        """Confidentiality-filtered read (the paper's Confidentiality DQR).

        Served from the per-entity clearance index; the full-scan
        predicate path (:meth:`EntityStore.select_snapshots`) remains as
        the oracle the property tests compare against.
        """
        return self.entity(entity_name).readable_snapshots(user, user_level)

    def total_records(self) -> int:
        with self._lock:
            return sum(len(store) for store in self._entities.values())
