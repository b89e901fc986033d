"""Interchange bench (ours): typed-buffer codec and batch hot paths.

The interchange layer must be *cheaper than the strings it replaces*:
numeric columns ship as raw little-endian buffers decoded zero-copy
(>= 5x the tagged-JSON codec — the CLI floor in ``cluster-bench
--interchange``), a coalesced insert run encodes once and replays
batched at >= 3x the per-op framed apply, and accumulator snapshots
encode to one typed frame.  The micro-benchmarks here pin the
per-op costs underneath the CLI floors: column encode/decode, op and
op-batch round-trips, insert-run coalescing, accumulator snapshot
encode/decode, and the framed telemetry ship/absorb pair.
"""

import random
from array import array

import pytest

from repro import interchange
from repro.casestudy import easychair
from repro.cluster import easychair_spec, run_interchange_bench
from repro.dq.streaming import EntityAccumulator

pytestmark = pytest.mark.interchange

SEED = 23
COLUMN = 8_192


@pytest.mark.slow
def test_interchange_floors_hold():
    result = run_interchange_bench(rounds=3)
    print()
    print(result.render())
    assert result.passed, "\n".join(result.floor_failures())


@pytest.mark.slow
@pytest.mark.parametrize("lag", [100, 1_000, 10_000])
def test_catchup_sweep_across_lags(lag):
    """Batched vs per-op catch-up at 100/1k/10k-op lag.  The 3x floor
    applies from the 1k-op line up (where the acceptance defines it);
    short tails ride along informationally — fixed per-catch-up costs
    dominate there — but every lag must land byte-identical state."""
    result = run_interchange_bench(
        lag=lag, batches=2, batch_rows=32, column_values=512,
        codec_iterations=2, preload=40, storm_count=20, rounds=2,
    )
    assert result.state_diffs == 0
    assert result.catchup_speedup > 0
    if lag >= 1_000:
        assert result.catchup_speedup >= 3.0, result.render()


def _columns(count=COLUMN, seed=SEED):
    rng = random.Random(seed)
    ints = array(
        "q", (rng.randrange(-(10 ** 12), 10 ** 12) for _ in range(count))
    )
    floats = array("d", (rng.random() * 1e6 for _ in range(count)))
    return ints, floats


def test_column_encode(benchmark):
    """Raw-buffer encode of one int64 + one float64 column."""
    ints, floats = _columns()

    def encode():
        return (
            interchange.encode_column(ints),
            interchange.encode_column(floats),
        )

    int_payload, float_payload = benchmark(encode)
    assert len(int_payload) > COLUMN * 8
    assert len(float_payload) > COLUMN * 8


def test_column_decode(benchmark):
    """Zero-copy decode back to typed values."""
    ints, floats = _columns()
    int_payload = interchange.encode_column(ints)
    float_payload = interchange.encode_column(floats)

    def decode():
        return (
            interchange.decode_column(int_payload),
            interchange.decode_column(float_payload),
        )

    decoded_ints, decoded_floats = benchmark(decode)
    assert list(decoded_ints) == ints.tolist()
    assert array("d", decoded_floats).tobytes() == floats.tobytes()


def _insert_tail(count=512, seed=SEED):
    spec = easychair_spec()
    rng = random.Random(seed)
    return spec, [
        (seq + 1, {
            "op": "insert", "entity": spec.entity, "id": seq + 1,
            "data": spec.clean_payload(rng), "pinned": False,
            "shareable": True,
        })
        for seq in range(count)
    ]


def test_coalesce_insert_run(benchmark):
    """Folding a 512-op insert tail into one synthetic rows op."""
    _spec, pairs = _insert_tail()

    folded = benchmark(interchange.coalesce_insert_runs, pairs)
    assert len(folded) == 1
    assert folded[0][1]["shareable"] is True
    assert len(folded[0][1]["rows"]) == len(pairs)


def test_op_batch_encode(benchmark):
    """A coalesced tail through the framed batch codec (ship side)."""
    _spec, pairs = _insert_tail()
    folded = interchange.coalesce_insert_runs(pairs)

    payload = benchmark(interchange.encode_op_batch, folded)
    assert payload


def test_op_batch_decode(benchmark):
    """The framed batch back to ops (apply side)."""
    _spec, pairs = _insert_tail()
    payload = interchange.encode_op_batch(
        interchange.coalesce_insert_runs(pairs)
    )

    decoded = benchmark(interchange.decode_op_batch, payload)
    assert len(decoded) == 1
    assert len(decoded[0][1]["rows"]) == len(pairs)


def test_per_op_framed_baseline(benchmark):
    """What the batch codec saves: each op individually framed+decoded."""
    _spec, pairs = _insert_tail(count=64)

    def per_op():
        return [
            interchange.decode_value(
                interchange.unframe(
                    interchange.frame(interchange.encode_op(op))
                )
            )
            for _seq, op in pairs
        ]

    decoded = benchmark(per_op)
    assert len(decoded) == 64


def _accumulator(rows=2_000, seed=SEED):
    spec = easychair_spec()
    rng = random.Random(seed)
    accumulator = EntityAccumulator(spec.entity)

    class Meta:
        stored_by = "u"
        stored_date = 1
        security_level = 0
        last_modified_date = 1

    accumulator.observe_rows([
        (i, spec.clean_payload(rng), Meta()) for i in range(rows)
    ])
    return accumulator


def test_accumulator_encode(benchmark):
    """Snapshot state to one typed frame (the ship side)."""
    accumulator = _accumulator()

    payload = benchmark(interchange.encode_accumulator, accumulator)
    assert payload


def test_accumulator_decode(benchmark):
    """Frame back to a mergeable accumulator (the receive side)."""
    accumulator = _accumulator()
    payload = interchange.encode_accumulator(accumulator)

    decoded = benchmark(interchange.decode_accumulator, payload)
    assert interchange.accumulator_fingerprint(decoded) == (
        interchange.accumulator_fingerprint(accumulator)
    )


def test_telemetry_ship_absorb(benchmark):
    """The framed telemetry lane end-to-end: drain one batched rows op
    off a primary and absorb it into a mirror accumulator."""
    from repro.dq.metadata import Clock
    from repro.runtime.dqengine import build_app

    spec = easychair_spec()
    rng = random.Random(SEED)
    design = easychair.build_design()

    def build():
        app = build_app(design, clock=Clock())
        for name, level, roles in easychair.USERS:
            app.add_user(name, level, roles)
        return app

    primary = build()
    entity = primary.store.entity(spec.entity)
    with interchange.forced_interchange(True):
        # store_many stamps metadata and hands the chunk to
        # observe_inserted — the path that queues the batched cols op
        # (a bare insert_many defers telemetry to its caller)
        primary.store.store_many(
            spec.entity,
            [spec.clean_payload(rng) for _ in range(256)],
            user="chair",
        )
        frame = entity.ship_telemetry_ops()
    assert frame is not None
    ops = interchange.decode_telemetry_ops(frame)
    # one batched cols op for the chunk (plus its per-record meta stamps)
    assert any(op[0] == "cols" for op in ops)
    mirror = build().store.entity(spec.entity)

    def absorb():
        return mirror.absorb_telemetry_frame(frame)

    absorbed = benchmark(absorb)
    assert absorbed == len(ops)
