"""End-to-end DQ gateway benchmark: run one workload for one seed.

    python3 e2ebench/run.py --workload review-serve --seed 1 --seconds 10 --trace 0

Run from the repository root.  Prints the environment, every metric with
its unit and sample count, every correctness gate, and as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the ``end_to_end`` names of ``BENCHMARK.json`` (``--trace 0``)
or its ``per_layer`` names (``--trace 1``).  Exits 1 when a gate fails or
checks nothing, 2 when the program or ``BENCHMARK.json`` is missing.

``--trace 1`` runs the workload twice with the same seed and half the
seconds each: untraced, then with spans recorded around the public
methods of every live layer.  The per-layer numbers come from the traced
run, ``trace.overhead_frac`` from the pair; the spans are written to
``e2ebench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: End-to-end timings compared between the traced and untraced runs.
OVERHEAD_METRICS = ("write_p50_us", "view_p50_us", "update_p50_us",
                    "list_p50_us")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("review-serve", "browse-hot",
                                 "ingest-durable"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str, code: int = 2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def load_contract() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def print_outcome(title: str, outcome) -> None:
    print(f"== {title}")
    for note in outcome.notes:
        print(f"note: {note}")
    for metric in outcome.metrics.table.values():
        print(metric.render())
    for key, value in outcome.counts.items():
        print(f"count {key} = {value}")
    for gate in outcome.gates:
        print(gate.render())


def overhead(base, traced, metrics) -> None:
    """``trace.overhead_frac``: the median over the workload's end-to-end
    p50 timings of traced / untraced, minus one."""
    ratios = []
    for name in OVERHEAD_METRICS:
        plain, slow = base.metrics.get(name), traced.metrics.get(name)
        if plain and slow:
            ratios.append(slow / plain)
            metrics.put(f"trace.ratio.{name}", slow / plain, "ratio", 2)
    metrics.put("trace.overhead_frac",
                statistics.median(ratios) - 1 if ratios else None, "frac",
                len(ratios))


def main(argv=None) -> int:
    args = parse_args(argv)
    contract = load_contract()
    sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro.cluster  # the program under test
    except ImportError as exc:
        fail(f"the program is not importable from {ROOT}/src: {exc}")
    if not os.path.abspath(repro.cluster.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep
    ):
        fail(f"repro was imported from {repro.cluster.__file__}, not "
             f"{ROOT}/src")
    from harness import Metrics, environment
    from tracer import Tracer, layer_metrics
    from workloads import OUT_DIR, WORKLOADS

    run = WORKLOADS[args.workload]
    env = environment(ROOT, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")

    # a traced run is a pair of half-length runs, so it costs about as
    # much time as an untraced one
    seconds = args.seconds / 2 if args.trace else args.seconds
    outcome = run(args.seed, seconds)
    print_outcome("end to end (untraced)", outcome)
    outcomes = [outcome]
    if args.trace:
        traced = run(args.seed, seconds, Tracer())
        print_outcome("traced run", traced)
        outcomes.append(traced)
        layers = Metrics()
        layer_metrics(traced.tracer, traced.counts, layers)
        late = traced.metrics.table.get("loadgen.late_us.p99")
        if late is None:  # a closed loop is never late
            layers.put("loadgen.late_us.p99", 0.0, "us", 0)
        else:
            layers.table[late.name] = late
        layers.count("loadgen.ops_attempted", traced.attempted)
        overhead(outcome, traced, layers)
        print("== per layer (traced run)")
        for metric in layers.table.values():
            print(metric.render())
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"
        )
        written = traced.tracer.dump(spans_path)
        print(f"spans: {written} written to "
              f"{os.path.relpath(spans_path, ROOT)}")
        reported, wanted = layers, contract["per_layer"]
    else:
        reported, wanted = outcome.metrics, contract["end_to_end"]

    correct = all(o.correct for o in outcomes)
    result = {
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {},
    }
    if correct:
        for entry in wanted:
            value = reported.get(entry["name"])
            if value is None:
                fail(f"metric {entry['name']} was not measured on "
                     f"{args.workload}", 3)
            result["metrics"][entry["name"]] = {
                "value": value, "unit": entry["unit"],
            }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
