"""Determinism self-check of the benchmark.

Two runs of a workload with the same seed must reproduce every count
exactly (WAL appends, syncs and checkpoints, data-dir bytes, cache hits
and misses, audit events, ``error_frac`` ...), and another seed must
produce other inputs.  Run from the repository root:

    python3 -m pytest e2ebench/test_determinism.py
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("review-serve", "browse-hot", "ingest-durable")
#: Small runs: the counts depend on the amount of work, not its speed.
SECONDS = "0.5"


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] > 0
    counts = {}
    for line in lines:
        match = re.match(r"^count (\S+) = (\S+)$", line)
        if match:
            counts[match.group(1)] = match.group(2)
        elif line.startswith("error_frac = "):
            counts["error_frac"] = line.split()[2]
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_reproduces_every_count(workload):
    first = run(workload, 7)
    second = dict(run.__wrapped__(workload, 7))
    expected = {"audit_events", "cache_hits", "cache_misses", "error_frac",
                "inputs", "ops_attempted"}
    if workload == "ingest-durable":
        expected |= {"wal_appends", "wal_syncs", "wal_checkpoints",
                     "data_dir_bytes"}
    assert expected <= set(first), sorted(expected - set(first))
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    assert run(workload, 7)["inputs"] != run(workload, 8)["inputs"]
