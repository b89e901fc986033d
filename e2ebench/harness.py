"""Measurement plumbing shared by every workload: honest percentiles,
the per-op log, correctness gates and the environment block."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional

#: A percentile is reported only when at least this many samples lie
#: beyond it (p50 needs 20 samples, p99 needs 1000).
MIN_BEYOND = 10


def percentile(samples, q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile of ``samples``, or ``None`` when fewer
    than :data:`MIN_BEYOND` samples lie above it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


@dataclass
class Metric:
    """One reported number; ``n`` is the sample count behind it."""

    name: str
    value: Optional[float]
    unit: str
    n: int

    def render(self) -> str:
        if self.value is None:
            shown = f"n/a (fewer than {MIN_BEYOND} samples beyond it)"
        elif float(self.value).is_integer() and self.unit == "count":
            shown = f"{int(self.value)}"
        else:
            shown = f"{self.value:.6g}"
        return f"{self.name} = {shown} {self.unit}  (n={self.n})"


class Metrics:
    """An ordered name -> :class:`Metric` table."""

    def __init__(self):
        self.table: dict[str, Metric] = {}

    def put(self, name: str, value, unit: str, n: int) -> None:
        self.table[name] = Metric(name, value, unit, n)

    def timing(self, name: str, samples, q: float, unit: str) -> None:
        """A percentile of ``samples`` (seconds), scaled to ``unit``."""
        scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        value = percentile(samples, q)
        self.put(
            name, None if value is None else value * scale, unit,
            len(samples),
        )

    def count(self, name: str, value: int) -> None:
        self.put(name, value, "count", 1)

    def get(self, name: str) -> Optional[float]:
        metric = self.table.get(name)
        return None if metric is None else metric.value


@dataclass
class Gate:
    """A correctness gate: it must check at least one item and find no
    failure, or the run is not correct."""

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.failures

    def check(self, condition: bool, failure: str) -> None:
        self.checked += 1
        if not condition:
            self.failures.append(failure)

    def render(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        line = (
            f"gate {self.name}: {verdict} "
            f"({self.checked} checked, {len(self.failures)} failed)"
        )
        for failure in self.failures[:5]:
            line += f"\n    {failure}"
        return line


class OpLog:
    """Every timed operation of one run: latency per (kind, status) and
    whether the status was the one its kind expects."""

    def __init__(self, expected: dict, slo_s: Optional[float] = None):
        self.expected = expected
        self.slo_s = slo_s
        self.latency: dict[tuple, list] = defaultdict(list)
        self.statuses: Counter = Counter()
        self.attempted = 0
        self.errors = 0
        self.slo_misses = 0
        self.late: list = []
        self.unexpected: list = []

    def record(self, kind: str, status: int, elapsed: float) -> None:
        self.attempted += 1
        self.statuses[(kind, status)] += 1
        self.latency[(kind, status)].append(elapsed)
        wrong = status not in self.expected[kind]
        if wrong:
            self.errors += 1
            if len(self.unexpected) < 5:
                self.unexpected.append(f"{kind} answered {status}")
        if self.slo_s is not None and (wrong or elapsed > self.slo_s):
            self.slo_misses += 1

    def samples(self, kind: str, *statuses: int) -> list:
        out: list = []
        for status in statuses:
            out.extend(self.latency.get((kind, status), ()))
        return out

    def status_gate(self) -> Gate:
        gate = Gate("statuses-as-expected")
        gate.checked = self.attempted
        gate.failures = list(self.unexpected)
        if self.errors > len(self.unexpected):
            gate.failures.append(
                f"... {self.errors} op(s) in all answered an unexpected status"
            )
        return gate


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: str) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(root: str, seed: int) -> dict:
    """Where and how the run happened.  The kernel and interchange modes
    are read from the program as it configured itself, never set."""
    from repro.colkernels import kernel_mode
    from repro.interchange import interchange_active

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "kernel_mode": kernel_mode(),
        "interchange": "on" if interchange_active() else "off",
        "seed": seed,
        "git_commit": git_commit(root),
    }


def process_bytes_written() -> Optional[int]:
    """Bytes this process has passed to ``write()`` so far (Linux
    ``/proc/self/io`` ``wchar``), or ``None`` where unavailable."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None
