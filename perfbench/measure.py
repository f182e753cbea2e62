"""Small measurement helpers shared by every workload.

Exact order statistics (no histogram buckets), failure tallies counted
against what was attempted, process memory and CPU readings from
``/proc``, and hermetic trace-cache directories.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Working space inside the checkout; every run cleans up after itself.
WORK_DIR = ROOT / ".perfbench_work"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it. Always an observed value."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """The middle sample (mean of the two middle ones for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q`` percentile."""
    return count - math.ceil(q / 100.0 * count)


#: A percentile is only reported with at least this many samples above it.
MIN_BEYOND = 10


def windowed_percentile(windows: Iterable[Sequence[float]], q: float) -> float:
    """Median over time windows of each window's ``q`` percentile.

    Windows with fewer than :data:`MIN_BEYOND` samples above the
    percentile are skipped. One stalled window then moves the result by
    at most one rank instead of owning the whole tail."""
    per_window = [
        percentile(window, q)
        for window in windows
        if samples_beyond(len(window), q) >= MIN_BEYOND
    ]
    if not per_window:
        raise ValueError(f"no window has {MIN_BEYOND} samples beyond p{q:g}")
    return median(per_window)


class FailureTally:
    """Counts every request sent and every way one can fail.

    A request fails if it errored, was answered ``BUSY``, timed out or
    lost its connection; each failure is also counted by kind. The
    failed fraction is always taken against requests *sent*.
    """

    KINDS = ("error", "busy", "timeout", "connection")

    def __init__(self) -> None:
        self.sent = 0
        self.by_kind: Dict[str, int] = {kind: 0 for kind in self.KINDS}

    def record_sent(self, count: int = 1) -> None:
        self.sent += count

    def record_failure(self, kind: str) -> None:
        if kind not in self.by_kind:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.by_kind[kind] += 1

    @property
    def failed(self) -> int:
        return sum(self.by_kind.values())

    @property
    def ok(self) -> int:
        return self.sent - self.failed

    def failed_frac(self) -> float:
        return self.failed / self.sent if self.sent else 0.0

    def merge(self, other: "FailureTally") -> None:
        self.sent += other.sent
        for kind, count in other.by_kind.items():
            self.by_kind[kind] += count


def proc_status_kb(pid: int | str, field: str) -> int:
    """A ``kB`` field (``VmHWM``, ``VmRSS``...) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(f"{field} not in /proc/{pid}/status")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) in MiB."""
    return proc_status_kb(pid, "VmHWM") / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """CPU seconds of a live process: the scheduler's nanosecond counts
    of its threads (``schedstat``), else user plus system clock ticks."""
    try:
        total = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        return total / 1e9
    except (OSError, ValueError, IndexError):
        pass
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # The command name may hold spaces; fields resume after its ")".
    fields = text[text.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def fresh_dir(prefix: str) -> Path:
    """A new empty directory under :data:`WORK_DIR`."""
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR))


def remove_dirs(paths: Iterable[Path]) -> None:
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_DIR.rmdir()  # only when no concurrent run still uses it
    except OSError:
        pass

