"""Host-speed calibration by reference loops sharing the measured CPU.

On a small shared host the speed of one CPU swings by tens of percent
from one minute to the next (other tenants on the sibling hyperthread,
in the caches, on the memory bus), and the whole program slows with
it. Wall time and CPU time both carry that swing; only a reference that
runs *at the same moments on the same CPU* can take it out.

So each measured CPU gets co-runners: fixed pure-Python LRU loops
(``OrderedDict`` caches, nothing from the program), pinned to that CPU
at a lower priority (nice ``NICE``: a seventh of the CPU each, when the
program wants all of it), each publishing how many operations
it has done and its own CPU seconds. The scheduler interleaves them
with the program every few milliseconds, so over any interval of a
fraction of a second their speeds (operations per CPU second) sample
the very same host conditions the program saw. There are two loops,
because a program's speed follows two things that move apart: one
cache of a few megabytes (``LOOPS["memory"]``) tracks the caches and
memory bus, one that fits in the first-level caches (``LOOPS["core"]``)
tracks the core itself. The host speed of an interval is the geometric
mean of the speeds of the loops a workload runs: the interpreter-bound
replays follow both, the socket-bound server follows the memory loop
alone (the core loop only adds noise there).

A measured CPU time ``t`` is reported as ``t * speed / REFERENCE_SPEED``:
the time the work would take on a host where that mean is
``REFERENCE_SPEED`` operations per CPU second. A faster program moves
that number; a slower or busier host does not.

    python3 perfbench/calibrate.py FD PARENT_PID KEYS CAPACITY   # one loop
"""

from __future__ import annotations

import math
import mmap
import os
import random
import signal
import struct
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Tuple

#: Mean loop speed, in operations per CPU second, of the reference host.
#: Any fixed value will do; it only sets the scale of calibrated numbers.
REFERENCE_SPEED = 1.0e6
#: The loops: (distinct keys requested, cache capacity).
LOOPS = {"memory": (200_000, 50_000), "core": (4_000, 1_000)}
#: Each loop's nice value: a loop takes about a seventh of the CPU from
#: a busy program, enough for many samples per interval.
NICE = 8
#: Operations between two published readings.
CHUNK = 4096
_RECORD = struct.Struct("ddd")  # ops, cpu seconds, ops again (torn-read guard)

HERE = Path(__file__).resolve()


def reference_loop(buffer: mmap.mmap, parent: int, keys: int, capacity: int) -> None:
    """One co-runner: an LRU cache of ``capacity`` entries fed a fixed
    pseudo-random sequence over ``keys`` distinct keys, forever. Exits
    when its parent is gone."""
    rng = random.Random(7)
    sequence = [rng.randrange(keys) for _ in range(16 * CHUNK)]
    chunks = [sequence[i:i + CHUNK] for i in range(0, len(sequence), CHUNK)]
    cache: OrderedDict = OrderedDict()
    clock = time.thread_time
    ops = 0.0
    while True:
        for chunk in chunks:
            for key in chunk:
                if key in cache:
                    cache.move_to_end(key)
                else:
                    cache[key] = key
                    if len(cache) > capacity:
                        cache.popitem(last=False)
            ops += CHUNK
            buffer[0:_RECORD.size] = _RECORD.pack(ops, clock(), ops)
        if os.getppid() != parent:
            return


#: (CPU, loop name) -> (operations, CPU seconds) at one moment.
Reading = Dict[Tuple[int, str], Tuple[float, float]]


class Calibrator:
    """The ``loops`` (names in :data:`LOOPS`) on each CPU in ``cpus``; a
    context manager that stops and reaps them all on the way out.

    ``reading()`` snapshots every co-runner; ``speed(before, after, cpu)``
    is the host speed of ``cpu`` between two snapshots, and ``factor``
    that speed over :data:`REFERENCE_SPEED`.
    """

    def __init__(self, cpus: Iterable[int], loops: Iterable[str] = tuple(LOOPS)) -> None:
        self.cpus = sorted(set(cpus))
        self.loops = tuple(loops)
        self._buffers: Dict[Tuple[int, str], mmap.mmap] = {}
        self._procs: Dict[Tuple[int, str], subprocess.Popen] = {}

    def __enter__(self) -> "Calibrator":
        try:
            for cpu in self.cpus:
                for name in self.loops:
                    self._start(cpu, name)
            self._wait_until_running()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _start(self, cpu: int, name: str) -> None:
        fd = os.memfd_create(f"perfbench-calibrate-{cpu}-{name}")
        try:
            os.ftruncate(fd, _RECORD.size)
            self._buffers[cpu, name] = mmap.mmap(fd, _RECORD.size)

            def pin() -> None:
                os.sched_setaffinity(0, {cpu})
                os.nice(NICE)

            keys, capacity = LOOPS[name]
            self._procs[cpu, name] = subprocess.Popen(
                [sys.executable, str(HERE), str(fd), str(os.getpid()), str(keys), str(capacity)],
                pass_fds=(fd,),
                preexec_fn=pin,
                stdin=subprocess.DEVNULL,
            )
        finally:
            os.close(fd)

    def _wait_until_running(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while any(ops == 0 for ops, _ in self.reading().values()):
            for key, proc in self._procs.items():
                if proc.poll() is not None:
                    raise RuntimeError(f"calibration loop {key} exited {proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("calibration loops did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait()
        self._procs.clear()
        for buffer in self._buffers.values():
            buffer.close()
        self._buffers.clear()

    def reading(self) -> Reading:
        snapshot = {}
        for key, buffer in self._buffers.items():
            while True:
                ops, cpu_s, check = _RECORD.unpack(buffer[0:_RECORD.size])
                if ops == check:
                    break
            snapshot[key] = (ops, cpu_s)
        return snapshot

    def speed(self, before: Reading, after: Reading, cpu: int) -> float:
        logs = []
        for name in self.loops:
            ops0, cpu0 = before[cpu, name]
            ops1, cpu1 = after[cpu, name]
            if cpu1 <= cpu0 or ops1 <= ops0:
                raise RuntimeError(
                    f"calibration loop {name!r} on CPU {cpu} did not run in the interval"
                )
            logs.append(math.log((ops1 - ops0) / (cpu1 - cpu0)))
        return math.exp(sum(logs) / len(logs))

    def factor(self, before: Reading, after: Reading, cpu: int) -> float:
        return self.speed(before, after, cpu) / REFERENCE_SPEED


class Interval:
    """A context manager: this process's CPU seconds over the ``with``
    block, as :attr:`seconds` at the reference speed of ``cpu`` (the
    CPU the process is pinned to)."""

    def __init__(self, calibrator: Calibrator, cpu: int) -> None:
        self.calibrator = calibrator
        self.cpu = cpu
        self.factor = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Interval":
        self._before = self.calibrator.reading()
        self._start = time.process_time()
        return self

    def __exit__(self, kind, *exc) -> None:
        if kind is not None:
            return
        used = time.process_time() - self._start
        self.factor = self.calibrator.factor(self._before, self.calibrator.reading(), self.cpu)
        self.seconds = used * self.factor


def measured_cpus(count: int) -> Tuple[int, ...]:
    """The first and (for ``count == 2``) last CPU this process may use."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0],) if count == 1 else (cpus[0], cpus[-1])


if __name__ == "__main__":
    fd, parent, keys, capacity = (int(arg) for arg in sys.argv[1:5])
    reference_loop(mmap.mmap(fd, _RECORD.size), parent, keys, capacity)
