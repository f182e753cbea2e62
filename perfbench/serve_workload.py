"""The ``serve-mixed`` workload: a live ``repro.serve`` listener in its
own process, driven over loopback TCP from this process.

Traffic is Zipf-distributed GETs and SETs (20% SETs with real payloads)
over the two tenants the listener registers. Every key has one payload,
fixed by the seed, so any GET hit must return exactly those bytes.

After a preload that SETs every key once (not timed), three phases
take turns, ``ROUNDS`` times, on the same ``CONNECTIONS`` connections:

* capacity -- closed loop, ``DEPTH`` requests in flight per connection;
* base -- closed loop, ``BASE_DEPTH`` requests in flight per connection
  (smaller batches, so per-batch costs weigh more);
* latency -- open loop, Poisson arrivals at ``OPEN_RATE`` per second,
  each request timed from its scheduled send time.

Taking turns spreads every phase over the whole run, so a few slow
seconds of a shared host touch a few turns of each phase instead of
all turns of one. Around each turn the load client reads the server's
``stats`` counters and its CPU seconds from ``/proc``.

The server is pinned to one CPU and this process to another, each
beside the memory calibration loop (see ``calibrate.py``). Throughput
is commands answered per server CPU second at the loop's reference
speed.
Open-loop latency is printed (wall time, as a user sees it) but not
reported as a metric: it carries the host's scheduling delays, which
no calibration removes.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from calibrate import Calibrator, Interval, measured_cpus
from measure import (
    FailureTally,
    fresh_dir,
    median,
    peak_rss_mb,
    percentile,
    proc_cpu_seconds,
    windowed_percentile,
)
from outcome import Outcome
from tracing import Tracer

from repro.serve import TCPClient

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 3
#: The listener: 4 shards of the ``default`` engine over the tenants of
#: the ``zipf`` workload (two apps) at this scale, engine seed fixed.
SERVER_ARGS = [
    "--shards", "4", "--scheme", "default", "--workload", "zipf",
    "--scale", "0.2", "--seed", "0",
]
APPS = ("zipf01", "zipf02")
KEYS_PER_APP = 6_000
ALPHA = 1.0
SET_FRACTION = 0.2
PAYLOAD_BYTES = (32, 480)
#: At most one connection per CPU, and never more than two.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
DEPTH = 64
BASE_DEPTH = 16
OPEN_RATE = 2_000.0
#: Open-loop senders per connection; a late reply delays the next send
#: only when all of them are waiting, and then the lag is measured.
OPEN_SENDERS = 16
#: Open-loop percentiles are medians over windows of this length (by
#: scheduled send time): about 2,000 samples, 20 above p99, each.
LATENCY_WINDOW_S = 1.0
#: Shares of ``--seconds`` per timed phase, split evenly over the rounds.
SHARES = {"capacity": 0.4, "base": 0.3, "latency": 0.2}
ROUNDS = 4
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0

LAYER_METRICS = [
    "workloads.build_s", "serve.parse_s", "serve.queue_wait_ms.p50", "serve.queue_wait_ms.p99",
    "serve.execute_self_s", "serve.process_batch_s", "serve.write_s", "serve.batch_mean",
    "serve.queue_high_water", "serve.server_cpu_frac", "serve.client_cpu_frac",
    "serve.gen_lag_p99_ms", "serve.commands", "serve.latency_samples",
    "trace.overhead_s", "trace.overhead_frac",
]

BUSY = b"SERVER_ERROR busy\r\n"
STORED = b"STORED\r\n"
END = b"END\r\n"


class Traffic:
    """Keys, payloads and request streams, all drawn from one seed."""

    def __init__(self, seed: int, open_seconds: float, rounds: int) -> None:
        rng = np.random.default_rng(seed)
        self.keys = [f"{app}:bench:{rank}" for app in APPS for rank in range(KEYS_PER_APP)]
        sizes = rng.integers(PAYLOAD_BYTES[0], PAYLOAD_BYTES[1] + 1, len(self.keys))
        self.get_cmd: List[bytes] = []
        self.set_cmd: List[bytes] = []
        self.hit_reply: List[bytes] = []
        for key, size in zip(self.keys, sizes.tolist()):
            payload = rng.integers(97, 123, size, dtype=np.uint8).tobytes()
            encoded = key.encode("ascii")
            self.get_cmd.append(b"get " + encoded + b"\r\n")
            self.set_cmd.append(b"set %s 0 0 %d\r\n%s\r\n" % (encoded, size, payload))
            self.hit_reply.append(b"VALUE %s 0 %d\r\n%s\r\n" % (encoded, size, payload) + END)
        weights = 1.0 / np.arange(1, KEYS_PER_APP + 1) ** ALPHA
        self._cdf = np.cumsum(weights) / weights.sum()
        self._rng = rng
        #: A long closed-loop stream of (key id, is-set), reused cyclically.
        self.stream = self.draw(400_000)
        #: Per round: open-loop send offsets (seconds) and their requests.
        self.open_rounds: List[Tuple[List[float], List[Tuple[int, bool]]]] = []
        for _ in range(rounds):
            gaps = rng.exponential(1.0 / OPEN_RATE, int(OPEN_RATE * open_seconds * 1.2) + 16)
            offsets = np.cumsum(gaps)
            offsets = offsets[offsets < open_seconds]
            self.open_rounds.append((offsets.tolist(), self.draw(len(offsets))))

    def draw(self, count: int) -> List[Tuple[int, bool]]:
        rng = self._rng
        ranks = np.searchsorted(self._cdf, rng.random(count), side="right")
        ranks = np.minimum(ranks, KEYS_PER_APP - 1)
        apps = rng.integers(0, len(APPS), count)
        ids = apps * KEYS_PER_APP + ranks
        sets = rng.random(count) < SET_FRACTION
        return list(zip(ids.tolist(), sets.tolist()))


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """One listener process pinned to ``cpu``; ``start`` returns once it
    prints its port, and records the CPU seconds it took to get there."""

    def __init__(self, cpu: int, spans_out: Optional[Path] = None) -> None:
        self.cpu = cpu
        self.spans_out = spans_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.startup_cpu_s = 0.0
        self.cache_dir = fresh_dir("serve-traces-")
        self.log = self.cache_dir / "server.log"

    def start(self) -> None:
        listener = ["--listen", "127.0.0.1:0"] + SERVER_ARGS
        if self.spans_out is None:
            command = [sys.executable, "-m", "repro.serve"] + listener
        else:
            command = [
                sys.executable, str(HERE / "serve_launcher.py"),
                "--spans-out", str(self.spans_out), "--",
            ] + listener
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_TRACE_CACHE=str(self.cache_dir))
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=env, cwd=HERE.parent,
                preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}),
            )
        line = self._read_line(START_TIMEOUT_S)
        if not line.startswith("serving on "):
            self.stop()
            tail = self.log.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"server did not start: {line!r}\n{tail}")
        self.startup_cpu_s = self.cpu_seconds()
        self.port = int(line.split()[2].rpartition(":")[2])

    def _read_line(self, timeout: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return ""
        return self.proc.stdout.readline().decode("utf-8", "replace").strip()

    def stop(self) -> int:
        """SIGTERM (the listener drains, then exits), then wait."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return code

    def cpu_seconds(self) -> float:
        assert self.proc is not None
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return peak_rss_mb(self.proc.pid)


# ---------------------------------------------------------------------------
# The load client
# ---------------------------------------------------------------------------


class PhaseResult:
    """Everything one phase measured, summed over its turns."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.tally = FailureTally()
        self.gets = 0
        self.hits = 0
        #: Commands answered in the timed turns, and the server's CPU
        #: seconds they took at the reference speed.
        self.answered = 0
        self.server_cpu_ref = 0.0
        #: Open loop: latencies by (turn, scheduled-send window).
        self.latency_windows: Dict[Tuple[int, int], List[float]] = {}
        self.lags: List[float] = []
        #: (start, stop) of each turn on the monotonic clock.
        self.intervals: List[Tuple[float, float]] = []
        self.wall = 0.0
        self.server_cpu = 0.0
        self.client_cpu = 0.0
        #: Sums of the server's ``stats`` counter changes over the turns.
        self.deltas: Dict[str, int] = {}
        self.queue_high_water = 0

    def delta(self, name: str) -> int:
        return self.deltas.get(name, 0)

    @property
    def latencies(self) -> List[float]:
        return [x for window in self.latency_windows.values() for x in window]

    def server_rps(self) -> float:
        """Commands answered per server CPU second at the reference speed."""
        return self.answered / self.server_cpu_ref


class LoadClient:
    def __init__(self, traffic: Traffic) -> None:
        self.traffic = traffic
        self.clients: List[TCPClient] = []
        self.bad_payloads = 0

    async def connect(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            client = TCPClient(connect_timeout=5.0, request_timeout=REQUEST_TIMEOUT_S)
            await client.connect("127.0.0.1", port)
            self.clients.append(client)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def stats(self) -> Dict[str, int]:
        reply = await self.clients[0].request(b"stats\r\n", op="stats")
        values = {}
        for line in reply.decode("ascii").splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0] == "STAT":
                try:
                    values[parts[1]] = int(parts[2])
                except ValueError:
                    pass
        return values

    async def send(self, client: TCPClient, key_id: int, is_set: bool, phase: PhaseResult) -> bool:
        """One request; True when it got a valid, successful reply."""
        traffic = self.traffic
        phase.tally.record_sent()
        try:
            if is_set:
                reply = await client.request(traffic.set_cmd[key_id], op="set")
            else:
                reply = await client.request(traffic.get_cmd[key_id], op="get")
        except ConnectionError as exc:
            kind = "timeout" if "no response" in str(exc) else "connection"
            phase.tally.record_failure(kind)
            return False
        if reply == BUSY:
            phase.tally.record_failure("busy")
            return False
        if is_set:
            if reply == STORED:
                return True
        else:
            phase.gets += 1
            if reply == END:
                return True
            if reply == traffic.hit_reply[key_id]:
                phase.hits += 1
                return True
            if reply.startswith(b"VALUE "):
                self.bad_payloads += 1
        phase.tally.record_failure("error")
        return False

    async def closed_loop(self, phase: PhaseResult, stream, depth: int, seconds: float) -> None:
        """``depth`` workers per connection, each sending its next request
        as soon as the previous one is answered, until ``seconds`` pass
        (or, with ``seconds == 0``, until ``stream`` is used up)."""
        loop = asyncio.get_running_loop()
        next_item = iter(stream).__next__
        start = loop.time()
        deadline = start + seconds if seconds else float("inf")

        async def worker(client: TCPClient) -> None:
            while loop.time() < deadline:
                try:
                    key_id, is_set = next_item()
                except StopIteration:
                    return
                await self.send(client, key_id, is_set, phase)

        await asyncio.gather(*(worker(c) for c in self.clients for _ in range(depth)))
        phase.intervals.append((start, loop.time()))

    async def open_loop(self, phase: PhaseResult, turn: int) -> None:
        """Poisson arrivals, dealt round-robin to the connections; every
        request is timed from its scheduled send time."""
        loop = asyncio.get_running_loop()
        offsets, requests = self.traffic.open_rounds[turn]
        start = loop.time() + 0.05
        windows = phase.latency_windows

        async def sender(client: TCPClient, next_index) -> None:
            for index in next_index:
                due = start + offsets[index]
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                phase.lags.append(loop.time() - due)
                key_id, is_set = requests[index]
                if await self.send(client, key_id, is_set, phase):
                    window = (turn, int(offsets[index] // LATENCY_WINDOW_S))
                    windows.setdefault(window, []).append(loop.time() - due)

        senders = []
        for position, client in enumerate(self.clients):
            indices = iter(range(position, len(offsets), len(self.clients)))
            senders.extend(sender(client, indices) for _ in range(OPEN_SENDERS))
        await asyncio.gather(*senders)
        phase.intervals.append((start, loop.time()))


async def _run_phase(
    load: LoadClient, server: ServerProcess, calibrator: Calibrator, phase: PhaseResult, body
) -> None:
    """Run one turn of a phase between two ``stats`` readings. The
    load client's own garbage collector is paused meanwhile: its pauses would
    show up as server latency."""
    before = await load.stats()
    gc.collect()
    gc.disable()
    answered = phase.tally.ok
    calibration = calibrator.reading()
    cpu = server.cpu_seconds()
    client_cpu = time.process_time()
    wall = time.monotonic()
    try:
        await body
    finally:
        phase.wall += time.monotonic() - wall
        server_cpu = server.cpu_seconds() - cpu
        phase.client_cpu += time.process_time() - client_cpu
        gc.enable()
    factor = calibrator.factor(calibration, calibrator.reading(), server.cpu)
    phase.server_cpu += server_cpu
    phase.server_cpu_ref += server_cpu * factor
    phase.answered += phase.tally.ok - answered
    after = await load.stats()
    for name, value in after.items():
        phase.deltas[name] = phase.deltas.get(name, 0) + value - before.get(name, 0)
    phase.queue_high_water = after.get("queue_depth_high_water", 0)


def _check_phase(out: Outcome, phase: PhaseResult) -> None:
    executed = phase.delta("cmd_get") + phase.delta("cmd_set")
    ok = phase.tally.ok
    out.check(
        f"{phase.name}: server cmd_get + cmd_set == commands answered",
        executed == ok,
        f"{executed} vs {ok} answered of {phase.tally.sent} sent",
    )
    if phase.gets:
        out.check(
            f"{phase.name}: server get_hits == hits the client verified",
            phase.delta("get_hits") == phase.hits,
            f"{phase.delta('get_hits')} vs {phase.hits}",
        )
    out.failed += phase.tally.failed
    out.attempted += phase.tally.sent


async def _drive(
    traffic: Traffic, server: ServerProcess, calibrator: Calibrator, seconds: float,
    out: Outcome, phases: Tuple[str, ...],
) -> Dict[str, PhaseResult]:
    load = LoadClient(traffic)
    await load.connect(server.port)
    results: Dict[str, PhaseResult] = {}
    try:
        preload = PhaseResult("preload")
        ids = [(key_id, True) for key_id in range(len(traffic.keys))]
        await _run_phase(
            load, server, calibrator, preload, load.closed_loop(preload, ids, DEPTH, 0)
        )
        results["preload"] = preload
        results.update((name, PhaseResult(name)) for name in phases)
        stream = itertools.cycle(traffic.stream)
        for turn in range(ROUNDS):
            for name in phases:
                phase = results[name]
                if name == "latency":
                    body = load.open_loop(phase, turn)
                else:
                    depth = DEPTH if name == "capacity" else BASE_DEPTH
                    body = load.closed_loop(
                        phase, stream, depth, seconds * SHARES[name] / ROUNDS
                    )
                await _run_phase(load, server, calibrator, phase, body)
    finally:
        await load.close()
    for phase in results.values():
        _check_phase(out, phase)
    out.check("every GET hit returned its key's exact payload", load.bad_payloads == 0,
              f"{load.bad_payloads} wrong payloads")
    return results


def _start_servers(
    seed: int, seconds: float, spans_out: Optional[Path], out: Outcome,
    calibrator: Calibrator, server_cpu: int,
):
    """Set up ``SETUP_REPEATS`` times: draw the traffic here and start a
    server on an empty trace cache; each takes the CPU seconds of both at
    the reference speed. Keeps the last server running."""
    setups = []
    server = None
    client_cpu = os.sched_getaffinity(0).pop()
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            with Interval(calibrator, client_cpu) as drawing:
                traffic = Traffic(seed, seconds * SHARES["latency"] / ROUNDS, ROUNDS)
            server = ServerProcess(server_cpu, spans_out)
            out.cleanup_dirs.append(server.cache_dir)
            before = calibrator.reading()
            server.start()
            factor = calibrator.factor(before, calibrator.reading(), server_cpu)
            setups.append(drawing.seconds + server.startup_cpu_s * factor)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    out.metrics["setup_s"] = median(setups)
    return traffic, server


def serve_mixed(seed: int, seconds: float, trace_mode: bool, out: Outcome) -> None:
    """Set up, drive the listener, check its answers. A traced run first
    drives an untraced listener through the capacity phase alone, for
    the tracing overhead."""
    out.layer_metrics = LAYER_METRICS
    server_cpu, client_cpu = measured_cpus(2)
    os.sched_setaffinity(0, {client_cpu})
    with Calibrator([server_cpu, client_cpu], loops=["memory"]) as calibrator:
        results, untraced, spans_out, code = _serve(
            seed, seconds, trace_mode, out, calibrator, server_cpu
        )
    out.check("server drained and exited 0 on SIGTERM", code == 0, f"exit {code}")

    capacity, base, latency = results["capacity"], results["base"], results["latency"]
    out.check("latency phase had no failures", latency.tally.failed == 0,
              f"{latency.tally.failed} of {latency.tally.sent}")
    out.metrics["rps"] = capacity.server_rps()
    out.metrics["base_rps"] = base.server_rps()
    out.metrics["hit_rate"] = capacity.hits / capacity.gets
    out.metrics["base_hit_rate"] = base.hits / base.gets
    windows = list(latency.latency_windows.values())
    samples = latency.latencies
    tally = FailureTally()
    for phase in results.values():
        tally.merge(phase.tally)
    tails = []
    for q in (50, 90, 99):
        try:
            tails.append(f"p{q} {windowed_percentile(windows, q) * 1e3:.3f} ms")
        except ValueError:  # windows too short for this percentile
            tails.append(f"p{q} n/a")
    out.notes.append(
        f"latency at {OPEN_RATE:.0f}/s: {len(samples)} samples in {len(windows)} windows; "
        f"{', '.join(tails)} (pooled p99 {percentile(samples, 99) * 1e3:.3f} ms)"
    )
    out.notes.append(
        f"failed {tally.failed} of {tally.sent} sent ({tally.failed_frac():.3%}): {tally.by_kind}"
    )
    if trace_mode:
        _layers(out, results, untraced["capacity"], spans_out)


def _serve(
    seed: int, seconds: float, trace_mode: bool, out: Outcome, calibrator: Calibrator,
    server_cpu: int,
):
    spans_out = fresh_dir("spans-") / "spans.json" if trace_mode else None
    if spans_out is not None:
        out.cleanup_dirs.append(spans_out.parent)
    traffic, server = _start_servers(seed, seconds, spans_out, out, calibrator, server_cpu)
    untraced = None
    try:
        if trace_mode:
            plain = ServerProcess(server_cpu)
            out.cleanup_dirs.append(plain.cache_dir)
            try:
                plain.start()
                untraced = asyncio.run(
                    _drive(traffic, plain, calibrator, seconds, out, ("capacity",))
                )
            finally:
                plain.stop()
        results = asyncio.run(
            _drive(traffic, server, calibrator, seconds, out, ("capacity", "base", "latency"))
        )
        out.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        code = server.stop()
    return results, untraced, spans_out, code


def _layers(
    out: Outcome, results: Dict[str, PhaseResult], untraced: PhaseResult, spans_out: Path
) -> None:
    capacity, latency = results["capacity"], results["latency"]
    payload = json.loads(spans_out.read_text())
    waits = payload.pop("queue_waits")
    out.trace_dump = payload
    tracer = Tracer.from_dict(payload)

    def during_capacity(read, name: str) -> float:
        return sum(read(name, start, stop) for start, stop in capacity.intervals)

    layer = out.per_layer
    layer["workloads.build_s"] = tracer.total("load_workload")
    layer["serve.parse_s"] = during_capacity(tracer.total, "serve.parse")
    layer["serve.execute_self_s"] = during_capacity(tracer.self_time, "serve.execute")
    layer["serve.process_batch_s"] = during_capacity(tracer.total, "serve.process_batch")
    layer["serve.write_s"] = during_capacity(tracer.total, "serve.write") + during_capacity(
        tracer.total, "serve.drain"
    )
    commands = capacity.delta("server_requests")
    layer["serve.commands"] = commands
    layer["serve.batch_mean"] = commands / max(1, capacity.delta("server_batches"))
    layer["serve.queue_high_water"] = capacity.queue_high_water
    layer["serve.server_cpu_frac"] = capacity.server_cpu / capacity.wall
    layer["serve.client_cpu_frac"] = capacity.client_cpu / capacity.wall
    in_latency = [
        waits[i + 1]
        for i in range(0, len(waits), 2)
        if any(start <= waits[i] < stop for start, stop in latency.intervals)
    ]
    layer["serve.queue_wait_ms.p50"] = percentile(in_latency, 50) * 1e3
    layer["serve.queue_wait_ms.p99"] = percentile(in_latency, 99) * 1e3
    layer["serve.gen_lag_p99_ms"] = percentile(latency.lags, 99) * 1e3
    layer["serve.latency_samples"] = len(latency.latencies)
    traced_rps = capacity.server_rps()
    plain_rps = untraced.server_rps()
    layer["trace.overhead_frac"] = plain_rps / traced_rps - 1.0
    layer["trace.overhead_s"] = commands / traced_rps - commands / plain_rps
