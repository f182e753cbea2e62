"""The two offline replay workloads: ``paper-memcachier`` and
``cluster-churn``.

Each run sets up several times from an empty trace cache (the median
is ``setup_s``), then repeats timed rounds until its time is up. A
round replays the whole trace once per configuration on fresh engines,
then times single requests through the object API on the warm cache.
Every round checks its own outputs.

The process is pinned to one CPU beside calibration loops (see
``calibrate.py``); set-up and replay times are this process's CPU
seconds at the calibration loops' reference speed.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from calibrate import Calibrator, Interval, measured_cpus
from measure import fresh_dir, median, peak_rss_mb, windowed_percentile
from outcome import Outcome
from tracing import Tracer

from repro.cache.engines import FirstComeFirstServeEngine
from repro.cache.server import CacheServer
from repro.cache.stats import OP_CODES, StatsRegistry
from repro.cluster import (
    Cluster,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RebalanceConfig,
    Rebalancer,
    get_routing_plan,
)
from repro.core.engine import CliffhangerEngine
from repro.sim import Scenario, load_workload, run_scenario
from repro.sim import runner as sim_runner
from repro.sim.runner import build_cluster
from repro.workloads.compiled import GLOBAL_TRACE_CACHE

SETUP_REPEATS = 3
#: Requests timed one by one through the object API per round.
PROBE_REQUESTS = 20_000

PAPER_SCALE = 0.05

CHURN_SHARDS = 4
CHURN_REPLICATION = 2
CHURN_PARAMS = {
    "apps": 4,
    "alpha": 1.0,
    "set_fraction": 0.1,
    "budget_fraction": 0.25,
    "num_keys": 40_000,
    "requests_per_app": 100_000,
}
#: The ``load`` policy: ``default`` engines keep no shadow queues, so
#: the ``shadow`` policy would never see demand and never move budget.
CHURN_EPOCH_REQUESTS = 4_000
CHURN_CRASHED_SHARD = 1

_TRACE_METRICS = ["trace.overhead_s", "trace.overhead_frac"]
PAPER_LAYER_METRICS = [
    "workloads.build_s", "engine.default.self_s", "engine.cliffhanger.self_s",
    "engine.calls", "engine.evictions", "stats.record_s", "cache.loop_self_s",
] + _TRACE_METRICS
CHURN_LAYER_METRICS = [
    "workloads.build_s", "routing.plan_build_s", "engine.default.self_s", "engine.calls",
    "engine.evictions", "stats.record_s", "cluster.window_self_s", "rebalance.epoch_s",
    "rebalance.epochs", "rebalance.transfers", "faults.barrier_s", "faults.dead_requests",
] + _TRACE_METRICS


class RoundLog:
    """Per-configuration request rates, hit rates and probe latencies."""

    def __init__(self) -> None:
        self.rps: Dict[str, List[float]] = {}
        self.hit_rate: Dict[str, float] = {}
        #: One list of object-API latencies per probed round.
        self.latencies: List[List[float]] = []
        self.untraced_rounds = 0
        self.attempted = 0


Meter = Callable[[], Interval]


def _calibrated(body: Callable[[int, float, bool, Outcome, Meter], None]):
    """Run ``body`` pinned to one CPU beside calibration loops; its
    ``meter()`` times a ``with`` block at the reference speed."""

    def workload(seed: int, seconds: float, trace_mode: bool, out: Outcome) -> None:
        cpu = measured_cpus(1)[0]
        os.sched_setaffinity(0, {cpu})
        with Calibrator([cpu]) as calibrator:
            body(seed, seconds, trace_mode, out, lambda: Interval(calibrator, cpu))

    workload.__doc__ = body.__doc__
    return workload


def _setup(build: Callable[[], Dict[str, float]], out: Outcome, meter: Meter) -> None:
    """Run ``build`` from an empty trace cache ``SETUP_REPEATS`` times.

    ``build`` returns its per-layer wall times; each repeat points the
    process-wide trace cache at a fresh directory and forgets what it
    holds in memory, so nothing is read back."""
    timings: Dict[str, List[float]] = {}
    for _ in range(SETUP_REPEATS):
        directory = fresh_dir("traces-")
        out.cleanup_dirs.append(directory)
        GLOBAL_TRACE_CACHE.directory = directory
        GLOBAL_TRACE_CACHE.clear_memory()
        with meter() as spent:
            layers = build()
        timings.setdefault("setup", []).append(spent.seconds)
        for name, value in layers.items():
            timings.setdefault(name, []).append(value)
    out.metrics["setup_s"] = median(timings.pop("setup"))
    for name, values in timings.items():
        out.per_layer[name] = median(values)


def _check_replay(
    out: Outcome, label: str, stats: StatsRegistry, compiled, memory_used: float,
    memory_budget: float,
) -> float:
    ops = np.asarray(compiled.op_codes)
    gets = int(np.count_nonzero(ops == OP_CODES["get"]))
    sets = int(np.count_nonzero(ops == OP_CODES["set"]))
    total = stats.total
    out.check(
        f"{label}: requests == trace length",
        total.gets + total.sets == len(compiled),
        f"{total.gets + total.sets} vs {len(compiled)}",
    )
    out.check(
        f"{label}: hits + misses == trace GETs",
        total.get_hits + total.get_misses == gets and total.sets == sets,
        f"{total.get_hits}+{total.get_misses} vs {gets}",
    )
    out.check(
        f"{label}: memory in use within budget",
        memory_used <= memory_budget,
        f"{memory_used:.0f} of {memory_budget:.0f} bytes",
    )
    return total.hit_rate()


def _same_hit_rate(out: Outcome, log: RoundLog, label: str, rate: float) -> None:
    first = log.hit_rate.setdefault(label, rate)
    out.check(f"{label}: hit rate equal across rounds", rate == first, f"{rate} vs {first}")


def _probe_requests(compiled) -> list:
    """``PROBE_REQUESTS`` requests spread evenly over the whole trace, so
    the probe sees the trace's mix rather than its first moments."""
    step = max(1, len(compiled) // PROBE_REQUESTS)
    picked = itertools.islice(compiled.iter_requests(), 0, None, step)
    return list(itertools.islice(picked, PROBE_REQUESTS))


def _probe(process: Callable, requests, log: RoundLog) -> None:
    clock = time.perf_counter
    samples: List[float] = []
    log.latencies.append(samples)
    log.attempted += len(requests)
    for request in requests:
        start = clock()
        process(request)
        samples.append(clock() - start)


def _finish(out: Outcome, log: RoundLog, main: str, base: str) -> None:
    out.metrics["rps"] = median(log.rps[main])
    out.metrics["base_rps"] = median(log.rps[base])
    out.metrics["hit_rate"] = log.hit_rate[main]
    out.metrics["base_hit_rate"] = log.hit_rate[base]
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.attempted += log.attempted
    out.deterministic = {
        name: out.metrics[name] for name in ("hit_rate", "base_hit_rate")
    }
    tails = ", ".join(
        f"p{q} {windowed_percentile(log.latencies, q) * 1e3:.4f}" for q in (50, 90, 99)
    )
    out.notes.append(
        f"{log.untraced_rounds} untraced round(s); object-API latency {tails} ms "
        f"(median over {len(log.latencies)} rounds of {PROBE_REQUESTS} samples)"
    )


def _patch_replay_layers(tracer: Tracer) -> None:
    """Per-request layers of both replay workloads, patched on the class
    so engines built inside ``run_scenario`` and cold-restarted shards
    are covered too."""
    tracer.patch(FirstComeFirstServeEngine, "process_fast", "engine.default")
    tracer.patch(CliffhangerEngine, "process_fast", "engine.cliffhanger")
    tracer.patch(StatsRegistry, "record_code", "stats.record")
    tracer.patch(StatsRegistry, "record_code_bulk", "stats.record")
    tracer.patch(CacheServer, "replay_compiled", "cache.loop", keep=True)
    tracer.patch(Cluster, "replay_compiled", "cluster.replay_compiled", keep=True)
    tracer.patch(Rebalancer, "on_epoch", "rebalance.on_epoch")
    tracer.patch(FaultInjector, "on_barrier", "faults.on_barrier")
    tracer.patch(sim_runner, "load_workload", "load_workload", keep=True)
    tracer.patch(sys.modules[__name__], "run_scenario", "run_scenario", keep=True)


def _timed_rounds(
    seconds: float, trace_mode: bool, run_round: Callable[[bool], Dict[str, int]],
    out: Outcome, log: RoundLog, meter: Meter,
) -> None:
    """Repeat rounds until ``seconds`` of wall time pass. In trace mode
    traced and untraced rounds alternate: the traced ones give the
    per-layer numbers (wall times), the difference in calibrated round
    time is the tracing overhead. Odd rounds run the configurations in
    reverse order."""
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    traced_times: List[float] = []
    plain_times: List[float] = []
    counts: Dict[str, List[float]] = {}
    layer_totals: List[Dict[str, float]] = []
    for index in itertools.count():
        traced = trace_mode and index % 2 == 1
        if traced:
            tracer.reset()
            _patch_replay_layers(tracer)
        try:
            with meter() as spent:
                round_counts = run_round(index % 2 == 1)
        finally:
            tracer.restore()
        if traced:
            traced_times.append(spent.seconds)
            layer_totals.append(_layer_times(tracer))
            out.trace_dump = tracer.to_dict()
            for name, value in round_counts.items():
                counts.setdefault(name, []).append(value)
        else:
            plain_times.append(spent.seconds)
        done = time.perf_counter() >= deadline
        if done and (not trace_mode or traced_times):
            break
    log.untraced_rounds = len(plain_times)
    if trace_mode:
        for name in layer_totals[0]:
            out.per_layer[name] = median([totals[name] for totals in layer_totals])
        for name, values in counts.items():
            out.per_layer[name] = median(values)
        overhead = median(traced_times) - median(plain_times)
        out.per_layer["trace.overhead_s"] = overhead
        out.per_layer["trace.overhead_frac"] = overhead / median(plain_times)


def _layer_times(tracer: Tracer) -> Dict[str, float]:
    return {
        "engine.default.self_s": tracer.self_time("engine.default"),
        "engine.cliffhanger.self_s": tracer.self_time("engine.cliffhanger"),
        "engine.calls": tracer.calls("engine.default") + tracer.calls("engine.cliffhanger"),
        "stats.record_s": tracer.total("stats.record"),
        "cache.loop_self_s": tracer.self_time("cache.loop"),
        "cluster.window_self_s": tracer.self_time("cluster.replay_compiled"),
        "rebalance.epoch_s": tracer.total("rebalance.on_epoch"),
        "rebalance.epochs": tracer.calls("rebalance.on_epoch"),
        "faults.barrier_s": tracer.total("faults.on_barrier"),
    }


# ---------------------------------------------------------------------------
# paper-memcachier
# ---------------------------------------------------------------------------


@_calibrated
def paper_memcachier(
    seed: int, seconds: float, trace_mode: bool, out: Outcome, meter: Meter
) -> None:
    """The paper's Memcachier-like trace on one server, ``default`` then
    ``cliffhanger`` (GET-only, fill on miss)."""
    out.layer_metrics = PAPER_LAYER_METRICS
    loaded: Dict[str, object] = {}

    def build() -> Dict[str, float]:
        start = time.perf_counter()
        loaded["trace"] = load_workload("memcachier", scale=PAPER_SCALE, seed=seed)
        return {"workloads.build_s": time.perf_counter() - start}

    _setup(build, out, meter)
    trace = loaded["trace"]
    compiled = trace.compiled
    probe = _probe_requests(compiled)
    log = RoundLog()

    def run_round(flip: bool) -> Dict[str, int]:
        schemes = ["cliffhanger", "default"] if flip else ["default", "cliffhanger"]
        evictions = 0
        for scheme in schemes:
            scenario = Scenario(
                workload="memcachier", scheme=scheme, scale=PAPER_SCALE, seed=seed
            )
            with meter() as spent:
                result = run_scenario(scenario, keep_server=True)
            server = result.server
            rate = _check_replay(
                out, scheme, result.stats, compiled, server.memory_in_use(),
                server.memory_reserved(),
            )
            _same_hit_rate(out, log, scheme, rate)
            evictions += result.stats.total.evictions
            log.rps.setdefault(scheme, []).append(len(compiled) / spent.seconds)
            log.attempted += len(compiled)
            if scheme == "cliffhanger":
                _probe(server.process, probe, log)
        return {"engine.evictions": evictions}

    _timed_rounds(seconds, trace_mode, run_round, out, log, meter)
    _finish(out, log, main="cliffhanger", base="default")


# ---------------------------------------------------------------------------
# cluster-churn
# ---------------------------------------------------------------------------


def _churn_scenario(seed: int) -> Scenario:
    return Scenario(
        workload="zipf",
        scheme="default",
        scale=1.0,
        seed=seed,
        workload_params=dict(CHURN_PARAMS),
        cluster={"shards": CHURN_SHARDS, "replication": CHURN_REPLICATION},
    )


def _churn_schedule(total: int) -> FaultSchedule:
    return FaultSchedule(
        events=(
            FaultEvent("crash", CHURN_CRASHED_SHARD, int(total * 0.4)),
            FaultEvent("restart", CHURN_CRASHED_SHARD, int(total * 0.6)),
        ),
        policy="failover",
    )


@_calibrated
def cluster_churn(
    seed: int, seconds: float, trace_mode: bool, out: Outcome, meter: Meter
) -> None:
    """Four Zipf tenants with SETs on a replicated 4-shard cluster:
    a barrier-free replay (``static``) and one with a load rebalancer
    plus a crash and cold restart under failover (``churn``)."""
    out.layer_metrics = CHURN_LAYER_METRICS
    scenario = _churn_scenario(seed)
    loaded: Dict[str, object] = {}

    def build() -> Dict[str, float]:
        start = time.perf_counter()
        trace = load_workload("zipf", scale=1.0, seed=seed, **CHURN_PARAMS)
        built = time.perf_counter()
        cluster = build_cluster(scenario, trace)
        planned = time.perf_counter()
        plan = get_routing_plan(trace.compiled, cluster.ring, cluster.replication)
        end = time.perf_counter()
        loaded.update(trace=trace, plan=plan)
        return {"workloads.build_s": built - start, "routing.plan_build_s": end - planned}

    _setup(build, out, meter)
    trace, plan = loaded["trace"], loaded["plan"]
    compiled = trace.compiled
    probe = _probe_requests(compiled)
    log = RoundLog()

    def replay(label: str, churn: bool) -> Cluster:
        cluster = build_cluster(scenario, trace)
        if churn:
            cluster.attach_rebalancer(
                Rebalancer(
                    cluster,
                    RebalanceConfig(epoch_requests=CHURN_EPOCH_REQUESTS, policy="load"),
                    seed=seed,
                )
            )
            cluster.attach_faults(FaultInjector(cluster, _churn_schedule(len(compiled))))
        with meter() as spent:
            stats = cluster.replay_compiled(compiled, plan=plan)
        rate = _check_replay(
            out, label, stats, compiled, cluster.memory_in_use(), cluster.memory_reserved()
        )
        _same_hit_rate(out, log, label, rate)
        log.rps.setdefault(label, []).append(len(compiled) / spent.seconds)
        log.attempted += len(compiled)
        return cluster

    def run_round(flip: bool) -> Dict[str, int]:
        order = [("churn", True), ("static", False)] if flip else [
            ("static", False), ("churn", True)
        ]
        counts: Dict[str, int] = {}
        evictions = 0
        for label, churn in order:
            cluster = replay(label, churn)
            totals = cluster.aggregate_stats().total
            evictions += totals.evictions
            if churn:
                counts["rebalance.transfers"] = cluster.rebalancer.transfers
                counts["faults.dead_requests"] = totals.dead_requests
                _probe(cluster.process, probe, log)
        counts["engine.evictions"] = evictions
        return counts

    _timed_rounds(seconds, trace_mode, run_round, out, log, meter)
    _finish(out, log, main="churn", base="static")


WORKLOADS: Dict[str, Callable[[int, float, bool, Outcome], None]] = {
    "paper-memcachier": paper_memcachier,
    "cluster-churn": cluster_churn,
}
