"""Self-tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import REFERENCE_SPEED, Calibrator, Interval, measured_cpus  # noqa: E402
from measure import (  # noqa: E402
    FailureTally,
    median,
    percentile,
    proc_cpu_seconds,
    samples_beyond,
    windowed_percentile,
)
from tracing import Tracer  # noqa: E402


class TestPercentile:
    def test_nearest_rank_returns_an_observed_sample(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3

    def test_small_samples(self):
        assert percentile([7.5], 99) == 7.5
        assert percentile([1, 2], 50) == 1
        assert percentile([1, 2], 51) == 2

    def test_no_interpolation_between_samples(self):
        assert percentile([0.0, 10.0], 75) == 10.0

    @pytest.mark.parametrize("q", [0, -1, 101])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError):
            percentile([1, 2, 3], q)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_samples_beyond(self):
        assert samples_beyond(1000, 99) == 10
        assert samples_beyond(999, 99) == 9
        assert samples_beyond(2000, 50) == 1000

    def test_median(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5


class TestWindowedPercentile:
    def test_one_stalled_window_does_not_own_the_tail(self):
        calm = [[1.0] * 985 + [2.0] * 15 for _ in range(4)]
        stalled = [[1.0] * 900 + [50.0] * 100]
        assert windowed_percentile(calm + stalled, 99) == 2.0
        assert percentile([x for w in calm + stalled for x in w], 99) == 50.0

    def test_skips_windows_without_ten_samples_beyond(self):
        short = [[100.0] * 50]
        full = [[1.0] * 1000]
        assert windowed_percentile(short + full, 99) == 1.0

    def test_raises_when_no_window_qualifies(self):
        with pytest.raises(ValueError):
            windowed_percentile([[1.0] * 100], 99)


class TestFailureTally:
    def test_failures_count_against_requests_sent(self):
        tally = FailureTally()
        tally.record_sent(200)
        tally.record_failure("busy")
        tally.record_failure("timeout")
        tally.record_failure("connection")
        tally.record_failure("error")
        assert tally.failed == 4
        assert tally.ok == 196
        assert tally.failed_frac() == 4 / 200
        assert tally.by_kind == {"error": 1, "busy": 1, "timeout": 1, "connection": 1}

    def test_merge_adds_sent_and_each_kind(self):
        first, second = FailureTally(), FailureTally()
        first.record_sent(10)
        first.record_failure("busy")
        second.record_sent(5)
        second.record_failure("busy")
        second.record_failure("timeout")
        first.merge(second)
        assert (first.sent, first.failed) == (15, 3)
        assert first.by_kind["busy"] == 2

    def test_nothing_sent_is_no_failure(self):
        assert FailureTally().failed_frac() == 0.0

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            FailureTally().record_failure("slow")


class TestTracer:
    def test_self_time_excludes_traced_children(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        class Owner:
            def outer(self):
                return self.inner() + self.inner()

            def inner(self):
                return 1

        original = Owner.outer
        tracer.patch(Owner, "outer", "outer", keep=True)
        tracer.patch(Owner, "inner", "inner")
        assert Owner().outer() == 2
        tracer.restore()
        # outer: clock 0..5; each inner takes one tick (1..2, 3..4).
        assert tracer.total("outer") == 5.0
        assert tracer.total("inner") == 2.0
        assert tracer.self_time("outer") == 3.0
        assert tracer.calls("inner") == 2
        assert [s[2] for s in tracer.spans] == ["outer"]
        assert Owner.outer is original

    def test_restore_unshadows_inherited_methods(self):
        class Base:
            def run(self):
                return "base"

        class Child(Base):
            pass

        tracer = Tracer()
        tracer.patch(Child, "run", "run")
        assert "run" in vars(Child)
        tracer.restore()
        assert "run" not in vars(Child)
        assert Child().run() == "base"

    def test_buckets_split_spans_by_end_time(self):
        ticks = iter([0.0, 0.5, 10.0, 10.25])
        tracer = Tracer(clock=lambda: next(ticks), bucket_s=1.0)
        work = tracer.span("work", lambda: None)
        work()
        work()
        assert tracer.total("work", 0.0, 1.0) == 0.5
        assert tracer.total("work", 10.0, 11.0) == 0.25
        assert tracer.calls("work") == 2
        restored = Tracer.from_dict(tracer.to_dict())
        assert restored.total("work", 10.0, 11.0) == 0.25


def _busy(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


class TestCalibrator:
    def test_interval_is_cpu_time_times_the_loop_speed(self):
        cpu = measured_cpus(1)[0]
        with Calibrator([cpu]) as calibrator:
            procs = list(calibrator._procs.values())
            before = calibrator.reading()
            with Interval(calibrator, cpu) as spent:
                _busy(0.3)
            after = calibrator.reading()
            speed = calibrator.speed(before, after, cpu)
        assert speed > 0
        assert spent.factor > 0
        assert spent.seconds == pytest.approx(spent.factor * 0.3, rel=0.2)
        assert calibrator.factor(before, after, cpu) == speed / REFERENCE_SPEED
        # Every co-runner is stopped and reaped on the way out.
        assert all(proc.returncode is not None for proc in procs)

    def test_an_interval_without_calibration_progress_is_refused(self):
        cpu = measured_cpus(1)[0]
        with Calibrator([cpu]) as calibrator:
            reading = calibrator.reading()
            with pytest.raises(RuntimeError):
                calibrator.speed(reading, reading, cpu)

    def test_measured_cpus_come_from_the_affinity_mask(self):
        allowed = os.sched_getaffinity(0)
        assert set(measured_cpus(2)) <= allowed
        assert len(measured_cpus(1)) == 1


def test_proc_cpu_seconds_counts_this_process():
    before = proc_cpu_seconds(os.getpid())
    _busy(0.1)
    assert proc_cpu_seconds(os.getpid()) - before >= 0.09


def test_host_speed_is_the_geometric_mean_of_the_loops():
    calibrator = Calibrator([0])
    before = {(0, "memory"): (0.0, 0.0), (0, "core"): (0.0, 0.0)}
    after = {(0, "memory"): (400.0, 1.0), (0, "core"): (900.0, 0.5)}
    # 400 and 1,800 operations per CPU second.
    assert calibrator.speed(before, after, 0) == pytest.approx(math.sqrt(400 * 1800))
    assert Calibrator([0], loops=["memory"]).speed(before, after, 0) == pytest.approx(400)
