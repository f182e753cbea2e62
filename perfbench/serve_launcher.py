"""Start the ``repro.serve`` listener with its layers traced.

    python3 perfbench/serve_launcher.py --spans-out PATH -- \\
        --listen 127.0.0.1:0 --shards 4 ...

Everything after ``--`` goes to ``python -m repro.serve`` unchanged.
Before the listener starts, the parser, queue submission, service
execution, cluster batch and socket writes are wrapped with timing
spans (see ``tracing.py``). The spans stay in memory; when the listener
drains and exits on SIGTERM they are written to ``PATH`` as JSON, on the
system-wide monotonic clock so the benchmark can cut them by phase.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402

#: Aggregates are kept per 50 ms of the monotonic clock.
BUCKET_S = 0.05


def _trace_queue_wait(tracer: Tracer, waits: array) -> None:
    """Queue wait per command: from ``submit`` entry until the batch that
    holds the command starts executing, stored as (batch start, wait)."""
    from repro.serve.server import CacheServerProcess
    from repro.serve.service import CacheService

    clock = tracer.clock
    submitted = {}
    submit = CacheServerProcess.submit
    execute = CacheService.execute

    async def timed_submit(self, command, owner=None):
        submitted[id(command)] = clock()
        return await submit(self, command, owner)

    def timed_execute(self, commands):
        now = clock()
        for command in commands:
            started = submitted.pop(id(command), None)
            if started is not None:
                waits.append(now)
                waits.append(now - started)
        return execute(self, commands)

    CacheServerProcess.submit = timed_submit
    CacheService.execute = timed_execute


def install(tracer: Tracer, waits: array) -> None:
    import repro.sim
    from repro.cluster import Cluster
    from repro.serve.protocol import ProtocolParser
    from repro.serve.service import CacheService

    _trace_queue_wait(tracer, waits)
    tracer.patch(repro.sim, "load_workload", "load_workload", keep=True)
    tracer.patch(ProtocolParser, "feed", "serve.parse")
    tracer.patch(ProtocolParser, "next_event", "serve.parse")
    tracer.patch(CacheService, "execute", "serve.execute")
    tracer.patch(Cluster, "process_batch", "serve.process_batch")
    tracer.patch(asyncio.StreamWriter, "write", "serve.write")
    tracer.patch(asyncio.StreamWriter, "drain", "serve.drain", is_async=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced repro.serve listener")
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("listener_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    listener_args = args.listener_args
    if listener_args and listener_args[0] == "--":
        listener_args = listener_args[1:]

    from repro.serve.cli import main as serve_main

    tracer = Tracer(clock=time.monotonic, bucket_s=BUCKET_S)
    waits = array("d")
    install(tracer, waits)
    try:
        return serve_main(listener_args)
    finally:
        tracer.restore()
        tracer.dump(args.spans_out, {"queue_waits": waits.tolist()})


if __name__ == "__main__":
    sys.exit(main())
