"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-memcachier --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. The metric names, units and workloads
come from ``BENCHMARK.json`` next to ``perfbench/``. Every metric is
printed as a table, then the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics from a
separately traced run with ``--trace 1``). Any failed output check makes
``correct`` false and the exit status 1; a run that cannot start (for
example, the program's sources are missing) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program() -> None:
    """Import the program from this checkout's sources, never from an
    installed copy elsewhere."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    # No trace cache outside the checkout; workloads point it at fresh
    # directories of their own.
    os.environ["REPRO_TRACE_CACHE"] = "off"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")


def _check_expected_values(workload: str, seed: int, outcome) -> None:
    """Seeded values (hit rates) must repeat exactly in every process
    that runs the same seed on this checkout."""
    if not outcome.deterministic:
        return
    path = ROOT / ".perfbench_state" / "expected.json"
    path.parent.mkdir(exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}:{seed}"
    previous = known.get(key)
    if previous is None:
        known[key] = outcome.deterministic
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
        return
    for name, value in outcome.deterministic.items():
        outcome.check(
            f"{name} equals earlier runs of seed {seed}",
            previous.get(name) == value,
            f"{value} vs {previous.get(name)}",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = _load_spec()
        _import_program()
        from measure import remove_dirs
        from outcome import Outcome
        from replay_workloads import WORKLOADS as REPLAY
        from serve_workload import serve_mixed
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot start the benchmark: {exc}", file=sys.stderr)
        return 2
    workloads = {**REPLAY, "serve-mixed": serve_mixed}
    declared = [w["name"] for w in spec["workloads"]]
    if args.workload not in declared or args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(declared)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    outcome = Outcome()
    started = time.perf_counter()
    try:
        workloads[args.workload](args.seed, args.seconds, bool(args.trace), outcome)
        _check_expected_values(args.workload, args.seed, outcome)
    finally:
        remove_dirs(outcome.cleanup_dirs)
    if outcome.trace_dump is not None:
        path = ROOT / ".perfbench_state" / f"trace-{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(outcome.trace_dump))
        outcome.notes.append(f"spans written to {path.relative_to(ROOT)}")

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = outcome.per_layer if args.trace else outcome.metrics
    required = outcome.layer_metrics if args.trace else [e["name"] for e in group]
    missing = [name for name in required if name not in source]
    outcome.check("every metric of this workload measured", not missing, ", ".join(missing))
    # Layers this workload never calls read zero: no time, no calls.
    idle = [e["name"] for e in group if e["name"] not in required]
    if idle:
        outcome.notes.append(f"not run on this workload (0): {', '.join(idle)}")
    metrics = {
        e["name"]: {"value": source.get(e["name"], 0.0), "unit": e["unit"]} for e in group
    }

    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed} ({mode}, "
          f"{time.perf_counter() - started:.1f}s wall)")
    for name, item in metrics.items():
        print(f"  {name:34s} {item['value']:>16.6g} {item['unit']}")
    for note in outcome.notes:
        print(f"  note: {note}")
    print(f"  checks: {outcome.checks_passed} passed, {len(outcome.failures)} failed")
    for name, detail in outcome.failures:
        print(f"  FAILED: {name} ({detail})")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
