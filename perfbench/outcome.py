"""What one benchmark run produces: metrics, checks and counts."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


class Outcome:
    """Filled in by a workload, printed by ``run.py``.

    ``metrics`` holds the end-to-end values, ``per_layer`` the traced
    ones. ``check`` records an output check; any failed check makes the
    run incorrect. ``deterministic`` names values that must repeat
    exactly whenever the same seed runs again, in any process.
    """

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks_passed = 0
        self.failures: List[Tuple[str, str]] = []
        self.notes: List[str] = []
        self.deterministic: Dict[str, float] = {}
        #: Per-layer metric names this workload exercises and must report.
        self.layer_metrics: List[str] = []
        self.cleanup_dirs: List[Path] = []
        #: The traced run's spans, written out by ``run.py`` at the end.
        self.trace_dump: Optional[Dict[str, Any]] = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.checks_passed += 1
        else:
            self.failures.append((name, detail))

    @property
    def correct(self) -> bool:
        return not self.failures and self.checks_passed > 0
