"""Structured run manifests.

A :class:`RunManifest` is the machine-readable record of one command or
experiment invocation: what ran (command + arguments), when and for how
long, what it produced (command-specific results), and the metrics
accumulated along the way.  The CLI's ``--metrics-out`` writes one of
these per invocation; campaigns embed per-workload sub-records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .metrics import MetricsRegistry

#: Manifest schema version — bump on breaking layout changes.  Version 2
#: dropped ``metrics.timers`` and ``metrics.spans``: durations are
#: ``<phase>_seconds`` histograms.
MANIFEST_VERSION = 2


def _utc_iso(epoch_seconds: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch_seconds))


@dataclass
class RunManifest:
    """One invocation's structured record."""

    command: str
    arguments: Dict[str, Any] = field(default_factory=dict)
    started_epoch: float = field(default_factory=time.time)
    finished_epoch: Optional[float] = None
    results: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    _clock_start: float = field(default_factory=time.perf_counter)

    @classmethod
    def begin(cls, command: str, **arguments: Any) -> "RunManifest":
        """Start a manifest for one command invocation."""
        return cls(command=command, arguments=dict(arguments))

    def record(self, **results: Any) -> "RunManifest":
        """Attach command-specific result fields (merged, not replaced)."""
        self.results.update(results)
        return self

    def finish(
        self, registry: Optional[MetricsRegistry] = None, **results: Any
    ) -> "RunManifest":
        """Close the manifest: stamp the end time, fold in metrics."""
        self.finished_epoch = time.time()
        self.results.update(results)
        if registry is not None:
            self.metrics = registry.snapshot()
        return self

    @property
    def duration_seconds(self) -> float:
        if self.finished_epoch is None:
            return 0.0
        return time.perf_counter() - self._clock_start

    def to_dict(self) -> Dict[str, Any]:
        duration = (
            round(time.perf_counter() - self._clock_start, 6)
            if self.finished_epoch is not None
            else None
        )
        return {
            "manifest_version": MANIFEST_VERSION,
            "command": self.command,
            "arguments": self.arguments,
            "started_at": _utc_iso(self.started_epoch),
            "finished_at": (
                _utc_iso(self.finished_epoch)
                if self.finished_epoch is not None
                else None
            ),
            "duration_seconds": duration,
            "results": self.results,
            "metrics": self.metrics,
        }
