"""Shared plumbing for the benchmark workloads.

Statistics, clocks, memory readings, output digests, the end-to-end
metric names, the in-memory span recorder of the traced runs, and the
result every workload returns.  Nothing here imports :mod:`repro`; the workload
modules do, so that importing them is part of the measured set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINS_PATH = BENCH_DIR / "pins.json"


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    """The mean, or 0.0 for no samples (a run whose operations failed)."""
    return sum(values) / len(values) if values else 0.0


# -- clocks ----------------------------------------------------------------
#
# Timings are CPU time, not wall-clock time.  On a shared virtual
# machine the hypervisor takes the vCPU away for tenths of a second at
# a time (the steal column of /proc/stat); the same loop then reads up
# to 1.8x slower on a wall clock, but not in CPU time.  Every measured
# operation is CPU-bound, and where it waits (the serve loop) the
# waiting is for the daemon's CPU, whose clock is used there.

cpu_clock = time.process_time


def task_cpu_seconds(pid: int) -> float:
    """CPU seconds of every thread of process ``pid``, at nanosecond
    resolution (the first field of each thread's schedstat)."""
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat", encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread ended while we listed the others
    return total / 1e9


# -- memory ----------------------------------------------------------------


def peak_rss_mib(pid: Any = "self") -> float:
    """High-water resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


# -- digests and pins ------------------------------------------------------


def sha256_json(value: Any) -> str:
    """Digest of a JSON-ready value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def subprocess_env() -> Dict[str, str]:
    """The environment for child interpreters: the checkout's sources
    first, and no disk compile cache, so every compile is a real one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_COMPILE_CACHE", None)
    return env


# -- end-to-end metrics ----------------------------------------------------

#: What every measured run prints.  An operation is an attack
#: (``fig7``) or a served session (``serve``).
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")


def put_ops(result: "Result", latencies: Sequence[float],
            elapsed: Optional[float] = None) -> None:
    """Operations per second and the latency median and 99th
    percentile, from the seconds each operation took.  Operations run
    one at a time unless ``elapsed`` gives the seconds they took
    together.  With no operation completed there is nothing to put,
    and ``run.py`` prints no result line."""
    count = len(latencies)
    if not count:
        return
    result.put("ops_per_s", count / (elapsed or sum(latencies)), "1/s", count)
    result.put("op_p50_ms", median(latencies) * 1e3, "ms", count)
    result.put("op_p99_ms", percentile(latencies, 99) * 1e3, "ms", count)


# -- results ---------------------------------------------------------------


@dataclass
class Result:
    """What one workload run measured and checked.

    ``attempted``/``failed`` count operations (an attack, a session, a
    compile, an audit or a predict); ``problems`` keeps the first
    failure messages for the report.  ``samples`` records how many
    samples each timing metric was computed from; ``info`` holds
    report-only figures (a traced run's own end-to-end numbers).
    """

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    spans: Optional["Spans"] = None

    def put(self, name: str, value: float, unit: str, samples: int = 0) -> None:
        self.metrics[name] = (value, unit)
        if samples:
            self.samples[name] = samples

    def check(self, ok: bool, problem: str) -> bool:
        """Count one operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def line(self) -> Dict[str, Any]:
        """The result line the benchmark prints last."""
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


# -- tracing ---------------------------------------------------------------


@dataclass
class SpanRec:
    name: str
    layer: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    tid: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)


class Spans:
    """In-memory spans recorded around the benchmark's own calls into
    each layer.  Every span names the ``src/repro`` layer it times; the
    benchmark's own work is the ``bench`` layer.  Nothing is written
    until :meth:`write_chrome_trace`."""

    def __init__(self, clock: Callable[[], float] = cpu_clock) -> None:
        #: The clock spans are timed with; a workload may switch it
        #: between phases (the serve window runs on the daemon's clock).
        self.clock = clock
        self.records: List[SpanRec] = []
        self._stack: List[SpanRec] = []

    @contextmanager
    def span(self, name: str, layer: str, **attributes: Any) -> Iterator[SpanRec]:
        parent = self._stack[-1].span_id if self._stack else None
        record = SpanRec(name, layer, self.clock(), 0.0,
                         len(self.records) + 1, parent, 0, attributes)
        self.records.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float, tid: int = 0,
            parent: Optional[SpanRec] = None, **attributes: Any) -> SpanRec:
        """A span timed elsewhere (overlapping in-flight sessions),
        parented under ``parent`` or else the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = SpanRec(name, layer, start, end, len(self.records) + 1,
                         parent.span_id if parent else None, tid, attributes)
        self.records.append(record)
        return record

    def total(self, name: str) -> float:
        return sum(r.end - r.start for r in self.records if r.name == name)

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part of it that its child
        spans cover (children may overlap, so their union counts)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for r in self.records:
            if r.parent_id is not None:
                children.setdefault(r.parent_id, []).append((r.start, r.end))
        selfs = {}
        for record in self.records:
            covered, reach = 0.0, record.start
            for start, end in sorted(children.get(record.span_id, ())):
                start, end = max(start, reach), min(end, record.end)
                if end > start:
                    covered += end - start
                    reach = end
            selfs[record.span_id] = (record.end - record.start) - covered
        return selfs

    def self_by_layer(self) -> Dict[str, float]:
        selfs = self.self_times()
        totals: Dict[str, float] = {}
        for record in self.records:
            totals[record.layer] = totals.get(record.layer, 0.0) + selfs[record.span_id]
        return totals

    def traced_seconds(self) -> float:
        """Time under the root spans, less the untraced twins some
        workloads run inside them (spans of the ``untraced`` layer)."""
        roots = sum(r.end - r.start for r in self.records if r.parent_id is None)
        return roots - self.self_by_layer().get("untraced", 0.0)

    def share_pct(self, seconds: float) -> float:
        """``seconds`` as a share of the traced time."""
        traced = self.traced_seconds()
        return 100.0 * seconds / traced if traced > 0 else 0.0

    def unattributed_pct(self) -> float:
        """Share of the traced time spent in no layer's span."""
        return self.share_pct(self.self_by_layer().get("bench", 0.0))

    def write_chrome_trace(self, path: Path) -> int:
        """Write the spans as Chrome trace-event JSON (Perfetto loads it)."""
        from repro.observability.tracing import chrome_trace

        records = list(self.records)
        roots = [r for r in records if r.parent_id is None]
        if len(roots) > 1:
            # One tree per trace: hang the phases under one root.
            top = SpanRec("perfbench", "bench", min(r.start for r in roots),
                          max(r.end for r in roots), 0, None)
            records = [top] + [
                SpanRec(r.name, r.layer, r.start, r.end, r.span_id,
                        0 if r.parent_id is None else r.parent_id, r.tid, r.attributes)
                for r in records
            ]
        pid = os.getpid()
        spans = [
            {
                "name": r.name,
                "trace_id": "perfbench",
                "span_id": str(r.span_id),
                "parent_id": None if r.parent_id is None else str(r.parent_id),
                "start_us": int(r.start * 1e6),
                "duration_us": int((r.end - r.start) * 1e6),
                "pid": pid,
                "tid": r.tid,
                "attributes": {"layer": r.layer, **r.attributes},
            }
            for r in records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(spans, service="perfbench"), handle)
        return len(spans)
