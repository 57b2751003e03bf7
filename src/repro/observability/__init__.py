"""Observability layer: metrics, run manifests, JSONL telemetry.

The production-deployment counterpart of the paper's measurement
sections: every CLI command and campaign can account what it did
(counters), how long each phase took (one :func:`phase` call feeds a
trace span and a duration histogram), and emit a structured,
machine-readable :class:`RunManifest` for dashboards and audit trails
— without perturbing the deterministic experiment results themselves
(metrics ride alongside, never inside, campaign outcomes).
"""

from .benchdiff import (
    DEFAULT_RULES,
    MetricDelta,
    MetricRule,
    compare_dirs,
    render_table,
)
from .manifest import RunManifest
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    exponential_bounds,
)
from .prometheus import (
    render_prometheus,
    validate_exposition,
    write_prometheus,
)
from .telemetry import (
    JsonlWriter,
    export_trace,
    write_manifest,
)
from .tracing import (
    SpanRecord,
    TraceContext,
    Tracer,
    chrome_trace,
    phase,
    validate_chrome_trace,
    write_spans,
)

__all__ = [
    "Counter",
    "DEFAULT_RULES",
    "Histogram",
    "JsonlWriter",
    "MetricDelta",
    "MetricRule",
    "MetricsRegistry",
    "RunManifest",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "compare_dirs",
    "exponential_bounds",
    "export_trace",
    "phase",
    "render_prometheus",
    "render_table",
    "validate_chrome_trace",
    "validate_exposition",
    "write_manifest",
    "write_prometheus",
    "write_spans",
]
