"""Observability: a zero-dependency metrics registry + hierarchical tracing.

Two seams, both process-global:

* :func:`registry` — the metrics registry.  Every counter the stack used to
  keep as an ad-hoc instance attribute (coverage tests, cache hits, pool
  snapshots, ...) feeds a named, optionally-labelled series here, one per
  name however many owners exist; snapshots and Prometheus-style text
  exposition come for free.
* :func:`tracer` — the span tracer.  ``with span("saturation.build",
  examples=n):`` records a timed span under the current parent, so one
  learner run yields a single tree.

Both are **off by default** and cheap when idle: a disabled tracer hands out
a shared no-op context manager, and registry metrics are plain
lock-guarded numbers with no background machinery.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, Registry, registry
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    provenance,
    span,
    tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "registry",
    "SpanRecord",
    "Tracer",
    "provenance",
    "span",
    "tracer",
]
