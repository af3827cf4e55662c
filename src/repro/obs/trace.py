"""Hierarchical span tracing.

A *span* is a named, timed region.  Spans nest through a ``contextvars``
context variable, so ``with span("learn.cover"):`` inside
``with span("session.run"):`` records the parent edge without any explicit
plumbing.  Each span carries:

* ``trace_id`` — shared by every span of one logical run;
* ``span_id`` / ``parent_id`` — the tree edges;
* ``process`` / ``pid`` / ``tid`` — where it actually ran.

With tracing disabled, :func:`span` returns a shared no-op context
manager: the disabled path is one attribute check and no allocation.
"""

from __future__ import annotations

import contextvars
import json
import os
import platform
import sys
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

#: (trace_id, span_id) of the innermost active span, or None.
_CURRENT: contextvars.ContextVar[Optional[Tuple[str, str]]] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def _new_id(bits: int = 64) -> str:
    return uuid.uuid4().hex[: bits // 4]


class SpanRecord:
    """One finished span.  Plain data; ``to_dict`` is the dump form."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start", "duration", "process", "pid", "tid", "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        duration: float,
        process: str,
        pid: int,
        tid: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.process = process
        self.pid = pid
        self.tid = tid
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "process": self.process,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            name=str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            start=float(data["start"]),
            duration=float(data["duration"]),
            process=str(data.get("process", "?")),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
            attrs=dict(data.get("attrs") or {}),
        )


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> None:
        return None

    def set(self, **_attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = (
        "_tracer", "name", "trace_id", "span_id", "parent_id",
        "attrs", "_start_wall", "_start_perf", "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self._start_wall = 0.0
        self._start_perf = 0.0
        self._token: Optional[contextvars.Token] = None

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (result sizes, hit counts)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        return self

    def __exit__(self, exc_type: "type | None", _exc: object, _tb: object) -> None:
        duration = time.perf_counter() - self._start_perf
        if self._token is not None:
            _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._record(
            SpanRecord(
                name=self.name,
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self._start_wall,
                duration=duration,
                process=self._tracer.process,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=self.attrs,
            )
        )


class Tracer:
    """Per-process span buffer + context plumbing.  See module docstring."""

    def __init__(self, process: str = "main") -> None:
        self.process = process
        self._enabled = False
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []

    # ------------------------------------------------------------- state
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, process: Optional[str] = None) -> None:
        if process is not None:
            self.process = process
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    # ------------------------------------------------------------- spans
    def span(self, name: str, **attrs: Any) -> "_Span | _NullSpan":
        """A timed span under the current parent (no-op when disabled)."""
        if not self._enabled:
            return _NULL_SPAN
        current = _CURRENT.get()
        if current is not None:
            trace_id, parent_id = current
        else:
            trace_id, parent_id = _new_id(128), None
        return _Span(self, name, trace_id, parent_id, attrs)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------- dumps
    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def to_json(self) -> Dict[str, Any]:
        records = self.records()
        return {
            "format": "repro-trace",
            "version": 1,
            "spans": [record.to_dict() for record in records],
        }

    def dump_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` form (load via chrome://tracing, Perfetto)."""
        events: List[Dict[str, Any]] = []
        seen_processes: Dict[int, str] = {}
        for record in self.records():
            if record.pid not in seen_processes:
                seen_processes[record.pid] = record.process
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": record.pid,
                        "tid": 0,
                        "args": {"name": record.process},
                    }
                )
            events.append(
                {
                    "name": record.name,
                    "cat": record.trace_id,
                    "ph": "X",
                    "ts": record.start * 1e6,
                    "dur": record.duration * 1e6,
                    "pid": record.pid,
                    "tid": record.tid,
                    "args": record.attrs,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump_chrome(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, sort_keys=True)
            handle.write("\n")
        return path


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-global tracer every layer shares."""
    return _TRACER


def span(name: str, **attrs: Any) -> "_Span | _NullSpan":
    """``with span("learn.saturate", examples=n):`` on the global tracer."""
    return _TRACER.span(name, **attrs)


def provenance(**extra: Any) -> Dict[str, Any]:
    """The shared provenance block embedded in every ``BENCH_*`` artifact.

    Callers add run-specific configuration (backend, parallelism)
    as keyword arguments; the base block records where the numbers came
    from so two artifacts are comparable at a glance.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
        "pid": os.getpid(),
        **extra,
    }
