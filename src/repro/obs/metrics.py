"""Process-global metrics registry: counters, gauges, histograms.

Design constraints, in order:

* **zero dependencies** — standard library only;
* **thread-safe** — the pooled backend and the coverage engines increment
  from worker threads;
* **cheap when idle** — a metric is a lock plus a number; nothing polls,
  nothing exports until asked;
* **one seam** — :func:`registry` returns the process singleton every layer
  shares, so a snapshot in one place sees the whole process.

Series are identified by ``(name, labels)``: asking for the same pair twice
returns the same object, which is what lets short-lived owners (a coverage
engine per fold, a read pool per backend) accumulate into stable series.
Such an owner keeps its own count in an unregistered :class:`Counter` whose
``parent`` is the shared series, so creating owners never adds series.
Names are dotted (``coverage.subsumption.tests``); the Prometheus exposition
rewrites dots to underscores since Prometheus metric names cannot contain
them.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]

#: Ring-buffer capacity for histogram samples.  Percentiles are computed
#: over the most recent observations; count/sum/min/max stay exact forever.
_HISTOGRAM_SAMPLES = 4096


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing number.

    A counter made with a ``parent`` adds every increment to the parent as
    well: its owner reads its own count (zero when fresh) while the parent,
    a registry series, counts process-wide.
    """

    __slots__ = ("_lock", "_value", "_parent")

    def __init__(self, parent: Optional[Counter] = None) -> None:
        self._lock = threading.Lock()
        self._value = 0
        self._parent = parent

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge to go down")
        with self._lock:
            self._value += amount
        if self._parent is not None:
            self._parent.inc(amount)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A number that can go both ways (in-flight requests, cache bytes)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramTimer:
    """``with histogram.time():`` observes elapsed monotonic seconds."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class Histogram:
    """Exact count/sum/min/max plus percentiles over a sample ring buffer."""

    __slots__ = ("_lock", "_count", "_sum", "_min", "_max", "_samples", "_cursor")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: List[float] = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._samples) < _HISTOGRAM_SAMPLES:
                self._samples.append(value)
            else:
                self._samples[self._cursor] = value
                self._cursor = (self._cursor + 1) % _HISTOGRAM_SAMPLES

    def time(self) -> _HistogramTimer:
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the retained samples.

        ``p`` is in [0, 100]; 0 is the sample minimum, 100 the maximum.
        Returns ``None`` when nothing has been observed.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        if p == 0:
            return ordered[0]
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
        return ordered[min(int(rank), len(ordered)) - 1]

    def summary(self) -> Dict[str, Optional[float]]:
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
            ordered = sorted(self._samples)
        summary: Dict[str, Optional[float]] = {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
        }
        for label, p in (("p50", 50), ("p90", 90), ("p99", 99)):
            if not ordered:
                summary[label] = None
            else:
                rank = max(1, -(-len(ordered) * p // 100))
                summary[label] = ordered[min(int(rank), len(ordered)) - 1]
        return summary


class Registry:
    """Get-or-create home for every metric series in the process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram()
        return metric

    def total(self, name: str) -> int:
        """Sum of one counter name across all of its label sets."""
        with self._lock:
            metrics = [c for (n, _), c in self._counters.items() if n == name]
        return sum(metric.value for metric in metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A point-in-time, JSON-friendly copy, isolated from later updates.

        Series keys render labels Prometheus-style, as
        ``name{label="value"}``; an unlabelled series is its bare name.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                _series_name(name, labels): metric.value
                for (name, labels), metric in sorted(counters.items())
            },
            "gauges": {
                _series_name(name, labels): metric.value
                for (name, labels), metric in sorted(gauges.items())
            },
            "histograms": {
                _series_name(name, labels): metric.summary()
                for (name, labels), metric in sorted(histograms.items())
            },
        }

    def prometheus_text(self) -> str:
        """Prometheus text exposition (dots become underscores in names)."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        lines: List[str] = []
        seen_types: set = set()

        def emit(name: str, labels: LabelsKey, value: object, kind: str,
                 suffix: str = "", extra: Iterable[Tuple[str, str]] = ()) -> None:
            prom = name.replace(".", "_").replace("-", "_")
            if (prom, kind) not in seen_types and not suffix:
                seen_types.add((prom, kind))
                lines.append(f"# TYPE {prom} {kind}")
            rendered = ",".join(
                f'{k}="{v}"' for k, v in (*labels, *extra)
            )
            label_part = f"{{{rendered}}}" if rendered else ""
            lines.append(f"{prom}{suffix}{label_part} {value}")

        for (name, labels), counter in counters:
            emit(name, labels, counter.value, "counter")
        for (name, labels), gauge in gauges:
            emit(name, labels, gauge.value, "gauge")
        for (name, labels), histogram in histograms:
            summary = histogram.summary()
            prom = name.replace(".", "_").replace("-", "_")
            if (prom, "summary") not in seen_types:
                seen_types.add((prom, "summary"))
                lines.append(f"# TYPE {prom} summary")
            emit(name, labels, summary["count"], "summary", suffix="_count")
            emit(name, labels, summary["sum"], "summary", suffix="_sum")
            for label, quantile in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
                value = summary[label]
                if value is not None:
                    emit(name, labels, value, "summary",
                         extra=(("quantile", quantile),))
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every series.  Test isolation only — never during a run."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def _series_name(name: str, labels: LabelsKey) -> str:
    if not labels:
        return name
    rendered = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{rendered}}}"


_REGISTRY = Registry()


def registry() -> Registry:
    """The process-global registry every layer shares."""
    return _REGISTRY
