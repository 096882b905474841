"""Metrics registry: counters, gauges, histograms with label support.

One :class:`MetricsRegistry` holds every instrument of a process (trainer,
server, evaluator — all report through the same registry, which is the
point: a single scrape shows where time and budget go across layers).
Instruments are created through :meth:`MetricsRegistry.counter` /
:meth:`gauge` / :meth:`histogram`; calling the same name again returns the
existing instrument, so independent subsystems can share one series.

All mutation paths are thread-safe (one registry-wide lock; observation is
a handful of float ops, far from contended at this system's request
rates). Export formats:

- :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` + one line per sample), with
  full label-value escaping (``\\``, ``"``, newline) so POI ids or file
  paths containing quotes or newlines cannot corrupt the exposition.
- :meth:`MetricsRegistry.to_jsonl` — one JSON object per sample, for
  ``tail -f``-able logs and offline diffing.
- :meth:`MetricsRegistry.snapshot` — a nested JSON-serializable dict.

Privacy note: metric *names and labels* are telemetry and leave the
process unreviewed. Never register per-POI visit-count series without the
``include_counts`` opt-in gate; dplint's DPL004 enforces this over the
serving, serialization, and observability modules.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections import deque
from pathlib import Path
from typing import Any, Iterator, Sequence

#: Default histogram buckets (seconds): tuned for request/stage latencies
#: from tens of microseconds up to tens of seconds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def escape_label_value(value: str) -> str:
    r"""Escape one label value per the Prometheus text format.

    Backslash -> ``\\``, double quote -> ``\"``, newline -> ``\n`` —
    in that order, so a value like ``poi-"a"\nb`` round-trips instead of
    breaking the exposition line.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def escape_help_text(value: str) -> str:
    r"""Escape a ``# HELP`` line: backslash and newline only (no quotes)."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(pairs: _LabelKey) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


class _Instrument:
    """Base: a named family of samples, one child per label combination."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        self.name = name
        self.help = help
        self._lock = lock

    def _samples(self) -> Iterator[tuple[str, _LabelKey, float]]:
        """Yield ``(suffix, label_key, value)`` samples (lock held)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every child series (used by info-style gauges)."""
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        super().__init__(name, help, lock)
        self._values: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def items(self) -> dict[_LabelKey, float]:
        """Snapshot of every child series: label key -> value."""
        with self._lock:
            return dict(self._values)

    def _samples(self) -> Iterator[tuple[str, _LabelKey, float]]:
        for key, value in self._values.items():
            yield "", key, value

    def clear(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Instrument):
    """A value that can go up and down (current step, model version...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        super().__init__(name, help, lock)
        self._values: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def set_info(self, **labels: Any) -> None:
        """Publish an info-style sample: value 1 with these labels.

        Replaces every previous child, so one ``model_info`` series always
        describes exactly the currently loaded artifact.
        """
        with self._lock:
            self._values.clear()
            self._values[_label_key(labels)] = 1.0

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def _samples(self) -> Iterator[tuple[str, _LabelKey, float]]:
        for key, value in self._values.items():
            yield "", key, value

    def clear(self) -> None:
        with self._lock:
            self._values.clear()


class _HistogramChild:
    __slots__ = ("counts", "count", "total", "minimum", "maximum", "sample")

    def __init__(self, num_buckets: int, sample_size: int) -> None:
        self.counts = [0] * (num_buckets + 1)  # +inf bucket last
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.sample: deque[float] = deque(maxlen=sample_size)


class Histogram(_Instrument):
    """Cumulative-bucket histogram plus a bounded sample for quantiles.

    The Prometheus exposition uses the cumulative ``_bucket``/``_sum``/
    ``_count`` convention. :meth:`quantile` answers p50/p95-style questions
    from a bounded reservoir of the most recent observations (exact for
    series shorter than ``sample_size``, a recent-window estimate beyond).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        sample_size: int = 10_000,
    ) -> None:
        super().__init__(name, help, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds
        self._sample_size = int(sample_size)
        self._children: dict[_LabelKey, _HistogramChild] = {}

    def _child(self, key: _LabelKey) -> _HistogramChild:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistogramChild(
                len(self.buckets), self._sample_size
            )
        return child

    def observe(self, value: float, **labels: Any) -> None:
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            child = self._child(key)
            # First bucket whose bound is >= value (``le`` semantics);
            # values above every bound land in the +inf slot (last).
            index = bisect_left(self.buckets, value)
            child.counts[index] += 1
            child.count += 1
            child.total += value
            child.minimum = min(child.minimum, value)
            child.maximum = max(child.maximum, value)
            child.sample.append(value)

    def count(self, **labels: Any) -> int:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return child.count if child else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return child.total if child else 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        """Empirical quantile (0 <= q <= 1) over the retained sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            child = self._children.get(_label_key(labels))
            if child is None or not child.sample:
                return float("nan")
            ordered = sorted(child.sample)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        low_value, high_value = ordered[low], ordered[high]
        if low_value == high_value:
            # Skip the interpolation arithmetic: v*(1-f) + v*f can differ
            # from v by an ulp, which would break quantile monotonicity on
            # runs of equal observations.
            return low_value
        return low_value * (1.0 - fraction) + high_value * fraction

    def stats(self, **labels: Any) -> dict[str, float]:
        """count / total / mean / min / max summary of one child."""
        with self._lock:
            child = self._children.get(_label_key(labels))
            if child is None or child.count == 0:
                return {
                    "count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0,
                }
            return {
                "count": child.count,
                "total": child.total,
                "mean": child.total / child.count,
                "min": child.minimum,
                "max": child.maximum,
            }

    def _samples(self) -> Iterator[tuple[str, _LabelKey, float]]:
        for key, child in self._children.items():
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, child.counts):
                cumulative += bucket_count
                le = key + (("le", format(bound, "g")),)
                yield "_bucket", le, float(cumulative)
            yield "_bucket", key + (("le", "+Inf"),), float(child.count)
            yield "_sum", key, child.total
            yield "_count", key, float(child.count)

    def clear(self) -> None:
        with self._lock:
            self._children.clear()


class MetricsRegistry:
    """Thread-safe home of every instrument; get-or-create by name."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(
        self, cls: type, name: str, help: str, **kwargs: Any
    ) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"  # type: ignore[attr-defined]
                    )
                return existing
            instrument = cls(name, help, self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        instrument = self._get_or_create(Counter, name, help)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        instrument = self._get_or_create(Gauge, name, help)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        sample_size: int = 10_000,
    ) -> Histogram:
        """Get or create a histogram (buckets fixed at first creation)."""
        instrument = self._get_or_create(
            Histogram, name, help, buckets=buckets, sample_size=sample_size
        )
        assert isinstance(instrument, Histogram)
        return instrument

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    # -- export -----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The full registry in the Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._instruments):
                instrument = self._instruments[name]
                if instrument.help:
                    lines.append(
                        f"# HELP {name} {escape_help_text(instrument.help)}"
                    )
                lines.append(f"# TYPE {name} {instrument.kind}")
                for suffix, key, value in instrument._samples():
                    rendered = _render_labels(key)
                    lines.append(f"{name}{suffix}{rendered} {format(value, 'g')}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """Nested JSON-serializable view of every instrument."""
        payload: dict[str, Any] = {}
        with self._lock:
            for name in sorted(self._instruments):
                instrument = self._instruments[name]
                series = [
                    {
                        "suffix": suffix,
                        "labels": {k: v for k, v in key},
                        "value": value,
                    }
                    for suffix, key, value in instrument._samples()
                ]
                payload[name] = {
                    "type": instrument.kind,
                    "help": instrument.help,
                    "samples": series,
                }
        return payload

    def to_jsonl(self) -> str:
        """One JSON object per sample, newline-delimited."""
        lines: list[str] = []
        for name, entry in self.snapshot().items():
            for sample in entry["samples"]:
                lines.append(
                    json.dumps(
                        {
                            "metric": name + sample["suffix"],
                            "type": entry["type"],
                            "labels": sample["labels"],
                            "value": sample["value"],
                        }
                    )
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str | Path, format: str = "prometheus") -> None:
        """Write the registry to a file as ``prometheus`` text or ``jsonl``."""
        if format not in ("prometheus", "jsonl"):
            raise ValueError(
                f"format must be 'prometheus' or 'jsonl', got {format!r}"
            )
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        text = (
            self.render_prometheus() if format == "prometheus" else self.to_jsonl()
        )
        target.write_text(text, encoding="utf-8")
