"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around calls into the
program's public functions: :meth:`SpanRecorder.wrap` replaces an
attribute (a module function or a class method) with a timing wrapper and
:meth:`SpanRecorder.unwrap_all` puts every original back. Spans nest per
thread, are kept in memory, and are written out once when the run ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover; summing self times over a tree gives back the root
span's duration exactly, which is what the layer accounting relies on.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable


@dataclass(slots=True)
class Span:
    """One timed call: name, interval, parent index, small attributes."""

    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans in memory; only the creating process records.

    Worker processes forked from the recorder's process inherit the
    wrappers, so every wrapper checks the process id and calls straight
    through anywhere else.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object | None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> int:
        """Open a span on this thread; returns its index for :meth:`close`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, attrs)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, **attrs: Any) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs_of: Callable[..., dict[str, Any]] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``attrs_of(*args, **kwargs)`` may return attributes to store on
        the span (for example a batch size). Static and class methods are
        rewrapped as such; an inherited method is shadowed on ``owner``
        and the shadow removed again by :meth:`unwrap_all`.
        """
        own = not isinstance(owner, type) or attr in owner.__dict__
        raw = owner.__dict__[attr] if isinstance(owner, type) and own else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if kind is not None else raw
        recorder = self

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != recorder._pid:
                return function(*args, **kwargs)
            index = recorder.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                extra = attrs_of(*args, **kwargs) if attrs_of is not None else {}
                recorder.close(index, **extra)

        setattr(owner, attr, kind(timed) if kind is not None else timed)
        self._patches.append((owner, attr, raw if own else None))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, raw)

    def write(self, path: str | Path) -> None:
        """Write every span as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "attrs": span.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


def read_spans(path: str | Path) -> list[Span]:
    """Read spans written by :meth:`SpanRecorder.write`."""
    spans = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            spans.append(
                Span(row["name"], row["start"], row["end"], row["parent"], row["attrs"])
            )
    return spans


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so a child that outlives
    its parent (a span closed late on another code path) never drives the
    parent's self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            children.setdefault(span.parent, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return [
        span.duration - _covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def within(spans: list[Span], root_name: str) -> set[int]:
    """Indices of every span under (and including) a span named ``root_name``."""
    inside: set[int] = set()
    for index, span in enumerate(spans):
        if span.name == root_name:
            inside.add(index)
        elif span.parent is not None and span.parent in inside:
            inside.add(index)
    return inside


def self_time_by_name(
    spans: list[Span], indices: Iterable[int] | None = None
) -> dict[str, float]:
    """Summed self time per span name, over ``indices`` (default: all)."""
    own = self_times(spans)
    selected = range(len(spans)) if indices is None else indices
    totals: dict[str, float] = {}
    for index in selected:
        name = spans[index].name
        totals[name] = totals.get(name, 0.0) + own[index]
    return totals
