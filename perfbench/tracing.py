"""In-memory spans around the calls into each layer's public functions.

The traced run keeps one request in flight at a time, so the tracer's
current trace id (set by the load generator around each request) names
the request every span belongs to, whichever server thread records it.
Parents come from a per-thread stack; work handed to an executor thread
carries its submitter's span along (:meth:`Tracer.carry`).  Nothing
under ``src/`` changes: :class:`Patches` swaps module and class
attributes for timing wrappers and puts the originals back afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``perf_counter`` seconds."""

    span_id: int
    trace_id: int | None
    parent_id: int | None
    name: str
    phase: str
    thread: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        """Duration in milliseconds."""
        return (self.end - self.start) * 1000.0


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times_ms(spans) -> dict[int, float]:
    """Each span's self time: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end)
            )
    return {
        span.span_id: 1000.0
        * (
            span.end
            - span.start
            - covered(span.start, span.end, children.get(span.span_id, ()))
        )
        for span in spans
    }


class Tracer:
    """Collects spans while :attr:`active`; a no-op otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.phase = ""
        self.trace_id: int | None = None
        self._root_id: int | None = None
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def detach(self) -> None:
        """Stop recording (a forked engine worker's copy must not)."""
        self.active = False
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """The innermost open span on this thread, else the request root."""
        stack = self._stack()
        return stack[-1] if stack else self._root_id

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` body (``None`` if idle)."""
        if not self.active:
            yield None
            return
        record = Span(
            span_id=next(self._ids),
            trace_id=self.trace_id,
            parent_id=self.current(),
            name=name,
            phase=self.phase,
            thread=threading.current_thread().name,
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack = self._stack()
        stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    @contextlib.contextmanager
    def request(self, verb: str):
        """Open a new trace whose root span is one client request."""
        if not self.active:
            yield None
            return
        self.trace_id = next(self._traces)
        self._root_id = None
        with self.span(f"client.{verb}", verb=verb) as root:
            self._root_id = root.span_id
            try:
                yield root
            finally:
                self._root_id = None
                self.trace_id = None

    def carry(self, func):
        """Wrap *func* so spans it opens on another thread nest under the
        span open here."""
        parent = self.current()

        @functools.wraps(func)
        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()

        return run

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps(asdict(span), default=str) + "\n")


class Patches:
    """Attribute swaps that :meth:`restore` undoes in reverse order."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def _raw(owner, name: str):
        # A class attribute is read from the class dict so classmethod and
        # staticmethod wrappers survive; modules are read plainly.
        if isinstance(owner, type):
            return owner.__dict__[name]
        return getattr(owner, name)

    def _swap(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, self._raw(owner, name)))
        setattr(owner, name, new)

    def restore(self) -> None:
        """Put every original attribute back."""
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def timed(self, owner, name: str, span_name: str, annotate=None,
              consume: bool = False, prepare=None) -> None:
        """Time calls of ``owner.name`` (function, method or classmethod).

        *annotate* ``(args, result) -> dict`` adds span attributes;
        *consume* materialises a returned iterator inside the span;
        *prepare* ``args -> args`` runs first, outside the span (to turn a
        one-shot iterable argument into a list that can be counted).
        """
        raw = self._raw(owner, name)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            if prepare is not None:
                args = prepare(args)
            with tracer.span(span_name) as span:
                result = func(*args, **kwargs)
                if consume:
                    result = iter(list(result))
                if annotate is not None and span is not None:
                    span.attrs.update(annotate(args, result))
            return result

        self._swap(owner, name, kind(wrapper) if kind else wrapper)

    def timed_async(self, owner, name: str, namer) -> None:
        """Time an ``async`` method; *namer(args)* gives ``(name, attrs)``."""
        func = owner.__dict__[name]
        tracer = self.tracer

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await func(*args, **kwargs)
            span_name, attrs = namer(args)
            with tracer.span(span_name, **attrs):
                return await func(*args, **kwargs)

        self._swap(owner, name, wrapper)

    def carried(self, owner, name: str, position: int) -> None:
        """Make the callable at argument *position* of ``owner.name``
        carry the caller's span onto the thread that runs it."""
        raw = owner.__dict__[name]
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        tracer = self.tracer

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            if tracer.active:
                args = list(args)
                args[position] = tracer.carry(args[position])
            return await func(*args, **kwargs)

        self._swap(owner, name, staticmethod(wrapper) if is_static else wrapper)


def register_fork_guard(tracer: Tracer) -> None:
    """Engine workers forked while tracing must not record (their spans
    would be lost with the process, and would slow the scan they time)."""
    os.register_at_fork(after_in_child=tracer.detach)
