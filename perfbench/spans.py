"""Span recording around layer boundaries, installed from outside.

The traced run wraps public entry points on the instances the
benchmark builds (instance attributes shadow the class's methods, so
calls the program makes through ``self`` are caught as well) and opens
spans around the module-level calls it makes itself. Nothing under
``src/`` is patched. Each span records a name, its layer, start and
end (``perf_counter_ns``), its parent span and the id of the request
(root span) it belongs to; spans stay in memory until :meth:`dump`.

The untraced run uses :data:`OFF`, whose ``span``/``call`` add one
Python call and nothing else.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

#: (span id, request id) of the innermost open span in this context;
#: asyncio tasks and threads each see their own value
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, int]]] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: the layers spans are attributed to (repo module names); request
#: roots belong to the benchmark's own layer, "bench"
LAYERS = (
    "xmltree",
    "core",
    "query",
    "concurrent",
    "store",
    "storage",
    "serving",
    "resilience",
)


_MISSING = object()


class Span:
    __slots__ = ("span_id", "parent_id", "request_id", "name", "layer", "start", "end", "count")

    def __init__(self, span_id, parent_id, request_id, name, layer, start):
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        #: len() of the returned value when the wrapper counts results
        self.count = -1


class Recorder:
    """Collects spans; one per traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._installed: List[Tuple[object, str, object, object]] = []

    # -- opening spans ---------------------------------------------------
    def _open(self, name: str, layer: str) -> Tuple[Span, contextvars.Token]:
        parent = _CURRENT.get()
        span_id = next(self._ids)
        if parent is None:
            span = Span(span_id, None, span_id, name, layer, 0)
        else:
            span = Span(span_id, parent[0], parent[1], name, layer, 0)
        token = _CURRENT.set((span_id, span.request_id))
        span.start = perf_counter_ns()
        return span, token

    def _close(self, span: Span, token, result=None, count: bool = False) -> None:
        span.end = perf_counter_ns()
        _CURRENT.reset(token)
        if count and result is not None:
            span.count = len(result)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        span, token = self._open(name, layer)
        try:
            yield
        finally:
            self._close(span, token)

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span, token = self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span, token)

    # -- wrapping instances ------------------------------------------------
    def wrap(self, obj, attr: str, name: str, layer: str, count: bool = False) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper."""
        original = getattr(obj, attr)
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span, token = self._open(name, layer)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    self._close(span, token, result, count)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span, token = self._open(name, layer)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    self._close(span, token, result, count)

        self.install(obj, attr, wrapper)

    def install(self, obj, attr: str, replacement) -> None:
        """Shadow ``obj.attr`` with ``replacement`` (see :meth:`suspend`)."""
        self._installed.append((obj, attr, vars(obj).get(attr, _MISSING), replacement))
        setattr(obj, attr, replacement)

    def suspend(self) -> None:
        """Put back what every wrapped attribute was before its wrapper,
        until :meth:`resume` reinstalls the wrappers."""
        for obj, attr, previous, _wrapper in reversed(self._installed):
            if previous is _MISSING:
                vars(obj).pop(attr, None)
            else:
                setattr(obj, attr, previous)

    def resume(self) -> None:
        for obj, attr, _previous, wrapper in self._installed:
            setattr(obj, attr, wrapper)

    # -- analysis ----------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def mean_ms(self, name: str) -> float:
        spans = self.by_name(name)
        return sum(s.end - s.start for s in spans) / 1e6 / len(spans) if spans else 0.0

    def count_sum(self, name: str) -> int:
        return sum(max(0, s.count) for s in self.by_name(name))

    def self_ms_by_layer(self, roots: Tuple[str, ...]) -> Tuple[Dict[str, float], int]:
        """(Σ self time per layer, request count) over the requests
        whose root span is named in ``roots``. A span's self time is
        its duration minus the part of its interval covered by its
        children's intervals."""
        requests = {s.span_id for s in self.spans if s.parent_id is None and s.name in roots}
        spans = [s for s in self.spans if s.request_id in requests]
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        totals: Dict[str, float] = defaultdict(float)
        for span in spans:
            covered = 0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
                low = max(child.start, cursor)
                high = min(child.end, span.end)
                if high > low:
                    covered += high - low
                    cursor = high
            totals[span.layer] += (span.end - span.start - covered) / 1e6
        return dict(totals), len(requests)

    def dump(self, path: str) -> None:
        rows = [
            {
                "id": s.span_id,
                "parent": s.parent_id,
                "request": s.request_id,
                "name": s.name,
                "layer": s.layer,
                "start_ns": s.start,
                "end_ns": s.end,
                **({"count": s.count} if s.count >= 0 else {}),
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


class _Off:
    """The untraced run's recorder: spans cost one call, record nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        yield

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, obj, attr: str, name: str, layer: str, count: bool = False) -> None:
        pass

    def mean_ms(self, name: str) -> float:
        return 0.0

    def count_sum(self, name: str) -> int:
        return 0


OFF = _Off()
