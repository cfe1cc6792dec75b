"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps the public callables of each layer of the ``repro``
package from the benchmark's own code: nothing in the program is
edited.  Every wrapped call records one span ``(id, parent, name,
start_ns, end_ns, batch)`` in memory; :meth:`Tracer.write` dumps them
as JSON lines when the run ends.  A span's *self time* is its duration
minus the durations of its direct children; because the benchmark
drives everything from one thread, children always nest inside their
parent, so self times partition the time spent inside top-level spans.

Span names are ``<layer>.<call>`` and the layer is the part before the
first dot, so per-layer totals are sums over span-name prefixes.
"""

from __future__ import annotations

import json
import os
import time

_clock_ns = time.perf_counter_ns


class Tracer:
    """Span recorder plus per-layer counters.

    ``active`` gates recording: the benchmark switches it off around
    its own correctness checks, so only the measured work is traced.
    ``batch`` is the benchmark's current batch (or chunk) index; every
    span opened while it is set carries it.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self.active = False
        self.batch = None
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []
        # Forked daemons inherit the wrappers; they must not record.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    # -- counters ------------------------------------------------------

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a callable ``(args, kwargs) ->
        name``.  ``count(tracer, args, kwargs, result, nested)`` records
        work counts at the same boundary; ``nested`` says whether the
        enclosing span belongs to the same layer (so a count is not
        taken twice when one layer entry point calls another).
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append((span_id, span_name))
            start = _clock_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _clock_ns()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent[0] if parent else None, span_name,
                     start, end, tracer.batch))
            if count is not None:
                nested = (parent is not None and parent[1].split(".", 1)[0]
                          == span_name.split(".", 1)[0])
                count(tracer, args, kwargs, result, nested)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def unwrap(self) -> None:
        """Restore every wrapped callable (last wrapped, first restored)."""
        for owner, attr, own in reversed(self._patches):
            if own is None:
                delattr(owner, attr)      # it was inherited
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> self time in ns (duration minus direct children)."""
        own = {span[0]: span[4] - span[3] for span in self.spans}
        for span_id, parent, _name, start, end, _batch in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def self_ms_by_name(self) -> dict:
        """Span name -> summed self time in ms."""
        own = self.self_times()
        totals: dict = {}
        for span in self.spans:
            totals[span[2]] = totals.get(span[2], 0) + own[span[0]]
        return {name: ns / 1e6 for name, ns in totals.items()}

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, batch in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end, "batch": batch},
                    separators=(",", ":")))
                out.write("\n")
