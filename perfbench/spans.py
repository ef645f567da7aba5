"""Span recording for the traced run, from outside the program.

The tracer opens a span around each call the benchmark makes into a
layer's public function, and wraps the few public methods the program
calls on its own (``MaxWE.initialize``, ``FabricBackend.execute``) for
the length of the traced pass.  Spans stay in memory and are written
out once, when the run ends.

A span is ``{id, name, start, end, parent, op, pid}``.  Ids carry the
process id, so spans from forked fabric workers and from the traced
service process merge with the harness's without clashes; ``start`` and
``end`` are ``time.perf_counter()`` readings, a system-wide monotonic
clock on Linux, so intervals from different processes compare.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Tracer:
    """In-memory span recorder, safe to share between threads."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, Optional[object]]] = []

    def set_op(self, op: Optional[str]) -> None:
        """Tag the calling thread's next spans with op id ``op``."""
        self._local.op = op

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span named ``name``."""
        stack = self._stack()
        span_id = f"{os.getpid()}-{next(self._ids)}"
        parent = stack[-1] if stack else None
        start = perf_counter()
        stack.append(span_id)
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": getattr(self._local, "op", None),
                    "pid": os.getpid(),
                }
            )

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a spanned wrapper until
        :meth:`unwrap_all`."""
        function = getattr(owner, attribute)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        self.patch(owner, attribute, traced)

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`unwrap_all`."""
        self._patches.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, replacement)

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)  # inherited: drop the override
            else:
                setattr(owner, attribute, original)

    def dump(self, path: "str | Path") -> None:
        """Write every recorded span to ``path`` (see :func:`dump`)."""
        dump(self.spans, path)


def dump(spans: Iterable[dict], path: "str | Path") -> None:
    """Write ``spans`` to ``path`` as JSON lines, replacing the file."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")


def load(paths: Iterable[Path]) -> List[dict]:
    """Spans from the JSON-lines files ``paths``."""
    spans: List[dict] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def total(spans: Iterable[dict], name: str) -> Tuple[int, float]:
    """``(calls, seconds)`` of the spans named ``name``."""
    durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return len(durations), sum(durations)


def self_times(spans: List[dict]) -> Dict[str, Tuple[int, float, float]]:
    """``{name: (calls, total_s, self_s)}``; self time is a span's
    duration minus the part of it its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    table: Dict[str, Tuple[int, float, float]] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        # Children of one parent may overlap (two fabric workers): count
        # the union of their intervals, clipped to the parent.
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        calls, spent, own = table.get(span["name"], (0, 0.0, 0.0))
        table[span["name"]] = (calls + 1, spent + end - start, own + end - start - covered)
    return table
