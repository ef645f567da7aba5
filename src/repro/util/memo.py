"""Run-scoped memo: share read-only build products within one run.

A sweep or batch runs many simulations of one device, and each
simulation used to rebuild the endurance map and the allocation plan
from scratch.  :func:`run_memo` opens a memo for the calling thread;
inside it, :func:`memoized` hands back the last value built for a
*kind* when its key matches, and builds (and keeps) a new one
otherwise.  The memo keeps one value per kind, and drops them all when
the scope exits, so nothing outlives the run.

The memo is thread-local, so the job service's dispatcher threads each
see their own; and it belongs to the process that opened it, so a pool
worker forked inside a run builds its own values, as it would outside
one.  Values must be immutable (arrays ``setflags(write=False)``):
every caller in the run gets the same object.
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple, TypeVar

T = TypeVar("T")

_local = threading.local()


@contextmanager
def run_memo() -> Iterator[None]:
    """Open a fresh memo for the calling thread until the block exits."""
    previous = getattr(_local, "scope", None)
    _local.scope = (os.getpid(), {})
    try:
        yield
    finally:
        _local.scope = previous


def memoized(
    kind: str, key: Hashable, build: Callable[[], T], owner: Optional[object] = None
) -> T:
    """``build()``, or the value of ``kind`` the open memo holds for ``key``.

    ``owner`` is an object the value is derived from and compared by
    identity (held weakly, so the memo never keeps it alive).  Without
    an open memo in this thread and process, this is just ``build()``.
    """
    scope: Optional[Tuple[int, Dict[str, tuple]]] = getattr(_local, "scope", None)
    if scope is None or scope[0] != os.getpid():
        return build()
    entries = scope[1]
    held = entries.pop(kind, None)
    if held is not None and held[0] == key:
        held_owner = None if held[1] is None else held[1]()
        if held_owner is owner:
            entries[kind] = held
            return held[2]
    del held  # free the last value before building its successor
    value = build()
    entries[kind] = (key, None if owner is None else weakref.ref(owner), value)
    return value
