"""The cyclic garbage collector paused around the bulk builders."""

from __future__ import annotations

import gc
from functools import wraps


def paused_gc(fn):
    """``fn`` run with the cyclic collector paused.

    For builders that allocate many objects and create no reference
    cycles: reference counting frees all they drop, so every collection
    their allocations would trigger walks live objects and frees nothing.
    The call restores the state it found, also when ``fn`` raises, so a
    nested call leaves the collector paused until the outermost returns,
    and a collector the caller disabled stays disabled."""

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused
