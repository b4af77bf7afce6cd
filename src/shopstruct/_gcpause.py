"""Pause Python's cyclic garbage collector around the bulk calls.

Rules, accounts and verification reports are immutable and hold no
reference cycles, so a collection during a compile, render, parse, verify or
``Simulator`` setup frees nothing.  It still walks every container alive: at
n=10000 a full pass walks the account's frozensets of about 1.5M negative
references.
``tests/test_gc_pause.py`` checks that these calls leave no cyclic garbage.
"""

from __future__ import annotations

import functools
import gc
from typing import Any, Callable, TypeVar, cast

F = TypeVar("F", bound=Callable[..., Any])


def gc_paused(fn: F) -> F:
    """Run ``fn`` with the collector off and put back the caller's state
    afterwards, also when ``fn`` raises.  The switch is process-wide, so
    another thread's collections wait until the call returns."""

    @functools.wraps(fn)
    def paused(*args: Any, **kwargs: Any) -> Any:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return cast(F, paused)
