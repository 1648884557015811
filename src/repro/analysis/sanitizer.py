"""Runtime interleaving sanitizer: the dynamic half of RD08.

The static race detector reasons about *possible* interleavings; this
module checks *actual* ones.  Code declares critical sections —
stretches that must run without another task touching the same owner —
and the sanitizer raises the moment a second asyncio task (or thread)
enters a section that a different task still holds:

    with atomic_section(self, "slot-claim"):
        slot = self._next_slot
        self._next_slot = slot + 1

    # or, for whole methods:
    @atomic_section
    def _claim_slot(self): ...

Everything is a no-op until :func:`enable` arms the guard (every wire
chaos run does), so production paths pay one truthiness check.
Violations both raise :class:`InterleaveError` in the *intruding* task
and are recorded on a module-level list so a test or campaign can
assert on them even when the error is swallowed by a supervision layer.

Identity is ``id(owner)``: sections guard an object, not a code region,
so two pipelines interleave freely while two tasks inside one pipeline
conflict.  Re-entry by the *same* task is allowed (depth-counted) —
cooperative code frequently nests its own critical sections.

Note the deliberate asymmetry with the static pass: ``await`` inside an
``atomic_section`` is an RD08 *static* finding (the section is a claim
of no suspension), but the runtime guard only fires when interleaving
actually happens.  That is the cross-check: the static rule flags the
window, the sanitizer proves it live.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

__all__ = [
    "InterleaveError",
    "InterleaveViolation",
    "atomic_section",
    "enable",
    "disable",
    "enabled",
    "violations",
    "reset",
]


class InterleaveError(AssertionError):
    """A second task entered (or mutated under) a held critical section."""


@dataclass(frozen=True)
class InterleaveViolation:
    """A recorded interleaving, kept even if the raise is swallowed."""

    owner: str  #: repr-ish description of the guarded object
    label: str  #: section label ("slot-claim", "wal-commit", ...)
    holder: str  #: task/thread that held the section
    intruder: str  #: task/thread that barged in

    def format(self) -> str:
        return (
            f"interleave: task {self.intruder} entered {self.label!r} "
            f"on {self.owner} while held by {self.holder}"
        )


_enabled = False
_violations: List[InterleaveViolation] = []

#: (owner_id, label) -> (task_name, depth)
_held: Dict[Tuple[int, str], Tuple[str, int]] = {}


def enable() -> None:
    """Turn the sanitizer on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the sanitizer off; held-section state is cleared."""
    global _enabled
    _enabled = False
    _held.clear()


def enabled() -> bool:
    return _enabled


def violations() -> List[InterleaveViolation]:
    """All violations recorded since the last :func:`reset`."""
    return list(_violations)


def reset() -> None:
    """Forget recorded violations and held sections (between runs)."""
    _violations.clear()
    _held.clear()


def _current_task_name() -> str:
    try:
        task = asyncio.current_task()
    except RuntimeError:
        task = None
    if task is not None:
        return task.get_name()
    return f"thread:{threading.current_thread().name}"


def _describe(owner: Any) -> str:
    name = getattr(owner, "name", None)
    cls = type(owner).__name__
    return f"{cls}({name})" if isinstance(name, str) else cls


def _record(owner: Any, label: str, holder: str, intruder: str) -> None:
    violation = InterleaveViolation(
        owner=_describe(owner), label=label, holder=holder, intruder=intruder
    )
    _violations.append(violation)
    raise InterleaveError(violation.format())


class _NullSection:
    """Reusable no-op section: the disabled fast path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SECTION = _NullSection()


@contextmanager
def _guard(owner: Any, label: str):
    if not _enabled:
        yield
        return
    key = (id(owner), label)
    me = _current_task_name()
    held = _held.get(key)
    if held is not None and held[0] != me:
        _record(owner, label, holder=held[0], intruder=me)
    if held is None:
        _held[key] = (me, 1)
    else:
        _held[key] = (me, held[1] + 1)
    try:
        yield
    finally:
        now = _held.get(key)
        if now is not None:
            if now[1] <= 1:
                del _held[key]
            else:
                _held[key] = (now[0], now[1] - 1)


def atomic_section(owner: Any = None, label: str = "atomic"):
    """Critical-section guard; context manager or method decorator.

    ``with atomic_section(obj, "label"):`` guards ``obj`` for the body;
    ``@atomic_section`` on a method guards ``self`` for the whole call.
    Decorated ``async def`` methods are guarded across their full
    lifetime — including awaits — which is exactly how the sanitizer
    catches a suspension-in-critical-section at runtime.
    """
    if callable(owner):  # bare @atomic_section on a function/method
        func = owner
        section = func.__name__
        if asyncio.iscoroutinefunction(func):

            @functools.wraps(func)
            async def async_wrapper(self, *args, **kwargs):
                if not _enabled:
                    return await func(self, *args, **kwargs)
                with _guard(self, section):
                    return await func(self, *args, **kwargs)

            return async_wrapper

        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            if not _enabled:
                return func(self, *args, **kwargs)
            with _guard(self, section):
                return func(self, *args, **kwargs)

        return wrapper
    if not _enabled:
        return _NULL_SECTION
    return _guard(owner, label)
