"""Interleaving scheduler for shared-memory programs.

Client algorithms are written as Python *generators* that yield memory
operations (tuples understood by
:meth:`repro.sm.memory.SharedMemory.execute`) and receive the operation's
result at the next resumption.  Code between two yields runs atomically —
exactly the granularity of the paper's model, where only the shared-memory
primitives are atomic and everything else is process-local.

Three execution modes:

* :meth:`InterleavingScheduler.run_random` — a seeded uniformly random
  scheduler (an adversary drawn at random);
* :meth:`InterleavingScheduler.run_schedule` — replay an explicit thread
  schedule (used by exhaustive exploration and by regression tests that
  pin a specific adversary);
* :func:`explore_schedules` — exhaustive DFS over *all* interleavings of
  a (small) program set, the shared-memory analogue of model checking.
  Every complete schedule is passed to a collector; the RCons/CASCons
  tests use this to check every interleaving of 2 clients.  At 3 clients
  it is not exhaustive in practice (200,000 schedules without finishing):
  the tests check its first schedules and seeded random ones, and
  ROADMAP items 10 and 11 are the way to three.
"""

from __future__ import annotations

import random
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .memory import SharedMemory

Program = Generator[Tuple, Any, None]


class InterleavingScheduler:
    """Serializes steps of a set of generator programs over one memory."""

    def __init__(
        self,
        memory: SharedMemory,
        programs: Dict[Hashable, Program],
    ) -> None:
        self.memory = memory
        self.programs = dict(programs)
        self._pending: Dict[Hashable, Tuple] = {}
        self._alive: List[Hashable] = []
        for name, program in self.programs.items():
            try:
                self._pending[name] = next(program)
                self._alive.append(name)
            except StopIteration:
                pass
        self.steps_taken: List[Hashable] = []

    @property
    def runnable(self) -> Tuple[Hashable, ...]:
        """Threads that still have a pending operation."""
        return tuple(self._alive)

    def step(self, name: Hashable) -> bool:
        """Execute one atomic step of thread ``name``.

        Returns True if the thread is still alive afterwards.
        """
        if name not in self._pending:
            raise ValueError(f"thread {name!r} is not runnable")
        op = self._pending.pop(name)
        result = self.memory.execute(op)
        self.steps_taken.append(name)
        try:
            self._pending[name] = self.programs[name].send(result)
            return True
        except StopIteration:
            self._alive.remove(name)
            return False

    def run_random(self, rng: random.Random) -> List[Hashable]:
        """Run to completion under a uniformly random scheduler."""
        while self._alive:
            self.step(rng.choice(self._alive))
        return self.steps_taken

    def run_round_robin(self) -> List[Hashable]:
        """Run to completion cycling through threads in name order."""
        while self._alive:
            for name in sorted(self._alive, key=repr):
                if name in self._pending:
                    self.step(name)
        return self.steps_taken

    def run_sequential(self) -> List[Hashable]:
        """Run each thread to completion before starting the next.

        This is the paper's contention-free regime: "the time intervals
        delimited by corresponding invocations and responses do not
        overlap".
        """
        for name in sorted(self.programs, key=repr):
            while name in self._pending:
                self.step(name)
        return self.steps_taken

    def run_schedule(self, choices: Iterable[Hashable]) -> bool:
        """Replay an explicit schedule; returns True if all threads
        finished by the end of the schedule."""
        for name in choices:
            if name in self._pending:
                self.step(name)
        return not self._alive


def explore_schedules(
    setup: Callable[[], Tuple[SharedMemory, Dict[Hashable, Program]]],
    max_schedules: Optional[int] = None,
) -> Iterator[Tuple[List[Hashable], SharedMemory]]:
    """Exhaustively enumerate all interleavings of a program set.

    ``setup`` freshly constructs the memory and programs (exploration
    replays prefixes, so construction must be repeatable and
    deterministic).  Yields ``(schedule, memory)`` for every complete
    interleaving, in DFS order; ``max_schedules`` caps the enumeration.
    """
    produced = 0

    def replay(prefix: List[Hashable]) -> InterleavingScheduler:
        memory, programs = setup()
        scheduler = InterleavingScheduler(memory, programs)
        scheduler.run_schedule(prefix)
        return scheduler

    def dfs(prefix: List[Hashable]) -> Iterator[Tuple[List[Hashable], SharedMemory]]:
        nonlocal produced
        if max_schedules is not None and produced >= max_schedules:
            return
        scheduler = replay(prefix)
        runnable = sorted(scheduler.runnable, key=repr)
        if not runnable:
            produced += 1
            yield list(prefix), scheduler.memory
            return
        for name in runnable:
            yield from dfs(prefix + [name])

    yield from dfs([])


def count_schedules(
    setup: Callable[[], Tuple[SharedMemory, Dict[Hashable, Program]]],
    max_schedules: Optional[int] = None,
) -> int:
    """Number of complete interleavings (bounded by ``max_schedules``)."""
    return sum(1 for _ in explore_schedules(setup, max_schedules))
