"""Intentionally broken processes: the campaign's canaries.

A resilience harness that never catches anything proves nothing.  These
mutants re-introduce classic distributed-systems bugs so that the
campaign (and CI) can demonstrate end-to-end that randomized nemesis
schedules + the linearizability checker actually detect safety
violations — and that the shrinker reduces the offending schedule to a
minimal reproducer.
"""

from __future__ import annotations

import asyncio
from typing import Any, Hashable, List, Optional, Tuple

from ..analysis.sanitizer import InterleaveError, atomic_section
from ..mp.paxos import PaxosAcceptor, PaxosCoordinator
from ..net.pipeline import SlotPipeline
from ..smr.sessions import SessionedApplier, untag_command


class AmnesiacAcceptor(PaxosAcceptor):
    """A Paxos acceptor that forgets its state on recovery.

    Classical Paxos requires the acceptor triple ``(promised,
    accepted_ballot, accepted_value)`` to live on stable storage.  This
    mutant recovers blank, so after a crash-recover cycle it may promise
    a stale ballot or report "nothing accepted" to a new coordinator —
    letting a second value be chosen after a first one was already
    decided.  Under a schedule that decides, then crash-recovers the
    acceptor and removes the rest of the original accept quorum, two
    clients decide different values: a linearizability violation the
    campaign must catch.
    """

    def durable_state(self) -> Tuple[int, int, Optional[Hashable]]:
        return (-1, -1, None)  # "stable storage" that was never written

    def on_recover(self, durable) -> None:
        self.promised, self.accepted_ballot, self.accepted_value = durable


class ReusedBallotCoordinator(PaxosCoordinator):
    """A coordinator that claims ballot 0 whatever its incarnation.

    Skipping phase 1 of ballot 0 is sound only while that ballot
    carries one value, so the real coordinator leaves it behind on
    every restart (``on_recover`` bumps the round; the TCP runtime
    starts from the WAL's incarnation).  This mutant ignores both and
    sends ``accept(0, v2)`` over a chosen ``accept(0, v1)``: the
    enumerated restart test in ``tests/test_paxos.py`` must find that
    disagreement, which is what shows the test can fail.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **{**kwargs, "first_round": 0})

    def on_recover(self, durable) -> None:
        super().on_recover(durable)
        self.round, self.ballot, self.has_quorum = 0, 0, True


class RacySlotPipeline(SlotPipeline):
    """A :class:`~repro.net.pipeline.SlotPipeline` with a seeded race.

    Every :meth:`enqueue` spawns a pair of claim tasks that read
    ``_next_slot``, suspend, and write the stale value back — each is a
    no-op alone, but when two interleave (they always do: the pair
    starts in the same loop tick) the write-back rolls back slots the
    real pump claimed meanwhile, so later decrees land on slots already
    in flight.  The claim sits inside the same ``"slot-claim"``
    :func:`~repro.analysis.sanitizer.atomic_section` the real pipeline
    declares, which is the point of the mutant: statically it is an
    RD08 canary (a copy of this shape is linted in the test suite), and
    dynamically the sanitizer, armed in every wire campaign run, must
    record the interleave the moment the second task enters the held
    section.  The wire campaign drives it with
    ``run_net_campaign(race_mutant=True)``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._racy_tasks: List[asyncio.Task] = []

    def enqueue(self, tagged: Tuple, body: bytes) -> asyncio.Future:
        future = super().enqueue(tagged, body)
        for _ in range(2):
            task = self.transport.loop.create_task(self._racy_claim())
            self._racy_tasks.append(task)
            task.add_done_callback(self._racy_tasks.remove)
        return future

    async def _racy_claim(self) -> None:
        try:
            with atomic_section(self, "slot-claim"):
                claimed = self._next_slot
                await asyncio.sleep(0)  # the interleaving window
                self._next_slot = claimed
        except InterleaveError:
            # Recorded on the sanitizer's violation list; swallowed so
            # the run (and the checker's history) survives the catch.
            pass

    def _claim_slot(self) -> int:
        try:
            return super()._claim_slot()
        except InterleaveError:
            # The pump barged into a claim a racy task left suspended —
            # the violation is recorded; fall back to a bare unguarded
            # bump so the run keeps making progress.
            slot = self._next_slot
            while slot in self.log:
                slot += 1
            self._next_slot = slot + 1
            return slot


class DoubleApplier(SessionedApplier):
    """A session seam that never consults its table: every decided
    occurrence of a command applies, so a retried or hedged decree that
    decided twice takes effect twice."""

    def apply(
        self, state: Hashable, command: Tuple
    ) -> Tuple[Hashable, Hashable, bool]:
        state, reply = self.adt.transition(state, untag_command(command))
        return state, reply, True


class DoubleApplyPipeline(SlotPipeline):
    """A :class:`~repro.net.pipeline.SlotPipeline` without exactly-once.

    Its applier is a :class:`DoubleApplier`, so duplicate decrees of a
    replicated counter's increments double-count.  The retry storm's
    checkers must catch the result as a linearizability violation; the
    wire campaign drives it with ``run_retry_storm(dedup=False)``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.applier = DoubleApplier(self.adt)
