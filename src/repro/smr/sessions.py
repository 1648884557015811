"""Exactly-once client sessions: the dedup seam of the replicated fold.

Speculative linearizability's whole point is that a client may abort
the fast path and *safely relaunch* the operation on the backup
protocol.  Relaunching is only safe if a command that decides twice —
a retried proposal whose first decree also landed, a hedged duplicate,
a replayed frame — **applies** once.  Classical SMR closes this with
per-client sessions: the replicated state machine carries, per client,
the highest applied sequence number and the reply it produced, and
drops any command whose ``(client, seq)`` it has already applied,
answering the cached reply instead.

In this codebase the replicated state is the decided log and ADT
application happens in the *appliers* — :class:`~repro.net.pipeline.
SlotPipeline`'s incremental fold on the wire, the simulator's
``SpeculativeSMR`` beside it.  The session rule is therefore a property
of the fold, and it is deterministic across every applier because every
client op carries a unique ``("seq", (client, seq))`` tag (the same
tag the pipeline already uses for multiplexing): **the first occurrence
of a uid in log order applies; every later occurrence is a duplicate
and answers the cached reply.**  Appliers route through
:class:`SessionedApplier` (the seam lint rule RD07 enforces) instead of
calling ``adt.transition`` directly.

Durability is inherited, not reimplemented: the decided log is exactly
what the node WALs persist (``"dec"`` records) and snapshot on
compaction (:meth:`repro.net.wal.NodeWAL.compact`), so the session
table — a pure function of the decided prefix — survives crash,
restart and compaction with no extra machinery.  A recovering applier
refolds the replayed log through the same seam and rebuilds the same
table, which is what the crash-recovery tests assert.

:func:`sessioned_adt` is the specification-level statement of the same
idea: an :class:`~repro.core.adt.ADT` wrapper whose state embeds the
``client -> (seq, cached_reply)`` table, usable by the checkers and by
anyone who wants the session semantics as a first-class replicated
object.  The seam has no off switch: the retry-storm canary's
double-apply mutant is :class:`~repro.faults.mutants.DoubleApplyPipeline`,
which swaps its pipeline's applier for one that skips the table.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Optional, Tuple

from ..core.adt import ADT

#: tag key carried as the last element of every client-tagged command
SEQ_TAG = "seq"


def seq_uid(command: Hashable) -> Optional[Tuple]:
    """The ``(client, seq)`` uid of a tagged command, or None.

    A tagged command ends with ``("seq", (client, seq))`` — the shape
    :meth:`PipelineClient.submit` appends.
    Untagged commands (spec-level inputs) have no session identity.
    """
    if not isinstance(command, tuple) or not command:
        return None
    tag = command[-1]
    if (
        isinstance(tag, tuple)
        and len(tag) == 2
        and tag[0] == SEQ_TAG
        and isinstance(tag[1], tuple)
        and len(tag[1]) == 2
    ):
        return tag[1]
    return None


def untag_command(command: Tuple) -> Tuple:
    """The command without its session tag (identity if untagged)."""
    if seq_uid(command) is not None:
        return command[:-1]
    return command


def dedup_commands(commands: Iterable[Tuple]) -> Iterator[Tuple]:
    """First-occurrence-wins filter over a log-ordered command stream.

    Yields each command whose uid has not been seen before (untagged
    commands always pass).  This is the session rule as a pure stream
    transform: the retry-storm witness counts the distinct increments
    of a decided log with it, independently of any applier.
    """
    seen = set()
    for command in commands:
        uid = seq_uid(command)
        if uid is not None:
            if uid in seen:
                continue
            seen.add(uid)
        yield command


class SessionTable:
    """Per-client ``(last applied seq, cached reply)`` — the dedup table.

    Clients are sequential and their seqs strictly increase, so one
    ``(seq, reply)`` pair per client suffices: a duplicate occurrence
    carries ``seq <= last``, and only ``seq == last`` can still have a
    live waiter needing the cached reply (the client has since moved
    on past anything older).
    """

    __slots__ = ("duplicates", "_sessions")

    def __init__(self) -> None:
        #: duplicate occurrences suppressed (observability)
        self.duplicates = 0
        self._sessions: Dict[Hashable, Tuple[int, Hashable]] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def seen(self, uid: Tuple) -> Optional[Tuple[int, Hashable]]:
        """The client's ``(last seq, cached reply)`` if ``uid`` is a
        duplicate occurrence (counted), None if it must be applied."""
        last = self._sessions.get(uid[0])
        if last is not None and uid[1] <= last[0]:
            self.duplicates += 1
            return last
        return None

    def store(self, uid: Tuple, reply: Hashable) -> None:
        """Remember the reply the first occurrence of ``uid`` made."""
        self._sessions[uid[0]] = (uid[1], reply)

    def snapshot(self) -> Tuple:
        """The table as a canonical hashable value (spec-state embedding)."""
        return tuple(
            (client, seq, reply)
            for client, (seq, reply) in sorted(
                self._sessions.items(), key=lambda item: repr(item[0])
            )
        )

    @classmethod
    def restore(cls, snapshot: Tuple) -> "SessionTable":
        """Rebuild a table from :meth:`snapshot`."""
        table = cls()
        for client, seq, reply in snapshot:
            table._sessions[client] = (seq, reply)
        return table


class SessionedApplier:
    """The seam every replicated apply path routes through (RD07).

    Wraps a base ADT with a :class:`SessionTable`: ``apply`` folds one
    *tagged* decided command into the running state, suppressing
    duplicate occurrences and answering their cached replies.  The fold
    stays deterministic in log order, so every applier — pipelines,
    prefix folds, recovering replicas — derives the same state and the
    same replies from the same decided log.
    """

    def __init__(self, adt: ADT) -> None:
        self.adt = adt
        self.table = SessionTable()

    @property
    def duplicates(self) -> int:
        """Duplicate command occurrences suppressed so far."""
        return self.table.duplicates

    def apply(
        self, state: Hashable, command: Tuple
    ) -> Tuple[Hashable, Hashable, bool]:
        """Fold one decided command: ``(state', reply, fresh)``.

        ``fresh`` is False for a suppressed duplicate — the state is
        unchanged and the reply is the cached one its first occurrence
        produced (the waiter of a retried/hedged op still gets the
        canonical answer).
        """
        uid = seq_uid(command)  # the tag is parsed here, once per command
        if uid is None:
            return self.adt.transition(state, command) + (True,)
        last = self.table.seen(uid)
        if last is not None:
            return state, last[1], False
        state, reply = self.adt.transition(state, command[:-1])
        self.table.store(uid, reply)
        return state, reply, True


def sessioned_adt(base: ADT) -> ADT:
    """The ``SessionedADT`` wrapper: sessions embedded in the machine.

    State is ``(inner_state, session_snapshot)``; inputs are the tagged
    commands the wire carries (untagged inputs pass straight through).
    A duplicate input leaves the state unchanged and outputs the cached
    reply — exactly-once semantics as a *specification*, checkable with
    the same engines as any other ADT and usable wherever a replicated
    object wants safe retry built in.
    """

    def is_input(payload: Hashable) -> bool:
        if not isinstance(payload, tuple):
            return False
        return base.is_input(untag_command(payload))

    def transition(state, payload):
        inner, snapshot = state
        uid = seq_uid(payload)
        if uid is None:
            inner, output = base.transition(inner, payload)
            return (inner, snapshot), output
        table = SessionTable.restore(snapshot)
        last = table.seen(uid)
        if last is not None:
            return state, last[1]
        inner, output = base.transition(inner, payload[:-1])
        table.store(uid, output)
        return (inner, table.snapshot()), output

    return ADT(
        f"sessioned[{base.name}]",
        (base.initial_state, ()),
        transition,
        is_input,
        base.is_output,
    )
