"""A Chubby-style distributed lock service on speculative SMR.

The paper motivates message-passing consensus with exactly this
application: "Notable use cases of consensus in message-passing systems
include Google's Chubby distributed lock service".  This module derives a
lock service from the replicated log the same way the KV store is derived
— define the lock-table ADT, replicate the commands, apply the output
function to the linearized prefix (Section 6's universal-ADT recipe,
:class:`~repro.smr.replica.ReplicatedObject`).

Lock semantics (test-and-set style, no leases — the simulator has no
client failures to expire):

* ``acquire(lock, owner)``  → ``("granted", True)`` iff the lock was free
  (the owner then holds it), else ``("granted", False)``;
* ``release(lock, owner)``  → ``("released", True)`` iff the caller held
  the lock, else ``("released", False)``;
* ``holder(lock)``          → ``("holder", owner_or_None)``.

Because the commands are linearized by the replicated log, mutual
exclusion is global: at most one owner per lock at every log prefix —
checked as an invariant over the applied log in the tests.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from ..core.adt import ADT
from .replica import OperationResult, ReplicatedObject, SpeculativeSMR


def acquire(lock: Hashable, owner: Hashable) -> Tuple:
    """Lock command: try to take ``lock`` for ``owner``."""
    return ("acquire", lock, owner)


def release(lock: Hashable, owner: Hashable) -> Tuple:
    """Lock command: give ``lock`` back (only the holder may)."""
    return ("release", lock, owner)


def holder(lock: Hashable) -> Tuple:
    """Lock command: query the current holder."""
    return ("holder", lock)


def lock_table_adt() -> ADT:
    """The lock-table ADT: a map lock -> holder, test-and-set semantics."""

    def is_input(payload) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        if payload[0] in ("acquire", "release"):
            return len(payload) == 3
        if payload[0] == "holder":
            return len(payload) == 2
        return False

    def is_output(payload) -> bool:
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] in ("granted", "released", "holder")
        )

    def transition(state, input):
        table = dict(state)
        op = input[0]
        if op == "acquire":
            _, lock, owner = input
            if table.get(lock) is None:
                table[lock] = owner
                return _freeze(table), ("granted", True)
            return state, ("granted", False)
        if op == "release":
            _, lock, owner = input
            if table.get(lock) == owner:
                del table[lock]
                return _freeze(table), ("released", True)
            return state, ("released", False)
        _, lock = input
        return state, ("holder", table.get(lock))

    return ADT("lock_table", (), transition, is_input, is_output)


def _freeze(table: Dict) -> Tuple:
    return tuple(sorted(table.items(), key=repr))


#: a completed lock operation with its derived response
LockResult = OperationResult


class LockService(ReplicatedObject):
    """Client-facing lock API over :class:`SpeculativeSMR`.

    Operations of one client are serialized (the paper's sequential-client
    model); concurrent clients race through the replicated log, and the
    log order decides who gets the lock.
    """

    def __init__(
        self, n_servers: int = 3, seed: int = 0, delay: Any = 1.0
    ) -> None:
        super().__init__(
            lock_table_adt(),
            SpeculativeSMR(n_servers=n_servers, seed=seed, delay=delay),
        )

    def acquire(self, client: Hashable, lock: Hashable, at: float = 0.0) -> None:
        """Schedule an acquire attempt (owner = the calling client)."""
        self.invoke(client, acquire(lock, client), at)

    def release(self, client: Hashable, lock: Hashable, at: float = 0.0) -> None:
        """Schedule a release (only succeeds for the holder)."""
        self.invoke(client, release(lock, client), at)

    def holder_of(self, client: Hashable, lock: Hashable, at: float = 0.0) -> None:
        """Schedule a holder query."""
        self.invoke(client, holder(lock), at)

    def table(self) -> Dict[Hashable, Hashable]:
        """The lock table after the committed log prefix."""
        return dict(self.adt_state())

    def mutual_exclusion_holds(self) -> bool:
        """At every log prefix, each lock has at most one holder.

        The ADT state is a map, so this is structural; what the check
        adds is that *grants* are exclusive: replaying the log, no
        successful acquire happens while the lock is held.
        """
        adt = self.frontend.adt
        state = adt.initial_state
        for command in self.smr.committed_log():
            untagged = command[:-1]
            if untagged[0] == "acquire":
                table = dict(state)
                _, lock, owner = untagged
                held = table.get(lock) is not None
                state, output = adt.transition(state, untagged)
                if output == ("granted", True) and held:
                    return False
            else:
                state, _ = adt.transition(state, untagged)
        return True
