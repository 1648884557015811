"""The universal ADT and generic SMR glue (Section 6).

"The output function of the universal ADT is the identity function ...
The universal ADT can be used as an abstraction for generic SMR protocols
because, given a linearizable implementation, it suffices to apply the
output function of another ADT A to the responses in order to obtain an
implementation of A."

This module provides that application step: a :class:`UniversalFrontend`
wraps any linearizable *universal* object (something producing growing
command histories — here, the replicated log of
:mod:`repro.smr.replica`) and exposes an arbitrary ADT by applying its
output function to the history responses.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

from ..core.adt import ADT, PartitionSpec, universal_adt


class UniversalFrontend:
    """Derive an arbitrary ADT from universal-object responses.

    ``respond(history)`` applies the target ADT's output function to a
    history returned by the universal object — the last input of the
    history is the invocation being answered.
    """

    def __init__(self, adt: ADT) -> None:
        self.adt = adt
        self.universal = universal_adt(valid_input=adt.is_input)

    def respond(self, history: Sequence) -> Hashable:
        """The target-ADT output for a universal response ``history``."""
        return self.adt.output(tuple(history))


#: first element of a batch decree value (see :func:`make_batch`)
BATCH_TAG = "batch"


def make_batch(commands: Sequence[Hashable]) -> Tuple:
    """Pack client commands into one decree value.

    The batching coordinator proposes ``("batch", (cmd, ...))`` as a
    *single* consensus value: one Quorum/Backup round decides a whole
    group of operations, which is what lets throughput scale past one
    op per protocol round trip.  Commands keep their per-client
    ``("seq", ...)`` tags, so distinct batches are distinct values —
    the sticky-acceptance and unanimity arguments are untouched because
    consensus only ever compares decree values for equality.
    """
    return (BATCH_TAG, tuple(commands))


def is_batch(value: Hashable) -> bool:
    """True iff ``value`` is a batch decree."""
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and value[0] == BATCH_TAG
        and isinstance(value[1], tuple)
    )


def batch_commands(value: Hashable) -> Tuple:
    """The commands a decided decree carries (a 1-tuple if unbatched).

    Appliers flatten decided slots through this, so a log mixing
    batched and single-op decrees (e.g. after a codec or config
    rollout) replays to the same sequential history.
    """
    if is_batch(value):
        return value[1]  # type: ignore[index]
    return (value,)


def kv_put(key: Hashable, value: Hashable) -> Tuple:
    """KV command: bind ``key`` to ``value``; returns the previous value."""
    return ("put", key, value)


def kv_get(key: Hashable) -> Tuple:
    """KV command: read the value bound to ``key`` (None if absent)."""
    return ("get", key)


def kv_delete(key: Hashable) -> Tuple:
    """KV command: unbind ``key``; returns the previous value."""
    return ("delete", key)


def kv_cell_adt(key: Hashable) -> ADT:
    """The single-key component of the KV store: one cell's value.

    State is the cell's current value, ``None`` meaning absent — which is
    exactly what the full store answers for a missing key, so per-cell
    outputs coincide with the store's outputs on the projected history.
    """

    def is_input(payload) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        if payload[0] == "put":
            return len(payload) == 3 and payload[1] == key
        if payload[0] in ("get", "delete"):
            return len(payload) == 2 and payload[1] == key
        return False

    def is_output(payload) -> bool:
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "value"
        )

    def transition(state, input):
        op = input[0]
        if op == "put":
            return input[2], ("value", state)
        if op == "get":
            return state, ("value", state)
        return None, ("value", state)

    return ADT(f"kv_cell[{key!r}]", None, transition, is_input, is_output)


def kv_store_adt() -> ADT:
    """A replicated key-value store as an ADT (the Gaios/Chubby shape the
    paper cites as consensus use cases).

    All commands answer ``("value", previous_or_current)``.  Every command
    touches exactly one key and its output depends only on that key's
    sub-history, so the ADT carries a
    :class:`~repro.core.adt.PartitionSpec` keyed on the command's key
    with :func:`kv_cell_adt` components — the P-compositional checker in
    :mod:`repro.core.fastcheck` decomposes traces per key.

    State is the tuple of (key, value) pairs sorted by ``repr(key)``:
    canonical, so equal stores are equal states in every process.  A
    write splices its one pair in and sorts nothing: a held key is found
    by equality (``1``, ``1.0`` and ``True`` are one key, as in ``dict``
    and in the checker's partitioning) and keeps its place and its key
    object; only a key not yet held is bisected in, with log K ``repr``
    calls.  Finding the key copies the store, so a step is still O(K):
    the replicated apply steps each key's own one-pair state instead
    (:meth:`repro.net.pipeline.SlotPipeline._fold`).
    """

    def is_input(payload) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        if payload[0] == "put":
            return len(payload) == 3
        if payload[0] in ("get", "delete"):
            return len(payload) == 2
        return False

    def is_output(payload) -> bool:
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "value"
        )

    def transition(state, input):
        op, key = input[0], input[1]
        held = dict(state)
        previous = held.get(key)
        if op == "get" or (op == "delete" and key not in held):
            return state, ("value", previous)
        if key in held:
            at = list(held).index(key)
            pair = ((state[at][0], input[2]),) if op == "put" else ()
            return state[:at] + pair + state[at + 1:], ("value", previous)
        mark, at, end = repr(key), 0, len(state)
        while at < end:
            mid = (at + end) // 2
            if repr(state[mid][0]) < mark:
                at = mid + 1
            else:
                end = mid
        return state[:at] + ((key, input[2]),) + state[at:], ("value", None)

    def key_of(payload):
        if payload[0] == "put" and len(payload) == 3:
            return payload[1]
        if payload[0] in ("get", "delete") and len(payload) == 2:
            return payload[1]
        raise ValueError(f"not a kv command: {payload!r}")

    partition = PartitionSpec(key_of=key_of, component=kv_cell_adt)
    return ADT(
        "kv_store", (), transition, is_input, is_output, partition=partition
    )
