"""Abstract data types (Section 4.1 of the paper).

Definition 4: an ADT is a triple ``(I, O, f)`` where ``I`` are inputs, ``O``
are disjoint outputs, and ``f : I* -> O`` is an *output function* mapping
each non-empty input history to the output produced by its last input.
Computing ``f`` "amounts to replaying the execution of the state-machine
description", so every concrete ADT here is given as a deterministic state
machine and the history-based output function is derived by folding.

The library includes the paper's running example (consensus, Figure 1 /
Example 1), the universal ADT of Section 6 (identity output function, used
to model generic SMR), and a set of standard concurrent data types used by
the tests and benchmarks: read/write register, FIFO queue, stack, counter,
set, and a compare-and-swap register.

Input and output payloads are plain hashable tuples tagged with operation
names, e.g. ``("propose", v)`` / ``("decide", v)``, so that traces remain
hashable and printable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence, Tuple

Input = Hashable
Output = Hashable
State = Hashable
History = Tuple[Input, ...]

#: bound on the per-ADT memoized transition table (:meth:`ADT.step`).
STEP_CACHE_SIZE = 1 << 16


@dataclass(frozen=True)
class PartitionSpec:
    """A P-compositional decomposition certificate for an ADT.

    Declares that the ADT is (isomorphic to) a product of independent
    per-key components: the output of every operation depends only on the
    sub-history of operations sharing its partition key.  By the locality
    theorem (Herlihy–Wing, §4.3 — reproduced in ``test_locality.py``) a
    trace of such an ADT is linearizable iff each per-key projection is
    linearizable against its component ADT, which is what the fast-path
    engine in :mod:`repro.core.fastcheck` exploits.  The claim has a
    second reader: the replicated apply
    (:meth:`repro.net.pipeline.SlotPipeline._fold`) keeps the ADT's own
    state per ``key_of`` key and answers each command from its key's.

    ``key_of(input)`` maps an input payload to its partition key;
    ``component(key)`` builds the per-key ADT; ``project_input`` /
    ``project_output`` rewrite payloads for the component's alphabet (for
    a tagged product they strip the object tag).  Any of the callables
    may raise on payloads outside the declared shape — a finished
    history is then searched again whole, as one partition (what an ADT
    without a spec gets), and a live monitor says ``unknown``: an
    over-narrow spec costs speed, never soundness.  Attaching a spec is
    a *semantic claim*: only attach it when the per-key independence
    genuinely holds.
    """

    key_of: Callable[[Input], Hashable]
    component: Callable[[Hashable], "ADT"]
    project_input: Callable[[Hashable, Input], Input] = (
        lambda key, payload: payload
    )
    project_output: Callable[[Hashable, Output], Output] = (
        lambda key, payload: payload
    )

    def route(self, payload: Input) -> Tuple[Hashable, Input]:
        """Key one input and rewrite it into its component's alphabet.

        Returns ``(key, projected_input)``; raises whatever the spec's
        callables raise on a payload outside the declared shape.  An
        operation's response has its invocation's input, so it lives
        under the same key and only its output is left to project.
        """
        key = self.key_of(payload)
        return key, self.project_input(key, payload)


class ADT:
    """A deterministic abstract data type given as a state machine.

    Subclasses (or direct instances constructed with callables) provide:

    * ``initial_state`` — the state before any input;
    * ``transition(state, input)`` — returns ``(new_state, output)``;
    * ``is_input`` / ``is_output`` — payload validity predicates.

    The paper's output function ``f(history)`` is :meth:`output`.

    ``partition`` optionally carries a :class:`PartitionSpec` declaring a
    per-key product decomposition for the fast-path checker.  :meth:`step`
    is the memoized hot-path transition of the searches (the certificate
    in ``monitor/streaming.py`` steps the plain ``_transition``); it
    skips input validation (callers validate payloads up front) and
    caches ``(state, input) -> (state', output)`` with an LRU bound,
    which is sound because transitions are deterministic pure functions
    over hashable payloads.
    """

    __slots__ = (
        "name",
        "initial_state",
        "_transition",
        "_is_input",
        "_is_output",
        "partition",
        "step",
    )

    def __init__(
        self,
        name: str,
        initial_state: State,
        transition: Callable[[State, Input], Tuple[State, Output]],
        is_input: Callable[[Input], bool],
        is_output: Callable[[Output], bool],
        partition: Optional[PartitionSpec] = None,
    ) -> None:
        self.name = name
        self.initial_state = initial_state
        self._transition = transition
        self._is_input = is_input
        self._is_output = is_output
        self.partition = partition
        self.step = functools.lru_cache(maxsize=STEP_CACHE_SIZE)(transition)

    def transition(self, state: State, input: Input) -> Tuple[State, Output]:
        """One step of the state machine: ``(state', f-output)``."""
        if not self.is_input(input):
            raise ValueError(f"{input!r} is not an input of ADT {self.name}")
        return self._transition(state, input)

    def is_input(self, payload: Input) -> bool:
        """True iff ``payload`` belongs to the input set ``I_T``."""
        return self._is_input(payload)

    def is_output(self, payload: Output) -> bool:
        """True iff ``payload`` belongs to the output set ``O_T``."""
        return self._is_output(payload)

    def run(self, history: Sequence[Input]) -> Tuple[State, Optional[Output]]:
        """Fold the state machine over a history.

        Returns the final state and the output of the last input (``None``
        for the empty history, which has no output in the paper's model).
        """
        state = self.initial_state
        output: Optional[Output] = None
        for input in history:
            state, output = self.transition(state, input)
        return state, output

    def output(self, history: Sequence[Input]) -> Output:
        """The paper's output function ``f_T`` (Definition 4).

        Raises ValueError on the empty history, on which ``f`` is not
        defined.
        """
        if not history:
            raise ValueError(f"f_{self.name} is undefined on the empty history")
        _, out = self.run(history)
        return out

    def __repr__(self) -> str:
        return f"ADT({self.name})"


# ---------------------------------------------------------------------------
# Consensus (Figure 1 / Example 1)
# ---------------------------------------------------------------------------


def propose(value: Hashable) -> Input:
    """The consensus input ``p(v)``."""
    return ("propose", value)


def decide(value: Hashable) -> Output:
    """The consensus output ``d(v)``."""
    return ("decide", value)


def proposed_value(input: Input) -> Hashable:
    """Extract ``v`` from ``p(v)``."""
    tag, value = input
    if tag != "propose":
        raise ValueError(f"not a propose input: {input!r}")
    return value


def decided_value(output: Output) -> Hashable:
    """Extract ``v`` from ``d(v)``."""
    tag, value = output
    if tag != "decide":
        raise ValueError(f"not a decide output: {output!r}")
    return value


def consensus_adt(values: Optional[Iterable[Hashable]] = None) -> ADT:
    """The consensus ADT of Example 1.

    ``f([p(v1), p(v2), ..., p(vn)]) = d(v1)``: the first proposal wins and
    every subsequent proposal receives the same decision.  The state is the
    first proposed value (or None before any proposal).

    If ``values`` is given, inputs are restricted to proposals over that
    set; otherwise any hashable value may be proposed.
    """
    universe = None if values is None else frozenset(values)

    def is_input(payload: Input) -> bool:
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return False
        if payload[0] != "propose":
            return False
        return universe is None or payload[1] in universe

    def is_output(payload: Output) -> bool:
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return False
        if payload[0] != "decide":
            return False
        return universe is None or payload[1] in universe

    def transition(state: State, input: Input) -> Tuple[State, Output]:
        value = proposed_value(input)
        winner = value if state is None else state
        return winner, decide(winner)

    return ADT("consensus", None, transition, is_input, is_output)


# ---------------------------------------------------------------------------
# Universal ADT (Section 6)
# ---------------------------------------------------------------------------


def universal_adt(
    valid_input: Optional[Callable[[Input], bool]] = None,
) -> ADT:
    """The universal ADT of Section 6.

    "The output function of the universal ADT is the identity function. In
    other words, this ADT responds to an invocation with its full trace, in
    the form of a history."  State = the history so far (a tuple), and the
    output of each input is the extended history.  Any linearizable
    implementation of the universal ADT yields an implementation of an
    arbitrary ADT ``A`` by post-applying ``A``'s output function.
    """

    def is_input(payload: Input) -> bool:
        return valid_input is None or valid_input(payload)

    def is_output(payload: Output) -> bool:
        return isinstance(payload, tuple)

    def transition(state: State, input: Input) -> Tuple[State, Output]:
        history = state + (input,)
        return history, history

    return ADT("universal", (), transition, is_input, is_output)


def apply_adt_to_universal_output(adt: ADT, history_output: Output) -> Output:
    """Turn a universal-ADT response into an ``adt`` response (Section 6).

    Given a linearizable universal object, applying the output function of
    another ADT to its responses implements that ADT.
    """
    return adt.output(history_output)


# ---------------------------------------------------------------------------
# Read/write register
# ---------------------------------------------------------------------------


def reg_read() -> Input:
    """Register input: read the current value."""
    return ("read",)


def reg_write(value: Hashable) -> Input:
    """Register input: write ``value``."""
    return ("write", value)


def register_adt(initial: Hashable = None) -> ADT:
    """An atomic read/write register.

    ``read`` returns ``("value", v)``; ``write`` returns ``("ok",)``.
    """

    def is_input(payload: Input) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        if payload[0] == "read":
            return len(payload) == 1
        if payload[0] == "write":
            return len(payload) == 2
        return False

    def is_output(payload: Output) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        return payload[0] in ("value", "ok")

    def transition(state: State, input: Input) -> Tuple[State, Output]:
        if input[0] == "read":
            return state, ("value", state)
        return input[1], ("ok",)

    return ADT("register", initial, transition, is_input, is_output)


# ---------------------------------------------------------------------------
# FIFO queue
# ---------------------------------------------------------------------------


def enq(value: Hashable) -> Input:
    """Queue input: enqueue ``value``."""
    return ("enq", value)


def deq() -> Input:
    """Queue input: dequeue the oldest value."""
    return ("deq",)


EMPTY: Output = ("empty",)


def queue_adt() -> ADT:
    """An unbounded FIFO queue.

    ``enq`` returns ``("ok",)``; ``deq`` returns ``("value", v)`` or
    ``("empty",)`` when the queue is empty.  State is a tuple of queued
    values, oldest first.
    """

    def is_input(payload: Input) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        if payload[0] == "enq":
            return len(payload) == 2
        if payload[0] == "deq":
            return len(payload) == 1
        return False

    def is_output(payload: Output) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        return payload[0] in ("ok", "value", "empty")

    def transition(state: State, input: Input) -> Tuple[State, Output]:
        if input[0] == "enq":
            return state + (input[1],), ("ok",)
        if not state:
            return state, EMPTY
        return state[1:], ("value", state[0])

    return ADT("queue", (), transition, is_input, is_output)


# ---------------------------------------------------------------------------
# Stack
# ---------------------------------------------------------------------------


def push(value: Hashable) -> Input:
    """Stack input: push ``value``."""
    return ("push", value)


def pop() -> Input:
    """Stack input: pop the most recent value."""
    return ("pop",)


def stack_adt() -> ADT:
    """An unbounded LIFO stack (``pop`` on empty returns ``("empty",)``)."""

    def is_input(payload: Input) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        if payload[0] == "push":
            return len(payload) == 2
        if payload[0] == "pop":
            return len(payload) == 1
        return False

    def is_output(payload: Output) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        return payload[0] in ("ok", "value", "empty")

    def transition(state: State, input: Input) -> Tuple[State, Output]:
        if input[0] == "push":
            return state + (input[1],), ("ok",)
        if not state:
            return state, EMPTY
        return state[:-1], ("value", state[-1])

    return ADT("stack", (), transition, is_input, is_output)


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------


def inc(amount: int = 1) -> Input:
    """Counter input: add ``amount``."""
    return ("inc", amount)


def counter_read() -> Input:
    """Counter input: read the current count."""
    return ("cread",)


def counter_adt() -> ADT:
    """A fetch-and-add counter: ``inc`` returns the *previous* value."""

    def is_input(payload: Input) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        if payload[0] == "inc":
            return len(payload) == 2 and isinstance(payload[1], int)
        if payload[0] == "cread":
            return len(payload) == 1
        return False

    def is_output(payload: Output) -> bool:
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "count"
        )

    def transition(state: State, input: Input) -> Tuple[State, Output]:
        if input[0] == "inc":
            return state + input[1], ("count", state)
        return state, ("count", state)

    return ADT("counter", 0, transition, is_input, is_output)


# ---------------------------------------------------------------------------
# Set
# ---------------------------------------------------------------------------


def set_add(value: Hashable) -> Input:
    """Set input: insert ``value``; output reports prior membership."""
    return ("add", value)


def set_remove(value: Hashable) -> Input:
    """Set input: remove ``value``; output reports prior membership."""
    return ("remove", value)


def set_contains(value: Hashable) -> Input:
    """Set input: membership query."""
    return ("contains", value)


def set_adt() -> ADT:
    """A mathematical set with add/remove/contains.

    All operations answer ``("bool", b)`` where ``b`` reflects membership
    before the operation (for add/remove) or current membership (contains).
    """

    def is_input(payload: Input) -> bool:
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] in ("add", "remove", "contains")
        )

    def is_output(payload: Output) -> bool:
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "bool"
        )

    def transition(state: State, input: Input) -> Tuple[State, Output]:
        op, value = input
        member = value in state
        if op == "add":
            return state | frozenset([value]), ("bool", member)
        if op == "remove":
            return state - frozenset([value]), ("bool", member)
        return state, ("bool", member)

    return ADT("set", frozenset(), transition, is_input, is_output)


# ---------------------------------------------------------------------------
# Compare-and-swap register
# ---------------------------------------------------------------------------


def cas(expected: Hashable, new: Hashable) -> Input:
    """CAS input: if current == expected, set to new; return prior value."""
    return ("cas", expected, new)


def cas_read() -> Input:
    """CAS-register input: read the current value."""
    return ("casread",)


def cas_register_adt(initial: Hashable = None) -> ADT:
    """A compare-and-swap register; ``cas`` returns the *previous* value.

    This mirrors the hardware CAS used by CASCons (Figure 3), where
    ``CAS(D, bottom, val)`` returns the value that wins the race.
    The modelled return convention: the returned payload is
    ``("value", v)`` where ``v`` is the register's value *after* the
    operation — i.e. the winning value — matching Figure 3's use of the CAS
    result as the decision.
    """

    def is_input(payload: Input) -> bool:
        if not isinstance(payload, tuple) or not payload:
            return False
        if payload[0] == "cas":
            return len(payload) == 3
        if payload[0] == "casread":
            return len(payload) == 1
        return False

    def is_output(payload: Output) -> bool:
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "value"
        )

    def transition(state: State, input: Input) -> Tuple[State, Output]:
        if input[0] == "casread":
            return state, ("value", state)
        _, expected, new = input
        if state == expected:
            return new, ("value", new)
        return state, ("value", state)

    return ADT("cas_register", initial, transition, is_input, is_output)


# ---------------------------------------------------------------------------
# Product ADTs (inter-object composition / locality)
# ---------------------------------------------------------------------------


def product_adt(components: "dict") -> ADT:
    """The product of named ADTs: the system of independent objects.

    Linearizability's *locality* ("a system composed of linearizable
    objects is itself linearizable", Section 4.3 / [Herlihy-Wing]) is a
    statement about exactly this ADT: inputs are ``(name, inner_input)``,
    outputs ``(name, inner_output)``, and each component evolves
    independently.  The tests use it to exercise inter-object
    composition, the classical counterpart of the paper's intra-object
    composition.
    """
    components = dict(components)
    names = tuple(sorted(components, key=repr))
    index_of = {name: index for index, name in enumerate(names)}

    def is_input(payload: Input) -> bool:
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return False
        name, inner = payload
        return name in components and components[name].is_input(inner)

    def is_output(payload: Output) -> bool:
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return False
        name, inner = payload
        return name in components and components[name].is_output(inner)

    def transition(state: State, input: Input) -> Tuple[State, Output]:
        name, inner = input
        index = index_of[name]
        inner_state, inner_out = components[name].transition(
            state[index], inner
        )
        new_state = state[:index] + (inner_state,) + state[index + 1 :]
        return new_state, (name, inner_out)

    def key_of(payload: Input) -> Hashable:
        name, _inner = payload
        if name not in components:
            raise KeyError(name)
        return name

    def project_in(key: Hashable, payload: Input) -> Input:
        name, inner = payload
        if name != key:
            raise ValueError(f"payload {payload!r} is not tagged {key!r}")
        return inner

    def project_out(key: Hashable, payload: Output) -> Output:
        name, inner = payload
        if name != key:
            raise ValueError(f"output {payload!r} is not tagged {key!r}")
        return inner

    initial = tuple(components[name].initial_state for name in names)
    label = "x".join(str(components[name].name) for name in names)
    # Components evolve independently by construction, so the product
    # carries its own P-compositional certificate: key = the object tag.
    spec = PartitionSpec(
        key_of=key_of,
        component=components.__getitem__,
        project_input=project_in,
        project_output=project_out,
    )
    return ADT(
        f"product({label})",
        initial,
        transition,
        is_input,
        is_output,
        partition=spec,
    )


def tag_object(name: Hashable, payload: Input) -> Input:
    """Tag an inner payload with its object name for a product ADT."""
    return (name, payload)
