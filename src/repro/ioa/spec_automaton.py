"""The specification automaton of Section 6.

This is speculative linearizability instantiated for the *universal ADT*
(output function = identity: a response carries the full history) with the
singleton ``rinit`` (a switch value *is* the history it represents) — the
paper's model of generic State Machine Replication.

The automaton's state (quoted from the paper):

* ``hist`` — the longest linearization made visible to a client;
* per client, a phase in {Sleep, Pending, Ready, Aborted};
* per client, ``pending(c)`` — the last input submitted by ``c``;
* ``init_hists`` — the init histories received;
* two booleans ``aborted`` and ``initialized``.

Inputs are invocations and incoming switch calls; the locally controlled
actions are the paper's A1-A4:

* **A1** (internal) — once some client has joined, set ``hist`` to the
  longest common prefix of the received init histories;
* **A2** (output) — linearize a pending input: append it to ``hist`` and
  respond with the new ``hist``;
* **A3** (internal) — set ``aborted``;
* **A4** (output) — once aborted, move a pending client to Aborted and
  emit a switch whose value extends ``hist`` with pending inputs only.

For a first phase (``m == 1``) there are no init actions: the automaton
starts initialized with the empty history and all clients Ready.

States are immutable dataclasses; actions are the :mod:`repro.core`
action types, so traces of the automaton are directly checkable with the
trace-level speculative-linearizability checker — the tests use this to
validate the two formalizations against each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import FrozenSet, Hashable, Iterable, List, Optional, Tuple

from ..core.actions import Input, Invocation, Response, Switch
from ..core.sequences import longest_common_prefix
from .automaton import Action, IOAutomaton, State

SLEEP = "sleep"
PENDING = "pending"
READY = "ready"
ABORTED = "aborted"

History = Tuple[Input, ...]


@dataclass(frozen=True)
class SpecState:
    """Immutable state of the specification automaton.

    Client-indexed components are tuples aligned with the automaton's
    fixed client ordering.
    """

    hist: History
    status: Tuple[str, ...]
    pending: Tuple[Optional[Input], ...]
    pending_tag: Tuple[Optional[int], ...]
    init_hists: FrozenSet[History]
    aborted: bool
    initialized: bool


class SpecAutomaton(IOAutomaton):
    """The SLin(m, n) specification automaton over the universal ADT.

    ``clients`` fixes the (finite) client universe.  An A4 abort value
    may append any sequence of distinct pending inputs to ``hist``, as
    the paper allows; exploration stays finite since at most
    ``len(clients)`` inputs can be pending.
    """

    def __init__(
        self,
        m: int,
        n: int,
        clients: Iterable[Hashable],
    ) -> None:
        if not m < n:
            raise ValueError("phase bounds must satisfy m < n")
        self.m = m
        self.n = n
        self.clients = tuple(clients)
        self.index = {c: i for i, c in enumerate(self.clients)}
        self.name = f"SLinSpec({m},{n})"

    # -- signature ---------------------------------------------------------

    def is_input(self, action: Action) -> bool:
        if isinstance(action, Invocation):
            return (
                action.client in self.index
                and self.m <= action.phase < self.n
            )
        if isinstance(action, Switch):
            return (
                self.m != 1
                and action.client in self.index
                and action.phase == self.m
            )
        return False

    def is_output(self, action: Action) -> bool:
        if isinstance(action, Response):
            return (
                action.client in self.index
                and self.m <= action.phase < self.n
            )
        if isinstance(action, Switch):
            return action.client in self.index and action.phase == self.n
        return False

    def is_internal(self, action: Action) -> bool:
        return action in (("A1", self.m, self.n), ("A3", self.m, self.n))

    # -- states --------------------------------------------------------------

    def initial_states(self) -> Iterable[SpecState]:
        first_phase = self.m == 1
        yield SpecState(
            hist=(),
            status=tuple(
                READY if first_phase else SLEEP for _ in self.clients
            ),
            pending=tuple(None for _ in self.clients),
            pending_tag=tuple(None for _ in self.clients),
            init_hists=frozenset(),
            aborted=False,
            initialized=first_phase,
        )

    # -- input transitions ---------------------------------------------------

    def input_step(self, state: SpecState, action: Action) -> SpecState:
        i = self.index[action.client]
        if isinstance(action, Invocation):
            if state.status[i] != READY:
                return state  # input-enabled no-op
            return replace(
                state,
                status=_set(state.status, i, PENDING),
                pending=_set(state.pending, i, action.input),
                pending_tag=_set(state.pending_tag, i, action.phase),
            )
        if isinstance(action, Switch):
            if state.status[i] != SLEEP:
                return state
            return replace(
                state,
                status=_set(state.status, i, PENDING),
                pending=_set(state.pending, i, action.input),
                pending_tag=_set(state.pending_tag, i, self.m),
                init_hists=state.init_hists | {tuple(action.value)},
            )
        return state

    # -- locally controlled transitions ---------------------------------------

    def _pending_inputs(self, state: SpecState) -> List[Input]:
        """Pending inputs: last submitted inputs of Pending clients that
        are not present in ``hist`` (the paper's definition)."""
        result = []
        for i, status in enumerate(state.status):
            if status == PENDING and state.pending[i] not in state.hist:
                result.append(state.pending[i])
        return result

    def _abortable_inputs(self, state: SpecState) -> List[Input]:
        """Inputs an A4 abort value may append beyond ``hist``.

        Besides the pending inputs, the last submitted input of an
        already-*Aborted* client qualifies: trace-level Validity
        (Definition 28) admits any previously invoked input, and Abort
        Order is unaffected because commit histories are frozen prefixes
        of ``hist`` once the phase has aborted.  Without this, a
        composition in which two clients abort in sequence — the second
        carrying the first's still-unserved input, learned through the
        next phase's ``lcp`` — would escape the specification.
        """
        result = []
        for i, status in enumerate(state.status):
            if (
                status in (PENDING, ABORTED)
                and state.pending[i] is not None
                and state.pending[i] not in state.hist
            ):
                result.append(state.pending[i])
        return result

    def transitions(
        self, state: SpecState
    ) -> Iterable[Tuple[Action, SpecState]]:
        # A1: initialize hist from the received init histories.
        if not state.initialized and any(
            s != SLEEP for s in state.status
        ):
            hist = longest_common_prefix(state.init_hists)
            yield (
                ("A1", self.m, self.n),
                replace(state, hist=hist, initialized=True),
            )

        # A2: select a possible linearization — hist extended with some
        # pending inputs, ending with the responder's — and realize it.
        # (The paper introduces A2 as appending one pending input, then
        # notes that "any extension of history hist with some pending
        # requests is a linearization of the current trace" and that "step
        # A2 may be interpreted as selecting a possible linearization and
        # producing an output that realizes it"; the general form is
        # required for the composition theorem, since a first phase's
        # abort value may carry pending inputs into the next phase's hist
        # without any response having been emitted.)
        if state.initialized and not state.aborted:
            pool = self._pending_inputs(state)
            for i, client in enumerate(self.clients):
                if state.status[i] != PENDING:
                    continue
                own = state.pending[i]
                if own in state.hist:
                    continue
                others = [x for x in dict.fromkeys(pool) if x != own]
                for extension in self._a2_extensions(others):
                    new_hist = state.hist + extension + (own,)
                    action = Response(
                        client,
                        state.pending_tag[i],
                        own,
                        new_hist,
                    )
                    yield action, replace(
                        state,
                        hist=new_hist,
                        status=_set(state.status, i, READY),
                    )

        # A3: abort the phase.
        if not state.aborted:
            yield ("A3", self.m, self.n), replace(state, aborted=True)

        # A4: emit a switch for a pending client with an abort value that
        # extends hist by pending (or previously aborted) inputs.  For a
        # later phase (m != 1) the value must *strictly* extend hist:
        # Init Order demands abort histories strictly extend the lcp of
        # the init histories, and hist is that lcp (or an extension of
        # it).  A pending client with no strict extension available (its
        # own input is already inside hist and nothing else is pending)
        # simply cannot abort — a sound narrowing that mirrors the A2
        # guard keeping such clients unserved.
        if state.aborted and state.initialized:
            # Dedupe by value: an abort value may extend hist by each
            # distinct input at most once.  Two clients pending on the
            # same input contribute one budget slot at the trace level
            # (Definition 25 combines switch contributions by pointwise
            # max), so emitting the input twice would escape the trace
            # property.
            extras_pool = list(dict.fromkeys(self._abortable_inputs(state)))
            min_extras = 1 if self.m != 1 else 0
            for i, client in enumerate(self.clients):
                if state.status[i] != PENDING:
                    continue
                for value in self._abort_values(state, extras_pool, min_extras):
                    action = Switch(client, self.n, state.pending[i], value)
                    yield action, replace(
                        state,
                        status=_set(state.status, i, ABORTED),
                    )

    def _a2_extensions(
        self, others: List[Input]
    ) -> Iterable[Tuple[Input, ...]]:
        """Sequences of distinct other-client pending inputs that an A2
        step may linearize ahead of the responder's input."""
        for size in range(len(others) + 1):
            yield from itertools.permutations(others, size)

    def _abort_values(
        self, state: SpecState, extras_pool: List[Input], min_extras: int = 0
    ) -> Iterable[History]:
        """All abort values: hist extended by a sequence of distinct
        pending inputs; ``min_extras`` enforces strict extension for
        later phases."""
        seen = set()
        for size in range(min_extras, len(extras_pool) + 1):
            for combo in itertools.permutations(extras_pool, size):
                value = state.hist + combo
                if value not in seen:
                    seen.add(value)
                    yield value


def _set(items: Tuple, index: int, value) -> Tuple:
    """Functional tuple update."""
    return items[:index] + (value,) + items[index + 1 :]


class ClientEnvironment(IOAutomaton):
    """Sequential clients driving a (composition of) speculation phase(s).

    Each client repeatedly invokes inputs from ``input_pool`` at its
    current phase tag, waiting for a response before the next invocation
    (the paper's sequential-client assumption).  A client's tag starts at
    ``m`` and follows the phase where it last received a response, so a
    client that was switched to a later phase continues there.  ``budget``
    bounds the number of invocations per client to keep state spaces
    finite.
    """

    def __init__(
        self,
        clients: Iterable[Hashable],
        input_pool: Iterable[Input],
        m: int,
        budget: int = 2,
    ) -> None:
        self.clients = tuple(clients)
        self.index = {c: i for i, c in enumerate(self.clients)}
        self.input_pool = tuple(input_pool)
        self.m = m
        self.budget = budget
        self.name = "clients"

    def initial_states(self) -> Iterable[State]:
        # Per client: (busy?, tag, invocations used)
        yield tuple((False, self.m, 0) for _ in self.clients)

    def is_input(self, action: Action) -> bool:
        return (
            isinstance(action, (Response, Switch))
            and action.client in self.index
        )

    def is_output(self, action: Action) -> bool:
        return (
            isinstance(action, Invocation) and action.client in self.index
        )

    def is_internal(self, action: Action) -> bool:
        return False

    def transitions(self, state: State) -> Iterable[Tuple[Action, State]]:
        for i, client in enumerate(self.clients):
            busy, tag, used = state[i]
            if busy or used >= self.budget:
                continue
            for input in self.input_pool:
                action = Invocation(client, tag, input)
                yield action, _set(state, i, (True, tag, used + 1))

    def input_step(self, state: State, action: Action) -> State:
        i = self.index[action.client]
        busy, tag, used = state[i]
        if isinstance(action, Response):
            return _set(state, i, (False, action.phase, used))
        if isinstance(action, Switch):
            # The client's pending invocation moved to phase `action.phase`;
            # it stays busy until that phase responds.
            return _set(state, i, (True, action.phase, used))
        return state


class InitEnvironment(IOAutomaton):
    """Environment for a *standalone* later phase (``m != 1``).

    Emits one init switch per client, drawing the init history and the
    pending input from finite pools; used to explore a single
    ``SpecAutomaton(m, n)`` with ``m > 1`` in isolation.
    """

    def __init__(
        self,
        clients: Iterable[Hashable],
        m: int,
        init_histories: Iterable[History],
        input_pool: Iterable[Input],
    ) -> None:
        self.clients = tuple(clients)
        self.index = {c: i for i, c in enumerate(self.clients)}
        self.m = m
        self.init_histories = tuple(tuple(h) for h in init_histories)
        self.input_pool = tuple(input_pool)
        self.name = "init-env"

    def initial_states(self) -> Iterable[State]:
        yield tuple(False for _ in self.clients)  # switched-in flags

    def is_input(self, action: Action) -> bool:
        return False

    def is_output(self, action: Action) -> bool:
        return (
            isinstance(action, Switch)
            and action.phase == self.m
            and action.client in self.index
        )

    def is_internal(self, action: Action) -> bool:
        return False

    def transitions(self, state: State) -> Iterable[Tuple[Action, State]]:
        for i, client in enumerate(self.clients):
            if state[i]:
                continue
            for history in self.init_histories:
                for input in self.input_pool:
                    action = Switch(client, self.m, input, history)
                    yield action, _set(state, i, True)

    def input_step(self, state: State, action: Action) -> State:
        return state
