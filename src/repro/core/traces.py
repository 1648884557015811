"""Traces, projections and well-formedness (Sections 3, 4.5, 5.4).

A *trace* is a finite sequence of actions observed at the interface between
a system and its environment.  This module provides:

* the :class:`Trace` wrapper with projection and client sub-traces;
* ``inputs(t, i)`` — the sequence of previous inputs (Definition 9);
* well-formedness of plain object traces (Definitions 13–15);
* well-formedness of speculation-phase traces (Definitions 33–35);
* pending-invocation extraction.

Indexing convention: the paper indexes traces from 1; this implementation
uses Python's 0-based indexing.  Where the paper says "before index i"
(exclusive), we use the slice ``t[:i]`` — the action at position ``i``
itself is excluded, matching ``t|i`` applied at ``i``-1 elements... more
precisely, the paper's ``inputs(t, i)`` collects the inputs of ``t|i``,
i.e. of the first ``i`` actions *including* position ``i`` (1-based).  With
0-based positions, the inputs "previous to index i" are those at positions
``0..i`` inclusive; since position ``i`` is the response/switch itself and
never an invocation when queried, using ``t[:i]`` or ``t[:i+1]`` is
equivalent at every call site; we use ``t[:i]`` throughout.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from .actions import (
    Action,
    Client,
    Input,
    Invocation,
    Response,
    Switch,
    client_action_set,
    is_invocation,
    is_response,
    is_switch,
)


class Trace:
    """An immutable finite sequence of actions.

    Supports tuple-like indexing and iteration; all derived views
    (projections, client sub-traces) return new :class:`Trace` objects.
    """

    __slots__ = ("_actions",)

    def __init__(self, actions: Iterable[Action] = ()) -> None:
        self._actions: Tuple[Action, ...] = tuple(actions)

    @property
    def actions(self) -> Tuple[Action, ...]:
        """The underlying action tuple."""
        return self._actions

    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self._actions)

    def __getitem__(self, index):
        result = self._actions[index]
        if isinstance(index, slice):
            return Trace(result)
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return self._actions == other._actions
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._actions)

    def __add__(self, other: "Trace") -> "Trace":
        if isinstance(other, Trace):
            return Trace(self._actions + other._actions)
        return Trace(self._actions + tuple(other))

    def __repr__(self) -> str:
        if len(self._actions) <= 8:
            inner = ", ".join(repr(a) for a in self._actions)
            return f"Trace([{inner}])"
        return f"Trace(<{len(self._actions)} actions>)"

    def append(self, action: Action) -> "Trace":
        """Return a new trace with ``action`` appended."""
        return Trace(self._actions + (action,))

    def project(self, keep: Callable[[Action], bool]) -> "Trace":
        """``proj(t, A)`` with ``A`` a membership predicate (Section 3)."""
        return Trace(a for a in self._actions if keep(a))

    def clients(self) -> frozenset:
        """The set of clients with at least one action in the trace."""
        return frozenset(a.client for a in self._actions)

    def client_subtrace(self, client: Client) -> "Trace":
        """``sub(t, c)``: the actions of one client (Definition 13).

        All of the client's invocations, responses and switches are kept
        (plain-object form; for the phase form use
        :func:`phase_client_subtrace`).
        """
        return self.project(lambda a: a.client == client)

    def invocations(self) -> "Trace":
        """The subsequence of invocation actions."""
        return self.project(is_invocation)

    def responses(self) -> "Trace":
        """The subsequence of response actions."""
        return self.project(is_response)

    def switches(self) -> "Trace":
        """The subsequence of switch actions."""
        return self.project(is_switch)


def inputs(trace: Trace, index: int) -> Tuple[Input, ...]:
    """``inputs(t, i)``: inputs submitted before position ``index`` (Def. 9).

    Both plain invocations and the pending inputs carried by *init* switch
    actions count as submitted inputs for the purposes of the plain
    linearizability checker only when they are invocation actions; the
    speculative checker accounts for switch-carried inputs separately
    (Definition 25).  Hence this function collects invocation inputs only.
    """
    return tuple(
        a.input for a in trace.actions[:index] if isinstance(a, Invocation)
    )


def all_inputs(trace: Trace) -> Tuple[Input, ...]:
    """All invocation inputs of the trace in order."""
    return inputs(trace, len(trace))


def pending_invocations(trace: Trace) -> List[Invocation]:
    """Invocations with no later matching response or switch by that client.

    A client's invocation is pending if the client performs no response (or
    outgoing switch, in phase traces) after it.  For well-formed traces each
    client has at most one pending invocation.
    """
    last_call: Dict[Client, Invocation] = {}
    completed: Dict[Client, bool] = {}
    for action in trace:
        client = action.client
        if isinstance(action, Invocation):
            last_call[client] = action
            completed[client] = False
        elif isinstance(action, (Response, Switch)):
            completed[client] = True
    return [
        invocation
        for client, invocation in last_call.items()
        if not completed.get(client, True)
    ]


# ---------------------------------------------------------------------------
# Plain well-formedness (Definitions 13-15)
# ---------------------------------------------------------------------------


def is_wellformed_client_subtrace(subtrace: Trace) -> bool:
    """Definition 14: alternating invocation/response, starting with inv.

    The response at position ``i+1`` must answer the invocation at ``i``
    (same input).  An empty sub-trace is well-formed (the client never
    interacted).
    """
    actions = subtrace.actions
    if not actions:
        return True
    if not isinstance(actions[0], Invocation):
        return False
    for i, action in enumerate(actions):
        expected_invocation = i % 2 == 0
        if expected_invocation:
            if not isinstance(action, Invocation):
                return False
        else:
            previous = actions[i - 1]
            if not isinstance(action, Response):
                return False
            if action.input != previous.input:
                return False
    return True


def is_wellformed(trace: Trace) -> bool:
    """Definition 15: every client sub-trace is well-formed."""
    return all(
        is_wellformed_client_subtrace(trace.client_subtrace(client))
        for client in trace.clients()
    )


# ---------------------------------------------------------------------------
# Phase well-formedness (Definitions 33-35)
# ---------------------------------------------------------------------------


def phase_client_subtrace(trace: Trace, m: int, n: int, client: Client) -> Trace:
    """``sub(t, m, n, c)`` (Definition 33).

    Keeps the client's invocations/responses tagged in ``[m..n]`` and its
    switches tagged exactly ``m`` (init) or ``n`` (abort); intermediate
    switch tags are projected away.
    """
    return trace.project(client_action_set(client, m, n))


def is_wellformed_phase_client_subtrace(subtrace: Trace, m: int, n: int) -> bool:
    """Definition 34 for a single client's ``(m, n)`` sub-trace.

    * Each invocation or init switch is immediately followed by a response
      to the same input or an abort switch carrying the same input (or is
      the final, pending action).
    * An abort action can only be the last element.
    * If ``m != 1`` the sub-trace must begin with an init action and contain
      no other init actions.
    * If ``m == 1`` the sub-trace must begin with an invocation and contain
      no init actions at all.
    """
    actions = subtrace.actions
    if not actions:
        return True

    first = actions[0]
    if m != 1:
        if not (isinstance(first, Switch) and first.phase == m):
            return False
    else:
        if not isinstance(first, Invocation):
            return False

    init_count = sum(
        1 for a in actions if isinstance(a, Switch) and a.phase == m
    )
    if m != 1 and init_count != 1:
        return False
    if m == 1 and init_count != 0:
        return False

    for i, action in enumerate(actions):
        is_abort = isinstance(action, Switch) and action.phase == n
        if is_abort and i != len(actions) - 1:
            return False
        opens = isinstance(action, Invocation) or (
            isinstance(action, Switch) and action.phase == m
        )
        if opens and i + 1 < len(actions):
            follower = actions[i + 1]
            if isinstance(follower, Response):
                if follower.input != action.input:
                    return False
            elif isinstance(follower, Switch) and follower.phase == n:
                if follower.input != action.input:
                    return False
            else:
                return False
        closes = isinstance(action, Response) or is_abort
        if closes and i + 1 < len(actions):
            follower = actions[i + 1]
            if not (
                isinstance(follower, Invocation)
                or (isinstance(follower, Switch) and follower.phase == m)
            ):
                return False
    return True


def is_phase_wellformed(trace: Trace, m: int, n: int) -> bool:
    """Definition 35: all ``(m, n)``-client sub-traces are well-formed."""
    return all(
        is_wellformed_phase_client_subtrace(
            phase_client_subtrace(trace, m, n, client), m, n
        )
        for client in trace.clients()
    )


# ---------------------------------------------------------------------------
# Index classification (Definitions 8, 22-24)
# ---------------------------------------------------------------------------


def commit_indices(trace: Trace) -> Tuple[int, ...]:
    """Positions of response actions (commit indices, Definitions 8/22)."""
    return tuple(
        i for i, a in enumerate(trace.actions) if isinstance(a, Response)
    )


def init_indices(trace: Trace, m: int) -> Tuple[int, ...]:
    """Positions of init switch actions, ``swi(_, m, _, _)`` (Def. 23)."""
    return tuple(
        i
        for i, a in enumerate(trace.actions)
        if isinstance(a, Switch) and a.phase == m
    )


def abort_indices(trace: Trace, n: int) -> Tuple[int, ...]:
    """Positions of abort switch actions, ``swi(_, n, _, _)`` (Def. 24)."""
    return tuple(
        i
        for i, a in enumerate(trace.actions)
        if isinstance(a, Switch) and a.phase == n
    )


def is_complete(trace: Trace) -> bool:
    """Definition 39: well-formed with no pending invocations."""
    return is_wellformed(trace) and not pending_invocations(trace)


def strip_phase_tags(trace: Trace) -> Trace:
    """Collapse all phase indices to 1 and drop switch actions.

    This is the projection onto ``acts(sigT)`` used by Theorem 2: viewing a
    composed speculative execution as a plain object execution where the
    phase structure is invisible.  Switch actions do not belong to
    ``sigT`` and are removed; invocation/response actions keep their
    payloads but are re-tagged with phase 1.
    """
    result: List[Action] = []
    for action in trace:
        if isinstance(action, Invocation):
            result.append(Invocation(action.client, 1, action.input))
        elif isinstance(action, Response):
            result.append(
                Response(action.client, 1, action.input, action.output)
            )
    return Trace(result)


def replace_switches_with_invocations(trace: Trace, m: int) -> Trace:
    """Replace init switches by the pending invocation they carry (§2.3).

    Speculative linearizability of a second phase concatenates the init
    prefix with "the trace t where switch calls are replaced by the pending
    invocation they contain".  This helper performs that replacement for
    the init switches (tag ``m``) of a phase trace.
    """
    result: List[Action] = []
    for action in trace:
        if isinstance(action, Switch) and action.phase == m:
            result.append(Invocation(action.client, m, action.input))
        else:
            result.append(action)
    return Trace(result)
