"""Actions and signatures (Sections 3, 4.2, 5.1 of the paper).

Three kinds of actions occur at the interface of a concurrent object or a
speculation phase:

* ``inv(c, n, in)``        — client ``c`` invokes input ``in`` at phase ``n``
* ``res(c, n, in, out)``   — client ``c`` receives output ``out`` for its
                             input ``in`` from phase ``n``
* ``swi(c, n, in, v)``     — client ``c`` switches *into* phase ``n``
                             carrying pending input ``in`` and switch value
                             ``v``

The second parameter (the phase index) is what lets a single trace contain
actions of several composed phases: for a phase ``(m, n)``, actions tagged
``m`` through ``n - 1`` are internal invocations/responses, a switch tagged
``m`` is an *init* action (received from the previous phase), and a switch
tagged ``n`` is an *abort* action (emitted toward the next phase).

Plain linearizability (Section 4) uses phase index ``1`` everywhere and no
switch actions; ``sig_T`` below builds that signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

Client = Hashable
Input = Hashable
Output = Hashable
SwitchValue = Hashable


@dataclass(frozen=True, slots=True)
class Invocation:
    """The paper's ``inv(c, n, in)`` action."""

    client: Client
    phase: int
    input: Input

    def __repr__(self) -> str:
        return f"inv({self.client!r}, {self.phase}, {self.input!r})"


@dataclass(frozen=True, slots=True)
class Response:
    """The paper's ``res(c, n, in, out)`` action."""

    client: Client
    phase: int
    input: Input
    output: Output

    def __repr__(self) -> str:
        return (
            f"res({self.client!r}, {self.phase}, {self.input!r}, "
            f"{self.output!r})"
        )


@dataclass(frozen=True, slots=True)
class Switch:
    """The paper's ``swi(c, n, in, v)`` action.

    ``phase`` is the phase the client switches *to*; ``input`` is the
    client's pending input carried across the phase boundary; ``value`` is
    the switch value interpreted through the ``rinit`` relation.
    """

    client: Client
    phase: int
    input: Input
    value: SwitchValue

    def __repr__(self) -> str:
        return (
            f"swi({self.client!r}, {self.phase}, {self.input!r}, "
            f"{self.value!r})"
        )


Action = Any  # Invocation | Response | Switch


def is_invocation(action: Action) -> bool:
    """True iff ``action`` matches ``inv(_, _, _)``."""
    return isinstance(action, Invocation)


def is_response(action: Action) -> bool:
    """True iff ``action`` matches ``res(_, _, _, _)``."""
    return isinstance(action, Response)


def is_switch(action: Action) -> bool:
    """True iff ``action`` matches ``swi(_, _, _, _)``."""
    return isinstance(action, Switch)


def inv(client: Client, phase: int, input: Input) -> Invocation:
    """Shorthand constructor mirroring the paper's notation."""
    return Invocation(client, phase, input)


def res(client: Client, phase: int, input: Input, output: Output) -> Response:
    """Shorthand constructor mirroring the paper's notation."""
    return Response(client, phase, input, output)


def swi(client: Client, phase: int, input: Input, value: SwitchValue) -> Switch:
    """Shorthand constructor mirroring the paper's notation."""
    return Switch(client, phase, input, value)


class Signature:
    """A signature: disjoint sets of input and output actions (Section 3).

    Action sets are typically infinite (one action per client, phase, input,
    output combination), so a signature is represented *intensionally* by
    membership predicates rather than by extensional sets.
    """

    def __init__(
        self,
        is_input: Callable[[Action], bool],
        is_output: Callable[[Action], bool],
        description: str = "",
    ) -> None:
        self._is_input = is_input
        self._is_output = is_output
        self.description = description

    def is_input(self, action: Action) -> bool:
        """True iff ``action`` is an input action of this signature."""
        return self._is_input(action)

    def is_output(self, action: Action) -> bool:
        """True iff ``action`` is an output action of this signature."""
        return self._is_output(action)

    def contains(self, action: Action) -> bool:
        """True iff ``action`` belongs to ``acts(sig)``."""
        return self._is_input(action) or self._is_output(action)

    def __contains__(self, action: Action) -> bool:
        return self.contains(action)

    def __repr__(self) -> str:
        return f"Signature({self.description or 'anonymous'})"


def sig_T(
    valid_input: Optional[Callable[[Input], bool]] = None,
    valid_output: Optional[Callable[[Output], bool]] = None,
) -> Signature:
    """The signature ``sigT`` of a plain concurrent object (Section 4.2).

    Invocation actions are inputs of the object; response actions are
    outputs.  Optional predicates restrict the allowed ADT inputs/outputs;
    by default any payload is accepted, which is what the checkers use
    (they validate payloads against the ADT separately).
    """

    def is_in(action: Action) -> bool:
        if not isinstance(action, Invocation):
            return False
        return valid_input is None or valid_input(action.input)

    def is_out(action: Action) -> bool:
        if not isinstance(action, Response):
            return False
        if valid_input is not None and not valid_input(action.input):
            return False
        return valid_output is None or valid_output(action.output)

    return Signature(is_in, is_out, description="sigT")


def sig_phase(m: int, n: int) -> Signature:
    """The signature ``sigT(m, n, Init)`` of a speculation phase (Def. 16).

    For a phase ``(m, n)`` with ``m < n``:

    * invocations and responses tagged with ``o`` in ``[m..n-1]`` belong
      to the phase (invocations are inputs; responses are outputs) — a
      client that switches to phase ``n`` performs its subsequent
      invocations *in the next phase*, so tag ``n`` operations are not
      owned here.  (Definition 16 writes the range as ``[m..n]``, but
      Lemma 7's decomposition — the ``(m, n)`` client sub-trace ends at
      the abort and the ``(n, o)`` sub-trace starts at the matching init —
      and signature compatibility of adjacent phases both require the
      half-open reading: with a shared tag-``n`` response, ``(m, n)`` and
      ``(n, o)`` would have overlapping outputs and could not compose.)
    * a switch tagged ``m`` is an incoming init action (an input);
    * a switch tagged ``n`` is an outgoing abort action (an output);
    * switches tagged strictly between ``m`` and ``n`` are *internal* to a
      composed phase, classified as outputs (they are produced by the
      sub-phase that aborts) so composition synchronizes on them.
    """
    if not m < n:
        raise ValueError(f"phase bounds must satisfy m < n, got ({m}, {n})")

    def is_in(action: Action) -> bool:
        if isinstance(action, Invocation):
            return m <= action.phase < n
        if isinstance(action, Switch):
            return action.phase == m
        return False

    def is_out(action: Action) -> bool:
        if isinstance(action, Response):
            return m <= action.phase < n
        if isinstance(action, Switch):
            return m < action.phase <= n
        return False

    return Signature(is_in, is_out, description=f"sigT({m},{n})")


def actions_of_client(action: Action) -> Client:
    """The client performing an action (total over the three action kinds)."""
    return action.client


def client_action_set(
    client: Client, m: int, n: int
) -> Callable[[Action], bool]:
    """Membership predicate for ``ActT(c, m, n)`` (Section 5.4).

    Invocations and responses of ``client`` tagged in ``[m..n-1]`` (see
    :func:`sig_phase` for why the range is half-open), plus switch actions
    of ``client`` tagged exactly ``m`` or ``n``.  Switches with
    intermediate tags are excluded — the paper notes they "are projected
    away" when forming client sub-traces.
    """

    def member(action: Action) -> bool:
        if actions_of_client(action) != client:
            return False
        if isinstance(action, (Invocation, Response)):
            return m <= action.phase < n
        if isinstance(action, Switch):
            return action.phase in (m, n)
        return False

    return member


def rename_phase(action: Action, mapping: Callable[[int], int]) -> Action:
    """Re-tag an action's phase index through ``mapping``.

    Used when embedding a stand-alone phase implementation into a larger
    composition (e.g. running the same algorithm as phase 3 instead of 1).
    """
    if isinstance(action, Invocation):
        return Invocation(action.client, mapping(action.phase), action.input)
    if isinstance(action, Response):
        return Response(
            action.client, mapping(action.phase), action.input, action.output
        )
    if isinstance(action, Switch):
        return Switch(
            action.client, mapping(action.phase), action.input, action.value
        )
    raise TypeError(f"not an action: {action!r}")
