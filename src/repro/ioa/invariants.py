"""State-invariant checking for I/O automata.

The Isabelle proof of the composition theorem rests on 15 state invariants
of the composed automaton; this module provides the executable analogue —
exhaustive invariant checking over the reachable state space — plus an
inductive-invariant check (initiation + consecution), which mirrors how
such invariants are proved in a theorem prover.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .automaton import Action, IOAutomaton, State


Invariant = Callable[[State], bool]


@dataclass(frozen=True)
class InvariantViolation:
    """A reachable state violating an invariant, with a witness path."""

    invariant: str
    state: State
    path: Tuple[Action, ...]

    def __str__(self) -> str:
        return (
            f"invariant {self.invariant!r} violated at {self.state!r} "
            f"via {list(self.path)!r}"
        )


def check_invariants(
    automaton: IOAutomaton,
    invariants: Sequence[Tuple[str, Invariant]],
) -> Tuple[int, List[InvariantViolation]]:
    """Check named invariants over all reachable states (BFS).

    Returns ``(states_explored, violations)``; exploration continues past
    a violation so all broken invariants are reported, but each invariant
    reports only its first (shortest-path) violation.
    """
    frontier = deque(
        (state, ()) for state in automaton.initial_states()
    )
    seen: Set[State] = {state for state, _ in frontier}
    broken: Set[str] = set()
    violations: List[InvariantViolation] = []

    def inspect(state: State, path: Tuple[Action, ...]) -> None:
        for name, predicate in invariants:
            if name in broken:
                continue
            if not predicate(state):
                broken.add(name)
                violations.append(InvariantViolation(name, state, path))

    for state, path in list(frontier):
        inspect(state, path)
    while frontier:
        state, path = frontier.popleft()
        for action, successor in automaton.transitions(state):
            if successor in seen:
                continue
            seen.add(successor)
            new_path = path + (action,)
            inspect(successor, new_path)
            frontier.append((successor, new_path))
    return len(seen), violations


def check_inductive(
    automaton: IOAutomaton,
    invariant: Invariant,
    candidate_states: Iterable[State],
) -> Tuple[bool, Optional[State]]:
    """Inductiveness check: initiation plus consecution.

    ``candidate_states`` supplies the states on which consecution is
    tested (typically the reachable set, or a superset sampled from the
    invariant itself).  Returns ``(ok, counterexample_state)``.
    """
    for state in automaton.initial_states():
        if not invariant(state):
            return False, state
    for state in candidate_states:
        if not invariant(state):
            continue  # consecution only constrains states inside the invariant
        for _, successor in automaton.transitions(state):
            if not invariant(successor):
                return False, state
    return True, None
