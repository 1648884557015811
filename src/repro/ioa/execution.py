"""Executions, reachability and trace enumeration for I/O automata.

The exploration engine behind the model-checked results of Section 6:
breadth-first search over the state space, with executions and their
external traces enumerated up to a depth bound.  Every system explored is
closed: its inputs come from a composed environment automaton (e.g.
:class:`~repro.ioa.spec_automaton.ClientEnvironment`), so each step is
locally controlled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Set, Tuple

from .automaton import Action, IOAutomaton, State


@dataclass(frozen=True)
class Step:
    """One transition of an execution: (pre-state, action, post-state)."""

    pre: State
    action: Action
    post: State


@dataclass(frozen=True)
class Execution:
    """An execution fragment: a start state and the steps taken from it."""

    start: State
    steps: Tuple[Step, ...]

    @property
    def final(self) -> State:
        """The last state of the execution."""
        return self.steps[-1].post if self.steps else self.start

    def trace(self, automaton: IOAutomaton) -> Tuple[Action, ...]:
        """The external trace: the subsequence of external actions."""
        return tuple(
            step.action
            for step in self.steps
            if automaton.is_external(step.action)
        )

    def extend(self, action: Action, post: State) -> "Execution":
        """Return a new execution with one more step appended."""
        return Execution(
            self.start, self.steps + (Step(self.final, action, post),)
        )


def reachable_states(automaton: IOAutomaton) -> Set[State]:
    """BFS over the reachable state space."""
    frontier = deque(automaton.initial_states())
    seen: Set[State] = set(frontier)
    while frontier:
        state = frontier.popleft()
        for _, successor in automaton.transitions(state):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return seen


def executions(automaton: IOAutomaton, max_depth: int) -> Iterator[Execution]:
    """Enumerate all executions of length up to ``max_depth`` (DFS).

    Every prefix is itself yielded, so the result is prefix-closed — the
    natural shape for safety checking.
    """

    def dfs(execution: Execution, depth: int) -> Iterator[Execution]:
        yield execution
        if depth == 0:
            return
        for action, post in automaton.transitions(execution.final):
            yield from dfs(execution.extend(action, post), depth - 1)

    for start in automaton.initial_states():
        yield from dfs(Execution(start, ()), max_depth)


def external_traces(
    automaton: IOAutomaton, max_depth: int
) -> Set[Tuple[Action, ...]]:
    """The set of external traces of executions up to ``max_depth``."""
    return {
        execution.trace(automaton)
        for execution in executions(automaton, max_depth)
    }


def run_schedule(
    automaton: IOAutomaton, schedule: Iterable[Action]
) -> Optional[Execution]:
    """Drive the automaton along an explicit action schedule from its
    first initial state.

    Each scheduled action must be either an enabled locally-controlled
    action (any matching transition is taken — the first one found) or an
    input action.  Returns ``None`` when a scheduled action is not
    enabled, or when there is no initial state.
    """
    starts = list(automaton.initial_states())
    if not starts:
        return None
    execution = Execution(starts[0], ())
    for action in schedule:
        if automaton.is_input(action):
            post = automaton.input_step(execution.final, action)
            execution = execution.extend(action, post)
            continue
        for enabled, post in automaton.transitions(execution.final):
            if enabled == action:
                execution = execution.extend(action, post)
                break
        else:
            return None
    return execution
