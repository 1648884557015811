"""Refinement and trace inclusion between I/O automata.

The paper proves Theorem 3 in the automaton model by exhibiting a
refinement mapping from the composition of two specification automata to a
single specification automaton.  This module provides both directions of
that methodology, made executable:

* :func:`check_trace_inclusion` — decides external-trace inclusion over
  the explored region by the standard subset construction: the checker
  walks the implementation while tracking the set of specification states
  reachable over the same external trace (closing under internal steps).
  No human-supplied mapping is needed; this is the workhorse behind the
  model-checked composition theorem of ``bench_ioa.py`` and the tests.

* :func:`check_refinement_mapping` — verifies a user-supplied refinement
  mapping ``r``: every start state maps to a start state, and every
  implementation step maps to a specification execution fragment with the
  same external trace (internal steps map to stuttering).  This is the
  executable analogue of the Isabelle proof obligation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .automaton import Action, IOAutomaton, State


@dataclass(frozen=True)
class InclusionCounterexample:
    """An implementation step the specification cannot match."""

    impl_state: State
    spec_states: FrozenSet[State]
    action: Action
    trace: Tuple[Action, ...]

    def __str__(self) -> str:
        return (
            f"spec cannot match external action {self.action!r} after "
            f"trace {list(self.trace)!r}"
        )


def _internal_closure(
    spec: IOAutomaton, states: FrozenSet[State], max_states: int = 100000
) -> FrozenSet[State]:
    """Close a set of spec states under internal transitions."""
    frontier = deque(states)
    closed: Set[State] = set(states)
    while frontier:
        state = frontier.popleft()
        for action, successor in spec.transitions(state):
            if spec.is_internal(action) and successor not in closed:
                if len(closed) >= max_states:
                    raise RuntimeError("internal closure exceeded bound")
                closed.add(successor)
                frontier.append(successor)
    return frozenset(closed)


def _advance(
    spec: IOAutomaton,
    states: FrozenSet[State],
    action: Action,
    normalize: Optional[Callable[[Action], Action]] = None,
) -> FrozenSet[State]:
    """Spec states reachable by performing external ``action`` (then
    closing under internal steps).

    When ``normalize`` is given, a spec output matches the implementation
    action if their normalizations agree — used to compare actions modulo
    the phase tags of invocations/responses, which the trace-level
    definition leaves unconstrained (Definition 34 pairs an invocation
    with "res(_, _, in, _)": any tag).
    """
    after: Set[State] = set()
    target = normalize(action) if normalize else action
    for state in states:
        if spec.is_input(action):
            after.add(spec.input_step(state, action))
        else:
            for enabled, successor in spec.transitions(state):
                key = normalize(enabled) if normalize else enabled
                if key == target:
                    after.add(successor)
    if not after:
        return frozenset()
    return _internal_closure(spec, frozenset(after))


def check_trace_inclusion(
    impl: IOAutomaton,
    spec: IOAutomaton,
    normalize: Optional[Callable[[Action], Action]] = None,
) -> Tuple[bool, Optional[InclusionCounterexample], int]:
    """Check ``traces(impl) ⊆ traces(spec)`` over external actions.

    Implementation actions that are not external (``impl.is_external``)
    are treated as stuttering on the specification side.  ``normalize`` maps
    actions to the equivalence class used for matching (see
    :func:`phase_tag_blind`).  Returns ``(ok, counterexample,
    pairs_explored)``.

    Visited pairs are deduplicated by ``(impl state, spec-state set)`` —
    diamond-shaped automata explore linearly, not exponentially (see the
    regression test in ``tests/test_refinement_perf.py``).  The witness
    trace of a counterexample is rebuilt from parent pointers only on
    failure; carrying a growing action tuple per frontier entry cost
    O(edges × depth) copying on healthy runs.  Spec-set advances are
    memoized per ``(spec set, action)``, which collapses the repeated
    closure computations a diamond's re-converging paths would otherwise
    redo.
    """
    spec_start = _internal_closure(
        spec, frozenset(spec.initial_states())
    )
    # Parent-pointer forest over dequeued pairs: nodes[i] is
    # (parent index, external action taken into this node or None).
    nodes: List[Tuple[int, Optional[Action]]] = []
    frontier: deque = deque()
    for state in impl.initial_states():
        nodes.append((-1, None))
        frontier.append((state, spec_start, len(nodes) - 1))
    seen: Set[Tuple[State, FrozenSet[State]]] = {
        (state, spec_set) for state, spec_set, _ in frontier
    }

    def rebuild(node: int) -> Tuple[Action, ...]:
        actions: List[Action] = []
        while node != -1:
            parent, action = nodes[node]
            if action is not None:
                actions.append(action)
            node = parent
        return tuple(reversed(actions))

    advance_cache: Dict[
        Tuple[FrozenSet[State], Action], FrozenSet[State]
    ] = {}
    explored = 0
    while frontier:
        impl_state, spec_set, node = frontier.popleft()
        explored += 1
        for action, successor in impl.transitions(impl_state):
            if impl.is_external(action):
                cache_key = (spec_set, action)
                new_spec = advance_cache.get(cache_key)
                if new_spec is None:
                    new_spec = _advance(spec, spec_set, action, normalize)
                    advance_cache[cache_key] = new_spec
                if not new_spec:
                    return (
                        False,
                        InclusionCounterexample(
                            impl_state, spec_set, action, rebuild(node)
                        ),
                        explored,
                    )
                step: Optional[Action] = action
            else:
                new_spec = spec_set
                step = None
            key = (successor, new_spec)
            if key not in seen:
                seen.add(key)
                nodes.append((node, step))
                frontier.append((successor, new_spec, len(nodes) - 1))
    return True, None, explored


#: internal spec steps a refinement fragment may take around its one
#: visible step
MAX_INTERNAL = 4


@dataclass(frozen=True)
class RefinementCounterexample:
    """An implementation step with no matching spec fragment under ``r``."""

    impl_pre: State
    impl_post: State
    action: Action

    def __str__(self) -> str:
        return (
            f"step {self.action!r} from {self.impl_pre!r} has no matching "
            f"specification fragment"
        )


def check_refinement_mapping(
    impl: IOAutomaton,
    spec: IOAutomaton,
    mapping: Callable[[State], State],
) -> Tuple[bool, Optional[RefinementCounterexample], int]:
    """Verify a refinement mapping over the reachable implementation states.

    Proof obligations (Lynch & Vaandrager):

    * for every start state ``s``, ``mapping(s)`` is reachable from a spec
      start state by internal steps;
    * for every reachable step ``s -a-> s'``: from ``mapping(s)`` the spec
      can reach ``mapping(s')`` by a fragment whose external trace is
      ``[a]`` if ``a`` is external and ``[]`` otherwise, using at most
      ``MAX_INTERNAL`` internal steps around the visible one.
    """

    def fragment_exists(
        u: State, target: State, visible: Optional[Action]
    ) -> bool:
        # BFS over (spec state, visible action consumed?) up to a budget
        # of internal steps.
        frontier = deque([(u, visible is None, 0)])
        seen = {(u, visible is None)}
        while frontier:
            state, consumed, depth = frontier.popleft()
            if consumed and state == target:
                return True
            if depth >= MAX_INTERNAL + (0 if visible is None else 1):
                continue
            for action, successor in spec.transitions(state):
                if spec.is_internal(action):
                    key = (successor, consumed)
                    if key not in seen:
                        seen.add(key)
                        frontier.append((successor, consumed, depth + 1))
                elif not consumed and action == visible:
                    key = (successor, True)
                    if key not in seen:
                        seen.add(key)
                        frontier.append((successor, True, depth + 1))
            if visible is not None and not consumed and spec.is_input(visible):
                successor = spec.input_step(state, visible)
                key = (successor, True)
                if key not in seen:
                    seen.add(key)
                    frontier.append((successor, True, depth + 1))
        return False

    spec_starts = _internal_closure(spec, frozenset(spec.initial_states()))
    for start in impl.initial_states():
        if mapping(start) not in spec_starts:
            return (
                False,
                RefinementCounterexample(start, start, None),
                0,
            )

    frontier = deque(impl.initial_states())
    seen: Set[State] = set(frontier)
    explored = 0
    while frontier:
        state = frontier.popleft()
        explored += 1
        for action, successor in impl.transitions(state):
            visible = action if impl.is_external(action) else None
            if not fragment_exists(mapping(state), mapping(successor), visible):
                return (
                    False,
                    RefinementCounterexample(state, successor, action),
                    explored,
                )
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return True, None, explored


def phase_tag_blind(action: Action) -> Action:
    """Normalization erasing the phase tag of invocations and responses.

    The trace-level speculative-linearizability property does not relate
    a response's tag to its invocation's (Definition 34), and a composed
    implementation answers a switched client from a later sub-phase.
    Matching actions through this normalization compares exactly what the
    trace property constrains.  Switch tags are *kept*: they distinguish
    init from abort actions.
    """
    from ..core.actions import Invocation, Response

    if isinstance(action, Invocation):
        return ("inv", action.client, action.input)
    if isinstance(action, Response):
        return ("res", action.client, action.input, action.output)
    return action
