"""Randomized cross-validation walks over the specification automata.

Complements the exhaustive small scopes: long random executions of the
specification automaton (alone and composed) on *larger* universes, every
recorded trace checked against the trace-level theory.  Hypothesis drives
the schedules, so failures shrink to minimal reproducers.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Invocation, Response, Switch
from repro.core.adt import universal_adt
from repro.core.composition import check_composition_theorem
from repro.core.speculative import is_speculatively_linearizable, singleton_rinit
from repro.core.traces import Trace
from repro.ioa import (
    ClientEnvironment,
    SpecAutomaton,
    compose_automata,
)

UNI = universal_adt()
SINGLETON = singleton_rinit()


def random_execution(system, seed, max_steps):
    """One seeded random walk; returns the action trace."""
    rng = random.Random(seed)
    state = next(iter(system.initial_states()))
    actions = []
    for _ in range(max_steps):
        options = list(system.transitions(state))
        if not options:
            break
        action, state = rng.choice(options)
        if isinstance(action, (Invocation, Response, Switch)):
            actions.append(action)
    return Trace(actions)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(3, 14))
def test_first_phase_walks_are_slin(seed, steps):
    auto = SpecAutomaton(1, 2, ("c1", "c2", "c3"))
    env = ClientEnvironment(
        ("c1", "c2", "c3"), ("a", "b", "c"), m=1, budget=2
    )
    system = compose_automata(auto, env)
    trace = random_execution(system, seed, steps)
    assert is_speculatively_linearizable(
        trace, 1, 2, UNI, SINGLETON
    ), trace.actions


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30), st.integers(3, 12))
def test_composed_walks_satisfy_theorem5(seed, steps):
    clients = ("c1", "c2")
    spec12 = SpecAutomaton(1, 2, clients)
    spec23 = SpecAutomaton(2, 3, clients)
    env = ClientEnvironment(clients, ("a", "b"), m=1, budget=1)
    system = compose_automata(spec12, spec23, env)
    trace = random_execution(system, seed, steps)
    ok, why = check_composition_theorem(trace, 1, 2, 3, UNI, SINGLETON)
    assert ok, (why, trace.actions)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_walk_traces_project_linearizably(seed):
    from repro.core.linearizability import is_linearizable
    from repro.core.traces import strip_phase_tags

    clients = ("c1", "c2")
    spec12 = SpecAutomaton(1, 2, clients)
    spec23 = SpecAutomaton(2, 3, clients)
    env = ClientEnvironment(clients, ("a", "b"), m=1, budget=1)
    system = compose_automata(spec12, spec23, env)
    trace = random_execution(system, seed, 12)
    assert is_linearizable(strip_phase_tags(trace), UNI), trace.actions


class TestMutatedWalksRejected:
    """Mutating a correct walk usually breaks the property — evidence the
    checkers are not vacuously accepting everything."""

    def test_output_corruption_detected(self):
        auto = SpecAutomaton(1, 2, ("c1", "c2"))
        env = ClientEnvironment(("c1", "c2"), ("a", "b"), m=1, budget=1)
        system = compose_automata(auto, env)
        rejected = 0
        tried = 0
        for seed in range(30):
            trace = random_execution(system, seed, 10)
            positions = [
                i
                for i, a in enumerate(trace.actions)
                if isinstance(a, Response)
            ]
            if not positions:
                continue
            i = positions[0]
            action = trace[i]
            mutated = Trace(
                trace.actions[:i]
                + (
                    Response(
                        action.client,
                        action.phase,
                        action.input,
                        ("corrupt",) + tuple(action.output),
                    ),
                )
                + trace.actions[i + 1 :]
            )
            tried += 1
            if not is_speculatively_linearizable(
                mutated, 1, 2, UNI, SINGLETON
            ):
                rejected += 1
        assert tried > 5
        assert rejected == tried  # corrupting a history output always breaks
