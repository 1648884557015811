"""Tests for the I/O automata framework (paper Section 6 substrate)."""

from repro.ioa import (
    FunctionalAutomaton,
    check_inductive,
    check_invariants,
    compose_automata,
    executions,
    external_traces,
    hide,
    reachable_states,
    run_schedule,
)


def counter_automaton(name="counter", limit=3):
    """Outputs ("tick", name) until a limit; accepts ("reset",) input."""

    def transitions(state):
        if state < limit:
            yield ("tick", name), state + 1

    def input_step(state, action):
        if action == ("reset",):
            return 0
        return state

    return FunctionalAutomaton(
        name=name,
        initial=[0],
        is_input=lambda a: a == ("reset",),
        is_output=lambda a: a == ("tick", name),
        is_internal=lambda a: False,
        transitions=transitions,
        input_step=input_step,
    )


def listener_automaton(watched):
    """Counts ("tick", watched) inputs; no outputs of its own."""

    def input_step(state, action):
        if action == ("tick", watched):
            return state + 1
        return state

    return FunctionalAutomaton(
        name="listener",
        initial=[0],
        is_input=lambda a: a == ("tick", watched),
        is_output=lambda a: False,
        is_internal=lambda a: False,
        transitions=lambda state: iter(()),
        input_step=input_step,
    )


class TestReachability:
    def test_closed_exploration(self):
        auto = counter_automaton(limit=3)
        assert reachable_states(auto) == {0, 1, 2, 3}


class TestExecutions:
    def test_prefix_closed(self):
        auto = counter_automaton(limit=2)
        runs = list(executions(auto, max_depth=2))
        lengths = sorted(len(e.steps) for e in runs)
        assert lengths == [0, 1, 2]

    def test_external_traces(self):
        auto = counter_automaton(limit=2)
        traces = external_traces(auto, max_depth=2)
        assert (("tick", "counter"),) in traces
        assert () in traces

    def test_run_schedule(self):
        auto = counter_automaton(limit=2)
        execution = run_schedule(
            auto, [("tick", "counter"), ("reset",), ("tick", "counter")]
        )
        assert execution is not None
        assert execution.final == 1

    def test_run_schedule_disabled_action(self):
        auto = counter_automaton(limit=0)
        assert run_schedule(auto, [("tick", "counter")]) is None


class TestComposition:
    def test_synchronization(self):
        producer = counter_automaton(name="p", limit=2)
        consumer = listener_automaton("p")
        system = compose_automata(producer, consumer)
        states = reachable_states(system)
        # The listener's count always equals the producer's state.
        assert all(p == c for p, c in states)

    def test_output_classification(self):
        producer = counter_automaton(name="p", limit=1)
        consumer = listener_automaton("p")
        system = compose_automata(producer, consumer)
        assert system.is_output(("tick", "p"))
        assert not system.is_input(("tick", "p"))

    def test_external_input_broadcast(self):
        producer = counter_automaton(name="p", limit=5)
        consumer = listener_automaton("p")
        system = compose_automata(producer, consumer)
        state = next(iter(system.initial_states()))
        state = system.input_step(state, ("reset",))
        assert state[0] == 0

    def test_three_way_composition(self):
        producer = counter_automaton(name="p", limit=2)
        c1 = listener_automaton("p")
        c2 = listener_automaton("p")
        system = compose_automata(producer, c1, c2)
        states = reachable_states(system)
        assert all(a == b == c for a, b, c in states)


class TestHiding:
    def test_hidden_outputs_become_internal(self):
        auto = counter_automaton(limit=2)
        hidden = hide(auto, lambda a: a == ("tick", "counter"))
        assert hidden.is_internal(("tick", "counter"))
        assert not hidden.is_output(("tick", "counter"))

    def test_hidden_actions_leave_traces(self):
        auto = counter_automaton(limit=2)
        hidden = hide(auto, lambda a: a == ("tick", "counter"))
        traces = external_traces(hidden, max_depth=2)
        assert traces == {()}


class TestInvariants:
    def test_check_invariants_pass(self):
        auto = counter_automaton(limit=3)
        explored, violations = check_invariants(
            auto, [("bounded", lambda s: s <= 3)]
        )
        assert explored == 4
        assert violations == []

    def test_check_invariants_fail_with_path(self):
        auto = counter_automaton(limit=3)
        explored, violations = check_invariants(
            auto, [("tiny", lambda s: s <= 1)]
        )
        assert len(violations) == 1
        violation = violations[0]
        assert violation.state == 2
        assert len(violation.path) == 2

    def test_inductive_invariant(self):
        auto = counter_automaton(limit=3)
        ok, _ = check_inductive(auto, lambda s: s <= 3, range(0, 4))
        assert ok

    def test_non_inductive_detected(self):
        auto = counter_automaton(limit=3)
        ok, cex = check_inductive(auto, lambda s: s <= 1, range(0, 4))
        assert not ok
        assert cex == 1  # the state whose successor escapes
