"""I/O-automata formalization of speculative linearizability (Section 6).

Executable counterpart of the paper's Isabelle/HOL development: the
framework (:mod:`repro.ioa.automaton`), state exploration
(:mod:`repro.ioa.execution`), invariant checking
(:mod:`repro.ioa.invariants`), refinement and trace-inclusion checking
(:mod:`repro.ioa.refinement`), and the specification automaton with its
client environments (:mod:`repro.ioa.spec_automaton`).
"""

from .automaton import FunctionalAutomaton, compose_automata, hide
from .execution import (
    executions,
    external_traces,
    reachable_states,
    run_schedule,
)
from .invariants import check_inductive, check_invariants
from .refinement import check_refinement_mapping, check_trace_inclusion
from .spec_automaton import (
    ABORTED,
    ClientEnvironment,
    InitEnvironment,
    PENDING,
    READY,
    SLEEP,
    SpecAutomaton,
)

__all__ = [
    "ABORTED",
    "ClientEnvironment",
    "FunctionalAutomaton",
    "InitEnvironment",
    "PENDING",
    "READY",
    "SLEEP",
    "SpecAutomaton",
    "check_inductive",
    "check_invariants",
    "check_refinement_mapping",
    "check_trace_inclusion",
    "compose_automata",
    "executions",
    "external_traces",
    "hide",
    "reachable_states",
    "run_schedule",
]
