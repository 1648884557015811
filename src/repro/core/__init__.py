"""Core trace theory of *Speculative Linearizability* (PLDI 2012).

This package contains the executable form of the paper's Sections 3-5 and
Appendices A-C: sequences and multisets, actions and traces, abstract data
types, the new and the classical definitions of linearizability with
complete checkers, speculative linearizability, trace properties with
composition, and the invariants of the worked examples.
"""

from .actions import (
    Invocation,
    Response,
    Signature,
    Switch,
    inv,
    res,
    sig_T,
    sig_phase,
    swi,
)
from .adt import (
    ADT,
    PartitionSpec,
    cas_register_adt,
    consensus_adt,
    counter_adt,
    decide,
    product_adt,
    propose,
    queue_adt,
    register_adt,
    set_adt,
    stack_adt,
    tag_object,
    universal_adt,
)
from .classical import (
    ClassicalResult,
    is_linearizable_classical,
    linearize_classical,
)
from .composition import (
    check_composition_theorem,
    check_theorem_2,
    interleavings,
    random_interleaving,
)
from .enumeration import (
    enumerate_composed_consensus_traces,
    enumerate_consensus_phase_traces,
    enumerate_phase_traces,
    parallel_composition_sweep,
    sweep_composition_scope,
)
from .fastcheck import CheckReport, check_linearizable
from .invariants import (
    check_first_phase_invariants,
    check_second_phase_invariants,
)
from .linearizability import (
    LinearizationResult,
    check_linearization_function,
    is_linearizable,
    linearize,
)
from .multisets import Multiset, elems
from .pretty import (
    format_history,
    format_linearization,
    format_speculative,
    format_trace,
)
from .recording import TraceRecorder, WellFormednessError
from .report import VerificationReport, verify_phases
from .sequences import (
    is_prefix,
    is_strict_prefix,
    longest_common_prefix,
)
from .speculative import (
    RInit,
    SpeculativeResult,
    consensus_rinit,
    is_speculatively_linearizable,
    singleton_rinit,
    speculatively_linearize,
)
from .trace_property import (
    FiniteTraceProperty,
    TraceProperty,
    compose,
    lin_property,
    slin_property,
)
from .traces import (
    Trace,
    is_phase_wellformed,
    is_wellformed,
    pending_invocations,
    strip_phase_tags,
)

__all__ = [
    "ADT",
    "CheckReport",
    "ClassicalResult",
    "FiniteTraceProperty",
    "Invocation",
    "LinearizationResult",
    "Multiset",
    "PartitionSpec",
    "Response",
    "RInit",
    "Signature",
    "SpeculativeResult",
    "Switch",
    "Trace",
    "TraceProperty",
    "TraceRecorder",
    "WellFormednessError",
    "cas_register_adt",
    "check_composition_theorem",
    "check_first_phase_invariants",
    "check_linearizable",
    "check_linearization_function",
    "check_second_phase_invariants",
    "check_theorem_2",
    "compose",
    "consensus_adt",
    "consensus_rinit",
    "counter_adt",
    "decide",
    "elems",
    "enumerate_composed_consensus_traces",
    "enumerate_consensus_phase_traces",
    "enumerate_phase_traces",
    "format_history",
    "format_linearization",
    "format_speculative",
    "format_trace",
    "interleavings",
    "inv",
    "is_linearizable",
    "is_linearizable_classical",
    "is_phase_wellformed",
    "is_prefix",
    "is_speculatively_linearizable",
    "is_strict_prefix",
    "is_wellformed",
    "lin_property",
    "linearize",
    "linearize_classical",
    "longest_common_prefix",
    "parallel_composition_sweep",
    "pending_invocations",
    "product_adt",
    "propose",
    "queue_adt",
    "random_interleaving",
    "register_adt",
    "res",
    "set_adt",
    "sig_T",
    "sig_phase",
    "singleton_rinit",
    "slin_property",
    "speculatively_linearize",
    "stack_adt",
    "strip_phase_tags",
    "sweep_composition_scope",
    "swi",
    "tag_object",
    "universal_adt",
    "verify_phases",
    "VerificationReport",
]
