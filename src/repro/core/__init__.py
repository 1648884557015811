"""Core trace theory of *Speculative Linearizability* (PLDI 2012).

This package contains the executable form of the paper's Sections 3-5 and
Appendices A-C: sequences and multisets, actions and traces, abstract data
types, the new and the classical definitions of linearizability with
complete checkers, speculative linearizability, trace properties with
composition, and the invariants of the worked examples.
"""

from .actions import inv, res, swi
from .adt import consensus_adt
from .classical import is_linearizable_classical
from .composition import check_composition_theorem
from .linearizability import is_linearizable, linearize
from .report import verify_phases
from .speculative import consensus_rinit, is_speculatively_linearizable
from .traces import Trace, strip_phase_tags

__all__ = [
    "Trace",
    "check_composition_theorem",
    "consensus_adt",
    "consensus_rinit",
    "inv",
    "is_linearizable",
    "is_linearizable_classical",
    "is_speculatively_linearizable",
    "linearize",
    "res",
    "strip_phase_tags",
    "swi",
    "verify_phases",
]
