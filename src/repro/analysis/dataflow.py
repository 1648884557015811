"""A generic forward/backward fixpoint solver over a CFG.

The classic worklist algorithm, kept deliberately small: an analysis
provides an initial fact, a ``join`` (the lattice's least upper bound)
and a ``transfer`` function per node; :func:`solve` iterates to a
fixpoint and returns the fact *entering* and *leaving* every node.

Facts are ordinary immutable Python values compared with ``==`` —
``frozenset`` is the workhorse.  Termination is the analysis's promise:
``join`` must be monotone-growing over a finite domain (for the
set-union analyses the path rules use, that is automatic: there are
finitely many (variable, location, flag) triples per function).

Both path rules are two-phase on purpose: :func:`solve` first, then a
reporting sweep that re-applies ``transfer`` with the solved entry
facts and asks the analysis what it saw.  Keeping reporting out of the
fixpoint loop means a finding is emitted exactly once per program
point, not once per worklist visit.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Generic, Tuple, TypeVar

from .cfg import CFG, CFGNode

Fact = TypeVar("Fact")


class Analysis(Generic[Fact]):
    """One dataflow problem: direction, lattice, transfer function."""

    #: "forward" propagates entry→exit, "backward" exit→entry
    direction: str = "forward"

    def initial(self, cfg: CFG) -> Fact:
        """The fact at the boundary node (entry when forward)."""
        raise NotImplementedError

    def bottom(self, cfg: CFG) -> Fact:
        """The fact for a not-yet-reached node (join identity)."""
        raise NotImplementedError

    def join(self, a: Fact, b: Fact) -> Fact:
        """Least upper bound of two facts (path merge)."""
        raise NotImplementedError

    def transfer(self, node: CFGNode, fact: Fact) -> Fact:
        """The fact after ``node`` executes on a path carrying ``fact``."""
        raise NotImplementedError


def solve(
    cfg: CFG, analysis: "Analysis[Any]"
) -> Tuple[Dict[int, Any], Dict[int, Any]]:
    """Run ``analysis`` to fixpoint; returns ``(entry_facts, exit_facts)``.

    ``entry_facts[i]`` is the join over predecessors' exit facts (for a
    forward analysis; successors' for a backward one), ``exit_facts[i]``
    the result of ``transfer`` on it.  Unreachable nodes keep ``bottom``.
    """
    forward = analysis.direction == "forward"
    boundary = cfg.entry if forward else cfg.exit

    def inputs(node: CFGNode):
        return node.pred if forward else node.succ

    def outputs(node: CFGNode):
        return node.succ if forward else node.pred

    entry: Dict[int, Any] = {
        node.index: analysis.bottom(cfg) for node in cfg.nodes
    }
    exit_: Dict[int, Any] = {
        node.index: analysis.bottom(cfg) for node in cfg.nodes
    }
    entry[boundary] = analysis.initial(cfg)
    exit_[boundary] = analysis.transfer(cfg.nodes[boundary], entry[boundary])

    work = deque(node.index for node in cfg.nodes)
    while work:
        index = work.popleft()
        node = cfg.nodes[index]
        if index != boundary:
            fact = analysis.bottom(cfg)
            for src in inputs(node):
                fact = analysis.join(fact, exit_[src])
            entry[index] = fact
        out = analysis.transfer(node, entry[index])
        if out != exit_[index]:
            exit_[index] = out
            for dst in outputs(node):
                if dst not in work:
                    work.append(dst)
    return entry, exit_


class SetUnionAnalysis(Analysis[frozenset]):
    """Convenience base: facts are frozensets joined by union."""

    def bottom(self, cfg: CFG) -> frozenset:
        return frozenset()

    def initial(self, cfg: CFG) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b
