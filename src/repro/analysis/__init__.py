"""`repro.analysis` — protocol-aware static analysis for this repo.

An AST-based lint framework whose rules encode the invariants the type
system cannot see: seeded determinism in the simulated layers (RD01),
persist-before-reply durability in the TCP runtime (RD02, checked as a
typestate property over CFG paths), asyncio hygiene in ``net/``
(RD04), I/O-automaton well-formedness in ``ioa/`` (RD05), the RD08
interleaving race detector built on the whole-program dataflow engine
(:mod:`.cfg` / :mod:`.dataflow` / :mod:`.callgraph`), and the RD09
architecture table (layering, atomic-only shared-memory access in
``sm/``).

Run it as ``python -m repro lint [--format text|json]
[--rules RD01,RD08] [--explain RDxx]``; a finding is accepted one way,
an inline ``# repro: disable=RD01`` comment on a line of its span or
alone on the line above (:mod:`.suppressions`).  The static pass has a
runtime counterpart in :mod:`.sanitizer` — a critical-section guard
that, once :func:`.sanitizer.enable` arms it, turns actual
interleavings into errors.
See ``docs/ANALYSIS.md`` for the rule catalogue.
"""

from .callgraph import build_project
from .cfg import build_cfg
from .dataflow import solve
from .engine import analyze_source, package_relpath, run_lint
from .registry import ModuleContext, Rule, register, rule_ids

__all__ = [
    "ModuleContext",
    "Rule",
    "analyze_source",
    "build_cfg",
    "build_project",
    "package_relpath",
    "register",
    "rule_ids",
    "run_lint",
    "solve",
]
