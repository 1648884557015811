"""Lint latency: the interprocedural pass must stay tool-speed.

``python -m repro lint`` runs in CI on every push, so its cost is part
of the edit-compile-test loop: the budget is **10 seconds** wall clock
over the full ``src/`` tree (parse everything, build the project call
graph with may-suspend summaries, then run every rule per module — the
CFG/fixpoint ones, RD08 races and path-sensitive RD02, included),
enforced as a boolean gate so it transfers across machines.  The
committed tree must also lint *clean* (the self-hosting gate,
duplicated here so a perf run cannot pass on a tree the gate would
reject).

Run standalone:  python benchmarks/bench_lint.py
"""

import os
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:  # standalone runs: make repro importable
    sys.path.insert(0, SRC)

from repro.analysis import run_lint  # noqa: E402

#: the CI budget for the pass over src/, in seconds
BUDGET_S = 10.0


def time_lint(repeats):
    """Best-of-``repeats`` wall time and the last report."""
    best = float("inf")
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = run_lint([SRC])
        best = min(best, time.perf_counter() - start)
    return best, report


def harness_report(quick):
    """The harness entry: metrics + regression gates for ``lint``."""
    lint_s, report = time_lint(repeats=1 if quick else 3)
    metrics = {
        "checked_files": report.checked_files,
        "lint_s": lint_s,
        "budget_s": BUDGET_S,
        "within_budget": lint_s <= BUDGET_S,
        "tree_clean": report.clean,
        "findings": len(report.findings),
    }
    checks = [
        {"metric": "within_budget", "mode": "bool"},
        {"metric": "tree_clean", "mode": "bool"},
        # wall times vary across runners; the hard gate is the budget
        # bool above, the ratio check just catches silent blowups
        {"metric": "lint_s", "mode": "lower_better", "tolerance": 4.0},
    ]
    return {
        "name": "lint",
        "quick": quick,
        "metrics": metrics,
        "checks": checks,
    }


def main():
    print(f"lint latency over src/ (budget: {BUDGET_S:.0f}s wall clock)")
    report = harness_report(quick=True)
    m = report["metrics"]
    print(f"  {m['checked_files']} files: {m['lint_s']:.2f}s")
    assert m["tree_clean"], "the committed tree must lint clean"
    assert m["within_budget"], (
        f"lint took {m['lint_s']:.2f}s (budget {BUDGET_S}s)"
    )
    print("  tree clean; within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
