"""The ``python -m repro lint`` entry point.

Self-hosted usage (the CI lint job)::

    python -m repro lint                      # lint src/, text report
    python -m repro lint --format json        # machine-readable artifact
    python -m repro lint --rules RD01,RD08    # run a subset of rules
    python -m repro lint --explain RD08       # rule doc + bad/good example
    python -m repro lint --baseline           # grandfather current findings
    python -m repro lint path/ other.py       # lint explicit paths

Exit status is 1 iff any non-suppressed, non-baselined finding (or a
parse error) remains — the gate CI enforces; 2 on usage errors such as
a malformed baseline file.  ``--baseline`` rewrites the baseline file
from the current findings and exits 0; the committed baseline is empty
by policy (``docs/ANALYSIS.md``), so using it is an explicit, reviewed
decision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .baseline import BASELINE_NAME, BaselineError, write_baseline
from .engine import run_lint
from .registry import get_rule

#: .../src/repro/analysis/cli.py -> the checkout root
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..")
)


def default_src_root() -> str:
    """The ``src/`` tree this installation lints by default."""
    return os.path.join(_REPO_ROOT, "src")


def default_baseline_path() -> str:
    """The committed baseline file at the checkout root."""
    return os.path.join(_REPO_ROOT, BASELINE_NAME)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options (shared with ``repro.__main__``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the repo's src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="report format (json is the CI artifact shape)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (e.g. RD01,RD08); "
        "default: all registered rules",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RDXX",
        help="print a rule's documentation and a minimal bad/good "
        "example, then exit",
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings",
    )
    parser.add_argument(
        "--baseline-file",
        default=None,
        metavar="FILE",
        help=f"baseline location (default: {BASELINE_NAME} at the repo root)",
    )


def _select_rules(spec: Optional[str]):
    """Resolve a ``--rules`` spec to rule instances (None = all)."""
    if spec is None:
        return None
    return [get_rule(token) for token in spec.split(",") if token.strip()]


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    if getattr(args, "explain", None):
        try:
            print(get_rule(args.explain).explain())
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return 0
    try:
        rules = _select_rules(getattr(args, "rules", None))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    paths: List[str] = args.paths or [default_src_root()]
    baseline_file: str = args.baseline_file or default_baseline_path()
    try:
        report = run_lint(paths, rules=rules, baseline_path=baseline_file)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.baseline:
        write_baseline(baseline_file, report.all_findings())
        print(
            f"wrote {len(report.all_findings())} findings to {baseline_file}"
        )
        return 0
    if args.fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis.cli``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="protocol-aware static analysis over the repro tree",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
