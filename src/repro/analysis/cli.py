"""The ``python -m repro lint`` entry point.

Self-hosted usage (the CI lint job)::

    python -m repro lint                      # lint src/, text report
    python -m repro lint --format json        # machine-readable artifact
    python -m repro lint --rules RD01,RD08    # run a subset of rules
    python -m repro lint --explain RD08       # rule doc + bad/good example
    python -m repro lint path/ other.py       # lint explicit paths

Exit status is 1 iff any finding not suppressed inline (or a parse
error) remains — the gate CI enforces; 2 on usage errors such as an
unknown rule id.  The one way to accept a finding is an inline
``# repro: disable=RDxx`` comment (:mod:`.suppressions`,
``docs/ANALYSIS.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .engine import run_lint
from .registry import get_rule


def default_src_root() -> str:
    """The ``src/`` tree this installation lints by default."""
    # .../src/repro/analysis/cli.py -> .../src
    return os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..")
    )


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
    report = run_lint(paths, rules=rules)
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
