"""The documentation must not drift from the code.

Every ``repro.*`` dotted reference in docs/THEORY.md and README.md must
resolve to a real module/attribute, and every test/benchmark file named
in the docs must exist.
"""

import importlib
import importlib.util
import os
import re

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
FILES = re.compile(r"`((?:tests|benchmarks|examples|docs)/[A-Za-z0-9_./-]+)`")


def doc_text(name):
    with open(os.path.join(ROOT, name)) as handle:
        return handle.read()


def resolve(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize(
    "doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/THEORY.md",
            "docs/ALGORITHMS.md", "docs/ANALYSIS.md", "docs/ARCHITECTURE.md",
            "docs/MONITORING.md", "docs/PERFORMANCE.md", "docs/RESILIENCE.md"]
)
def test_dotted_references_resolve(doc):
    text = doc_text(doc)
    missing = []
    for match in DOTTED.finditer(text):
        dotted = match.group(1)
        if not resolve(dotted):
            missing.append(dotted)
    assert not missing, f"{doc}: unresolved references {missing}"


@pytest.mark.parametrize(
    "doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/THEORY.md",
            "docs/ANALYSIS.md", "docs/ARCHITECTURE.md",
            "docs/MONITORING.md", "docs/PERFORMANCE.md", "docs/RESILIENCE.md"]
)
def test_referenced_files_exist(doc):
    text = doc_text(doc)
    missing = []
    for match in FILES.finditer(text):
        path = match.group(1).split("::")[0]
        if not os.path.exists(os.path.join(ROOT, path)):
            missing.append(path)
    assert not missing, f"{doc}: missing files {missing}"


def test_theory_md_symbol_references():
    """THEORY.md uses `module.symbol` shorthand inside backticks with
    explicit repro prefixes handled above; additionally check the
    `repro.core.x.y::symbol`-style entries in DESIGN.md."""
    text = doc_text("DESIGN.md")
    pattern = re.compile(r"`(repro/[A-Za-z0-9_/]+\.py)(?:::([A-Za-z_][A-Za-z0-9_]*))?`")
    missing = []
    for match in pattern.finditer(text):
        path = os.path.join(ROOT, "src", match.group(1))
        if not os.path.exists(path):
            missing.append(match.group(1))
            continue
        symbol = match.group(2)
        if symbol:
            with open(path) as handle:
                if not re.search(rf"def {symbol}|class {symbol}|{symbol} =", handle.read()):
                    missing.append(f"{match.group(1)}::{symbol}")
    assert not missing, missing


def test_performance_md_lists_every_harness_suite():
    """PERFORMANCE.md §4's table is the harness registry, in order."""
    spec = importlib.util.spec_from_file_location(
        "harness", os.path.join(ROOT, "benchmarks", "harness.py")
    )
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    text = doc_text("docs/PERFORMANCE.md")
    section = text.split("## 4. The benchmark regression harness")[1]
    section = section.split("\n## ")[0]
    rows = re.findall(r"^\| `([a-z_]+)`", section, flags=re.MULTILINE)
    assert rows == list(harness.BENCHES)
    assert len(rows) == 10 and "runs ten suites" in section
