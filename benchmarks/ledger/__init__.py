"""The layer ledger: the repo's one benchmark (see README.md).

The benchmark measures ``src/repro`` from outside, so the package makes
the source tree importable itself instead of asking for ``PYTHONPATH``.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
