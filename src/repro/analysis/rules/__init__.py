"""The protocol-aware rule set.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.  One module per rule:

* :mod:`.rd01_determinism` — no wall clocks / unseeded RNG in simulation code
* :mod:`.rd02_durability` — persist-before-reply in durable net roles
* :mod:`.rd04_async` — no orphan tasks or silent broad excepts in net/
* :mod:`.rd05_ioa` — IOA signatures total, preconditions mutation-free
* :mod:`.rd06_monitor` — responses recorded only after an awaited reply
* :mod:`.rd07_sessions` — replicated applies route through session dedup
* :mod:`.rd08_interleaving` — no read-modify-write of shared state
  across an await (interprocedural: reads the project call graph)
* :mod:`.rd09_architecture` — the layering table: who may import,
  construct, read or name what, and why
"""

from . import (  # noqa: F401
    rd01_determinism,
    rd02_durability,
    rd04_async,
    rd05_ioa,
    rd06_monitor,
    rd07_sessions,
    rd08_interleaving,
    rd09_architecture,
)
