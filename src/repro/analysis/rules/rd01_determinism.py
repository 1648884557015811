"""RD01 — simulation code must be replayable from its seed.

Every nemesis/chaos campaign line, every ddmin-shrunk reproducer and
every benchmark baseline in this repo is a *seed*: re-running it must
reproduce the execution bit-for-bit.  That only holds if the simulated
layers (``repro/mp``, ``repro/sm``, ``repro/faults``, ``repro/core``)
and the wire substrate's seeded transport-fault seam
(``repro/net/netfaults.py`` — a schedule's seed must fix every frame
fault it draws) never consult a wall clock or an unseeded randomness
source.  RD01 flags:

* wall-clock reads — ``time.time()``, ``time.monotonic()``,
  ``datetime.now()`` and friends (simulated time is the scheduler's
  virtual clock; the TCP runtime's clock is the substrate port's
  ``now``);
* the process-global RNG — ``random.random()``, ``random.choice()``
  etc., whose hidden state makes runs order-dependent;
* unseeded constructors — ``random.Random()`` with no seed,
  ``random.SystemRandom()``, ``os.urandom()``;
* ``id()`` inside ``__hash__`` or ``hash(...)`` — CPython addresses
  vary run to run, so id-derived hashes scramble any iteration order
  that feeds a schedule.

References to these names (e.g. an injectable ``clock=time.monotonic``
default that real-time transports override) are fine; only *calls* are
flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from ..findings import Finding
from ..registry import ModuleContext, Rule, register

#: module-level functions of ``random`` that use the hidden global RNG
GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
        "getrandbits",
        "randbytes",
        "seed",
    }
)

#: wall-clock functions of ``time``
TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

#: wall-clock classmethods of ``datetime.datetime`` / ``datetime.date``
DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

SEED_HINT = "thread a seeded random.Random through the call site"
CLOCK_HINT = (
    "use the substrate port clock (sim virtual time / transport.now)"
)


class _ImportTable:
    """Aliases for the modules and names RD01 cares about."""

    def __init__(self, tree: ast.Module) -> None:
        #: local name → module ("time", "random", "os", "datetime")
        self.modules: Dict[str, str] = {}
        #: local name → (module, function) for from-imports
        self.names: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "random", "os", "datetime"):
                        self.modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "time",
                "random",
                "os",
                "datetime",
            ):
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )


def _has_seed(call: ast.Call) -> bool:
    """True iff a Random(...) construction passes any seed."""
    return bool(call.args) or any(kw.arg == "seed" for kw in call.keywords)


@register
class Rd01Determinism(Rule):
    """Wall clocks, global RNG and id-hashes in replayable layers."""

    id = "RD01"
    title = "seeded determinism"
    scope = (
        "repro/mp/",
        "repro/sm/",
        "repro/faults/",
        "repro/core/",
        "repro/net/netfaults.py",
    )
    example_bad = """\
def jitter(self):
    return time.time() % 1      # wall clock: replay diverges
"""
    example_good = """\
def jitter(self):
    return self.rng.random()    # rng seeded from the schedule
"""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        table = _ImportTable(ctx.tree)
        hash_defs = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "__hash__"
        ]
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_call(ctx, node, table)
        for defn in hash_defs:
            for node in ast.walk(defn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "id() inside __hash__: object addresses vary "
                        "between runs",
                        "hash the object's stable identity (pid, name, "
                        "tuple of fields) instead",
                    )

    def _resolve(
        self, call: ast.Call, table: _ImportTable
    ) -> Optional[Tuple[str, str]]:
        """The (module, function) a call resolves to, if trackable."""
        func = call.func
        if isinstance(func, ast.Name):
            return table.names.get(func.id)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                module = table.modules.get(value.id)
                if module is not None:
                    return (module, func.attr)
                # `from datetime import datetime` then datetime.now()
                imported = table.names.get(value.id)
                if imported == ("datetime", "datetime") or imported == (
                    "datetime",
                    "date",
                ):
                    return ("datetime." + imported[1], func.attr)
            elif isinstance(value, ast.Attribute) and isinstance(
                value.value, ast.Name
            ):
                # `import datetime` then datetime.datetime.now()
                module = table.modules.get(value.value.id)
                if module == "datetime" and value.attr in (
                    "datetime",
                    "date",
                ):
                    return ("datetime." + value.attr, func.attr)
        return None

    def _check_call(
        self, ctx: ModuleContext, call: ast.Call, table: _ImportTable
    ) -> Iterator[Finding]:
        resolved = self._resolve(call, table)
        if resolved is None:
            # hash(... id(...) ...) needs no import tracking
            if (
                isinstance(call.func, ast.Name)
                and call.func.id == "hash"
                and any(
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "id"
                    for arg in call.args
                    for inner in ast.walk(arg)
                )
            ):
                yield self.finding(
                    ctx,
                    call,
                    "hash(id(...)): object addresses vary between runs",
                    "hash the object's stable identity instead",
                )
            return
        module, name = resolved
        if module == "time" and name in TIME_FUNCS:
            yield self.finding(
                ctx,
                call,
                f"wall-clock read time.{name}() in replayable code",
                CLOCK_HINT,
            )
        elif module.startswith("datetime") and name in DATETIME_FUNCS:
            yield self.finding(
                ctx,
                call,
                f"wall-clock read {module}.{name}() in replayable code",
                CLOCK_HINT,
            )
        elif module == "os" and name == "urandom":
            yield self.finding(
                ctx,
                call,
                "os.urandom() is unseedable",
                SEED_HINT,
            )
        elif module == "random":
            if name in GLOBAL_RNG_FUNCS:
                yield self.finding(
                    ctx,
                    call,
                    f"random.{name}() uses the process-global RNG",
                    SEED_HINT,
                )
            elif name == "Random" and not _has_seed(call):
                yield self.finding(
                    ctx,
                    call,
                    "random.Random() constructed without a seed",
                    SEED_HINT,
                )
            elif name == "SystemRandom":
                yield self.finding(
                    ctx,
                    call,
                    "random.SystemRandom() is unseedable",
                    SEED_HINT,
                )
