"""Process-parallel execution engine for campaigns, sweeps and checks.

Every workload in this repository is a pure function of explicit seeds —
a nemesis run is determined by ``(target, schedule)``, a sweep shard by
its scope and shard index — so fanning out across processes cannot
change any verdict, only the wall-clock.  This module provides the one
primitive everything parallel builds on:

:func:`parallel_map` — an order-preserving, spawn-safe ``map`` over a
process pool.  Guarantees:

* **deterministic result order** — results arrive in item order no
  matter which worker finished first (``Pool.map`` semantics), so a
  parallel campaign report is byte-identical to the serial one;
* **spawn safety** — workers are started with the ``spawn`` method (no
  forked locks/rngs; each worker imports ``repro`` fresh), which means
  ``task`` must be a module-level function and items must be picklable;
* **serial fallback** — with ``jobs <= 1`` (or a single item) the task
  runs inline in this process through the *same* code path, so
  ``--jobs 1`` is the reference behavior, not a different implementation.

Consumers: :func:`repro.faults.campaign.run_campaign` (``jobs=``),
:func:`repro.core.enumeration.parallel_composition_sweep`, and
:func:`repro.ioa.modelcheck.parallel_scope_table`.  The in-process
checker itself is *not* process-parallelized: ADTs are closures and do
not pickle; parallelism lives at the run/shard granularity where every
task is rebuilt from picklable parameters inside the worker.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, List, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


def parallel_map(
    task: Callable[[Item], Result], items: Iterable[Item], jobs: int
) -> List[Result]:
    """Map ``task`` over ``items`` across ``jobs`` processes, in order.

    ``task`` must be an importable module-level function and every item
    picklable (the ``spawn`` start method is used).  ``jobs <= 1`` or
    fewer than two items runs serially in-process.  Work is stolen in
    about four chunks per worker.
    """
    work = list(items)
    jobs = min(max(1, jobs), len(work)) if work else 1
    if jobs <= 1:
        return [task(item) for item in work]
    chunksize = max(1, len(work) // (jobs * 4))
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=jobs) as pool:
        return pool.map(task, work, chunksize)
