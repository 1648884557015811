"""Fast-path linearizability checking via P-compositionality.

The monolithic search in :mod:`repro.core.linearizability` is NP-hard in
the trace length.  But linearizability is *local* (Herlihy–Wing, §4.3 of
the paper; ``test_locality.py``): a trace over a system of independent
objects is linearizable iff each per-object projection is linearizable.
Horn & Kroening's *P-compositionality* generalizes the observation to
any partition of the operations such that outputs depend only on the
sub-history sharing the partition key — e.g. the keys of a map.  The
pay-off is drastic: one search over ``n`` interleaved operations becomes
``k`` independent searches over ``n/k`` operations each, turning an
exponential into a sum of much smaller exponentials.

An ADT opts in by carrying a :class:`~repro.core.adt.PartitionSpec`
(products built by :func:`~repro.core.adt.product_adt` and the replicated
KV-store ADT do); one without a spec is its own one partition.

A finished trace is first its own certificate
(:func:`~repro.monitor.streaming.decide`, docs/MONITORING.md §7): each
key folded in response order, pending operations dropped.  That order
respects real time, so a fold that reproduces every recorded output
proves ``ok`` in one pass; every history the pipelined data plane
records does.  A miss proves nothing, and the one engine that decides
wire histories, :class:`~repro.monitor.streaming.StreamingMonitor`
(well-formedness, invalid inputs, key routing, a frontier per key,
typed ``unknown``), searches the trace told each recorded response
(:meth:`~repro.monitor.streaming.StreamingMonitor.tell`), so
:func:`~repro.core.linearizability.frontier_step` never speculates what
that response refutes (ten puts pending on one key: 986,410
configurations at the first response untold, one told).  Every verdict
but ``ok``, and every budget spent, is the search's.

A trace with an event the spec cannot route is searched again whole, as
one partition (key ``None``): what an ADT without a spec always is, and
sound because P-compositionality holds for every partition, the trivial
one too.  The paper's Defs 5-15 as a search
(:func:`~repro.core.linearizability.linearize`) decides no recorded
history: it matches responses to inputs, not to operations, so when an
input repeats it is coarser than Herlihy-Wing and on an order-sensitive
object (a queue) accepts histories that no legal sequential history
explains (``tests/test_fastcheck.py::TestRepeatedInputs``).

Soundness of the split is exactly the locality theorem: real-time order
between same-key operations is preserved by projection (projection keeps
relative order), and per-key witnesses merge into a global witness
because distinct keys never constrain each other — the trace is a trace
of the product of the components, and the product of linearizable parts
is linearizable.  Well-formedness is the one thing projections cannot
police (a client with two pending invocations on different keys is
ill-formed globally while every projection looks fine), which is why the
engine tracks it across keys.  The verdict is held to every other
decider by ``tests/oracle.py``, over random consensus, register,
queue, counter, multi-object and KV trace families; the answer is the
engine's own :class:`~repro.monitor.streaming.MonitorReport`, the one
report shape every decider returns.  ``tests/test_fastcheck.py`` adds a
non-local
mutant ADT whose naive per-name split would flip it.
"""

from __future__ import annotations

from typing import Optional

from ..monitor.streaming import MonitorReport, decide
from .adt import ADT
from .traces import Trace


def check_linearizable(
    trace: Trace,
    adt: ADT,
    node_limit: Optional[int] = None,
    state_limit: Optional[int] = None,
) -> MonitorReport:
    """Linearizability with the P-compositional fast path.

    The trace runs through :func:`~repro.monitor.streaming.decide`:
    response order certifies it, or the one engine that decides wire
    histories searches it: ``node_limit`` bounds the search at one
    response and ``state_limit`` the configurations one partition's
    frontier holds at once.  Any failing partition fails the trace (with
    the offending key in the reason); if none fails but one spent a
    budget, the verdict is ``unknown`` and the reason names the
    partition.  A trace that does not fit the ADT's partition spec is
    searched whole, as one partition.

    The answer is the engine's own report, the one every decider gives:
    ``verdict`` is ``ok`` / ``violation`` / ``unknown``, and it has no
    truth value.  A success carries no linearization witness — the
    frontier folds the decided prefix into its states instead of keeping
    it.  The partitions the engine opened are the deciding monitor's
    :meth:`~repro.monitor.streaming.StreamingMonitor.parts`.
    """
    return decide(trace, adt, node_limit, state_limit).report()
