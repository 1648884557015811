"""`repro.monitor`: online streaming linearizability monitoring.

The post-hoc pipeline (`loadgen` → record everything →
:func:`repro.core.fastcheck.check_linearizable`) needs memory linear in
the run and only yields a verdict after the run ends.  This package
is the engine under it, and runs it online: a
:class:`StreamingMonitor` consumes invocation/response events as they
happen, keeps one incremental search frontier per partition key
(:class:`~repro.monitor.frontier.KeyFrontier`), garbage-collects every
decided prefix so memory stays O(concurrent window), and flips to
``violation`` — with a ddmin-shrunken witness — the moment some
response cannot be explained.
Budgets degrade the verdict to ``unknown`` instead of OOMing.  The
search is the fallback: a live monitor checks the decided log as a
certificate, O(1) per event, and a finished history is its own
(:func:`~repro.monitor.streaming.decide`), until that fails.

Wiring: :class:`MonitorTap` bridges a live
:class:`~repro.net.client.HistoryRecorder` to a monitor through an
async queue (`loadgen --monitor`, `monitor --watch`, the chaos
campaigns' ``monitor=True``); :func:`watch_trace` replays a finished
trace in streaming mode; :func:`compose_verdicts` conjoins per-shard
monitors exactly like the post-hoc sharded check.  See
docs/MONITORING.md.
"""

from .frontier import ddmin_ops
from .streaming import (
    MonitorReport,
    StreamingMonitor,
    compose_verdicts,
    watch_trace,
)
from .tap import MonitorTap

__all__ = [
    "MonitorReport",
    "MonitorTap",
    "StreamingMonitor",
    "compose_verdicts",
    "ddmin_ops",
    "watch_trace",
]
