"""The async event tap: recorder → monitor without blocking the hot path.

`HistoryRecorder` calls its tap synchronously from inside the client's
commit path; doing the frontier search there would add checker latency
to every operation.  :class:`MonitorTap` decouples the two: the tap
callback only enqueues the raw event tuple (O(1)) and wakes a
background asyncio task that drains the queue in batches, feeding the
:class:`~repro.monitor.StreamingMonitor` between scheduler ticks.

Ordering is preserved end to end — the recorder appends on a single
asyncio loop, the deque is FIFO, and the drain task is the only
consumer — so the monitor sees exactly the event sequence the post-hoc
checker will read from ``recorder.events``, with the decided slots
(``lin`` events, never recorded) between them where they were folded.

Fail-fast protocol: drivers poll :attr:`MonitorTap.violated` between
operations and stop issuing load; :meth:`MonitorTap.close` then drains whatever is
still queued so the final report accounts for every recorded event.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Optional, Tuple

from .streaming import MonitorReport, StreamingMonitor

#: events fed per scheduler tick; bounds monitor-induced loop stalls
DRAIN_BATCH = 256


class MonitorTap:
    """Bridge a `HistoryRecorder` to a monitor via a background drain."""

    def __init__(self, monitor: StreamingMonitor) -> None:
        self.monitor = monitor
        self._queue: Deque[Tuple] = deque()
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = False

    def __call__(self, event: Tuple) -> None:
        """The recorder-facing hook: enqueue and wake, nothing more."""
        self._queue.append(event)
        self._ensure_task()
        assert self._wake is not None
        self._wake.set()

    @property
    def pending(self) -> int:
        """Events recorded but not yet fed to the monitor."""
        return len(self._queue)

    @property
    def violated(self) -> bool:
        """True once the monitor's verdict flipped to violation."""
        return self.monitor.violated

    def report(self) -> MonitorReport:
        return self.monitor.report()

    async def close(self) -> MonitorReport:
        """Stop the drain task after feeding every queued event."""
        self._closed = True
        if self._task is None:
            # no loop ever saw an event; drain inline
            self.monitor.feed(*self._queue)
            self._queue.clear()
        else:
            assert self._wake is not None
            self._wake.set()
            await self._task
        return self.monitor.report()

    def _ensure_task(self) -> None:
        if self._task is not None:
            return
        # lazily bind to whatever loop the recorder runs on; the
        # recorder only fires from inside client coroutines, so a loop
        # is always running here
        loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._task = loop.create_task(self._drain())

    async def _drain(self) -> None:
        assert self._wake is not None
        while True:
            if not self._queue:
                if self._closed:
                    return
                self._wake.clear()
                if self._queue or self._closed:
                    continue
                await self._wake.wait()
                continue
            batch = min(DRAIN_BATCH, len(self._queue))
            self.monitor.feed(*(self._queue.popleft() for _ in range(batch)))
            # yield so the data plane never stalls behind the checker
            await asyncio.sleep(0)
