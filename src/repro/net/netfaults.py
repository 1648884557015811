"""Transport-level fault injection for the asyncio TCP runtime.

The simulator injects faults inside :class:`repro.mp.sim.Network`; the
networked substrate (:mod:`repro.net.transport`) delegates the same
decisions to a :class:`TransportFaults` object consulted once per frame,
*before* the frame reaches a socket.  Faults are therefore injected at
the transport layer of the real stack — a dropped frame never leaves
the process, a cut endpoint pair behaves like a switched-off link —
while the accounting lands in the same
:class:`~repro.mp.sim.NetworkStats` counters the simulator uses, so
report lines read identically across substrates.

Loss is i.i.d. from a seeded :class:`random.Random` (reproducible op
streams; wall-clock interleaving stays real), and :meth:`burst_loss`
opens additive loss windows that expire on the fault clock — the
transport analogue of the simulator nemesis's ``BurstLoss``.
Partitions cut pairs of *endpoints* (node/client names, not pids): a
cut is symmetric unless installed one-way, and heals when installed
with a ``duration`` — the heal time is checked lazily against ``clock``
on the next frame, so a healed pair reconnects without any timer
machinery.  This matches
the simulator nemesis's partition/heal pairs: a seeded schedule fully
determines when every cut opens and closes.

:meth:`slow` models the *slow-node* gray failure on the real stack:
every frame touching a slow endpoint is held for a fixed delay before
reaching a socket (the transport asks :meth:`frame_delay` per frame and
defers the write), so one replica can be alive, correct, and late —
the failure mode the clean fail-stop model cannot express.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Dict, Optional, Tuple


class _RateWindows(list):
    """Additive i.i.d. rate windows, ``(rate, expiry time)`` on the fault
    clock: loss bursts and duplicate bursts each keep one."""

    def add(self, rate: float, expiry: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.append((rate, expiry))

    def rate(self, clock: Callable[[], float]) -> float:
        """Sum of every still-open window, capped at 1."""
        if self:
            now = clock()
            self[:] = [window for window in self if window[1] > now]
        return min(1.0, sum(rate for rate, _ in self))


class TransportFaults:
    """Frame-level fault decisions for :class:`AsyncTransport`.

    ``verdict(src_ep, dst_ep)`` returns ``None`` (deliver), ``"lost"``
    (drop, count as loss) or ``"cut"`` (drop, count as partitioned).
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        #: the fault clock every window expires on
        self.clock = time.monotonic
        #: directed endpoint pair → heal time
        self._cuts: Dict[Tuple[str, str], float] = {}
        self._loss = _RateWindows()
        #: slow-node windows: endpoint → (added delay seconds, expiry)
        self._slow: Dict[str, Tuple[float, float]] = {}
        self._duplicate = _RateWindows()
        #: frames delivered twice (observability)
        self.duplicated = 0

    def partition(
        self, a: str, b: str, duration: float, symmetric: bool = True
    ) -> None:
        """Cut frames from endpoint ``a`` to endpoint ``b`` (and back,
        unless ``symmetric=False`` — a one-way link failure) for the
        next ``duration`` seconds: every cut heals."""
        heal_at = self.clock() + duration
        self._cuts[(a, b)] = heal_at
        if symmetric:
            self._cuts[(b, a)] = heal_at

    def burst_loss(self, rate: float, duration: float) -> None:
        """Add i.i.d. loss at ``rate`` for the next ``duration`` seconds
        (windows compose additively, like the simulator's BurstLoss)."""
        self._loss.add(rate, self.clock() + duration)

    def effective_loss_rate(self) -> float:
        """Sum of every still-open loss window."""
        return self._loss.rate(self.clock)

    def burst_duplicate(self, rate: float, duration: float) -> None:
        """Duplicate frames i.i.d. at ``rate`` for ``duration`` seconds.

        The transport analogue of at-least-once delivery gone wrong: a
        duplicated frame is forwarded *twice* to its destination
        (retransmit after a lost ack, a replaying middlebox).  A
        correct replica stack must tolerate this — duplicate decrees
        fold once through the session seam — which is exactly what the
        retry-storm campaign and the wire-level duplicate-delivery
        property tests assert.  Windows compose additively, like
        :meth:`burst_loss`.
        """
        self._duplicate.add(rate, self.clock() + duration)

    def effective_duplicate_rate(self) -> float:
        """Sum of every still-open duplicate-delivery window."""
        return self._duplicate.rate(self.clock)

    def should_duplicate(self, src_ep: str, dst_ep: str) -> bool:
        """Whether to deliver this frame a second time (counted)."""
        rate = self.effective_duplicate_rate()
        if rate and self.rng.random() < rate:
            self.duplicated += 1
            return True
        return False

    def slow(
        self, endpoint: str, delay: float, duration: Optional[float] = None
    ) -> None:
        """Make ``endpoint`` a slow node: every frame it sends or
        receives is held ``delay`` seconds before hitting the wire.
        With ``duration`` the slowness expires on the fault clock; a
        repeat call overwrites (endpoints have one bottleneck, not a
        stack of them)."""
        if delay < 0:
            raise ValueError("slow-node delay must be non-negative")
        expiry = math.inf if duration is None else self.clock() + duration
        self._slow[endpoint] = (delay, expiry)

    def frame_delay(self, src_ep: str, dst_ep: str) -> float:
        """Seconds to hold a frame on the ``src_ep → dst_ep`` link — the
        worse of the two endpoints' active slow-node windows (a slow
        node drags both its inbound and outbound links)."""
        if not self._slow:
            return 0.0
        now = self.clock()
        delay = 0.0
        for endpoint in (src_ep, dst_ep):
            window = self._slow.get(endpoint)
            if window is None:
                continue
            if window[1] <= now:
                del self._slow[endpoint]
                continue
            delay = max(delay, window[0])
        return delay

    def verdict(self, src_ep: str, dst_ep: str) -> Optional[str]:
        """The fate of one frame: ``None``, ``"lost"`` or ``"cut"``."""
        heal_at = self._cuts.get((src_ep, dst_ep))
        if heal_at is not None:
            if self.clock() < heal_at:
                return "cut"
            del self._cuts[(src_ep, dst_ep)]
        rate = self.effective_loss_rate()
        if rate and self.rng.random() < rate:
            return "lost"
        return None
