"""The substrate port: what a protocol role may ask of its network.

Every algorithm in :mod:`repro.mp` (Quorum, Paxos, Backup) and the SMR
layer above them interacts with its substrate exclusively through the
surface below — the *port*.  Two interchangeable substrates implement
it:

=====================================  =================================
:class:`repro.mp.sim.Network`          virtual time, deterministic,
                                       seeded; message delays are the
                                       paper's own latency currency
:class:`repro.net.transport.AsyncTransport`  wall-clock time, real
                                       asyncio TCP sockets on localhost
=====================================  =================================

A :class:`~repro.mp.sim.Process` holds a reference to its substrate in
``self.network`` and uses only:

* ``network.send(src, dst, message)`` — fire-and-forget asynchronous
  message passing (the substrate may lose, duplicate or delay); the
  sender never mutates ``message`` afterwards (both substrates keep the
  object: see :meth:`repro.mp.sim.Process.send`);
* ``network.call_later(delay, callback) -> handle`` — one-shot timers;
  the handle has ``cancel()``;
* ``network.now`` — the substrate clock (virtual or wall);
* ``network.register(process)`` — attach a role;
* ``network.stats`` — a :class:`~repro.mp.sim.NetworkStats` with
  aggregate and per-link counters;
* ``network.timer_scale(pid)`` — the timer-rate drift currently applied
  to ``pid`` (1.0 when healthy); ``Process.set_timer`` multiplies every
  armed delay by it, which is how the nemesis makes one node's tick run
  fast or slow without the protocol code knowing;
* ``network.local_now(pid)`` — what ``pid``'s local wall clock claims:
  ``now`` plus any clock-skew gray failure scoped to it.

This module carries the :class:`typing.Protocol` definitions so either
substrate can be type-checked against the port; neither imports the
other — conformance is structural.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Protocol, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable one-shot timer returned by ``call_later``."""

    def cancel(self) -> None:
        """Revoke the timer; its callback will not run."""


@runtime_checkable
class SubstratePort(Protocol):
    """The full surface a protocol role may use (see module docstring)."""

    @property
    def now(self) -> float:
        """The substrate clock."""

    def send(self, src: Hashable, dst: Hashable, message: Any) -> None:
        """Queue a message for asynchronous delivery (may be lost)."""

    def call_later(
        self, delay: float, callback: Callable[[], None]
    ) -> TimerHandle:
        """Schedule ``callback`` after ``delay`` clock units."""

    def register(self, process: Any) -> Any:
        """Attach a process so it can send and receive."""

    def timer_scale(self, pid: Hashable) -> float:
        """The timer-rate drift applying to ``pid`` now (1.0 = honest)."""

    def local_now(self, pid: Hashable) -> float:
        """``pid``'s local clock reading: ``now`` plus active skew."""
