"""`AsyncTransport`: the substrate port over real asyncio TCP sockets.

One transport instance is one *endpoint* — a replica node or a client
process — hosting any number of protocol roles (pids).  Identical
protocol code runs against it and against the simulator because both
implement the port of :mod:`repro.net.port`:

* ``send(src, dst, message)`` resolves ``dst`` to an endpoint, encodes
  the envelope ``(src, dst, message)`` as one length-prefixed frame of
  the endpoint's codec (JSON or binary, :mod:`repro.net.codec`) and
  writes it to a pooled TCP connection (opened on demand).  A broadcast
  sends one message object to several destinations; its body is
  encoded once and spliced behind each ``(src, dst)`` header, which is
  sound because a message is never mutated after ``send``;
* inbound, each connection is an :class:`asyncio.BufferedProtocol`:
  a socket read lands in the connection's one reused buffer of
  :data:`READ_BUFFER` bytes, and the bytes it read are fed to that
  connection's :class:`~repro.net.codec.FrameDecoder` (the one place a
  length, a tag or a depth is checked); every frame they complete is
  dispatched there and then, in the same callback;
* ``call_later`` is ``loop.call_later``, its handle asyncio's own;
* ``now`` is the event-loop wall clock.

Routing has two sources:

1. the static :class:`AddressBook` — server role pids
   ``("qs"|"acc"|"coord", slot, i)`` live on endpoint ``node{i}``;
2. learned *reply routes* — when a frame from pid ``p`` arrives over a
   connection, answers to ``p`` go back over that same connection.
   Clients therefore need no listening socket: they dial the nodes, and
   every server→client message (q-accepts, Paxos ``accepted``
   announcements to registered learners, decisions) rides the client's
   own connections, exactly like a request/response socket protocol
   with server push.
   The table keeps the :data:`MAX_ROUTES` youngest pids.

Delivery between two roles hosted on the *same* endpoint still
round-trips through the codec (encode → decode, no socket): colocated
roles keep in-process latency, but every message the system ever emits
is proven wire-encodable.

Faults are injected before a frame reaches a socket via
:class:`repro.net.netfaults.TransportFaults`; counters — aggregate
and per-link at endpoint granularity — land in the same
:class:`~repro.mp.sim.NetworkStats` shape the simulator reports.
"""

from __future__ import annotations

import asyncio
import logging
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from ..mp.sim import NetworkStats
from .codec import BINARY_CODEC, BodyMemo, Codec, FrameDecoder, FrameError
from .netfaults import TransportFaults

logger = logging.getLogger(__name__)

#: roles hosted by replica nodes; pid shape ("role", slot, node_index).
#: "ctl" is the node's control role (learner registration), one per node.
SERVER_ROLES = frozenset({"qs", "acc", "coord", "ctl"})

#: learned reply routes an endpoint keeps.  A pipelined client mints a
#: fresh pid per decree, so the table must forget: beyond the bound the
#: oldest route goes, and a reply to it degrades to a lost frame (a
#: server pid falls back to its static endpoint), which every role
#: tolerates and the stats count.
MAX_ROUTES = 4096

#: bytes one socket read takes at most.  The buffer is reused: a fresh
#: large buffer per read (asyncio's default is 256 KiB) is served by
#: mmap until the allocator raises its threshold, two page faults a read
READ_BUFFER = 1 << 16

#: time an unreachable endpoint stays blacklisted before a reconnect
#: attempt (seconds); sends during the cooldown are counted as lost
RECONNECT_COOLDOWN = 0.25


def endpoint_of_pid(pid: Hashable) -> Optional[str]:
    """The static endpoint of a server-role pid, or None for client pids.

    Server roles are addressed structurally — ``("acc", 7, 2)`` lives on
    ``node2`` whichever process asks — so any endpoint can reach any
    replica without prior contact.  Client-side pids have no static home;
    they are reached through learned reply routes only.
    """
    if (
        isinstance(pid, tuple)
        and len(pid) == 3
        and pid[0] in SERVER_ROLES
        and isinstance(pid[2], int)
    ):
        return f"node{pid[2]}"
    return None


class AddressBook:
    """Endpoint name → ``(host, port)`` — the cluster's static topology."""

    def __init__(self) -> None:
        self._addresses: Dict[str, Tuple[str, int]] = {}

    def add(self, endpoint: str, host: str, port: int) -> None:
        """Publish ``endpoint`` at ``host:port``."""
        self._addresses[endpoint] = (host, port)

    def remove(self, endpoint: str) -> None:
        """Withdraw an endpoint (e.g. a killed node)."""
        self._addresses.pop(endpoint, None)

    def lookup(self, endpoint: str) -> Optional[Tuple[str, int]]:
        """The address of ``endpoint``, or None if unpublished."""
        return self._addresses.get(endpoint)

    def endpoints(self) -> Tuple[str, ...]:
        """All published endpoint names, sorted."""
        return tuple(sorted(self._addresses))


#: a learned reply route: the connection and its label in the link stats
_Route = Tuple[asyncio.Transport, str]

#: where :meth:`AsyncTransport._resolve` sends a frame that takes no
#: connection: to a role hosted here, or nowhere (counted lost)
_HERE, _NOWHERE = object(), object()


class _Peer:
    """One outbound connection to a remote endpoint, opened lazily."""

    def __init__(self) -> None:
        self.writer: Optional[asyncio.Transport] = None
        self.queue: List[bytes] = []
        self.task: Optional[asyncio.Task] = None
        self.dead_until: float = 0.0


class _Connection(asyncio.BufferedProtocol):
    """One TCP connection of an endpoint, dialled or accepted."""

    def __init__(self, owner: "AsyncTransport") -> None:
        self.owner = owner
        self.decoder = FrameDecoder()
        #: what a socket read lands in, allocated on the first read
        self.buffer: Optional[memoryview] = None

    def connection_made(self, transport) -> None:
        peer = transport.get_extra_info("peername")
        label = f"{peer[0]}:{peer[1]}" if peer else "peer"
        #: the reply route that frames arriving here teach the owner
        self.route: _Route = (transport, label)
        self.owner._connections.add(transport)
        if self.owner.closed:  # accepted while the endpoint was closing
            transport.close()

    def get_buffer(self, sizehint: int) -> memoryview:
        if self.buffer is None:
            self.buffer = memoryview(bytearray(READ_BUFFER))
        return self.buffer

    def buffer_updated(self, nbytes: int) -> None:
        if self.owner.closed:
            return
        try:
            for envelope in self.decoder.feed(bytes(self.buffer[:nbytes])):
                self.owner._dispatch(envelope, self.route)
        except (ConnectionError, FrameError):
            # a malformed frame or a reset costs this connection, quietly;
            # anything else a handler raises costs it too, and asyncio
            # reports that one once through the loop's exception handler
            self.route[0].close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner._connections.discard(self.route[0])
        self.owner._forget_routes(self.route[0])
        self.owner._forget_peer(self.route[0])


class AsyncTransport:
    """The asyncio TCP implementation of the substrate port."""

    def __init__(
        self,
        endpoint: str,
        book: AddressBook,
        faults: Optional[TransportFaults] = None,
        codec: Optional[Codec] = None,
    ) -> None:
        self.endpoint = endpoint
        self.book = book
        self.faults = faults
        #: outbound wire format (binary unless told otherwise); inbound
        #: frames self-describe, so peers on different codecs interoperate
        #: during a rollout
        self.codec: Codec = codec if codec is not None else BINARY_CODEC
        #: body of the last message framed: a broadcast encodes it once
        self._body_memo = BodyMemo()
        try:
            self.loop = asyncio.get_running_loop()
        except RuntimeError:
            self.loop = asyncio.get_event_loop()
        self.processes: Dict[Hashable, Any] = {}
        self.stats = NetworkStats()
        self.closed = False
        #: called for frames whose dst pid is not registered here —
        #: replica nodes use it for lazy slot creation and control frames
        self.miss_handler: Optional[
            Callable[[Hashable, Hashable, Any], None]
        ] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._peers: Dict[str, _Peer] = {}
        #: pid → (connection, its stats label), oldest first
        self._routes: "OrderedDict[Hashable, _Route]" = OrderedDict()
        #: every open connection, dialled or accepted
        self._connections: Set[asyncio.Transport] = set()
        #: told each endpoint that looks unreachable (:meth:`_unreachable`)
        self.unreachable_listeners: List[Callable[[str], None]] = []

    # ------------------------------------------------------------------
    # the substrate port
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """The wall clock of the event loop."""
        return self.loop.time()

    def call_later(self, delay: float, callback) -> asyncio.TimerHandle:
        """Schedule ``callback`` after ``delay`` seconds of real time."""
        return self.loop.call_later(delay, callback)

    def timer_scale(self, pid: Hashable) -> float:
        """Port conformance: the TCP runtime's timers tick honestly
        (time gray failures are a simulator-side injection; the real
        stack's gray failure is the slow-node frame hold)."""
        return 1.0

    def local_now(self, pid: Hashable) -> float:
        """Port conformance: no skew — every role reads the loop clock."""
        return self.now

    def register(self, process) -> Any:
        """Host a protocol role on this endpoint."""
        if process.pid in self.processes:
            raise ValueError(f"duplicate process id {process.pid!r}")
        self.processes[process.pid] = process
        process.attach(self)
        return process

    def unregister(self, pid: Hashable) -> None:
        """Drop a finished role; late frames to it count as dropped."""
        self.processes.pop(pid, None)

    def _resolve(self, dst: Hashable) -> Tuple[Any, str, Any]:
        """Where a frame to ``dst`` goes now: ``(via, endpoint, link)``,
        ``link`` the counters of this endpoint's frames to ``endpoint``.

        Resolution order: a pid hosted here goes :data:`_HERE` (through
        the codec, skipping the socket); a pid with a learned reply
        route goes via that connection; a server-role pid goes to its
        static endpoint (``via`` None); anything else, a remote client
        pid whose connection is gone, goes :data:`_NOWHERE`.
        """
        if dst in self.processes:
            via, dst_ep = _HERE, self.endpoint
        else:
            via, dst_ep = self._routes.get(dst, (None, None))
            if via is not None and via.is_closing():
                del self._routes[dst]
                via = None
            if via is None:
                dst_ep = endpoint_of_pid(dst)
                if dst_ep is None:
                    via, dst_ep = _NOWHERE, self.endpoint
        return via, dst_ep, self.stats.link(self.endpoint, dst_ep)

    def send(self, src: Hashable, dst: Hashable, message: Any) -> None:
        """Route one protocol message (fire-and-forget, may be lost).

        The destination is resolved once (:meth:`_resolve`), and that
        decides the fault verdict, the counters and the write.
        """
        if self.closed:
            return
        self.stats.sent += 1
        hop = self._resolve(dst)
        _via, dst_ep, link = hop
        link.sent += 1
        if self.faults is not None:
            verdict = self.faults.verdict(self.endpoint, dst_ep)
            if verdict == "cut":
                self.stats.partitioned += 1
                link.partitioned += 1
                return
            if verdict == "lost":
                self.stats.lost += 1
                link.lost += 1
                return
            if self.faults.should_duplicate(self.endpoint, dst_ep):
                # At-least-once delivery gone wrong: forward a second
                # copy of the frame next tick (a retransmit after a
                # lost ack).  Receivers must tolerate it — duplicate
                # decrees fold once through the session-dedup seam.
                self.loop.call_soon(self._resend, src, dst, message)
            hold = self.faults.frame_delay(self.endpoint, dst_ep)
            if hold > 0.0:
                # Slow-node gray failure: the frame exists but dawdles.
                self.loop.call_later(hold, self._resend, src, dst, message)
                return
        self._forward(src, dst, message, hop)

    def _resend(self, src: Hashable, dst: Hashable, message: Any) -> None:
        """Forward a frame a fault deferred (a duplicate, a slow-node
        hold), resolving its destination again as it fires: a
        connection that died meanwhile degrades to loss, exactly as a
        buffered packet to a dead host would."""
        if not self.closed:
            self._forward(src, dst, message, self._resolve(dst))

    def _forward(
        self, src: Hashable, dst: Hashable, message: Any, hop: Tuple
    ) -> None:
        """Encode and write one fault-cleared frame where ``hop`` says.
        A frame with nowhere to go is counted lost, never encoded."""
        via, dst_ep, link = hop
        envelope = (src, dst, message)
        if via is None:
            self._send_to_endpoint(dst_ep, envelope, link)
        elif via is _HERE:
            # Colocated roles: codec round-trip, no socket.
            self.loop.call_soon(self._deliver_frame, self._encode(envelope))
        elif via is _NOWHERE:
            # A remote client pid with no live reply route: on a real
            # network there is nowhere to send this — the peer hung up.
            self.stats.lost += 1
            link.lost += 1
        else:
            self._write(via, self._encode(envelope), link)

    def _encode(self, envelope: Tuple) -> bytes:
        try:
            return self.codec.encode_frame(envelope, self._body_memo)
        except FrameError:
            logger.exception("unencodable message from %r to %r", *envelope[:2])
            raise

    # ------------------------------------------------------------------
    # outbound plumbing
    # ------------------------------------------------------------------

    def _write(self, writer: asyncio.Transport, frame: bytes, link) -> None:
        try:
            writer.write(frame)
        except (ConnectionError, RuntimeError):
            self.stats.lost += 1
            link.lost += 1

    def _send_to_endpoint(self, dst_ep: str, envelope: Tuple, link) -> None:
        peer = self._peers.get(dst_ep)
        if peer is None:
            peer = self._peers[dst_ep] = _Peer()
        if peer.writer is not None and peer.writer.is_closing():
            peer.writer = None
            peer.dead_until = self.now + RECONNECT_COOLDOWN
            self._unreachable(dst_ep)
        dial = peer.writer is None and (peer.task is None or peer.task.done())
        if dial and self.now < peer.dead_until:
            # Known-dead endpoint inside the cooldown: the frame is
            # lost exactly as a packet to a dead host would be.
            self.stats.lost += 1
            link.lost += 1
            return
        frame = self._encode(envelope)
        if peer.writer is not None:
            self._write(peer.writer, frame, link)
            return
        if dial:
            peer.task = self.loop.create_task(self._connect(dst_ep, peer))
        peer.queue.append(frame)

    async def _connect(self, dst_ep: str, peer: _Peer) -> None:
        address = self.book.lookup(dst_ep)
        if address is None:
            # unpublished (a killed node): cool down as after a refused
            # dial, or every frame to it would spawn a dial of its own
            self._dial_failed(dst_ep, peer)
            return
        try:
            # Answers may come back over this same connection (the remote
            # endpoint learns reply routes from our src pids).
            writer, _ = await self.loop.create_connection(
                lambda: _Connection(self), *address
            )
        except OSError:
            self._dial_failed(dst_ep, peer)
            return
        peer.writer = writer
        pending, peer.queue = peer.queue, []
        link = self.stats.link(self.endpoint, dst_ep)
        for frame in pending:
            self._write(writer, frame, link)

    def _dial_failed(self, dst_ep: str, peer: _Peer) -> None:
        peer.dead_until = self.now + RECONNECT_COOLDOWN
        link = self.stats.link(self.endpoint, dst_ep)
        for _ in peer.queue:
            self.stats.lost += 1
            link.lost += 1
        peer.queue = []
        self._unreachable(dst_ep)

    # ------------------------------------------------------------------
    # inbound plumbing
    # ------------------------------------------------------------------

    async def start_server(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen for inbound connections; returns the bound address."""
        self._server = await self.loop.create_server(
            lambda: _Connection(self), host, port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def _forget_routes(self, writer: asyncio.Transport) -> None:
        stale = [
            pid for pid, route in self._routes.items() if route[0] is writer
        ]
        for pid in stale:
            del self._routes[pid]

    def _forget_peer(self, writer: asyncio.Transport) -> None:
        """Unpool a connection that was lost, and announce its endpoint.

        A killed node's FIN closes the connection under us.  Unpooling
        it here carries no cooldown, so the next send re-dials at once
        and a *restarted* node (new port in the address book) is
        reachable again; a writer that :meth:`_send_to_endpoint` finds
        closing costs a cooldown of lost frames first.  If the endpoint
        is really gone the next dial fails and sets one.
        """
        for endpoint, peer in self._peers.items():
            if peer.writer is writer:
                peer.writer = None
                self._unreachable(endpoint)

    def _unreachable(self, endpoint: str) -> None:
        """Tell the listeners that ``endpoint`` looks unreachable.  The
        hint can be wrong (a connection to a live server may close too),
        so it is for liveness only.  A closing transport announces
        nothing."""
        if not self.closed:
            for listener in self.unreachable_listeners:
                listener(endpoint)

    def _dispatch(self, envelope: Any, route: _Route) -> None:
        if not (isinstance(envelope, tuple) and len(envelope) == 3):
            raise FrameError(f"bad envelope: {envelope!r}")
        src, dst, message = envelope
        # Learn the reply route: answers to `src` ride this connection.
        if self._routes.get(src) is not route:
            self._routes[src] = route
            if len(self._routes) > MAX_ROUTES:
                self._routes.popitem(last=False)
        self._deliver(src, dst, message)

    def _deliver_frame(self, frame: bytes) -> None:
        if self.closed:
            return
        decoder = FrameDecoder()
        for src, dst, message in decoder.feed(frame):
            self._deliver(src, dst, message)

    def _deliver(self, src: Hashable, dst: Hashable, message: Any) -> None:
        process = self.processes.get(dst)
        if process is None:
            if self.miss_handler is not None:
                self.miss_handler(src, dst, message)
            else:
                self.stats.dropped_crashed += 1
            return
        if getattr(process, "crashed", False):
            self.stats.dropped_crashed += 1
            return
        self.stats.delivered += 1
        process.on_message(src, message)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def close(self) -> None:
        """Stop serving, sever every connection, kill pending tasks.

        After ``close`` the endpoint behaves like a crashed host: frames
        addressed to it are lost, and its own ``send`` is a no-op.
        """
        if self.closed:
            return
        self.closed = True
        if self._server is not None:
            self._server.close()
        for peer in self._peers.values():
            if peer.task is not None:
                peer.task.cancel()
        for connection in list(self._connections):
            connection.close()
        self._routes.clear()
        self.book.remove(self.endpoint)
        await asyncio.sleep(0)
