"""Host-side plumbing for onion routers: the untrusted I/O layer.

An :class:`OnionRouterNode` owns the network host, accepts OR links,
and shuttles cells between streams and the relay engine.  The engine
is either a native :class:`~repro.tor.relay.RelayCore` (legacy Tor) or
an enclave hosting one (SGX-enabled Tor) — the pump code is identical,
which is the point: the OS-level attacker sees the same interface
either way, but in the SGX case the circuit keys and plaintext live
behind the measurement boundary.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.errors import TorError
from repro.net.network import Host
from repro.net.sim import SimTimeout
from repro.net.transport import StreamListener, StreamSocket, connect
from repro.tor.relay import OR_PORT, RelayCore

__all__ = ["OnionRouterNode"]


class OnionRouterNode:
    """The untrusted host process around a relay engine."""

    #: How long (simulated seconds) a ring pump lingers for another
    #: cell before harvesting a partial batch.  Small against every
    #: link latency in the fabric, so it only coalesces cells already
    #: in flight at the same instant.
    REAP_LINGER = 1e-6

    def __init__(
        self,
        host: Host,
        engine,
        enclave=None,
        rings: bool = False,
        ring_depth: int = 4,
    ) -> None:
        """``engine`` is a RelayCore for native mode; pass ``enclave``
        (hosting an OnionRouterEnclaveProgram) for SGX mode instead.
        ``rings=True`` (SGX mode only) posts cells into the enclave's
        async ecall rings — up to ``ring_depth`` cells ride in flight
        per link before the pump harvests their directives, so the
        harvest crossing is amortized over the whole batch."""
        if (engine is None) == (enclave is None):
            raise TorError("provide exactly one of engine / enclave")
        self.host = host
        self._engine: Optional[RelayCore] = engine
        self._enclave = enclave
        self._rings = rings and enclave is not None
        self._ring_depth = max(1, ring_depth)
        if self._rings and enclave.ring_ecalls is None:
            # A relay dedicates an in-enclave cell-service thread
            # (worker=True): cells cross zero boundaries while it runs,
            # and a missed pass degrades to one crossing that drains
            # the ring.
            enclave.enable_ring_ecalls(
                harvest_depth=self._ring_depth, worker=True
            )
        self._links: Dict[int, StreamSocket] = {}
        self._streams: Dict[Tuple, StreamSocket] = {}
        self._next_link = 1
        self.listener = StreamListener(host, OR_PORT)
        host.sim.spawn(self._accept_loop(), f"or-accept:{host.name}")

    # -- engine invocation (native call or ecall) ------------------------------

    def _invoke(self, method: str, *args):
        if self._enclave is not None:
            if self._rings:
                # Ordering barrier: control-plane ecalls must observe
                # every data-plane cell already posted to the rings.
                self._drain_ring()
            return self._enclave.ecall(method, *args)
        return getattr(self._engine, method)(*args)

    def _drain_ring(self) -> None:
        """Harvest outstanding async cells and run their directives
        (in submission order — the rings guarantee it)."""
        for _ticket, directives in self._enclave.ecall_reap_all():
            self._execute(directives)

    # -- link management ----------------------------------------------------------

    def _register_link(self, conn: StreamSocket) -> int:
        link_id = self._next_link
        self._next_link += 1
        self._links[link_id] = conn
        self.host.sim.spawn(
            self._link_pump(link_id, conn), f"or-link:{self.host.name}:{link_id}"
        )
        return link_id

    def _accept_loop(self) -> Generator:
        while True:
            conn = yield self.listener.accept()
            self._register_link(conn)

    def _link_pump(self, link_id: int, conn: StreamSocket) -> Generator:
        if self._rings:
            yield from self._link_pump_rings(link_id, conn)
            return
        while True:
            message = yield conn.recv_message()
            if message is None:
                return
            directives = self._invoke("handle_cell", link_id, message)
            self._execute(directives)

    def _link_pump_rings(self, link_id: int, conn: StreamSocket) -> Generator:
        """Cell forwarding without awaiting the previous completion.

        Each cell is posted into the submission ring; the pump
        harvests (and executes the resulting directives) when the
        batch reaches ``ring_depth``, or after lingering
        ``REAP_LINGER`` simulated seconds with no further cell
        arriving — a burst batches up, but the pump never blocks
        indefinitely with work in flight, so replies are never
        withheld from a lock-step peer.
        """
        in_flight = 0
        while True:
            if in_flight:
                try:
                    message = yield conn.recv_message(timeout=self.REAP_LINGER)
                except SimTimeout:
                    self._drain_ring()
                    in_flight = 0
                    continue
            else:
                message = yield conn.recv_message()
            if message is None:
                self._drain_ring()
                return
            self._enclave.ecall_submit("handle_cell", link_id, message)
            in_flight += 1
            if in_flight >= self._ring_depth:
                self._drain_ring()
                in_flight = 0

    # -- directive execution ----------------------------------------------------------

    def _execute(self, directives) -> None:
        for directive in directives or []:
            verb = directive[0]
            if verb == "send":
                _, link_id, cell_bytes = directive
                link = self._links.get(link_id)
                if link is not None:
                    link.send_message(cell_bytes)
            elif verb == "connect":
                _, relay_name, port, ref = directive
                self.host.sim.spawn(
                    self._do_connect(relay_name, port, ref),
                    f"or-connect:{self.host.name}->{relay_name}",
                )
            elif verb == "begin":
                _, stream_ref, dest, port = directive
                self.host.sim.spawn(
                    self._do_begin(stream_ref, dest, port),
                    f"or-begin:{self.host.name}->{dest}",
                )
            elif verb == "stream_send":
                _, stream_ref, data = directive
                stream = self._streams.get(stream_ref)
                if stream is not None:
                    stream.send_message(data)
            elif verb == "stream_end":
                _, stream_ref = directive
                stream = self._streams.pop(stream_ref, None)
                if stream is not None:
                    stream.close()
            elif verb == "destroy":
                pass  # circuit teardown: nothing for the host to do
            else:
                raise TorError(f"unknown relay directive {verb!r}")

    def _do_connect(self, relay_name: str, port: int, ref: int) -> Generator:
        conn = yield from connect(self.host, relay_name, port)
        link_id = self._register_link(conn)
        self._execute(self._invoke("link_opened", ref, link_id))

    def _do_begin(self, stream_ref, dest: str, port: int) -> Generator:
        conn = yield from connect(self.host, dest, port)
        self._streams[stream_ref] = conn
        self._execute(self._invoke("stream_opened", stream_ref))
        while True:
            data = yield conn.recv_message()
            if data is None:
                return
            self._execute(self._invoke("stream_data", stream_ref, data))
