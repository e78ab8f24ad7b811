"""The untrusted host side of a middlebox: a TCP relay.

The proxy forwards opaque bytes between a downstream peer (client or
previous middlebox) and its upstream (server or next middlebox).  For
every transiting message it asks the enclave for a verdict; it never
sees plaintext — on ``block`` it tears the flow down, otherwise it
forwards the *original* ciphertext.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.core.endpoint import EnclaveNode
from repro.core.service import AttestedServer
from repro.errors import MiddleboxError, NetworkError, ReproError
from repro.net.sim import SimTimeout
from repro.net.transport import StreamListener, StreamSocket, connect

__all__ = ["MiddleboxNode", "PROXY_PORT", "PROVISION_PORT"]

PROXY_PORT = 8080
PROVISION_PORT = 8443


class MiddleboxNode:
    """One middlebox: enclave + provisioning endpoint + TCP relay."""

    #: How long (simulated seconds) a ring pump lingers for another
    #: record before harvesting a partial batch.  Small against every
    #: link latency/RTO in the fabric, so it only coalesces arrivals
    #: already in flight at the same instant.
    REAP_LINGER = 1e-6

    def __init__(
        self,
        node: EnclaveNode,
        enclave,
        upstream_host: str,
        upstream_port: int,
        proxy_port: int = PROXY_PORT,
        provision_port: int = PROVISION_PORT,
        switchless: bool = False,
        failure_policy: str = "closed",
        rings: bool = False,
        ring_depth: int = 4,
    ) -> None:
        if failure_policy not in ("open", "closed"):
            raise MiddleboxError("failure_policy must be 'open' or 'closed'")
        self.node = node
        self.enclave = enclave
        self.upstream = (upstream_host, upstream_port)
        self.failure_policy = failure_policy
        self.inspect_failures = 0
        self.flows_relayed = 0
        # switchless=True routes the per-record inspect path (and the
        # provisioning server's message pump) through the enclave's
        # switchless ecall queue instead of an EENTER/EEXIT per record.
        self._switchless = switchless
        if switchless and enclave.switchless_ecalls is None:
            enclave.enable_switchless_ecalls()
        self._hot_ecall = enclave.ecall_switchless if switchless else enclave.ecall
        # rings=True posts inspect_record into the enclave's async
        # ecall rings instead: up to ring_depth records ride in flight
        # per pump, and one harvest crossing resolves the whole batch.
        self._rings = rings
        self._ring_depth = max(1, ring_depth)
        if rings and enclave.ring_ecalls is None:
            enclave.enable_ring_ecalls(harvest_depth=self._ring_depth)
        self.provisioning = AttestedServer(
            node, enclave, provision_port, switchless=switchless
        )
        self.listener = StreamListener(node.host, proxy_port)
        node.sim.spawn(self._accept_loop(), f"mbox-proxy:{node.name}")

    def _accept_loop(self) -> Generator:
        while True:
            downstream = yield self.listener.accept()
            self.flows_relayed += 1
            self.node.sim.spawn(
                self._relay_flow(downstream), f"mbox-flow:{self.node.name}"
            )

    def _relay_flow(self, downstream: StreamSocket) -> Generator:
        # Flows are identified by the downstream peer's host name.  In
        # a chain, the endpoint provisioning keys to middlebox *i* uses
        # the name of hop *i-1* (the client itself for the first) — the
        # endpoints know the path they consented to, so they can name
        # each middlebox's view of the flow.
        flow_id = downstream.peer
        upstream = yield from connect(self.node.host, *self.upstream)
        self.node.sim.spawn(
            self._pump(flow_id, downstream, upstream, "c2s"),
            f"mbox-c2s:{self.node.name}",
        )
        yield from self._pump(flow_id, upstream, downstream, "s2c")

    def _pump(
        self,
        flow_id: str,
        source: StreamSocket,
        sink: StreamSocket,
        direction: str,
    ) -> Generator:
        if self._rings:
            yield from self._pump_rings(flow_id, source, sink, direction)
            return
        while True:
            message = yield source.recv_message()
            if message is None:
                sink.close()
                self._end_flow(flow_id, direction)
                return
            try:
                verdict = self._hot_ecall(
                    "inspect_record", flow_id, direction, message
                )
            except ReproError as exc:
                verdict = exc
            if not self._apply_verdict(verdict, message, source, sink):
                self._end_flow(flow_id, None)
                return

    def _pump_rings(
        self,
        flow_id: str,
        source: StreamSocket,
        sink: StreamSocket,
        direction: str,
    ) -> Generator:
        """Record inspection without awaiting the previous verdict.

        Records are posted into the submission ring as they arrive; the
        pump harvests verdicts (and forwards the held ciphertext) when
        the batch reaches ``ring_depth``, or after lingering
        ``REAP_LINGER`` simulated seconds with no further record
        arriving — so a burst batches up while a lock-step peer is
        never left waiting on an unreaped verdict.  Verdicts are reaped
        per-ticket so a single failed inspection degrades per the
        failure policy without poisoning the rest of the batch.
        """
        batch = []  # [(ticket, message), ...] awaiting verdicts, in order
        while True:
            if batch:
                try:
                    message = yield source.recv_message(timeout=self.REAP_LINGER)
                except SimTimeout:
                    if not self._flush_verdicts(batch, source, sink):
                        return
                    batch = []
                    continue
            else:
                message = yield source.recv_message()
            if message is None:
                if self._flush_verdicts(batch, source, sink):
                    sink.close()
                self._end_flow(flow_id, direction)
                return
            ticket = self.enclave.ecall_submit(
                "inspect_record", flow_id, direction, message
            )
            batch.append((ticket, message))
            if len(batch) >= self._ring_depth:
                if not self._flush_verdicts(batch, source, sink):
                    return
                batch = []

    def _end_flow(self, flow_id: str, direction: Optional[str]) -> None:
        """Tell the enclave a flow direction closed (DPI state cleanup).

        Rides the hot call path (switchless queue when enabled) so a
        flow end costs at most what one record costs; a failure here
        is ignored — the engine's LRU flow bound is the backstop.
        """
        try:
            self._hot_ecall("end_flow", flow_id, direction)
        except ReproError:
            pass

    def _flush_verdicts(self, batch, source, sink) -> bool:
        """Reap a batch's verdicts in order; False when the flow died."""
        for ticket, message in batch:
            try:
                verdict = self.enclave.ecall_reap(ticket)
            except ReproError as exc:
                verdict = exc
            if not self._apply_verdict(verdict, message, source, sink):
                return False
        return True

    def _apply_verdict(self, verdict, message, source, sink) -> bool:
        """Block or forward one inspected record; False when the flow died.

        ``verdict`` is the ``(verdict, alerts)`` pair from
        ``inspect_record``, or the ``repro.errors`` exception that
        inspection raised (injected platform fault, crashed enclave).
        For a failed inspection the operator's knob decides: fail-open
        forwards uninspected traffic (availability), fail-closed drops
        the flow (security).
        """
        if isinstance(verdict, ReproError):
            self.inspect_failures += 1
            action = "forward" if self.failure_policy == "open" else "block"
        else:
            action = verdict[0]
        if action == "block":
            # Kill both legs of the flow.
            source.close()
            sink.close()
            return False
        try:
            sink.send_message(message)
        except NetworkError:
            # The other pump tore the flow down (block verdict) while
            # this record was in flight; drop the rest of the flow.
            source.close()
            return False
        return True
