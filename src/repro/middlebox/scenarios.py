"""End-to-end middlebox scenarios (paper Section 3.3).

Builds: a TLS web server, a chain of SGX middleboxes proxying toward
it, and a client.  The client (and, when ``bilateral``, the server)
attests each middlebox enclave, provisions the TLS session keys over
the attested channel, then exchanges application data; the middleboxes
inspect inside their enclaves.

Variants exercised by tests/benchmarks:

* unprovisioned run — traffic stays opaque to the middleboxes;
* tampered middlebox build — the client's attestation fails and no
  keys are ever handed over;
* blocking rules — the flow is torn down mid-stream.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Generator, List, Optional, Tuple

from repro.core import EnclaveNode
from repro.core.untrusted import open_untrusted_session
from repro.core.world import World
from repro.crypto.drbg import Rng
from repro.errors import AttestationError, MiddleboxError, ProtocolError
from repro.net import sim as sim_kernel
from repro.net.network import LinkParams, Network
from repro.net.sim import SimTimeout
from repro.sgx.attestation import IdentityPolicy
from repro.sgx.measurement import measure_program
from repro.tls import TlsServer, tls_connect
from repro.middlebox.mbox import MiddleboxProgram, TAG_PROVISION_ACK, encode_provision
from repro.middlebox.proxy import PROVISION_PORT, PROXY_PORT, MiddleboxNode
from repro.wire import Reader

__all__ = ["MiddleboxScenario", "ScenarioResult", "ExfiltratingMiddleboxProgram"]


class ExfiltratingMiddleboxProgram(MiddleboxProgram):
    """The attacker's middlebox build: copies plaintext out.

    Different code -> different MRENCLAVE -> endpoints' attestation
    refuses it and no keys are ever provisioned.
    """

    def inspect_record(self, flow_id, direction, record):
        verdict, alerts = super().inspect_record(flow_id, direction, record)
        self._exfiltrated = getattr(self, "_exfiltrated", 0) + 1
        return verdict, alerts


@dataclasses.dataclass
class ScenarioResult:
    replies: List[bytes]
    alerts: Dict[str, List[str]]
    blocked: bool
    attestations: int
    provisioned: List[str]
    stats: Dict[str, Dict[str, int]]
    attestation_failures: List[str]


class MiddleboxScenario:
    """One constructed client / middlebox-chain / server deployment."""

    SERVER_NAME = "web"
    SERVER_PORT = 4433

    def __init__(
        self,
        n_middleboxes: int = 1,
        rules: Optional[List[Tuple[str, bytes, str]]] = None,
        bilateral: bool = False,
        tampered_boxes: Tuple[int, ...] = (),
        seed: bytes = b"mbox-scenario",
        switchless: bool = False,
        failure_policy: str = "closed",
        rings: bool = False,
        ring_depth: int = 4,
        epc_dpi: bool = False,
        epc_frames: Optional[int] = None,
        world: Optional[World] = None,
    ) -> None:
        self.sim = sim_kernel.create()
        self.network = Network(
            self.sim, rng=Rng(seed, "net"), default_link=LinkParams(latency=0.002)
        )
        self.seed = seed
        self.bilateral = bilateral
        self.ring_depth = ring_depth
        self.rules = rules or [("r-exfil", b"SECRET-TOKEN", "alert")]

        # A shared world must carry a CA (``tls=True``).
        self.world = world or World(seed, "sgx", tls=True)

        # TLS web server: echoes requests with a marker.
        server_host = self.network.add_host(self.SERVER_NAME)
        identity, certificate = self.world.ca.issue(self.SERVER_NAME, Rng(seed, "web-id"))

        def handler(tls) -> Generator:
            while True:
                try:
                    # No timeout: an idle blocked read holds no events,
                    # so it cannot stall the simulation's natural end.
                    request = yield from tls.recv(timeout=None)
                except ProtocolError:
                    return
                tls.send(b"OK:" + request)

        self.server = TlsServer(
            server_host, self.SERVER_PORT, identity, certificate, Rng(seed, "web-hs"), handler
        )
        self._server_host = server_host

        # The middlebox chain, built back to front.
        self.middleboxes: List[MiddleboxNode] = []
        upstream = (self.SERVER_NAME, self.SERVER_PORT)
        for index in reversed(range(n_middleboxes)):
            name = f"mbox{index}"
            # epc_dpi backs each box's DPI automaton with real EPC
            # pages (and lets the cache page under pressure), so the
            # paging_storm fault class has live eviction targets.
            node = EnclaveNode(
                self.network,
                name,
                self.world.authority,
                rng=Rng(seed, name),
                epc_frames=epc_frames,
                epc_paging=epc_dpi,
            )
            program_class = (
                ExfiltratingMiddleboxProgram
                if index in tampered_boxes
                else MiddleboxProgram
            )
            enclave = node.load(program_class(), author_key=self.world.author, name="mbox")
            if epc_dpi:
                enclave.ecall("configure_dpi", self.rules, bilateral, True)
            else:
                # Arg list kept verbatim so the non-EPC scenarios'
                # marshalled ecall bytes (and charges) are unchanged.
                enclave.ecall("configure_dpi", self.rules, bilateral)
            enclave.ecall(
                "configure_trust", self.world.authority.verification_info()
            )
            box = MiddleboxNode(
                node,
                enclave,
                *upstream,
                switchless=switchless,
                failure_policy=failure_policy,
                rings=rings,
                ring_depth=ring_depth,
            )
            self.middleboxes.insert(0, box)
            upstream = (name, PROXY_PORT)
        self._entry = upstream

        self.client_host = self.network.add_host("client")

    # -- helpers -------------------------------------------------------------------

    def _mbox_policy(self) -> IdentityPolicy:
        return IdentityPolicy.for_mrenclave(measure_program(MiddleboxProgram))

    def _flow_id_at(self, index: int) -> str:
        """How middlebox ``index`` names this client's flow."""
        return "client" if index == 0 else f"mbox{index - 1}"

    def _provision(
        self,
        host,
        endpoint_role: str,
        keys,
        failures: List[str],
        provisioned: List[str],
    ) -> Generator:
        info = self.world.authority.verification_info()
        rng = Rng(self.seed, f"provision-{endpoint_role}")
        for index, box in enumerate(self.middleboxes):
            try:
                session = yield from open_untrusted_session(
                    host,
                    box.node.name,
                    PROVISION_PORT,
                    info,
                    self._mbox_policy(),
                    rng.fork(box.node.name),
                )
            except AttestationError:
                failures.append(box.node.name)
                continue
            message = encode_provision(self._flow_id_at(index), keys, endpoint_role)
            reply = yield from session.request(message)
            reader = Reader(reply)
            if reader.u8() != TAG_PROVISION_ACK:
                raise MiddleboxError("bad provisioning ack")
            reader.string()  # flow id echo
            if reader.u8():
                provisioned.append(box.node.name)
            session.close()

    # -- the experiment ---------------------------------------------------------------

    def run(
        self,
        payloads: List[bytes],
        provision: bool = True,
        pipeline: bool = False,
    ) -> ScenarioResult:
        """Run the scenario.

        ``pipeline=True`` sends every payload before awaiting any reply
        (the shape that lets records accumulate in a middlebox's
        submission ring, so a depth-D batch actually forms); the
        default lock-step client awaits each reply before the next
        send.

        A flow that ends early is ``blocked`` only when some middlebox
        gave a record a block verdict.  One that died otherwise (a
        failed inspection under ``failure_policy="closed"``, or a
        record the server's TLS layer rejected) raises
        :class:`MiddleboxError`: it is not a policy decision.
        """
        replies: List[bytes] = []
        provisioned: List[str] = []
        failures: List[str] = []
        #: What ended the flow before every reply arrived, if anything.
        ended: List[Exception] = []
        quote_base = self._quote_count()

        def client_proc() -> Generator:
            tls = yield from tls_connect(
                self.client_host,
                self._entry[0],
                self._entry[1],
                self.SERVER_NAME,
                self.world.ca.public,
                Rng(self.seed, "client-tls"),
            )
            if provision:
                keys = tls.export_session_keys()
                yield from self._provision(
                    self.client_host, "client", keys, failures, provisioned
                )
                if self.bilateral:
                    yield from self._provision(
                        self._server_host, "server", keys, failures, provisioned
                    )
            if pipeline:
                for payload in payloads:
                    tls.send(payload)
                for _ in payloads:
                    try:
                        reply = yield from tls.recv(timeout=20.0)
                    except (ProtocolError, SimTimeout) as exc:
                        ended.append(exc)
                        return
                    replies.append(reply)
            else:
                for payload in payloads:
                    tls.send(payload)
                    try:
                        reply = yield from tls.recv(timeout=20.0)
                    except (ProtocolError, SimTimeout) as exc:
                        ended.append(exc)
                        return
                    replies.append(reply)

        self.sim.spawn(client_proc(), "mbox-client")
        self.sim.run(until=self.sim.now + 900.0)

        alerts = {}
        stats = {}
        for box in self.middleboxes:
            stats[box.node.name] = box.enclave.ecall("stats")
        if ended and not any(box_stats["blocked"] for box_stats in stats.values()):
            failed = sum(box.inspect_failures for box in self.middleboxes)
            raise MiddleboxError(
                f"flow ended without a block verdict ({failed} failed "
                f"inspections): {type(ended[0]).__name__}: {ended[0]}"
            ) from ended[0]
        return ScenarioResult(
            replies=replies,
            alerts=alerts,
            blocked=bool(ended),
            attestations=self._quote_count() - quote_base,
            provisioned=provisioned,
            stats=stats,
            attestation_failures=failures,
        )

    def _quote_count(self) -> int:
        return sum(
            box.node.platform.quoting_enclave.ecall("quote_count")
            for box in self.middleboxes
        )
