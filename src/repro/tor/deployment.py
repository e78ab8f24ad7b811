"""Tor deployment phases (paper Section 3.2), end to end.

* **Phase 0 — legacy**: everything native.  Volunteers are manually
  approved; a malicious volunteer's relay is indistinguishable at
  admission and attacks succeed once it is picked as exit.
* **Phase 1 — SGX-enabled directories**: authorities run in enclaves.
  Signing keys and votes live behind the measurement boundary; clients
  and relays attest the authorities they talk to.
* **Phase 2 — incremental SGX ORs**: relays run in enclaves and
  register over *mutually* attested channels; admission is automatic
  for audited builds and modified relays are rejected at attestation.
* **Phase 3 — fully SGX**: no directory authorities.  Membership lives
  in a Chord DHT whose join path is gated on attestation by an
  existing member.

Every phase exposes the same client operation (build a circuit, fetch
a page through it), so the attack ablation compares like with like.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Generator, List, Optional

from repro.core import AttestedServer, EnclaveNode, open_attested_session
from repro.core.untrusted import open_untrusted_session
from repro.core.world import World
from repro.crypto.drbg import Rng
from repro.errors import AttestationError, ReproError, TorError
from repro.net import sim as sim_kernel
from repro.net.network import LinkParams, Network
from repro.net.transport import StreamListener
from repro.sgx.attestation import AttestationConfig, IdentityPolicy
from repro.sgx.measurement import measure_program
from repro.tor import attacks
from repro.tor.apps import (
    TAG_CONSENSUS_REQ,
    TAG_OR_REGISTER,
    TAG_REGISTER_RESULT,
    DirectoryAuthorityProgram,
    OnionRouterEnclaveProgram,
    decode_consensus_response,
)
from repro.tor.client import TorClient, select_path
from repro.tor.dht import ChordRing
from repro.tor.directory import (
    ConsensusDocument,
    ConsensusEntry,
    DirectoryAuthorityCore,
    RouterDescriptor,
    RouterFlag,
    build_consensus,
)
from repro.tor.handshake import OnionKeyPair
from repro.tor.node import OnionRouterNode
from repro.tor.relay import RelayCore
from repro.wire import Reader, Writer

__all__ = ["TorDeploymentConfig", "TorDeployment", "WEB_RESPONSE_PREFIX"]

DIR_PORT = 7000
WEB_RESPONSE_PREFIX = b"OK:"

_MALICIOUS_CORES = {
    "tamper": attacks.TamperingExitCore,
    "snoop": attacks.SnoopingExitCore,
    "snoop-guard": attacks.SnoopingGuardCore,
}
_MALICIOUS_PROGRAMS = {
    "tamper": attacks.TamperingExitEnclaveProgram,
    "snoop": attacks.SnoopingExitEnclaveProgram,
    "snoop-guard": attacks.SnoopingExitEnclaveProgram,
}


@dataclasses.dataclass(frozen=True)
class TorDeploymentConfig:
    """Shape of one simulated Tor network."""

    phase: int = 0
    n_relays: int = 8
    n_exits: int = 3
    n_authorities: int = 3
    #: nickname -> "tamper" | "snoop" | "snoop-guard"
    malicious: Dict[str, str] = dataclasses.field(default_factory=dict)
    seed: bytes = b"tor-deploy"
    #: route the SGX relays' per-cell data plane through async ecall
    #: rings (switchless v2); only meaningful at phase >= 2.
    rings: bool = False
    ring_depth: int = 4

    def relay_names(self) -> List[str]:
        return [f"or{i}" for i in range(1, self.n_relays + 1)]

    def exit_names(self) -> List[str]:
        return self.relay_names()[: self.n_exits]

    def authority_names(self) -> List[str]:
        return [f"auth{i}" for i in range(1, self.n_authorities + 1)]


@dataclasses.dataclass
class RelayHandle:
    nickname: str
    descriptor: RouterDescriptor
    kind: Optional[str]                    # None = honest
    core: Optional[RelayCore] = None       # native mode
    node: Optional[EnclaveNode] = None     # sgx mode
    enclave: Optional[object] = None
    admitted_by: Dict[str, bool] = dataclasses.field(default_factory=dict)

    @property
    def malicious(self) -> bool:
        return self.kind is not None


class TorDeployment:
    """One fully built Tor network at a given deployment phase."""

    def __init__(self, config: TorDeploymentConfig) -> None:
        self.config = config
        self.sim = sim_kernel.create()
        self.network = Network(
            self.sim,
            rng=Rng(config.seed, "net"),
            default_link=LinkParams(latency=0.003),
        )
        self._rng = Rng(config.seed, "deployment")
        self.sgx = config.phase >= 1
        self.relays_sgx = config.phase >= 2

        # Intel's attestation authority and the enclave author's key.
        self.world = World(config.seed, "sgx-authority") if self.sgx else None

        self._build_web()
        self.relays: Dict[str, RelayHandle] = {}
        self._build_relays()

        self.authorities: Dict[str, object] = {}   # name -> core | enclave
        self.authority_nodes: Dict[str, object] = {}
        self.authority_keys: Dict[str, int] = {}
        self.dht: Optional[ChordRing] = None
        self.dht_admitted: set = set()
        self.rejected_registrations: List[str] = []
        self.client_attestations = 0
        self.registration_attestations = 0

        if config.phase < 3:
            self._build_authorities()
            self._register_relays()
            self._make_consensus()
        else:
            self._build_dht()

        self.client_host = self.network.add_host("client")
        self.client = TorClient(self.client_host, Rng(config.seed, "client"))

    # -- construction ------------------------------------------------------------

    def _build_web(self) -> None:
        web = self.network.add_host("web")
        listener = StreamListener(web, 80)

        def server() -> Generator:
            while True:
                conn = yield listener.accept()
                self.sim.spawn(handle(conn), "web-conn")

        def handle(conn) -> Generator:
            while True:
                request = yield conn.recv_message()
                if request is None:
                    return
                conn.send_message(WEB_RESPONSE_PREFIX + request)

        self.sim.spawn(server(), "web")

    def _relay_program_class(self, kind: Optional[str]):
        if kind is None:
            return OnionRouterEnclaveProgram
        return _MALICIOUS_PROGRAMS[kind]

    def _build_relays(self) -> None:
        exits = set(self.config.exit_names())
        for nickname in self.config.relay_names():
            kind = self.config.malicious.get(nickname)
            exit_ports = frozenset({80}) if nickname in exits else frozenset()
            if self.relays_sgx:
                node = EnclaveNode(
                    self.network,
                    nickname,
                    self.world.authority,
                    rng=Rng(self.config.seed, nickname),
                )
                program = self._relay_program_class(kind)()
                enclave = node.load(program, author_key=self.world.author, name="or")
                descriptor = RouterDescriptor.decode(
                    enclave.ecall("configure_relay", nickname, exit_ports, 100)
                )
                enclave.ecall(
                    "configure_trust",
                    self.world.authority.verification_info(),
                )
                OnionRouterNode(
                    node.host,
                    None,
                    enclave=enclave,
                    rings=self.config.rings,
                    ring_depth=self.config.ring_depth,
                )
                handle = RelayHandle(
                    nickname=nickname,
                    descriptor=descriptor,
                    kind=kind,
                    node=node,
                    enclave=enclave,
                )
            else:
                host = self.network.add_host(nickname)
                rng = Rng(self.config.seed, f"relay-{nickname}")
                onion_key = OnionKeyPair.generate(rng.fork("onion"))
                core_class = RelayCore if kind is None else _MALICIOUS_CORES[kind]
                core = core_class(nickname, onion_key, rng.fork("core"))
                OnionRouterNode(host, core)
                descriptor = RouterDescriptor(
                    nickname=nickname,
                    or_port=9001,
                    onion_public=onion_key.public,
                    exit_ports=exit_ports,
                    bandwidth=100,
                )
                handle = RelayHandle(
                    nickname=nickname, descriptor=descriptor, kind=kind, core=core
                )
            self.relays[nickname] = handle

    def _or_measurement_policy(self) -> IdentityPolicy:
        return IdentityPolicy.for_mrenclave(
            measure_program(OnionRouterEnclaveProgram)
        )

    def _authority_policy(self) -> IdentityPolicy:
        return IdentityPolicy.for_mrenclave(
            measure_program(DirectoryAuthorityProgram)
        )

    def _build_authorities(self) -> None:
        names = self.config.authority_names()
        for name in names:
            if self.sgx:
                node = EnclaveNode(
                    self.network,
                    name,
                    self.world.authority,
                    rng=Rng(self.config.seed, name),
                )
                enclave = node.load(
                    DirectoryAuthorityProgram(),
                    author_key=self.world.author,
                    name="dirauth",
                )
                accepted = (
                    frozenset({measure_program(OnionRouterEnclaveProgram)})
                    if self.relays_sgx
                    else None
                )
                public = enclave.ecall(
                    "configure_authority",
                    name,
                    self.relays_sgx,      # require attestation from phase 2
                    accepted,
                )
                enclave.ecall(
                    "configure_trust",
                    self.world.authority.verification_info(),
                    self._or_measurement_policy() if self.relays_sgx else None,
                )
                AttestedServer(node, enclave, DIR_PORT)
                self.authorities[name] = enclave
                self.authority_nodes[name] = node
                self.authority_keys[name] = public
            else:
                self.network.add_host(name)  # present, but plain
                core = DirectoryAuthorityCore(name, Rng(self.config.seed, name))
                self.authorities[name] = core
                self.authority_keys[name] = core.public_key
        # Authorities learn each other's vote keys (audited config).
        for name in names:
            peers = {n: k for n, k in self.authority_keys.items() if n != name}
            if self.sgx:
                self.authorities[name].ecall(
                    "install_peer_keys", peers, len(names)
                )

    # -- relay registration --------------------------------------------------------

    def _register_relays(self) -> None:
        if not self.sgx:
            for handle in self.relays.values():
                for name, core in self.authorities.items():
                    admitted = core.register(handle.descriptor, manual_approved=True)
                    handle.admitted_by[name] = admitted
            return

        if not self.relays_sgx:
            # Phase 1: native relays register over attested channels
            # (they verify the authority; admission remains manual).
            done = {"count": 0}
            for handle in self.relays.values():
                self.sim.spawn(
                    self._register_native_relay(handle, done),
                    f"register:{handle.nickname}",
                )
            self.sim.run(until=600.0)
            expected = len(self.relays) * len(self.authorities)
            if done["count"] != expected:
                raise TorError(
                    f"only {done['count']}/{expected} registrations completed"
                )
            return

        # Phase 2: enclave relays, mutual attestation, auto-admission.
        before = self._quote_counts()
        results: Dict[str, Dict[str, bool]] = {n: {} for n in self.relays}
        for handle in self.relays.values():
            self.sim.spawn(
                self._register_sgx_relay(handle, results[handle.nickname]),
                f"register:{handle.nickname}",
            )
        self.sim.run(until=1200.0)
        for handle in self.relays.values():
            handle.admitted_by = results[handle.nickname]
            if handle.malicious and not any(handle.admitted_by.values()):
                self.rejected_registrations.append(handle.nickname)
        self.registration_attestations = self._quote_counts() - before

    def _register_native_relay(self, handle: RelayHandle, done) -> Generator:
        host = self.network.host(handle.nickname)
        rng = Rng(self.config.seed, f"reg-{handle.nickname}")
        info = self.world.authority.verification_info()
        for name in self.config.authority_names():
            session = yield from open_untrusted_session(
                host, name, DIR_PORT, info, self._authority_policy(), rng
            )
            request = (
                Writer().u8(TAG_OR_REGISTER).varbytes(handle.descriptor.encode()).getvalue()
            )
            reply = yield from session.request(request)
            reader = Reader(reply)
            if reader.u8() != TAG_REGISTER_RESULT:
                raise TorError("bad registration reply")
            authority = reader.string()
            handle.admitted_by[authority] = bool(reader.u8())
            session.close()
            done["count"] += 1

    def _register_sgx_relay(self, handle: RelayHandle, results: Dict[str, bool]) -> Generator:
        info = self.world.authority.verification_info()
        for name in self.config.authority_names():
            try:
                session = yield from open_attested_session(
                    handle.node,
                    handle.enclave,
                    name,
                    DIR_PORT,
                    verification_info=info,
                    policy=self._authority_policy(),
                    config=AttestationConfig(mutual=True),
                    handshake_timeout=10.0,
                    # A refused registration is admission control, not a
                    # transient: retrying a tampered relay's quote would
                    # only multiply the measured attestation cost.  Lost
                    # registrations degrade gracefully at path selection.
                    attempts=1,
                )
            except AttestationError:
                results[name] = False
                continue
            # Registration is pushed by the OR on establishment; give
            # the reply a moment to come back.
            yield self.sim.sleep(1.0)
            outcome = handle.enclave.ecall("registration_results")
            results[name] = outcome.get(name, False)
            session.close()

    def _quote_counts(self) -> int:
        total = 0
        for handle in self.relays.values():
            if handle.node is not None and handle.node.platform.quoting_enclave:
                total += handle.node.platform.quoting_enclave.ecall("quote_count")
        for node in self.authority_nodes.values():
            total += node.platform.quoting_enclave.ecall("quote_count")
        return total

    # -- consensus -------------------------------------------------------------------

    def _make_consensus(self) -> None:
        names = self.config.authority_names()
        if self.sgx:
            votes = [self.authorities[n].ecall("produce_vote") for n in names]
            for name in names:
                self.authorities[name].ecall("compute_consensus", votes, self.sim.now)
        else:
            votes = [self.authorities[n].vote() for n in names]
            document = build_consensus(votes, len(names), self.sim.now)
            for name in names:
                document.add_signature(
                    name, self.authorities[name].sign_consensus(document)
                )
            self._native_consensus = document

    def fetch_consensus(self) -> ConsensusDocument:
        """What the client ends up trusting (verifies quorum)."""
        if self.config.phase >= 3:
            raise TorError("phase 3 has no consensus; use dht_descriptors()")
        if not self.sgx:
            document = self._native_consensus
            document.verify(self.authority_keys)
            if not document.is_fresh(self.sim.now):
                raise TorError("consensus is stale (or not yet valid)")
            return document

        merged: Optional[ConsensusDocument] = None
        count_before = self._authority_quotes()
        holder: Dict[str, ConsensusDocument] = {}

        def fetch() -> Generator:
            info = self.world.authority.verification_info()
            rng = Rng(self.config.seed, "client-fetch")
            base: Optional[ConsensusDocument] = None
            for name in self.config.authority_names():
                session = yield from open_untrusted_session(
                    self.client_host, name, DIR_PORT, info, self._authority_policy(), rng
                )
                reply = yield from session.request(
                    Writer().u8(TAG_CONSENSUS_REQ).getvalue()
                )
                document, authority = decode_consensus_response(reply)
                if base is None:
                    base = document
                else:
                    if document.signed_body() != base.signed_body():
                        raise TorError(
                            f"authority {authority} served a divergent consensus"
                        )
                    base.signatures.update(document.signatures)
                session.close()
            assert base is not None
            holder["doc"] = base

        self.sim.spawn(fetch(), "client-consensus-fetch")
        self.sim.run(until=self.sim.now + 600.0)
        if "doc" not in holder:
            raise TorError("consensus fetch did not complete")
        merged = holder["doc"]
        merged.verify(self.authority_keys)
        if not merged.is_fresh(self.sim.now):
            raise TorError("consensus is stale (or not yet valid)")
        self.client_attestations += self._authority_quotes() - count_before
        return merged

    def _authority_quotes(self) -> int:
        return sum(
            node.platform.quoting_enclave.ecall("quote_count")
            for node in self.authority_nodes.values()
        )

    # -- phase 3: the DHT ---------------------------------------------------------------

    def _attest_or_enclave(self, handle: RelayHandle) -> bool:
        """A ring member remotely attests a joining relay's enclave.

        Drives the real attestation protocol against the joiner's
        session machinery (so the joiner's platform produces a genuine
        QUOTE, which the Table 3 experiment counts)."""
        from repro.core.app import FRAME_ATTEST
        from repro.sgx.attestation import ChallengerAttestor

        info = self.world.authority.verification_info()
        challenger = ChallengerAttestor(
            ctx=None,
            verification_info=info,
            policy=self._or_measurement_policy(),
            rng=Rng(self.config.seed, f"dht-verify-{handle.nickname}"),
        )
        session_id = f"dht-join:{handle.nickname}"
        handle.enclave.ecall("session_accept", session_id)
        try:
            reply = handle.enclave.ecall(
                "session_handle",
                session_id,
                bytes([FRAME_ATTEST]) + challenger.start(),
            )
            confirm = challenger.handle_quote_response(reply[1:])
            assert confirm is not None
            finish = handle.enclave.ecall(
                "session_handle", session_id, bytes([FRAME_ATTEST]) + confirm
            )
            challenger.handle_finish(finish[1:])
        except AttestationError:
            return False
        finally:
            handle.enclave.ecall("session_close", session_id)
        return challenger.complete

    def _build_dht(self) -> None:
        before = self._quote_counts()
        for handle in self.relays.values():
            assert handle.enclave is not None
            if self._attest_or_enclave(handle):
                self.dht_admitted.add(handle.nickname)
        self.registration_attestations = self._quote_counts() - before

        self.dht = ChordRing(
            admission_check=lambda name: name in self.dht_admitted
        )
        for handle in self.relays.values():
            try:
                self.dht.join(handle.nickname)
            except TorError:
                self.rejected_registrations.append(handle.nickname)
                continue
        members = self.dht.members()
        for handle in self.relays.values():
            if handle.nickname in members:
                self.dht.put(members[0], f"relay:{handle.nickname}", handle.descriptor)

    def dht_descriptors(self) -> List[ConsensusEntry]:
        """Client-side view assembled from DHT lookups (phase 3)."""
        if self.dht is None:
            raise TorError("no DHT in this phase")
        members = self.dht.members()
        entries = []
        for name in members:
            descriptor, _hops = self.dht.get(members[0], f"relay:{name}")
            if descriptor is None:
                continue
            flags = {RouterFlag.VALID, RouterFlag.RUNNING, RouterFlag.GUARD}
            if descriptor.exit_ports:
                flags.add(RouterFlag.EXIT)
            entries.append(ConsensusEntry(descriptor=descriptor, flags=frozenset(flags)))
        return entries

    # -- client operations -----------------------------------------------------------------

    def usable_routers(self) -> List[ConsensusEntry]:
        if self.config.phase >= 3:
            return self.dht_descriptors()
        return self.fetch_consensus().routers()

    def run_client_request(
        self,
        payload: bytes = b"GET /index.html",
        forced_path: Optional[List[str]] = None,
        exit_port: int = 80,
        attempts: int = 3,
    ) -> Dict[str, object]:
        """Build a circuit, fetch through it, report what happened.

        A failed circuit (build timeout, torn-down channel, faulted
        relay) is rebuilt through a freshly selected path up to
        ``attempts`` times — the graceful-degradation story for Tor:
        one bad router costs a rebuild, not the request.  A forced path
        is never re-selected (attack experiments need the exact path).
        """
        routers = self.usable_routers()
        by_name = {entry.nickname: entry for entry in routers}
        if forced_path is not None:
            missing = [n for n in forced_path if n not in by_name]
            if missing:
                raise TorError(f"forced path not in consensus: {missing}")
            attempts = 1

        outcome: Dict[str, object] = {}
        path_rng = self._rng.fork("path")
        tried: List[List[str]] = []
        for attempt in range(attempts):
            if forced_path is not None:
                path = [by_name[n] for n in forced_path]
            else:
                path = select_path(routers, path_rng, exit_port=exit_port)
                # Rebuild through a different path when possible: a
                # re-selection matching an already-failed path draws
                # again (bounded — small networks may have no choice).
                names = [e.nickname for e in path]
                for _ in range(4):
                    if names not in tried:
                        break
                    path = select_path(routers, path_rng, exit_port=exit_port)
                    names = [e.nickname for e in path]
            outcome["path"] = [e.nickname for e in path]

            def client_proc() -> Generator:
                try:
                    circuit = yield from self.client.build_circuit(path)
                    stream = yield from circuit.open_stream("web", 80)
                    circuit.send(stream, payload)
                    reply = yield circuit.recv(stream)
                except ReproError:
                    return  # this attempt failed; the loop rebuilds
                outcome["reply"] = reply
                outcome["intact"] = reply == WEB_RESPONSE_PREFIX + payload

            self.sim.spawn(client_proc(), "tor-client")
            self.sim.run(until=self.sim.now + 600.0)
            if "reply" in outcome:
                outcome["rebuilds"] = attempt
                return outcome
            tried.append(list(outcome["path"]))
        raise TorError("client request did not complete")
