"""End-to-end deployments of SDN inter-domain routing, with and
without SGX — the paper's Table 4 / Figure 3 experiment harness.

Both deployments run the same topology, the same policies and the same
route computation; they differ exactly where the paper's prototype
differed:

* :func:`run_sgx_routing` — controllers inside enclaves, mutual remote
  attestation, policies/routes over attested secure channels, enclave
  I/O and in-enclave dynamic allocation charged.
* :func:`run_native_routing` — the same applications exchanging
  plaintext over the same simulated network, work charged to plain
  per-host accountants.

Steady-state accounting excludes enclave launch and remote attestation
(one-time costs), matching the paper: counters are snapshotted after
every channel is established and before any policy is sent.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro import faults
from repro.cost import CostAccountant, Counter
from repro.cost import context as cost_context
from repro.core import AttestedServer, EnclaveNode, open_attested_session
from repro.core.world import World
from repro.crypto.drbg import Rng
from repro.errors import PolicyError, ReproError
from repro.net.network import LinkParams, Network
from repro.net import sim as sim_kernel
from repro.net.transport import StreamListener, connect
from repro.routing import messages as msg
from repro.routing.app import AsLocalControllerProgram, InterDomainControllerProgram
from repro.routing.bgp import Route
from repro.routing.controller import InterDomainController
from repro.routing.policy import LocalPolicy, policy_from_topology
from repro.routing.topology import AsTopology, generate_topology
from repro.routing.verification import Predicate
from repro.sgx.attestation import AttestationConfig, IdentityPolicy
from repro.sgx.measurement import measure_program

__all__ = ["RoutingRunResult", "run_sgx_routing", "run_native_routing"]

CONTROLLER_PORT = 179


@dataclasses.dataclass
class RoutingRunResult:
    """Everything the benchmarks need from one deployment run."""

    n_ases: int
    topology: AsTopology
    policies: Dict[int, LocalPolicy]
    #: per-AS received routes (prefix -> Route)
    routes: Dict[int, Dict[str, Route]]
    #: steady-state cost of the inter-domain controller
    controller_steady: Counter
    #: steady-state cost per AS-local controller
    as_steady: Dict[int, Counter]
    #: one-time cost (launch + attestation) of the controller node
    controller_onetime: Counter
    #: remote attestations performed (Table 3)
    attestations: int
    sim_time: float
    predicate_results: Dict[int, Dict[str, bool]] = dataclasses.field(
        default_factory=dict
    )


def _sum_domains(delta: Dict[str, Counter], prefix: str) -> Counter:
    total = Counter()
    for name, counter in delta.items():
        if name.startswith(prefix):
            total += counter
    return total


def build_policies(
    n_ases: int, seed: bytes, override_fraction: float = 0.2
) -> Tuple[AsTopology, Dict[int, LocalPolicy]]:
    """Topology + per-AS policies with some local-pref overrides."""
    rng = Rng(seed, "routing-topology")
    topology = generate_topology(n_ases, rng)
    policies = {}
    for asn in topology.asns:
        overrides = {}
        neighbors = topology.neighbors(asn)
        if neighbors and rng.random() < override_fraction:
            # Prefer one specific neighbor above its class default —
            # but stay within the relationship class (customer > peer >
            # provider ordering preserved).  Cross-class preferences
            # violate the Gao-Rexford stability condition and BGP may
            # legitimately never converge (dispute wheels).
            favored = rng.choice(neighbors)
            bump = {
                # class default +5, still below the next class.
                "customer": 105,
                "peer": 95,
                "provider": 85,
            }[topology.relationship(asn, favored).value]
            overrides[favored] = bump
        policies[asn] = policy_from_topology(topology, asn, overrides)
    return topology, policies


def run_sgx_routing(
    n_ases: int = 30,
    seed: bytes = b"routing-sgx",
    predicates: Optional[List[Tuple[int, Predicate]]] = None,
    queries: Optional[List[Tuple[int, str]]] = None,
    mutual: bool = True,
    switchless: bool = False,
) -> RoutingRunResult:
    """Full SGX deployment (paper Figure 2).

    ``switchless=True`` turns on switchless transitions for the
    steady-state message exchange: the controller's and every AS-local
    controller's packet I/O rides ocall queues, and the controller
    server's per-message ecalls ride an ecall queue.  Session
    establishment (one-time, excluded from steady state) always uses
    ordinary crossings.
    """
    topology, policies = build_policies(n_ases, seed)
    sim = sim_kernel.create()
    network = Network(
        sim, rng=Rng(seed, "net"), default_link=LinkParams(latency=0.002)
    )
    world = World(seed)

    controller_node = EnclaveNode(network, "idc", world.authority, rng=Rng(seed, "idc"))
    controller_enclave = controller_node.load(
        InterDomainControllerProgram(), author_key=world.author, name="idc"
    )
    info = world.authority.verification_info()
    controller_enclave.ecall("configure_controller", n_ases)
    controller_enclave.ecall(
        "configure_trust",
        info,
        IdentityPolicy.for_mrenclave(measure_program(AsLocalControllerProgram)),
    )
    AttestedServer(
        controller_node, controller_enclave, CONTROLLER_PORT, switchless=switchless
    )

    controller_policy = IdentityPolicy.for_mrenclave(
        measure_program(InterDomainControllerProgram)
    )
    as_nodes: Dict[int, EnclaveNode] = {}
    as_enclaves: Dict[int, object] = {}
    sessions: Dict[int, object] = {}

    def establish(asn):
        """Attest to the controller; failures leave the slot empty for
        the retry pass below (open_attested_session already retries
        transient faults internally with backoff)."""
        try:
            session = yield from open_attested_session(
                as_nodes[asn],
                as_enclaves[asn],
                "idc",
                CONTROLLER_PORT,
                verification_info=info,
                policy=controller_policy,
                config=AttestationConfig(mutual=mutual),
            )
            sessions[asn] = session
        except ReproError:
            sessions.pop(asn, None)

    for asn in topology.asns:
        node = EnclaveNode(
            network, f"as{asn}", world.authority, rng=Rng(seed, f"as{asn}")
        )
        enclave = node.load(AsLocalControllerProgram(), author_key=world.author, name="aslc")
        enclave.ecall("configure_trust", info)
        enclave.ecall("configure_policy", policies[asn].encode())
        as_nodes[asn] = node
        as_enclaves[asn] = enclave
        sim.spawn(establish(asn), f"establish-as{asn}")

    sim.run(until=600.0)
    for _retry in range(2):
        missing = [asn for asn in topology.asns if asn not in sessions]
        if not missing:
            break
        for asn in missing:
            sim.spawn(establish(asn), f"re-establish-as{asn}")
        sim.run(until=sim.now + 300.0)
    if len(sessions) != n_ases:
        raise PolicyError(
            f"only {len(sessions)}/{n_ases} attested sessions established"
        )

    if switchless:
        # Turn on switchless packet I/O before the steady-state
        # snapshot so the setup ecalls land in the excluded one-time
        # bucket, like launch and attestation.
        controller_enclave.ecall("enable_switchless_io")
        for asn in topology.asns:
            as_enclaves[asn].ecall("enable_switchless_io")

    # ---- steady state begins: snapshot every accountant ----
    snapshots = {
        "idc": controller_node.accountant.snapshot(),
        **{asn: as_nodes[asn].accountant.snapshot() for asn in topology.asns},
    }
    onetime_controller = _sum_domains(
        controller_node.accountant.domains(), "enclave:idc"
    )

    for asn in topology.asns:
        try:
            as_enclaves[asn].ecall("send_policy")
            sessions[asn].flush()
        except ReproError:
            pass  # the AS shows up route-less below and recovers
    sim.run(until=1200.0)

    # Fault recovery: an AS whose policy or route message was lost
    # (dropped records, torn-down sessions, failed ocalls) re-attests
    # on a fresh session and re-submits its byte-identical policy; the
    # controller's failover path re-sends its route slice.
    def recover(asn):
        try:
            session = yield from open_attested_session(
                as_nodes[asn],
                as_enclaves[asn],
                "idc",
                CONTROLLER_PORT,
                verification_info=info,
                policy=controller_policy,
                config=AttestationConfig(mutual=mutual),
            )
            sessions[asn] = session
            as_enclaves[asn].ecall("send_policy")
            session.flush()
        except ReproError:
            pass  # next recovery round (or the final check) reports it

    # The scan itself costs ecalls, so it only runs when a fault plan
    # is active — the fault-free path stays byte-identical to the
    # golden baselines.
    if faults.current_plan() is not None:
        for _round in range(3):
            routeless = [
                asn
                for asn in topology.asns
                if as_enclaves[asn].ecall("routes") is None
            ]
            if not routeless:
                break
            for asn in routeless:
                sim.spawn(recover(asn), f"recover-as{asn}")
            sim.run(until=sim.now + 600.0)

    if not controller_enclave.ecall("routes_distributed"):
        raise PolicyError("controller never distributed routes")

    predicate_results: Dict[int, Dict[str, bool]] = {}
    if predicates or queries:
        for asn, predicate in predicates or []:
            as_enclaves[asn].ecall("register_predicate", predicate.encode())
            sessions[asn].flush()
        sim.run(until=1800.0)
        for asn, predicate_id in queries or []:
            as_enclaves[asn].ecall("query_predicate", predicate_id)
            sessions[asn].flush()
        sim.run(until=2400.0)
        for asn in topology.asns:
            results = as_enclaves[asn].ecall("predicate_results")
            if results:
                predicate_results[asn] = results

    routes = {}
    for asn in topology.asns:
        received = as_enclaves[asn].ecall("routes")
        if received is None:
            raise PolicyError(f"AS{asn} never received its routes")
        routes[asn] = received

    controller_delta = controller_node.accountant.delta(snapshots["idc"])
    as_steady = {
        asn: _sum_domains(
            as_nodes[asn].accountant.delta(snapshots[asn]), "enclave:aslc"
        )
        for asn in topology.asns
    }
    attestations = controller_node.platform.quoting_enclave.ecall("quote_count")
    if mutual:
        attestations += sum(
            as_nodes[asn].platform.quoting_enclave.ecall("quote_count")
            for asn in topology.asns
        )

    return RoutingRunResult(
        n_ases=n_ases,
        topology=topology,
        policies=policies,
        routes=routes,
        controller_steady=_sum_domains(controller_delta, "enclave:idc"),
        as_steady=as_steady,
        controller_onetime=onetime_controller,
        attestations=attestations,
        sim_time=sim.now,
        predicate_results=predicate_results,
    )


def run_native_routing(
    n_ases: int = 30,
    seed: bytes = b"routing-sgx",  # same topology seed as the SGX run
) -> RoutingRunResult:
    """The non-SGX baseline: same apps, plaintext, no enclaves."""
    topology, policies = build_policies(n_ases, seed)
    sim = sim_kernel.create()
    network = Network(
        sim, rng=Rng(seed, "net-native"), default_link=LinkParams(latency=0.002)
    )

    controller_acct = CostAccountant(name="idc-native")
    as_accts = {asn: CostAccountant(name=f"as{asn}-native") for asn in topology.asns}
    controller = InterDomainController()
    controller_host = network.add_host("idc")
    listener = StreamListener(controller_host, CONTROLLER_PORT)
    routes_out: Dict[int, Dict[str, Route]] = {}
    model = cost_context.current_model()

    submitted = {"count": 0}
    conns: Dict[int, object] = {}

    def controller_proc():
        while submitted["count"] < n_ases:
            conn = yield listener.accept()
            sim.spawn(handle_as(conn), "idc-session")

    def handle_as(conn):
        message = yield conn.recv_message()
        with cost_context.use_accountant(controller_acct):
            with controller_acct.attribute("app:idc"):
                cost_context.charge_normal(
                    model.serialize_byte_normal * len(message)
                )
                tag, policy = msg.decode_msg(message)
                assert tag == msg.MSG_POLICY
                controller.submit_policy(policy)
                submitted["count"] += 1
                conns[policy.asn] = conn
                if submitted["count"] == n_ases:
                    controller.compute_routes()
                    for asn, as_conn in sorted(conns.items()):
                        encoded = msg.encode_routes_msg(controller.routes_for(asn))
                        cost_context.charge_normal(
                            model.serialize_byte_normal * len(encoded)
                        )
                        as_conn.send_message(encoded)

    def as_proc(asn):
        host = network.add_host(f"as{asn}")
        conn = yield from connect(host, "idc", CONTROLLER_PORT)
        acct = as_accts[asn]
        with cost_context.use_accountant(acct):
            with acct.attribute("app:aslc"):
                cost_context.charge_app_normal(model.aslc_policy_build_normal)
                encoded = msg.encode_policy_msg(policies[asn])
                cost_context.charge_normal(model.serialize_byte_normal * len(encoded))
        conn.send_message(encoded)
        message = yield conn.recv_message()
        with cost_context.use_accountant(acct):
            with acct.attribute("app:aslc"):
                cost_context.charge_normal(model.serialize_byte_normal * len(message))
                tag, routes = msg.decode_msg(message)
                assert tag == msg.MSG_ROUTES
                for _route in routes.values():
                    cost_context.charge_app_normal(model.route_install_normal)
                routes_out[asn] = routes

    sim.spawn(controller_proc(), "idc")
    for asn in topology.asns:
        sim.spawn(as_proc(asn), f"as{asn}")
    sim.run(until=600.0)

    if len(routes_out) != n_ases:
        raise PolicyError(f"only {len(routes_out)}/{n_ases} ASes got routes")

    return RoutingRunResult(
        n_ases=n_ases,
        topology=topology,
        policies=policies,
        routes=routes_out,
        controller_steady=controller_acct.counter("app:idc").copy(),
        as_steady={
            asn: as_accts[asn].counter("app:aslc").copy() for asn in topology.asns
        },
        controller_onetime=Counter(),
        attestations=0,
        sim_time=sim.now,
    )
