"""SGX-enabled software-defined inter-domain routing (paper Section 3.1).

Policies stay private: each AS-local controller ships its BGP-like
policy to the inter-domain controller enclave over an attested secure
channel; routes are computed centrally and each AS receives only its
own; verification predicates are answered in-enclave with a single
bit.
"""

from repro.routing.app import AsLocalControllerProgram, InterDomainControllerProgram
from repro.routing.bgp import DistributedBgpSimulator, Route, decide
from repro.routing.controller import ComputationStats, InterDomainController
from repro.routing.deployment import (
    RoutingRunResult,
    build_policies,
    run_native_routing,
    run_sgx_routing,
)
from repro.routing.policy import LocalPolicy, policy_from_topology
from repro.routing.relationships import Relationship, default_local_pref, may_export
from repro.routing.sharding import ShardRing, ShardTree
from repro.routing.smpc import SmpcCostModel, estimate_smpc_cycles
from repro.routing.topology import AsTopology, generate_topology
from repro.routing.verification import Predicate, PredicateEngine, PredicateKind

__all__ = [
    "Relationship",
    "default_local_pref",
    "may_export",
    "AsTopology",
    "generate_topology",
    "ShardRing",
    "ShardTree",
    "LocalPolicy",
    "policy_from_topology",
    "Route",
    "decide",
    "DistributedBgpSimulator",
    "InterDomainController",
    "ComputationStats",
    "Predicate",
    "PredicateKind",
    "PredicateEngine",
    "InterDomainControllerProgram",
    "AsLocalControllerProgram",
    "RoutingRunResult",
    "build_policies",
    "run_sgx_routing",
    "run_native_routing",
    "SmpcCostModel",
    "estimate_smpc_cycles",
]
