"""The centralized inter-domain route computation.

This is the logic that runs *inside* the inter-domain controller
enclave: it collects every AS's private policy, computes each AS's
best route for every prefix "using the rules of BGP" (paper Section
5), and hands each AS exactly its own routes.  The engine is
independent of :class:`~repro.routing.bgp.DistributedBgpSimulator`
(per-prefix worklist vs per-message rounds); the test suite
cross-checks the two, replacing the paper's GNS3 validation.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cost import context as cost_context
from repro.errors import PolicyError
from repro.routing.bgp import Route, decide
from repro.routing.policy import LocalPolicy
from repro.routing.relationships import Relationship, may_export

__all__ = ["InterDomainController", "ComputationStats"]


@dataclasses.dataclass
class ComputationStats:
    """Work counters from one route computation."""

    prefixes: int = 0
    route_updates: int = 0
    export_evaluations: int = 0
    routes_stored: int = 0
    route_pushes: int = 0  #: per-AS result sets handed out (message exchanges)


class InterDomainController:
    """Pure computation core (hosting — native or enclave — is external).

    ``alloc_hook`` is invoked once per stored route: inside an enclave
    it is wired to :meth:`EnclaveContext.alloc`, charging the dynamic
    memory costs the paper identifies as a dominant overhead; natively
    it is a no-op.
    """

    def __init__(self, alloc_hook: Optional[Callable[[int], object]] = None) -> None:
        self._policies: Dict[int, LocalPolicy] = {}
        self._alloc = alloc_hook or (lambda n: None)
        self.stats = ComputationStats()
        self._results: Optional[Dict[int, Dict[str, Route]]] = None

    # -- policy collection -------------------------------------------------------

    def submit_policy(self, policy: LocalPolicy) -> None:
        policy.validate()
        if policy.asn in self._policies:
            raise PolicyError(f"AS{policy.asn} already submitted a policy")
        self._policies[policy.asn] = policy
        self._results = None  # stale

    @property
    def participant_count(self) -> int:
        return len(self._policies)

    def participants(self) -> List[int]:
        return sorted(self._policies)

    def remove_policy(self, asn: int) -> None:
        """An AS left (or crashed): drop it and invalidate results.

        The SDN convergence story (paper Section 3.1: centralized
        decision making enables "fast convergence"): the controller
        recomputes globally in one shot instead of waiting for
        withdrawal waves to ripple through the network.
        """
        if asn not in self._policies:
            raise PolicyError(f"AS{asn} has not submitted a policy")
        removed = self._policies.pop(asn)
        # Surviving neighbors no longer claim the edge.
        for neighbor in removed.neighbor_relationships:
            other = self._policies.get(neighbor)
            if other is not None:
                other.neighbor_relationships.pop(asn, None)
                other.local_pref_overrides.pop(asn, None)
        self._results = None

    def policy_of(self, asn: int) -> LocalPolicy:
        if asn not in self._policies:
            raise PolicyError(f"AS{asn} has not submitted a policy")
        return self._policies[asn]

    def _check_symmetry(self) -> None:
        """Neighbor claims must agree (a's customer calls a provider)."""
        for asn, policy in self._policies.items():
            for neighbor, rel in policy.neighbor_relationships.items():
                other = self._policies.get(neighbor)
                if other is None:
                    continue  # neighbor not participating
                claimed = other.neighbor_relationships.get(asn)
                if claimed is None:
                    raise PolicyError(
                        f"AS{asn} lists AS{neighbor} but not vice versa"
                    )
                if claimed is not rel.inverse():
                    raise PolicyError(
                        f"relationship mismatch between AS{asn} and AS{neighbor}"
                    )

    # -- route computation ---------------------------------------------------------

    def compute_routes(self) -> Dict[int, Dict[str, Route]]:
        """Best route per (AS, prefix); memoized until policies change."""
        if self._results is not None:
            return self._results
        self._check_symmetry()
        results: Dict[int, Dict[str, Route]] = {asn: {} for asn in self._policies}
        for origin_asn, policy in sorted(self._policies.items()):
            for prefix in policy.prefixes:
                self.stats.prefixes += 1
                self._compute_prefix(prefix, origin_asn, results)
        self._results = results
        return results

    def compute_partition(
        self, origins: "List[int]"
    ) -> Dict[int, Dict[str, Route]]:
        """Routes contributed by prefixes originated by ``origins`` only.

        The per-prefix computation is independent across origins, so a
        sharded deployment can partition origin ASes across controller
        instances: the union of every shard's partition over disjoint
        origin sets equals :meth:`compute_routes` exactly (prefixes are
        unique per origin, so the union is disjoint too).  Results are
        not memoized — the sharding layer owns merge and caching.
        """
        self._check_symmetry()
        results: Dict[int, Dict[str, Route]] = {asn: {} for asn in self._policies}
        for origin_asn in sorted(set(origins)):
            if origin_asn not in self._policies:
                raise PolicyError(f"AS{origin_asn} has not submitted a policy")
            for prefix in self._policies[origin_asn].prefixes:
                self.stats.prefixes += 1
                self._compute_prefix(prefix, origin_asn, results)
        return results

    def _compute_prefix(
        self,
        prefix: str,
        origin: int,
        results: Dict[int, Dict[str, Route]],
    ) -> None:
        model = cost_context.current_model()
        best: Dict[int, Route] = {origin: Route(prefix, (), 1000)}
        candidates: Dict[int, Dict[int, Route]] = {}
        offered_to: Dict[int, Set[int]] = {}
        work = deque([origin])

        while work:
            asn = work.popleft()
            route = best.get(asn)
            policy = self._policies[asn]
            learned_rel = (
                Relationship.CUSTOMER
                if route is None or route.learned_from is None
                else policy.relationship(route.learned_from)
            )
            offered = offered_to.setdefault(asn, set())
            for neighbor, neighbor_rel in sorted(
                policy.neighbor_relationships.items()
            ):
                cost_context.charge_app_normal(model.policy_eval_normal)
                self.stats.export_evaluations += 1
                if neighbor not in self._policies:
                    continue
                eligible = (
                    route is not None
                    and may_export(learned_rel, neighbor_rel)
                    and neighbor not in route.path
                )
                neighbor_cands = candidates.setdefault(neighbor, {})
                if eligible:
                    assert route is not None
                    offer = Route(
                        prefix=prefix,
                        path=(asn,) + route.path,
                        local_pref=self._policies[neighbor].local_pref(asn),
                    )
                    offered.add(neighbor)
                    if neighbor_cands.get(asn) == offer:
                        continue
                    neighbor_cands[asn] = offer
                elif neighbor in offered:
                    offered.discard(neighbor)
                    if asn not in neighbor_cands:
                        continue
                    del neighbor_cands[asn]
                else:
                    continue

                cost_context.charge_app_normal(model.route_update_normal)
                self.stats.route_updates += 1
                new_best = decide(list(neighbor_cands.values()))
                if new_best != best.get(neighbor):
                    if new_best is None:
                        best.pop(neighbor, None)
                    else:
                        best[neighbor] = new_best
                    work.append(neighbor)

        for asn, route in best.items():
            if asn == origin:
                continue
            self._alloc(64 + 4 * len(route.path))
            self.stats.routes_stored += 1
            results[asn][prefix] = route

    # -- results access (per-AS confidentiality boundary) ---------------------------

    def routes_for(self, asn: int) -> Dict[str, Route]:
        """Exactly the routes belonging to one AS — all it may learn."""
        if asn not in self._policies:
            raise PolicyError(f"AS{asn} is not a participant")
        self.stats.route_pushes += 1
        return dict(self.compute_routes()[asn])
