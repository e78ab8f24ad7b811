"""BGP routes, the decision process, and a distributed path-vector
simulator used as the correctness oracle.

The paper validated its centralized controller's output with GNS3; we
play the same trick with an independent implementation: a round-based
distributed path-vector protocol (each AS holds an Adj-RIB-In, runs
the decision process, announces per the Gao-Rexford export rule).  The
test suite asserts it agrees with the centralized controller on every
generated topology.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.cost import context as cost_context
from repro.errors import PolicyError
from repro.routing.policy import LocalPolicy
from repro.routing.relationships import Relationship, may_export
from repro.wire import Reader, Writer

__all__ = ["Route", "decide", "DistributedBgpSimulator", "RibEntry"]


@dataclasses.dataclass(frozen=True)
class Route:
    """One candidate route at one AS."""

    prefix: str
    #: AS path, nearest first (path[0] announced it to us, path[-1]
    #: originates the prefix).  Empty for self-originated routes.
    path: Tuple[int, ...]
    local_pref: int

    @property
    def learned_from(self) -> Optional[int]:
        return self.path[0] if self.path else None

    @property
    def origin(self) -> Optional[int]:
        return self.path[-1] if self.path else None

    def encode(self) -> bytes:
        writer = Writer().string(self.prefix).u16(self.local_pref)
        writer.u32(len(self.path))
        for asn in self.path:
            writer.u32(asn)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "Route":
        reader = Reader(data)
        prefix = reader.string()
        local_pref = reader.u16()
        path = tuple(reader.u32() for _ in range(reader.u32()))
        return cls(prefix=prefix, path=path, local_pref=local_pref)


def decide(candidates: List[Route]) -> Optional[Route]:
    """The BGP decision process over candidate routes for one prefix.

    1. highest local preference;
    2. shortest AS path;
    3. lowest first-hop ASN (deterministic tie-break).
    Self-originated routes (empty path) always win.
    """
    best: Optional[Route] = None
    model = cost_context.current_model()
    for route in candidates:
        cost_context.charge_app_normal(model.policy_eval_normal)
        if best is None or _better(route, best):
            best = route
    return best


def _better(a: Route, b: Route) -> bool:
    if not a.path:
        return True
    if not b.path:
        return False
    if a.local_pref != b.local_pref:
        return a.local_pref > b.local_pref
    if len(a.path) != len(b.path):
        return len(a.path) < len(b.path)
    return a.path[0] < b.path[0]


@dataclasses.dataclass
class RibEntry:
    """Adj-RIB-In for one prefix at one AS."""

    candidates: Dict[Optional[int], Route] = dataclasses.field(default_factory=dict)
    best: Optional[Route] = None


class DistributedBgpSimulator:
    """Round-based path-vector BGP over a set of local policies."""

    def __init__(self, policies: Dict[int, LocalPolicy]) -> None:
        self._policies = policies
        #: rib[asn][prefix] -> RibEntry
        self.rib: Dict[int, Dict[str, RibEntry]] = {
            asn: {} for asn in policies
        }
        #: (to, from, prefix, route-or-None); None is a withdrawal.
        self._pending: List[Tuple[int, int, str, Optional[Route]]] = []
        #: which neighbors currently hold our announcement, per prefix.
        self._exported: Dict[Tuple[int, str], set] = {}
        self.rounds = 0
        self.announcements = 0

    # -- protocol mechanics ---------------------------------------------------

    def _originate(self) -> None:
        for asn, policy in sorted(self._policies.items()):
            for prefix in policy.prefixes:
                route = Route(prefix=prefix, path=(), local_pref=1000)
                entry = self.rib[asn].setdefault(prefix, RibEntry())
                entry.candidates[None] = route
                self._update_best(asn, prefix)

    def _update_best(self, asn: int, prefix: str) -> bool:
        """Re-run the decision process; announce on change."""
        entry = self.rib[asn][prefix]
        new_best = decide(list(entry.candidates.values()))
        if new_best == entry.best:
            return False
        entry.best = new_best
        self._announce(asn, prefix, new_best)
        return True

    def _announce(self, asn: int, prefix: str, best: Optional[Route]) -> None:
        """Export the (new) best route; withdraw where it is no longer
        exportable (e.g. the best switched from a customer route to a
        provider route under a local-pref override)."""
        policy = self._policies[asn]
        learned_rel = (
            Relationship.CUSTOMER  # self-originated counts as customer
            if best is None or best.learned_from is None
            else policy.relationship(best.learned_from)
        )
        exported = self._exported.setdefault((asn, prefix), set())
        model = cost_context.current_model()
        for neighbor, neighbor_rel in sorted(policy.neighbor_relationships.items()):
            cost_context.charge_app_normal(model.policy_eval_normal)
            if neighbor not in self._policies:
                continue  # neighbor outside the experiment
            eligible = (
                best is not None
                and may_export(learned_rel, neighbor_rel)
                and neighbor not in best.path
            )
            if eligible:
                assert best is not None
                announced = Route(
                    prefix=prefix,
                    path=(asn,) + best.path,
                    local_pref=0,  # receiver assigns
                )
                exported.add(neighbor)
                self._pending.append((neighbor, asn, prefix, announced))
            elif neighbor in exported:
                exported.discard(neighbor)
                self._pending.append((neighbor, asn, prefix, None))

    def _process(
        self, to_asn: int, from_asn: int, prefix: str, route: Optional[Route]
    ) -> None:
        model = cost_context.current_model()
        cost_context.charge_app_normal(model.route_update_normal)
        self.announcements += 1
        policy = self._policies[to_asn]
        if route is None:  # withdrawal of this prefix from this neighbor
            entry = self.rib[to_asn].get(prefix)
            if entry is not None and from_asn in entry.candidates:
                del entry.candidates[from_asn]
                self._update_best(to_asn, prefix)
            return
        if to_asn in route.path:
            return  # loop
        localized = Route(
            prefix=route.prefix,
            path=route.path,
            local_pref=policy.local_pref(from_asn),
        )
        entry = self.rib[to_asn].setdefault(route.prefix, RibEntry())
        if entry.candidates.get(from_asn) == localized:
            return
        entry.candidates[from_asn] = localized
        self._update_best(to_asn, route.prefix)

    # -- driving -------------------------------------------------------------------

    def run(self, max_rounds: int = 1000) -> int:
        """Iterate to convergence; returns the number of rounds."""
        self._originate()
        while self._pending:
            self.rounds += 1
            if self.rounds > max_rounds:
                raise PolicyError(
                    f"BGP did not converge within {max_rounds} rounds "
                    "(policy dispute?)"
                )
            batch, self._pending = self._pending, []
            for to_asn, from_asn, prefix, route in batch:
                self._process(to_asn, from_asn, prefix, route)
        return self.rounds

    # -- dynamic events -------------------------------------------------------------

    def _purge_paths_through(self, failed_asn: int) -> None:
        """Drop candidates whose AS path crosses the failed AS."""
        for asn in list(self._policies):
            for prefix, entry in self.rib[asn].items():
                stale = [
                    src
                    for src, route in entry.candidates.items()
                    if src is not None and failed_asn in route.path
                ]
                for src in stale:
                    del entry.candidates[src]
                if stale:
                    self._update_best(asn, prefix)

    def fail_as(self, failed_asn: int, max_rounds: int = 1000) -> int:
        """An AS crashes: neighbors drop its routes and reconverge.

        Returns the number of extra rounds needed.  Used by the
        convergence ablation to quantify the paper's claim that
        centralized (SDN) decision making enables fast convergence.
        """
        if failed_asn not in self._policies:
            raise PolicyError(f"AS{failed_asn} is not in the network")
        failed_policy = self._policies.pop(failed_asn)
        self.rib.pop(failed_asn, None)
        for key in [k for k in self._exported if k[0] == failed_asn]:
            del self._exported[key]
        self._pending = [m for m in self._pending if m[0] != failed_asn]

        # Each neighbor notices the session drop and withdraws every
        # candidate learned directly from the failed AS.
        for neighbor in sorted(failed_policy.neighbor_relationships):
            if neighbor not in self._policies:
                continue
            for prefix, entry in self.rib[neighbor].items():
                if failed_asn in entry.candidates:
                    del entry.candidates[failed_asn]
                    self._update_best(neighbor, prefix)
        self._purge_paths_through(failed_asn)

        rounds_before = self.rounds
        while self._pending:
            self.rounds += 1
            if self.rounds - rounds_before > max_rounds:
                raise PolicyError("reconvergence did not complete")
            batch, self._pending = self._pending, []
            for to_asn, from_asn, prefix, route in batch:
                if to_asn not in self._policies:
                    continue
                self._process(to_asn, from_asn, prefix, route)
            # Paths through the failed AS may keep arriving from slow
            # neighbors; purge them every round.
            self._purge_paths_through(failed_asn)
        return self.rounds - rounds_before

    # -- results --------------------------------------------------------------------

    def best_routes(self, asn: int) -> Dict[str, Route]:
        """Converged best route per prefix at ``asn`` (self excluded)."""
        out = {}
        for prefix, entry in self.rib[asn].items():
            if entry.best is not None and entry.best.path:
                out[prefix] = entry.best
        return out
