"""The in-process sharded controller, frozen as a test oracle.

:class:`ShardedInterDomainController` drives S
:class:`~repro.routing.sharding.ShardCore` objects in one process,
with no enclaves and no network: policy broadcast, slice exchange,
forwarded queries and failover are direct calls, charged as
serialization work.  ``tests/load/test_sharding.py`` holds the
enclave-hosted deployment in :mod:`repro.load.shards` and the
unsharded controller to it.  It is a test oracle only: nothing under
``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cost import context as cost_context
from repro.errors import ShardError
from repro.routing.bgp import Route
from repro.routing.policy import LocalPolicy
from repro.routing.sharding import ShardCore, ShardRing


class ShardedInterDomainController:
    """Reference in-process deployment of S shard cores.

    Answers are byte-for-byte the unsharded controller's; the
    inter-shard traffic (policy broadcast, slice exchange, forwarded
    queries) is charged as serialization work against the ambient cost
    accountant.  ``shards=1`` short-circuits every inter-shard step, so
    its cost counters equal the unsharded controller's exactly —
    integer for integer (the load suite pins this).
    """

    def __init__(self, n_shards: int, alloc_hook=None) -> None:
        if n_shards < 1:
            raise ShardError("need at least one shard")
        self.ring = ShardRing(list(range(n_shards)))
        self.cores: Dict[int, ShardCore] = {
            shard_id: ShardCore(shard_id, alloc_hook=alloc_hook)
            for shard_id in range(n_shards)
        }
        self.dead: Set[int] = set()
        self._sealed = False

    # -- helpers ------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.cores) - len(self.dead)

    def _live(self) -> List[ShardCore]:
        return [
            core
            for shard_id, core in sorted(self.cores.items())
            if shard_id not in self.dead
        ]

    def _charge_wire(self, n_bytes: int) -> None:
        model = cost_context.current_model()
        cost_context.charge_normal(model.serialize_byte_normal * n_bytes)

    def owner_of(self, asn: int) -> int:
        return self.ring.owner(asn)

    # -- registration -------------------------------------------------------

    def submit_policy(self, policy: LocalPolicy) -> None:
        if self._sealed:
            raise ShardError("cannot register after the controller sealed")
        self.cores[self.ring.owner(policy.asn)].submit_policy(policy)

    def participants(self) -> List[int]:
        return sorted(asn for core in self._live() for asn in core.owned)

    # -- seal: broadcast, compute, exchange ---------------------------------

    def seal(self) -> None:
        """Registration closed: sync policies, compute, exchange slices."""
        if self._sealed:
            return
        live = self._live()
        if len(live) > 1:
            for core in live:
                payload = sum(
                    len(core.controller.policy_of(asn).encode())
                    for asn in sorted(core.owned)
                )
                for peer in live:
                    if peer is core:
                        continue
                    # One broadcast copy per peer: encode on the way
                    # out, decode on the way in.
                    self._charge_wire(payload)
                    self._charge_wire(payload)
                    for asn in sorted(core.owned):
                        peer.ingest_policy(core.controller.policy_of(asn))
        owner_map = {
            asn: self.ring.owner(asn)
            for core in live
            for asn in core.owned
        }
        for core in live:
            core.compute()
        for core in live:
            for peer_id, slices in sorted(core.slices_for(owner_map).items()):
                if peer_id != core.shard_id:
                    n_bytes = sum(
                        len(route.encode())
                        for per_as in slices.values()
                        for route in per_as.values()
                    )
                    self._charge_wire(n_bytes)
                    self._charge_wire(n_bytes)
                self.cores[peer_id].merge_slice(slices)
        self._sealed = True

    # -- serving ------------------------------------------------------------

    def routes_for(self, asn: int, via_shard: Optional[int] = None) -> Dict[str, Route]:
        """Serve one AS's routes, through an arbitrary front shard.

        ``via_shard`` models a client hitting any frontend: a non-owner
        front forwards the query to the owner over the inter-shard
        link (one cross-shard query, charged both ways).
        """
        self.seal()
        owner = self.ring.owner(asn)
        if owner in self.dead:
            raise ShardError(f"shard {owner} (owner of AS{asn}) is dead")
        if via_shard is not None and via_shard != owner:
            if via_shard in self.dead or via_shard not in self.cores:
                raise ShardError(f"front shard {via_shard} is dead")
            front = self.cores[via_shard]
            front.stats.cross_shard_queries += 1
            routes = self.cores[owner].routes_for(asn)
            n_bytes = sum(len(route.encode()) for route in routes.values())
            self._charge_wire(8)        # the query: one ASN
            self._charge_wire(n_bytes)  # the reply: the route slice
            return routes
        return self.cores[owner].routes_for(asn)

    # -- failover -----------------------------------------------------------

    def fail_shard(self, shard_id: int) -> List[int]:
        """Kill one shard; re-home its ASes onto the survivors.

        Returns the re-homed ASNs.  Survivors already hold the full
        policy set (broadcast at seal) and their own computed
        partitions; the dead shard's partition is recomputed by the new
        owners and its ASes' RIBs are rebuilt from every survivor's
        retained slices — no client data is lost, clients only need to
        re-register ownership (see :meth:`ShardCore.adopt`).
        """
        if shard_id in self.dead:
            raise ShardError(f"shard {shard_id} is already dead")
        if shard_id not in self.cores:
            raise ShardError(f"no shard {shard_id}")
        dead_core = self.cores[shard_id]
        self.ring.remove_shard(shard_id)
        self.dead.add(shard_id)
        rehomed = sorted(dead_core.owned)
        if not self._sealed:
            # Registration still open: surviving owners just take the
            # re-registrations as they arrive.
            return rehomed

        live = self._live()
        owner_map = {
            asn: self.ring.owner(asn)
            for core in live
            for asn in core.owned
        }
        for asn in rehomed:
            owner_map[asn] = self.ring.owner(asn)

        # 1. New owners adopt the re-homed ASes (policies were synced).
        for asn in rehomed:
            new_owner = self.cores[owner_map[asn]]
            new_owner.adopt(
                asn, dead_core.controller.policy_of(asn).encode()
            )

        # 2. New owners recompute the dead shard's origin partition for
        #    the origins they inherited, and redistribute those slices.
        for core in live:
            inherited = sorted(
                asn for asn in rehomed if owner_map[asn] == core.shard_id
            )
            if not inherited:
                continue
            extra = core.controller.compute_partition(inherited)
            if core.computed is None:
                core.computed = {}
            for asn, routes in extra.items():
                if routes:
                    core.computed.setdefault(asn, {}).update(routes)

        # 3. Every survivor replays its retained slice for the re-homed
        #    ASes to the new owners (the dead shard held their RIBs).
        rehomed_set = set(rehomed)
        for core in live:
            computed = core.computed or {}
            for peer_id, slices in sorted(
                core.slices_for(owner_map).items()
            ):
                narrowed = {
                    asn: routes
                    for asn, routes in slices.items()
                    if asn in rehomed_set
                }
                if not narrowed:
                    continue
                if peer_id != core.shard_id:
                    n_bytes = sum(
                        len(route.encode())
                        for per_as in narrowed.values()
                        for route in per_as.values()
                    )
                    self._charge_wire(n_bytes)
                    self._charge_wire(n_bytes)
                self.cores[peer_id].merge_slice(narrowed)
        return rehomed
