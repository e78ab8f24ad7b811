"""Sharding the inter-domain controller across N instances.

The paper's controller is logically centralized; one enclave collects
every policy and computes every route.  That single instance is the
scalability wall between the prototype and the ROADMAP's "millions of
users".  This module partitions the controller with a consistent-hash
ring over ASes:

* each shard *owns* the ASes the ring maps to it — it is the only
  instance allowed to release those ASes' routes (the per-AS
  confidentiality boundary moves with ownership);
* every shard holds the full policy set (policies are broadcast once,
  after registration), but computes routes only for prefixes
  *originated* by its owned ASes — the per-prefix computation in
  :meth:`InterDomainController.compute_partition` is independent
  across origins, so S shards split the route computation S ways;
* after computing, shards exchange *route slices*: the routes shard A
  computed that belong to an AS owned by shard B travel to B, which
  merges them into the full per-AS RIB.  The union over disjoint
  origin partitions equals the unsharded computation byte-for-byte —
  the load test suite pins this;
* a request landing on a non-owner shard is forwarded to the owner
  (a *cross-shard route query*), so any shard can front any client.

This module is the hosting-independent core (plain objects, ambient
cost charging).  The enclave-hosted deployment — one enclave per
shard, attested inter-shard record channels, batched ecalls — lives
in :mod:`repro.load.shards` and drives these cores.  The in-process
reference that drives S cores without enclaves is a test oracle
(``tests/oracles/sharded_controller.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Set

from repro.errors import ShardError
from repro.routing.bgp import Route
from repro.routing.controller import InterDomainController
from repro.routing.messages import encode_routes_msg
from repro.routing.policy import LocalPolicy

__all__ = [
    "ShardRing",
    "ShardTree",
    "ShardStats",
    "ShardCore",
]

#: Virtual nodes per shard on the hash ring.  Enough that removing one
#: shard re-homes only (about) its own 1/S of the ASes.
VNODES = 64


def _ring_hash(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


class ShardRing:
    """Deterministic consistent-hash ring mapping ASN -> shard id."""

    def __init__(self, shard_ids: List[int], label: str = "shard") -> None:
        if not shard_ids:
            raise ShardError("a ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ShardError("duplicate shard ids on the ring")
        #: vnode label family: ``{label}{id}#v{v}`` (the tree's region
        #: ring hashes regions under ``"region"``).
        self._label = label
        self._points: List[tuple] = []
        self._shards: Set[int] = set()
        #: asn -> owner memo; pure cache over the (membership-keyed)
        #: ring walk, flushed on any membership change.
        self._owner_cache: Dict[int, int] = {}
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    @property
    def shard_ids(self) -> List[int]:
        return sorted(self._shards)

    def add_shard(self, shard_id: int) -> None:
        if shard_id in self._shards:
            raise ShardError(f"shard {shard_id} already on the ring")
        self._shards.add(shard_id)
        for v in range(VNODES):
            self._points.append(
                (_ring_hash(f"{self._label}{shard_id}#v{v}"), shard_id)
            )
        self._points.sort()
        self._owner_cache.clear()

    def remove_shard(self, shard_id: int) -> None:
        if shard_id not in self._shards:
            raise ShardError(f"shard {shard_id} is not on the ring")
        if len(self._shards) == 1:
            raise ShardError("cannot remove the last shard")
        self._shards.remove(shard_id)
        self._points = [p for p in self._points if p[1] != shard_id]
        self._owner_cache.clear()

    def owner(self, asn: int) -> int:
        """The shard owning ``asn``: first vnode clockwise of its hash."""
        cached = self._owner_cache.get(asn)
        if cached is not None:
            return cached
        key = _ring_hash(f"as{asn}")
        # First point with hash > key; wrap to the smallest point.
        for point_hash, shard_id in self._points:
            if point_hash > key:
                break
        else:
            shard_id = self._points[0][1]
        self._owner_cache[asn] = shard_id
        return shard_id

    def partition(self, asns: List[int]) -> Dict[int, List[int]]:
        """Owner map for a whole AS set (each AS to exactly one shard)."""
        out: Dict[int, List[int]] = {shard_id: [] for shard_id in self.shard_ids}
        for asn in sorted(asns):
            out[self.owner(asn)].append(asn)
        return out


class ShardTree:
    """Two-level consistent hashing: region ring, then per-region ring.

    A flat ring makes every shard a direct peer of every other —
    S*(S-1)/2 attested sessions and a policy broadcast that crosses
    every pair.  The tree bounds the fan-out: an AS hashes first onto
    a *region* (``region{r}#v{v}`` vnode labels), then onto a shard
    *within* that region's ring.  Inter-region traffic flows through
    region heads only, so session count drops from O(S^2) to
    O(S^2/R + R^2).

    The inner rings are plain :class:`ShardRing` instances with the
    same ``shard{id}#v{v}`` vnode labels, which pins the compatibility
    property the shard-tree tests rely on: a one-region tree maps every
    ASN to exactly the shard the flat ring would — byte for byte.

    Shards may be removed (crash failover); a region whose last shard
    dies leaves the region ring and its ASes re-home to surviving
    regions, exactly like a shard leaving a flat ring.
    """

    def __init__(self, regions: Dict[int, List[int]]) -> None:
        if not regions:
            raise ShardError("a shard tree needs at least one region")
        all_shards = [s for members in regions.values() for s in members]
        if len(set(all_shards)) != len(all_shards):
            raise ShardError("a shard may belong to only one region")
        # Region ids hash under their own label family so region
        # placement is independent of any shard id collision.
        self._region_ring = ShardRing(sorted(regions), label="region")
        self._rings: Dict[int, ShardRing] = {
            region_id: ShardRing(sorted(members))
            for region_id, members in regions.items()
        }

    # -- introspection -------------------------------------------------------

    @property
    def shard_ids(self) -> List[int]:
        return sorted(s for ring in self._rings.values() for s in ring.shard_ids)

    def members(self, region_id: int) -> List[int]:
        ring = self._rings.get(region_id)
        if ring is None:
            raise ShardError(f"no region {region_id}")
        return ring.shard_ids

    def region_of_shard(self, shard_id: int) -> int:
        for region_id, ring in self._rings.items():
            if shard_id in ring.shard_ids:
                return region_id
        raise ShardError(f"shard {shard_id} is not in the tree")

    # -- lookup --------------------------------------------------------------

    def owner(self, asn: int) -> int:
        """The owning shard: region ring first, then the region's ring."""
        return self._rings[self._region_ring.owner(asn)].owner(asn)

    def partition(self, asns: List[int]) -> Dict[int, List[int]]:
        """Owner map for a whole AS set (each AS to exactly one shard)."""
        out: Dict[int, List[int]] = {shard_id: [] for shard_id in self.shard_ids}
        for asn in sorted(asns):
            out[self.owner(asn)].append(asn)
        return out

    # -- membership changes (failover) --------------------------------------

    def remove_shard(self, shard_id: int) -> None:
        """Drop a crashed shard; an emptied region leaves the tree.

        Within a surviving region the re-homing is ring-local (only the
        dead shard's ASes move, to region siblings); when the last
        shard of a region dies the whole region's ASes re-hash onto the
        remaining regions.
        """
        region_id = self.region_of_shard(shard_id)
        ring = self._rings[region_id]
        if len(ring.shard_ids) == 1:
            if len(self._rings) == 1:
                raise ShardError("cannot remove the last shard")
            del self._rings[region_id]
            self._region_ring.remove_shard(region_id)
            return
        ring.remove_shard(shard_id)


@dataclasses.dataclass
class ShardStats:
    """Scale-out work counters for one shard."""

    policies_owned: int = 0
    policies_synced_in: int = 0
    cross_shard_queries: int = 0
    slice_routes_in: int = 0
    slice_routes_out: int = 0
    rehomed_ases: int = 0


class ShardCore:
    """One shard's state: owned ASes, full policy set, partial RIB.

    Hosting-independent (like :class:`InterDomainController`): the
    enclave program in :mod:`repro.load.shards` drives this object,
    and so does the in-process reference the load tests compare with.
    """

    def __init__(self, shard_id: int, alloc_hook=None) -> None:
        self.shard_id = shard_id
        self.controller = InterDomainController(alloc_hook=alloc_hook)
        self.owned: Set[int] = set()
        self.stats = ShardStats()
        #: This shard's computed partition: routes contributed by
        #: prefixes originated by owned ASes, for EVERY AS.  Kept after
        #: the slice exchange so failover can replay slices for
        #: re-homed ASes.
        self.computed: Optional[Dict[int, Dict[str, Route]]] = None
        #: Merged full RIB for owned ASes (union of every shard's slice).
        self.rib: Dict[int, Dict[str, Route]] = {}
        #: asn -> encoded reply; merge_slice (sole writer of ``rib``) drops it.
        self._replies: Dict[int, bytes] = {}

    # -- registration / sync ------------------------------------------------

    def submit_policy(self, policy: LocalPolicy) -> None:
        """A client registered an AS this shard owns."""
        self.controller.submit_policy(policy)
        self.owned.add(policy.asn)
        self.stats.policies_owned += 1
        self.computed = None

    def ingest_policy(self, policy: LocalPolicy) -> None:
        """A peer shard's broadcast: known for compute, NOT owned."""
        self.controller.submit_policy(policy)
        self.stats.policies_synced_in += 1
        self.computed = None

    def adopt(self, asn: int, policy_bytes: bytes) -> None:
        """Failover re-registration: take ownership of a re-homed AS.

        The policy must be byte-identical to the already-synced one —
        failover can never be abused to swap a live AS's policy (same
        contract as the controller's session failover path).
        """
        known = self.controller.policy_of(asn)
        if known.encode() != policy_bytes:
            raise ShardError(f"AS{asn} re-registration policy mismatch")
        self.owned.add(asn)
        self.stats.rehomed_ases += 1

    # -- compute / slice exchange ------------------------------------------

    def compute(self) -> Dict[int, Dict[str, Route]]:
        """Compute this shard's origin partition (memoized)."""
        if self.computed is None:
            self.computed = self.controller.compute_partition(sorted(self.owned))
        return self.computed

    def slices_for(self, owner_map: Dict[int, int]) -> Dict[int, Dict[int, Dict[str, Route]]]:
        """Split the computed partition by each AS's owner shard.

        ``owner_map`` maps ASN -> owning shard id; the result maps
        peer shard id -> {asn: {prefix: Route}} (this shard's own
        slice included under its own id).
        """
        computed = self.compute()
        out: Dict[int, Dict[int, Dict[str, Route]]] = {}
        for asn in sorted(computed):
            routes = computed[asn]
            if not routes:
                continue
            owner = owner_map.get(asn)
            if owner is None:
                raise ShardError(f"AS{asn} has no owner in the slice map")
            out.setdefault(owner, {})[asn] = dict(routes)
            if owner != self.shard_id:
                self.stats.slice_routes_out += len(routes)
        return out

    def merge_slice(self, slices: Dict[int, Dict[str, Route]]) -> None:
        """Absorb a peer's (or our own) slice into the owned RIB."""
        for asn in sorted(slices):
            if asn not in self.owned:
                raise ShardError(
                    f"shard {self.shard_id} received a slice for "
                    f"unowned AS{asn}"
                )
            self.rib.setdefault(asn, {}).update(slices[asn])
            self._replies.pop(asn, None)
        self.stats.slice_routes_in += sum(len(v) for v in slices.values())

    # -- serving ------------------------------------------------------------

    def routes_for(self, asn: int) -> Dict[str, Route]:
        """This owned AS's full RIB (exactly what it may learn)."""
        if asn not in self.owned:
            raise ShardError(f"shard {self.shard_id} does not own AS{asn}")
        return dict(self.rib.get(asn, {}))

    def reply_for(self, asn: int) -> bytes:
        """``encode_routes_msg(routes_for(asn))``, encoded once per RIB change."""
        if asn not in self.owned or asn not in self._replies:
            # routes_for raises ShardError for an unowned AS, hit or miss.
            self._replies[asn] = encode_routes_msg(self.routes_for(asn))
        return self._replies[asn]
