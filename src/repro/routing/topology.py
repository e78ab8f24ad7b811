"""AS-level topologies with business relationships.

The paper evaluates on "a random topology with 30 ASes with
hypothetical business relationships".  :func:`generate_topology`
produces hierarchical random topologies: a clique of tier-1 ASes
peering with each other, a middle tier multihoming to providers above,
stubs below, and some lateral peering — the standard Internet-like
shape under which Gao-Rexford routing provably converges.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Tuple

from repro.crypto.drbg import Rng
from repro.errors import PolicyError
from repro.routing.relationships import Relationship

__all__ = ["AsTopology", "generate_topology"]


@dataclasses.dataclass
class AsTopology:
    """ASes, their prefixes, and the relationship graph."""

    asns: List[int]
    #: rel[a][b] = how ``a`` sees ``b`` (consistency enforced on add).
    rel: Dict[int, Dict[int, Relationship]]
    #: prefixes originated by each AS.
    prefixes: Dict[int, List[str]]

    @classmethod
    def empty(cls) -> "AsTopology":
        return cls(asns=[], rel={}, prefixes={})

    def add_as(self, asn: int, prefixes: Iterable[str] = ()) -> None:
        if asn in self.rel:
            raise PolicyError(f"AS{asn} already exists")
        self.asns.append(asn)
        self.rel[asn] = {}
        self.prefixes[asn] = list(prefixes) or [f"10.{asn}.0.0/16"]

    def add_link(self, a: int, b: int, b_is: Relationship) -> None:
        """Add a relationship edge: ``b_is`` says how ``a`` sees ``b``."""
        if a not in self.rel or b not in self.rel:
            raise PolicyError("both ASes must exist before linking")
        if a == b:
            raise PolicyError("no self links")
        if b in self.rel[a]:
            raise PolicyError(f"link AS{a}-AS{b} already exists")
        self.rel[a][b] = b_is
        self.rel[b][a] = b_is.inverse()

    def neighbors(self, asn: int) -> List[int]:
        return sorted(self.rel[asn])

    def relationship(self, a: int, b: int) -> Relationship:
        try:
            return self.rel[a][b]
        except KeyError:
            raise PolicyError(f"AS{a} and AS{b} are not neighbors") from None

    def customers(self, asn: int) -> List[int]:
        return [n for n, r in self.rel[asn].items() if r is Relationship.CUSTOMER]

    def providers(self, asn: int) -> List[int]:
        return [n for n, r in self.rel[asn].items() if r is Relationship.PROVIDER]

    def peers(self, asn: int) -> List[int]:
        return [n for n, r in self.rel[asn].items() if r is Relationship.PEER]

    def all_prefixes(self) -> List[Tuple[str, int]]:
        """(prefix, origin ASN) pairs, deterministic order."""
        out = []
        for asn in sorted(self.prefixes):
            for prefix in self.prefixes[asn]:
                out.append((prefix, asn))
        return out


def generate_topology(
    n_ases: int, rng: Rng, prefixes_per_as: int = 1
) -> AsTopology:
    """An Internet-like random topology of ``n_ases`` ASes.

    Structure: ~10% tier-1 (full peer mesh), ~40% transit ASes
    multihomed to 1-2 providers above them, the rest stubs with 1-2
    providers; a sprinkle of lateral peerings between transit ASes.
    The hierarchy is acyclic in the customer-provider direction, so
    Gao-Rexford routing converges.  ``prefixes_per_as`` > 1 gives each
    AS several originated prefixes (multi-prefix RIBs).
    """
    if n_ases < 2:
        raise PolicyError("need at least 2 ASes")
    if prefixes_per_as < 1:
        raise PolicyError("each AS needs at least one prefix")
    topology = AsTopology.empty()
    asns = list(range(1, n_ases + 1))
    for asn in asns:
        if prefixes_per_as == 1:
            topology.add_as(asn)
        else:
            topology.add_as(
                asn,
                [f"10.{asn}.{k}.0/24" for k in range(prefixes_per_as)],
            )

    n_tier1 = max(1, n_ases // 10)
    n_transit = max(1, (n_ases * 4) // 10)
    tier1 = asns[:n_tier1]
    transit = asns[n_tier1 : n_tier1 + n_transit]
    stubs = asns[n_tier1 + n_transit :]

    # Tier-1 full peer mesh.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            topology.add_link(a, b, Relationship.PEER)

    # Transit ASes pick providers strictly above them in the ordering
    # (tier-1 or earlier transit) -> acyclic customer-provider DAG.
    for index, asn in enumerate(transit):
        candidates = tier1 + transit[:index]
        n_providers = min(len(candidates), rng.randint(1, 2))
        for provider in rng.sample(candidates, n_providers):
            topology.add_link(asn, provider, Relationship.PROVIDER)

    # Stubs pick providers among tier-1/transit.
    carriers = tier1 + transit
    for asn in stubs:
        n_providers = min(len(carriers), rng.randint(1, 2))
        for provider in rng.sample(carriers, n_providers):
            topology.add_link(asn, provider, Relationship.PROVIDER)

    # Lateral peering between some transit pairs (no duplicate edges).
    if len(transit) >= 2:
        n_peerings = max(0, len(transit) // 3)
        attempts = 0
        added = 0
        while added < n_peerings and attempts < 10 * n_peerings:
            attempts += 1
            a, b = rng.sample(transit, 2)
            if b not in topology.rel[a]:
                topology.add_link(a, b, Relationship.PEER)
                added += 1

    return topology
