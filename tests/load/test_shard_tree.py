"""The two-level shard tree: region ring over per-region shard rings.

Every deployment is a tree; the default (``regions=None``) is one
region, where every shard pair holds a direct session ("flat" below).
Three promises, each pinned here:

* **parity** — a one-region :class:`~repro.routing.sharding.ShardTree`
  owns every key exactly as a plain
  :class:`~repro.routing.sharding.ShardRing` does, ``regions=1``
  charges and reports *integer-exactly* what the default does, even
  through a shard crash, and neither pushes a forwarding table (the
  tree is free until it relays);
* **relaying** — a multi-region deployment answers every request with
  the same route bytes the flat deployment computes, even when the
  front shard has no direct session to the owner and the query hops
  through region heads;
* **failover** — crashing a region head (or emptying a region) elects
  a successor, re-establishes head-head sessions, re-pushes relay
  routes and re-homes the lost ASes: afterwards *every* AS is still
  serveable with correct bytes — nothing is silently lost.
"""

import pytest

from repro import faults, obs
from repro.errors import ShardError
from repro.load.engine import run_load_engine
from repro.load.report import bench_doc
from repro.load.shards import ShardedRoutingDeployment
from repro.routing.sharding import ShardRing, ShardTree


class TestTreeRingParity:
    def test_single_region_tree_matches_flat_ring(self):
        members = [0, 1, 2, 3]
        ring = ShardRing(list(members))
        tree = ShardTree({0: list(members)})
        for key in range(2000):
            assert tree.owner(key) == ring.owner(key)

    def test_single_region_parity_survives_removal(self):
        members = [0, 1, 2, 3]
        ring = ShardRing(list(members))
        tree = ShardTree({0: list(members)})
        ring.remove_shard(2)
        tree.remove_shard(2)
        for key in range(2000):
            assert tree.owner(key) == ring.owner(key)

    def test_owner_lands_in_owning_region(self):
        regions = {0: [0, 2, 4], 1: [1, 3, 5]}
        tree = ShardTree({r: list(m) for r, m in regions.items()})
        by_shard = {s: r for r, members in regions.items() for s in members}
        seen_regions = set()
        for key in range(2000):
            owner = tree.owner(key)
            seen_regions.add(by_shard[owner])
        assert seen_regions == {0, 1}  # both regions actually own keys

    def test_deterministic_across_instances(self):
        a = ShardTree({0: [0, 1], 1: [2, 3]})
        b = ShardTree({0: [0, 1], 1: [2, 3]})
        assert [a.owner(k) for k in range(500)] == [
            b.owner(k) for k in range(500)
        ]

    def test_emptied_region_leaves_region_ring(self):
        tree = ShardTree({0: [0], 1: [1, 2]})
        tree.remove_shard(0)
        owners = {tree.owner(k) for k in range(500)}
        assert owners <= {1, 2}


def _serve_all(dep, front):
    requests = [
        (i, asn, "route_request")
        for i, asn in enumerate(sorted(dep.topology.asns))
    ]
    return dep.serve_batch(front, requests)


class TestHierarchicalDeployment:
    def _deployments(self, n_shards=6, regions=3, seed=b"tree-test"):
        flat = ShardedRoutingDeployment(n_shards, n_ases=20, seed=seed)
        tree = ShardedRoutingDeployment(
            n_shards, n_ases=20, seed=seed, regions=regions
        )
        for dep in (flat, tree):
            dep.register_all()
            dep.seal()
        return flat, tree

    def test_relayed_answers_match_flat(self):
        flat, tree = self._deployments()
        # front 5 is a region member (not a head): every cross-region
        # query must relay through its head, yet the route bytes must
        # be exactly what the flat all-pairs deployment computes.
        assert _serve_all(tree, 5) == _serve_all(flat, 5)

    def test_head_crash_elects_successor_and_loses_nothing(self):
        flat, tree = self._deployments()
        # shard 0 is region 0's head (lowest id).
        flat.crash_shard(0)
        tree.crash_shard(0)
        assert 3 in tree._heads()  # successor: next lowest in region 0
        served_tree = _serve_all(tree, 5)
        served_flat = _serve_all(flat, 5)
        assert set(served_tree) == set(served_flat) == set(range(20))
        assert served_tree == served_flat

    def test_emptying_a_region_reroutes_its_keys(self):
        flat, tree = self._deployments(n_shards=4, regions=4)
        flat.crash_shard(3)
        tree.crash_shard(3)
        assert _serve_all(tree, 1) == _serve_all(flat, 1)

    def test_crashing_every_shard_but_one_still_serves(self):
        _, tree = self._deployments(n_shards=4, regions=2)
        for shard in (0, 1, 2):
            tree.crash_shard(shard)
        served = _serve_all(tree, 3)
        assert set(served) == set(range(20))

    def test_dead_front_raises_instead_of_silent_loss(self):
        _, tree = self._deployments(n_shards=4, regions=2)
        tree.crash_shard(2)
        with pytest.raises(ShardError):
            tree.serve_batch(2, [(0, 1, "route_request")])


class TestCostParity:
    """A degenerate tree (one shard, one region) must be *free*: the
    relay machinery only charges when a payload actually hops."""

    def test_single_shard_integer_exact(self):
        flat = run_load_engine("routing", 30, 1, 4, 0)
        tree = run_load_engine("routing", 30, 1, 4, 0, regions=1)
        assert tree.steady_counters == flat.steady_counters
        assert tree.shard_stats == flat.shard_stats
        assert tree.makespan_cycles == flat.makespan_cycles
        assert tree.setup_cycles == flat.setup_cycles
        assert tree.outcomes == flat.outcomes

    def test_one_region_many_shards_matches_flat(self):
        # R=1 collapses to all-pairs sessions and an identical ring:
        # the whole run must be integer-exact, not just close.
        flat = run_load_engine("routing", 30, 3, 2, 1)
        tree = run_load_engine("routing", 30, 3, 2, 1, regions=1)
        assert tree.steady_counters == flat.steady_counters
        assert tree.shard_stats == flat.shard_stats
        assert tree.makespan_cycles == flat.makespan_cycles


def _forwarding_pushes(regions):
    """``configure_forwarding`` ecalls over setup, seal and a crash of
    shard 0 (region 0's head) at 3 shards."""
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        dep = ShardedRoutingDeployment(
            3, n_ases=12, seed=b"fwd-test", regions=regions
        )
        dep.register_all()
        dep.seal()
        dep.crash_shard(0)
    return sum(
        1 for span in tracer.spans
        if span.name.endswith(".configure_forwarding")
    )


class TestOneRegionIsAllPairs:
    """``regions=None`` and ``regions=1`` are one deployment: no relay
    tables, and the same report byte for byte."""

    @pytest.mark.parametrize("regions", [None, 1])
    def test_one_region_pushes_no_forwarding(self, regions):
        assert _forwarding_pushes(regions) == 0

    def test_two_regions_push_forwarding(self):
        # Regions {0: [0, 2], 1: [1]}: three tables at setup, then the
        # two survivors' tables once shard 2 succeeds the dead head.
        assert _forwarding_pushes(2) == 5

    @staticmethod
    def _doc(regions, batch, crash):
        def run():
            return bench_doc(
                run_load_engine("routing", 40, 3, batch, 0, regions=regions)
            )

        if crash:
            plan = faults.matrix_plan("shard_crash", 0)
            with faults.active(plan):
                doc = run()
            assert plan.log.events, "the plan never fired"
        else:
            doc = run()
        assert doc["config"].pop("regions") == regions
        return doc

    @pytest.mark.parametrize("crash", [False, True])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_default_report_equals_one_region(self, batch, crash):
        assert self._doc(None, batch, crash) == self._doc(1, batch, crash)
