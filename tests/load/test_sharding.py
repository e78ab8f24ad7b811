"""Sharding invariants: ownership, byte-equality, exact S=1 cost parity."""

import pytest

from repro.cost import CostAccountant
from repro.cost import context as cost_context
from repro.errors import ShardError
from repro.load.shards import ShardedRoutingDeployment
from repro.routing.bgp import Route
from repro.routing.controller import InterDomainController
from repro.routing.deployment import build_policies
from repro.routing.messages import encode_routes_msg
from repro.routing.sharding import ShardCore, ShardRing
from tests.oracles.sharded_controller import ShardedInterDomainController


def _unsharded(policies):
    ctrl = InterDomainController()
    for policy in policies.values():
        ctrl.submit_policy(policy)
    ctrl.compute_routes()
    return ctrl


def _sharded(policies, n_shards):
    ctrl = ShardedInterDomainController(n_shards)
    for policy in policies.values():
        ctrl.submit_policy(policy)
    ctrl.seal()
    return ctrl


class TestRing:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_every_as_owned_by_exactly_one_shard(self, n_shards):
        ring = ShardRing(list(range(n_shards)))
        asns = list(range(1, 41))
        partition = ring.partition(asns)
        assert sorted(partition) == list(range(n_shards))
        flattened = [asn for owned in partition.values() for asn in owned]
        assert sorted(flattened) == asns           # no AS lost
        assert len(flattened) == len(set(flattened))  # no AS duplicated
        for shard_id, owned in partition.items():
            for asn in owned:
                assert ring.owner(asn) == shard_id

    def test_owner_is_deterministic_across_rings(self):
        a = ShardRing([0, 1, 2, 3])
        b = ShardRing([0, 1, 2, 3])
        assert all(a.owner(asn) == b.owner(asn) for asn in range(1, 100))

    def test_removal_rehomes_only_the_removed_shard_ases(self):
        ring = ShardRing([0, 1, 2, 3])
        asns = list(range(1, 60))
        before = {asn: ring.owner(asn) for asn in asns}
        ring.remove_shard(2)
        for asn in asns:
            after = ring.owner(asn)
            if before[asn] == 2:
                assert after != 2          # re-homed onto a survivor
            else:
                assert after == before[asn]  # everyone else undisturbed

    def test_ring_rejects_bad_configurations(self):
        with pytest.raises(ShardError):
            ShardRing([])
        with pytest.raises(ShardError):
            ShardRing([0, 0])
        ring = ShardRing([0])
        with pytest.raises(ShardError):
            ring.add_shard(0)
        with pytest.raises(ShardError):
            ring.remove_shard(0)           # never remove the last shard
        with pytest.raises(ShardError):
            ring.remove_shard(7)


class TestByteEquality:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_sharded_answers_equal_unsharded_byte_for_byte(self, n_shards):
        _topology, policies = build_policies(18, b"shard-eq")
        reference = _unsharded(policies)
        sharded = _sharded(policies, n_shards)
        for asn in policies:
            expect = encode_routes_msg(reference.routes_for(asn))
            assert encode_routes_msg(sharded.routes_for(asn)) == expect

    def test_cross_shard_front_returns_identical_bytes(self):
        _topology, policies = build_policies(14, b"shard-front")
        reference = _unsharded(policies)
        sharded = _sharded(policies, 4)
        for asn in policies:
            expect = encode_routes_msg(reference.routes_for(asn))
            for front in sharded.ring.shard_ids:
                got = sharded.routes_for(asn, via_shard=front)
                assert encode_routes_msg(got) == expect

    def test_failover_preserves_byte_equality(self):
        _topology, policies = build_policies(16, b"shard-fail")
        reference = _unsharded(policies)
        sharded = _sharded(policies, 4)
        rehomed = sharded.fail_shard(2)
        assert rehomed                      # the dead shard owned something
        for asn in policies:
            expect = encode_routes_msg(reference.routes_for(asn))
            assert encode_routes_msg(sharded.routes_for(asn)) == expect
        with pytest.raises(ShardError):
            sharded.fail_shard(2)           # already dead


class TestCostParity:
    def test_single_shard_counters_match_unsharded_exactly(self):
        """S=1 must cost what the unsharded controller costs — integer
        for integer, not approximately (ISSUE acceptance gate)."""
        _topology, policies = build_policies(15, b"shard-cost")

        ref_acct = CostAccountant()
        with cost_context.use_accountant(ref_acct):
            reference = _unsharded(policies)
            for asn in sorted(policies):
                reference.routes_for(asn)

        one_acct = CostAccountant()
        with cost_context.use_accountant(one_acct):
            sharded = _sharded(policies, 1)
            for asn in sorted(policies):
                sharded.routes_for(asn)

        assert one_acct.total().as_dict() == ref_acct.total().as_dict()

    def test_multi_shard_charges_inter_shard_wire_work(self):
        _topology, policies = build_policies(15, b"shard-cost")
        one = CostAccountant()
        with cost_context.use_accountant(one):
            _sharded(policies, 1)
        four = CostAccountant()
        with cost_context.use_accountant(four):
            _sharded(policies, 4)
        assert (
            four.total().normal_instructions > one.total().normal_instructions
        )


class TestAdoption:
    def test_adopt_requires_byte_identical_policy(self):
        _topology, policies = build_policies(10, b"shard-adopt")
        asn = sorted(policies)[0]
        core = ShardCore(0)
        core.submit_policy(policies[asn])
        other = sorted(policies)[1]
        with pytest.raises(ShardError):
            core.adopt(asn, policies[other].encode())
        core.adopt(asn, policies[asn].encode())   # identical bytes: fine
        assert asn in core.owned


class TestReplyCache:
    def _sealed_cores(self, n_shards=3):
        _topology, policies = build_policies(14, b"shard-reply")
        return policies, _sharded(policies, n_shards).cores

    def test_reply_equals_fresh_encoding_for_every_owned_as(self):
        policies, cores = self._sealed_cores()
        owned = [(core, asn) for core in cores.values() for asn in core.owned]
        assert sorted(asn for _core, asn in owned) == sorted(policies)
        for core, asn in owned:
            first = core.reply_for(asn)
            assert first == encode_routes_msg(core.routes_for(asn))
            assert core.reply_for(asn) == first

    def test_merge_slice_invalidates_the_touched_as(self):
        _policies, cores = self._sealed_cores()
        core = cores[0]
        asn = sorted(core.owned)[0]
        before = core.reply_for(asn)
        prefix = sorted(core.routes_for(asn))[0]
        replaced = Route(prefix=prefix, path=(asn, 64999), local_pref=7)
        added = Route(prefix="203.0.113.0/24", path=(asn, 64998), local_pref=1)
        core.merge_slice({asn: {prefix: replaced, added.prefix: added}})
        after = core.reply_for(asn)
        assert after != before
        assert after == encode_routes_msg(core.routes_for(asn))
        assert core.routes_for(asn)[prefix] == replaced
        assert core.routes_for(asn)[added.prefix] == added

    def test_unowned_as_raises_cold_and_warm(self):
        _policies, cores = self._sealed_cores()
        core, other = cores[0], cores[1]
        stranger = sorted(other.owned)[0]
        with pytest.raises(ShardError):
            core.reply_for(stranger)
        other.reply_for(stranger)              # warm the owner's cache
        for asn in sorted(core.owned):
            core.reply_for(asn)                # and every owned entry here
        with pytest.raises(ShardError):
            core.reply_for(stranger)

    @pytest.mark.parametrize("n_shards,regions", [(4, 2), (5, 3)])
    def test_two_level_deployment_replies_agree(self, n_shards, regions):
        dep = ShardedRoutingDeployment(
            n_shards, n_ases=16, seed=b"shard-reply-tree", regions=regions
        )
        dep.register_all()
        dep.seal()
        reference = _unsharded(dep.policies)
        seen = []
        for enclave in dep.enclaves.values():
            core = enclave._program._core
            for asn in sorted(core.owned):
                expect = encode_routes_msg(reference.routes_for(asn))
                assert core.reply_for(asn) == expect
                assert core.reply_for(asn) == expect
                seen.append(asn)
        assert sorted(seen) == sorted(dep.policies)
