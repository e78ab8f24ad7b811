"""The load engine under deterministic fault injection (shard crashes).

Extends the fault matrix (``repro.faults``) to the scale-out layer:
a seeded plan kills a controller shard mid-run, the deployment
re-homes its ASes onto survivors, clients re-register, and — the
property that matters — no request is ever *silently* lost: every
event ends in exactly one of ``ok``/``recovered``/``failed``.
"""

import collections

import pytest

from repro import faults, obs
from repro.load.clients import generate_events
from repro.load.engine import plan_dispatches, run_load_engine
from repro.load.report import bench_json
from repro.load.report import validate_bench, bench_doc
from repro.obs.tracer import INC
from repro.routing.controller import InterDomainController
from repro.routing.deployment import build_policies
from repro.routing.messages import encode_routes_msg


def _run_with_crash(seed, n_shards=2, n_events=60, plan=None):
    if plan is None:
        plan = faults.matrix_plan("shard_crash", seed)
    with faults.active(plan):
        result = run_load_engine(
            "routing",
            n_clients=20,
            n_shards=n_shards,
            batch=4,
            seed=seed,
            n_events=n_events,
            keep_payloads=True,
        )
    return result, plan


def _outcomes_by_seq(seed, n_shards=2, n_events=60, plan=None):
    """A traced crash run and each event's outcome, in dispatch order.

    The engine counts ``load_events`` once per event, then
    ``load_events_<outcome>`` unless it was ``ok``; the events' seqs
    come from walking the dispatch plan over the regenerated log.
    """
    tracer = obs.Tracer(metrics=obs.MetricsRegistry())
    with obs.tracing(tracer):
        result, plan = _run_with_crash(seed, n_shards, n_events, plan)
    outcomes = []
    for rec in tracer.records():
        if rec[0] == INC and rec[1] == "load_events":
            outcomes.append("ok")
        elif rec[0] == INC and rec[1].startswith("load_events_"):
            outcomes[-1] = rec[1][len("load_events_"):]
    topology, _policies = build_policies(24, b"load-routing-%d" % seed)
    events = generate_events("routing", 20, n_events, sorted(topology.asns), seed)
    seqs = [
        event.seq
        for _slot, batch in plan_dispatches(events, n_shards, 4)
        for event in batch
    ]
    assert len(seqs) == len(outcomes) == n_events
    by_seq = list(zip(seqs, outcomes))
    assert collections.Counter(outcomes) == result.outcomes
    return result, plan, by_seq


class TestShardCrashFailover:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_request_silently_lost(self, seed):
        result, plan = _run_with_crash(seed)
        assert plan.log.events, "the plan never fired — test proves nothing"
        assert sum(result.outcomes.values()) == result.served == 60
        assert set(result.outcomes) <= {"ok", "recovered", "failed"}
        # Two shards: the survivor adopts, so nothing may hard-fail.
        assert "failed" not in result.outcomes
        assert result.outcomes.get("recovered", 0) >= 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_failover_rehomes_and_stays_correct(self, seed):
        result, _plan = _run_with_crash(seed)
        rehomed = sum(
            stats.get("rehomed_ases", 0) for stats in result.shard_stats.values()
        )
        assert rehomed > 0

        # Served answers — including post-failover ones — still match
        # the unsharded controller byte for byte.
        topology, policies = build_policies(24, b"load-routing-%d" % seed)
        reference = InterDomainController()
        for policy in policies.values():
            reference.submit_policy(policy)
        reference.compute_routes()
        # Nothing failed, so every event has a reply; its key comes
        # from the regenerated arrival log.
        events = generate_events("routing", 20, 60, sorted(topology.asns), seed)
        assert sorted(result.payloads) == [event.seq for event in events]
        for event in events:
            payload = result.payloads[event.seq]
            assert payload == encode_routes_msg(reference.routes_for(event.key))

    def test_crash_report_still_validates(self):
        result, _plan = _run_with_crash(0)
        assert validate_bench(bench_doc(result)) == []

    def test_single_shard_crash_fails_loudly(self):
        """With S=1 there is nowhere to re-home: remaining events are
        reported as failed — never dropped, never fabricated."""
        self._check_single_shard(plan=None)

    def test_single_shard_mid_run_crash_keeps_served_replies(self):
        """The matrix plan crashes the only shard on the first dispatch;
        at rate 0.2 it crashes part-way, after some events were served."""
        plan = faults.FaultPlan(
            0, [faults.FaultRule(faults.SHARD_CRASH, rate=0.2, max_count=1)]
        )
        result = self._check_single_shard(plan)
        assert result.outcomes.get("ok", 0) >= 1

    @staticmethod
    def _check_single_shard(plan):
        result, plan, by_seq = _outcomes_by_seq(
            0, n_shards=1, n_events=40, plan=plan
        )
        assert plan.log.events
        assert sum(result.outcomes.values()) == result.served == 40
        assert result.outcomes.get("failed", 0) >= 1
        # Every event that did not fail has its reply; no failed one does.
        assert set(result.payloads) == {
            seq for seq, outcome in by_seq if outcome != "failed"
        }
        return result

    def test_plan_is_deterministic(self):
        first, _, first_by_seq = _outcomes_by_seq(0)
        second, _, second_by_seq = _outcomes_by_seq(0)
        assert "recovered" in dict(first_by_seq).values()
        assert first_by_seq == second_by_seq
        assert first.outcomes == second.outcomes
        assert first.payloads == second.payloads
        assert bench_json(first) == bench_json(second)


class TestMatrixIntegration:
    def test_shard_crash_is_a_registered_class(self):
        assert "shard_crash" in faults.FAULT_CLASSES
        plan = faults.matrix_plan("shard_crash", 0)
        assert plan.decide(faults.SHARD_CRASH, "shard:0") is not None
        # max_count=1: the second opportunity must not fire.
        assert plan.decide(faults.SHARD_CRASH, "shard:1") is None

    def test_other_fault_classes_leave_load_unaffected(self):
        """A network-fault plan has no instrumented sites in the load
        path's direct shuttling — the run completes clean."""
        plan = faults.matrix_plan("drop", 0)
        with faults.active(plan):
            result = run_load_engine(
                "routing", n_clients=10, n_shards=2, batch=4, seed=0, n_events=20
            )
        assert result.outcomes == {"ok": 20}
