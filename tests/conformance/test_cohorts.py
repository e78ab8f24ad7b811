"""The cohort memo <-> per-client equivalence suite (the memo's gate).

The cohort memo (:mod:`repro.load.cohorts`) is only allowed to be an
optimization: its ``BENCH_load.json`` must be byte-identical to the
per-client engine's, and its steady counters, per-shard stats and
outcome tallies integer-equal.  The knob lattice (``test_lattice.py``)
samples the memo in every combination with the other fast paths; here
a pinned grid holds the shapes CI promises explicitly, across all
three scenarios and flat and two-level shard trees, against the
memo-less engine, and a lock-step walk compares accountant snapshots
after every dispatch, not just at the end.
"""

import pytest

from repro.load.clients import FingerprintTap, generate_events
from repro.load.cohorts import _CohortCache, run_load_cohorts
from repro.load.engine import (
    LoadEngine,
    make_backend,
    plan_dispatches,
    run_load_engine,
)
from repro.obs.export import folded_stacks, trace_event_json
from repro.obs.slo import export_health_timeseries, run_health
from tests.conformance.harness import (
    Knobs,
    assert_matches,
    load,
    without_cohort_families,
)


def assert_equivalent(
    scenario: str,
    clients: int,
    shards: int,
    batch: int,
    seed: int,
    regions=None,
) -> None:
    """The memo's outputs equal the per-client engine's at this shape."""
    assert_matches(
        load(scenario, clients, shards, batch, regions=regions),
        seed, None, Knobs(memo=True), baseline=Knobs(),
    )


class TestPinnedGrid:
    """The explicit shapes CI promises, beside the lattice's samples."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_routing(self, seed, batch):
        assert_equivalent("routing", 40, 3, batch, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tor(self, seed):
        assert_equivalent("tor", 24, 2, 4, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_middlebox(self, seed):
        assert_equivalent("middlebox", 24, 2, 4, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_routing_two_level_tree(self, seed):
        assert_equivalent("routing", 40, 4, 2, seed, regions=2)

    def test_single_shard(self):
        assert_equivalent("routing", 30, 1, 4, 0)

    def test_unbatched_tree(self):
        assert_equivalent("routing", 30, 6, 1, 0, regions=3)


def _channel_state(dep) -> dict:
    """Sequence numbers and CTR stream state of every live endpoint."""
    state = {}
    for (a, b), session_id in sorted(dep.sessions.items()):
        if a in dep.dead or b in dep.dead:
            continue
        chan = dep.enclaves[a]._program._sessions[session_id].channel
        streams = ()
        if chan.cipher != "ecb":
            streams = tuple(
                (stream._counter, stream._buffer)
                for stream in (chan._send_stream, chan._recv_stream)
            )
        state[(a, b)] = (session_id, chan._send_seq, chan._recv_seq, streams)
    return state


class TestLockstep:
    """Dispatch-granular equivalence: one engine steps through the memo
    and one without it; counters, channel sequence numbers, keystream
    positions and the fold's clocks and aggregates match after *every*
    step, so a cache bug cannot hide behind later compensating errors."""

    @staticmethod
    def _walk(clients, n_events, shards, batch) -> float:
        """Step both tiers in lock-step; return the share of hits."""
        scenario, seed = "routing", 0
        ref = make_backend(scenario, shards, batch, 24, seed)
        coh = make_backend(scenario, shards, batch, 24, seed)
        executed = []
        real_dispatch = coh.dispatch

        def counting_dispatch(*args):
            executed.append(args[2])
            return real_dispatch(*args)

        coh.dispatch = counting_dispatch
        cached = _CohortCache(coh)
        events = generate_events(scenario, clients, n_events, ref.keys(), seed)
        plan = list(plan_dispatches(events, shards, batch))
        ref_engine = LoadEngine(ref, shards, batch, keep_payloads=True)
        coh_engine = LoadEngine(cached, shards, batch, keep_payloads=True)
        for index, (slot, batch_events) in enumerate(plan):
            ref_engine._flush(slot, list(batch_events), index)
            coh_engine._flush(slot, list(batch_events), index)
            ref_counters = {
                sid: {d: c.as_dict() for d, c in acct.snapshot().items()}
                for sid, acct in ref.dep.accountants().items()
            }
            coh_counters = {
                sid: {d: c.as_dict() for d, c in acct.snapshot().items()}
                for sid, acct in coh.dep.accountants().items()
            }
            assert ref_counters == coh_counters, f"diverged at dispatch {index}"
            assert _channel_state(ref.dep) == _channel_state(coh.dep), (
                f"channel state diverged at dispatch {index}"
            )
            assert ref_engine.busy_until == coh_engine.busy_until
            assert ref_engine.latency_counts == coh_engine.latency_counts
            assert ref_engine.outcomes == coh_engine.outcomes
            assert ref_engine.payloads == coh_engine.payloads
        assert len(cached._entries) > 0  # the cache actually engaged
        return 1 - len(executed) / len(plan)

    def test_counters_integer_equal_after_every_dispatch(self):
        self._walk(clients=40, n_events=40, shards=3, batch=4)

    def test_bench_shape_state_equal_after_every_dispatch(self):
        # the bench routing_scale shape, where most dispatches replay
        hit_share = self._walk(
            clients=100_000, n_events=400, shards=2, batch=1
        )
        assert hit_share >= 0.6


class TestAggregateResult:
    """The cohort tier's LoadResult carries aggregates, not a log."""

    def test_no_materialized_events_but_same_fingerprint(self):
        cohort = run_load_cohorts("routing", 30, 2, 4, 0)
        client = run_load_engine("routing", 30, 2, 4, 0)
        assert not hasattr(cohort, "events")
        assert cohort.event_fingerprint == client.event_fingerprint
        assert cohort.served == client.served == 30
        assert cohort.latency_samples == client.latency_samples

    def test_streaming_fingerprint_matches_materialized(self):
        from repro.load.clients import event_log_fingerprint, iter_events

        keys = make_backend("routing", 1, 1, 24, 7).keys()
        events = generate_events("routing", 20, 20, keys, 7)
        tap = FingerprintTap(iter_events("routing", 20, 20, keys, 7))
        assert list(tap) == events
        assert tap.hexdigest() == event_log_fingerprint(events)

    def test_cache_hits_counted(self):
        from repro import obs
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(interval=10_000_000)
        tracer = obs.Tracer(metrics=registry)
        with obs.tracing(tracer):
            # batch 1 keeps the signature space small enough that a
            # 200-client population genuinely repeats dispatches
            run_load_cohorts("routing", 200, 2, 1, 0)
        assert registry.total("load_cohort_hits") > 0
        assert registry.total("load_cohort_misses") > 0

    def test_bench_shape_mostly_replays(self):
        from repro import obs
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(interval=10_000_000)
        with obs.tracing(obs.Tracer(metrics=registry)):
            run_load_cohorts("routing", 100_000, 2, 1, 1, n_events=2000)
        misses = registry.total("load_cohort_misses")
        dispatches = misses + registry.total("load_cohort_hits")
        assert dispatches == 2000
        assert misses <= 0.10 * dispatches


class TestObservedReplay:
    """A replayed dispatch re-issues the charge-log records the real one
    appended, in order: a metrics sample that falls inside a dispatch,
    every ``record*`` family the channels count, and every span and
    instant of the trace read the same with and without the memo."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_health_export_matches_per_client(self, batch, seed):
        client = run_health("routing", seed=seed, batch=batch)
        cohort = run_health("routing", seed=seed, batch=batch, cohorts=True)
        if batch == 1:
            assert cohort.registry.total("load_cohort_hits") > 0
        assert without_cohort_families(
            export_health_timeseries(cohort)
        ) == without_cohort_families(export_health_timeseries(client))
        assert trace_event_json(cohort.tracer) == trace_event_json(client.tracer)
        assert folded_stacks(cohort.tracer) == folded_stacks(client.tracer)
