"""The cohort tier: million-client load folds without per-client replay.

Statistically identical clients are folded into *cohorts*: once one
dispatch with a given observable signature — front shard, (op, key)
sequence, dead-shard set, channel keystream positions — has executed
for real, every later dispatch with the same signature carries a count
instead of re-executing.  A replayed dispatch charges the cold run's
exact per-domain integer counter deltas (:meth:`~repro.cost.accountant.
CostAccountant.charge_burst` is pinned exactly equivalent to the
itemized charges), bumps the same program-internal shard stats, and
fast-forwards the inter-shard channels through
:meth:`~repro.load.engine._RoutingBackend.skip_dispatch` — so the
accountants, shard stats and queueing fold are integer-for-integer
identical to per-client replay, which the hypothesis equivalence suite
(``tests/load/test_cohorts.py``) enforces byte-for-byte on the report.

Correctness of the cache rests on three properties the repo already
pins elsewhere:

* dispatch charges are position-independent given channel keystream
  leftovers (the lock-step suite compares counters after every
  dispatch);
* ``charge_burst`` is exactly equivalent to itemized charging,
  including what a tracer observes (the accountant tests);
* an exhausted fault plan's ``decide`` is a pure no-op, so caching is
  only bypassed while a plan can still fire (the fault-matrix tests).

Dispatches are cached only for the flat routing backend: the
middlebox backend seeds each flow by dispatch index, Tor couples to
the global simulation clock, and the two-level tree's relay charges
depend on head liveness — those run through the same streaming fold
uncached (correct, just without the replay speedup).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro import faults
from repro.load.clients import ClientEvent, FingerprintTap, iter_events
from repro.load.engine import (
    LoadEngine,
    LoadResult,
    default_n_events,
    make_backend,
)
from repro.obs.metrics import metric_count, metric_gauge, metric_observe

__all__ = ["CohortLoadEngine", "run_load_cohorts"]


class _CohortCache:
    """Dispatch-replay cache wrapped around a flat routing backend."""

    def __init__(self, backend) -> None:
        self._backend = backend
        #: signature -> (costs, per-shard per-domain counter deltas,
        #: per-shard stat deltas, per-event (outcome, payload) row)
        self._entries: Dict[tuple, tuple] = {}

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def _signature(self, slot: int, events) -> tuple:
        dep = self._backend.dep
        live = dep._live_ids()
        front = live[slot % len(live)]
        channels = []
        for (a, b), session_id in sorted(dep.sessions.items()):
            if a >= b or a in dep.dead or b in dep.dead:
                continue
            chan = dep.enclaves[a]._program._sessions[session_id].channel
            if chan.cipher == "ecb":
                channels.append((session_id, -1, -1))
            else:
                channels.append(
                    (
                        session_id,
                        len(chan._send_stream._buffer),
                        len(chan._recv_stream._buffer),
                    )
                )
        return (
            tuple(sorted(dep.dead)),
            front,
            tuple((ev.op, ev.key) for ev in events),
            tuple(channels),
        )

    def dispatch(self, slot: int, events, index: int = 0):
        plan = faults.current_plan()
        if self._backend._lost or (plan is not None and not plan.exhausted()):
            # A live fault plan makes dispatch outcomes order-dependent
            # (crash decisions consume plan state); a lost deployment
            # is pure bookkeeping.  Neither is cacheable.
            return self._backend.dispatch(slot, events, index)
        key = self._signature(slot, events)
        entry = self._entries.get(key)
        if entry is not None:
            metric_count("load_cohort_hits")
            return self._replay(slot, events, index, entry)
        metric_count("load_cohort_misses")
        result = self._capture(key, slot, events, index)
        metric_gauge("load_cohort_cache_size", len(self._entries))
        return result

    def _chan_seqs(self) -> List[tuple]:
        dep = self._backend.dep
        out = []
        for (a, b), session_id in sorted(dep.sessions.items()):
            if a >= b or a in dep.dead or b in dep.dead:
                continue
            chan = dep.enclaves[a]._program._sessions[session_id].channel
            out.append((session_id, chan._send_seq, chan._recv_seq))
        return out

    def _capture(self, key: tuple, slot: int, events, index: int):
        dep = self._backend.dep
        accountants = dep.accountants()
        acct_before = {
            shard_id: acct.snapshot() for shard_id, acct in accountants.items()
        }
        stats_before = {
            shard_id: dict(vars(dep.enclaves[shard_id]._program._core.stats))
            for shard_id in dep._live_ids()
        }
        seqs_before = self._chan_seqs()
        costs, per_event = self._backend.dispatch(slot, events, index)
        rows = [per_event[ev.seq] for ev in events]
        if any(outcome != "ok" for outcome, _payload in rows):
            # Something unexpected moved deployment state (should be
            # unreachable without an active plan) — don't memoize it.
            return costs, per_event
        acct_delta = {}
        for shard_id, acct in accountants.items():
            domains = {
                domain: counter
                for domain, counter in acct.delta(acct_before[shard_id]).items()
                if any(counter.as_dict().values())
            }
            if domains:
                acct_delta[shard_id] = domains
        stats_delta = {}
        for shard_id, before in stats_before.items():
            after = vars(dep.enclaves[shard_id]._program._core.stats)
            fields = {
                field: after[field] - value
                for field, value in before.items()
                if after[field] != value
            }
            if fields:
                stats_delta[shard_id] = fields
        touched_channels = self._chan_seqs() != seqs_before
        self._entries[key] = (
            dict(costs), acct_delta, stats_delta, rows, touched_channels
        )
        return costs, per_event

    def _replay(self, slot: int, events, index: int, entry: tuple):
        costs, acct_delta, stats_delta, rows, touched_channels = entry
        dep = self._backend.dep
        accountants = dep.accountants()
        for shard_id in sorted(acct_delta):
            acct = accountants[shard_id]
            for domain, counter in acct_delta[shard_id].items():
                with acct.attribute(domain):
                    acct.charge_burst(
                        sgx=counter.sgx_instructions,
                        normal=counter.normal_instructions,
                        crossings=counter.enclave_crossings,
                        allocations=counter.allocations,
                        switchless=counter.switchless_calls,
                        faults=counter.faults_injected,
                    )
        for shard_id in sorted(stats_delta):
            stats = dep.enclaves[shard_id]._program._core.stats
            for field, delta in stats_delta[shard_id].items():
                setattr(stats, field, getattr(stats, field) + delta)
        if touched_channels:
            # Channel sequence numbers and keystream positions advance
            # exactly as the executed dispatch would have advanced them.
            self._backend.skip_dispatch(slot, events, index)
        per_event = {
            ev.seq: rows[i] for i, ev in enumerate(events)
        }
        return dict(costs), per_event


class CohortLoadEngine(LoadEngine):
    """The streaming cohort fold: same clocks, aggregate accumulators.

    Runs the exact dispatch plan :func:`~repro.load.engine.
    plan_dispatches` defines (batch-full flushes as events stream in,
    then leftover slots in sorted order) with the identical busy-clock
    arithmetic as :class:`~repro.load.engine.LoadEngine._flush`, but
    accumulates ``latency -> count`` and outcome tallies instead of
    materializing an :class:`~repro.load.engine.EventRecord` per
    event — O(distinct latencies) memory for a million-event run.
    """

    def __init__(
        self, backend, n_slots: int, batch: int, keep_payloads: bool = False
    ) -> None:
        super().__init__(backend, n_slots, batch)
        self.keep_payloads = keep_payloads
        self.latency_counts: Dict[float, int] = {}
        self.outcomes: Dict[str, int] = {}
        self.n_served = 0

    def run_stream(self, events: Iterable[ClientEvent]) -> None:
        queues: Dict[int, List[ClientEvent]] = {}
        index = 0
        for event in events:
            slot = event.client_id % self.n_slots
            queue = queues.setdefault(slot, [])
            queue.append(event)
            if len(queue) >= self.batch:
                self._fold(slot, queues.pop(slot), index)
                index += 1
        for slot in sorted(queues):
            self._fold(slot, queues[slot], index)
            index += 1

    def _fold(
        self, slot: int, batch_events: List[ClientEvent], index: int
    ) -> None:
        start = max(
            self.busy_until.get(slot, 0.0),
            float(batch_events[-1].arrival),
        )
        costs, per_event = self.backend.dispatch(slot, batch_events, index)
        completion = start
        for server, cost in sorted(costs.items()):
            t = max(self.busy_until.get(server, 0.0), start) + cost
            self.busy_until[server] = t
            completion = max(completion, t)
        self.busy_until[slot] = max(self.busy_until.get(slot, 0.0), completion)
        metric_gauge(
            "load_busy_slots",
            sum(1 for t in self.busy_until.values() if t > start),
        )
        for event in batch_events:
            outcome, payload = per_event[event.seq]
            metric_count("load_events")
            if outcome != "ok":
                metric_count(f"load_events_{outcome}")
            latency = completion - event.arrival
            metric_observe("load_latency_cycles", latency)
            metric_observe("load_queue_wait_cycles", start - event.arrival)
            if payload is not None and self.keep_payloads:
                self.payloads[event.seq] = payload
            self.n_served += 1
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            self.latency_counts[latency] = (
                self.latency_counts.get(latency, 0) + 1
            )


def run_load_cohorts(
    scenario: str,
    n_clients: int,
    n_shards: int,
    batch: int,
    seed: int,
    n_events: Optional[int] = None,
    n_ases: int = 24,
    keep_payloads: bool = False,
    regions: Optional[int] = None,
) -> LoadResult:
    """Cohort-tier twin of :func:`~repro.load.engine.run_load_engine`.

    Same backend, same seeded event stream, same dispatch plan, same
    busy-clock fold — but events stream through without materializing
    the log and repeat dispatches replay from the cohort cache.  The
    returned :class:`LoadResult` carries aggregate fields
    (``n_served``, ``latency_samples``) instead of per-event records;
    its ``bench_json`` is byte-identical to the per-client tier's.
    """
    if n_events is None:
        n_events = default_n_events(scenario, n_clients)
    backend = make_backend(scenario, n_shards, batch, n_ases, seed, regions)
    dispatcher = backend
    if scenario == "routing" and regions is None:
        dispatcher = _CohortCache(backend)
    tap = FingerprintTap(
        iter_events(scenario, n_clients, n_events, backend.keys(), seed)
    )
    engine = CohortLoadEngine(
        dispatcher, n_shards, batch, keep_payloads=keep_payloads
    )
    engine.run_stream(tap)
    makespan = max(
        [engine.busy_until.get(s, 0.0) for s in engine.busy_until] or [0.0]
    )
    return LoadResult(
        scenario=scenario,
        n_clients=n_clients,
        n_shards=n_shards,
        batch=batch,
        seed=seed,
        n_events=n_events,
        events=[],
        event_fingerprint=tap.hexdigest(),
        setup_cycles=backend.setup_cycles,
        makespan_cycles=makespan,
        steady_counters=backend.steady_counters(),
        shard_stats=backend.shard_stats(),
        outcomes=engine.outcomes,
        payloads=dict(engine.payloads) if keep_payloads else None,
        regions=regions,
        n_served=engine.n_served,
        latency_samples=sorted(engine.latency_counts.items()),
    )
