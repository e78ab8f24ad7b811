"""The cohort tier: million-client load folds without per-client replay.

Statistically identical clients are folded into *cohorts*: once one
dispatch with a given signature has executed for real, every later
dispatch with the same signature replays it.  A replay charges the
cold run's exact per-domain integer counter deltas
(:meth:`~repro.cost.accountant.CostAccountant.charge_burst` is pinned
exactly equivalent to the itemized charges), bumps the same shard
stats and moves the inter-shard channels to where the dispatch would
have left them — so the report is byte-identical to per-client
replay, which ``tests/load/test_cohorts.py`` enforces.

**Signature.**  A dispatch's *base* is its sorted dead-shard set,
front shard, ``(op, key)`` tuple and live channel sessions.  The first
capture of a base measures, per channel, the sequence numbers and the
keystream bytes ``N`` each direction consumes.  A CTR stream refills
with the fewest blocks that cover a request, so from byte offset ``o``
the ``N`` bytes draw ``ceil((o + N) / 16) - ceil(o / 16)`` AES blocks
however they split into records; the signature is the base plus those
block counts (at most four per base with one query and one reply
stream; ECB channels draw none).  A later capture of a base that
consumes different bytes is not memoized.

**Replay.**  A hit charges the captured burst, adds the stat and
sequence deltas on both endpoints, and moves the four streams past the
consumed bytes with :meth:`~repro.crypto.modes.CtrStream.skip` (at
most one block computed each, nothing charged).

The cache is bypassed while a fault plan can still fire (decisions
consume plan state; an exhausted plan's ``decide`` is a no-op) and on
a lost deployment.  Under a metrics registry every real dispatch that
is not memoized is counted by reason: ``load_cohort_bypass_faults``,
``load_cohort_bypass_lost`` or ``load_cohort_uncacheable`` (a
non-``ok`` outcome or a base's traffic changing).

Only the flat routing backend is cached: the middlebox backend seeds
each flow by dispatch index, Tor couples to the global simulation
clock, and the two-level tree's relay charges depend on head liveness
— those run through the same streaming fold uncached.
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


def _positions(channels) -> List[tuple]:
    """Per channel, its sequence numbers and keystream byte offsets."""
    out = []
    for _sid, chan, _peer in channels:
        if chan.cipher == "ecb":
            out.append((chan._send_seq, chan._recv_seq, 0, 0))
            continue
        send, recv = chan._send_stream, chan._recv_stream
        out.append((
            chan._send_seq,
            chan._recv_seq,
            16 * send._counter - len(send._buffer),
            16 * recv._counter - len(recv._buffer),
        ))
    return out


def _blocks(positions, traffic) -> tuple:
    """Per stream, the AES blocks ``traffic`` draws from ``positions``."""
    return tuple(
        -(-(offset + n) // 16) + (-offset // 16)
        for position, consumed in zip(positions, traffic)
        for offset, n in zip(position[2:], consumed[2:])
    )


class _CohortCache:
    """Dispatch-replay cache wrapped around a flat routing backend."""

    def __init__(self, backend) -> None:
        self._backend = backend
        #: base -> per live channel, the (send seqs, recv seqs, send
        #: bytes, recv bytes) its first capture consumed
        self._traffic: Dict[tuple, tuple] = {}
        #: (base, blocks) -> (costs, per-shard per-domain counter
        #: deltas, per-shard stat deltas, per-event (outcome, payload) row)
        self._entries: Dict[tuple, tuple] = {}

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def _channels(self) -> List[tuple]:
        """``(session_id, lower endpoint, upper endpoint)`` per live pair."""
        dep = self._backend.dep
        return [
            (
                session_id,
                dep.enclaves[a]._program._sessions[session_id].channel,
                dep.enclaves[b]._program._sessions[session_id].channel,
            )
            for (a, b), session_id in sorted(dep.sessions.items())
            if a < b and a not in dep.dead and b not in dep.dead
        ]

    def dispatch(self, slot: int, events, index: int = 0):
        if self._backend._lost:
            metric_count("load_cohort_bypass_lost")
            return self._backend.dispatch(slot, events, index)
        plan = faults.current_plan()
        if plan is not None and not plan.exhausted():
            metric_count("load_cohort_bypass_faults")
            return self._backend.dispatch(slot, events, index)
        dep = self._backend.dep
        live = dep._live_ids()
        channels = self._channels()
        base = (
            tuple(sorted(dep.dead)),
            live[slot % len(live)],
            tuple((ev.op, ev.key) for ev in events),
            tuple(session_id for session_id, _chan, _peer in channels),
        )
        positions = _positions(channels)
        traffic = self._traffic.get(base)
        if traffic is not None:
            entry = self._entries.get((base, _blocks(positions, traffic)))
            if entry is not None:
                metric_count("load_cohort_hits")
                return self._replay(events, entry, channels, traffic)
        metric_count("load_cohort_misses")
        result = self._capture(
            base, traffic, channels, positions, slot, events, index
        )
        metric_gauge("load_cohort_cache_size", len(self._entries))
        return result

    def _capture(
        self, base, traffic, channels, positions, slot, events, index
    ):
        dep = self._backend.dep
        accountants = dep.accountants()
        acct_before = {
            shard_id: acct.snapshot() for shard_id, acct in accountants.items()
        }
        stats_before = {
            shard_id: dict(vars(dep.enclaves[shard_id]._program._core.stats))
            for shard_id in dep._live_ids()
        }
        costs, per_event = self._backend.dispatch(slot, events, index)
        rows = [per_event[ev.seq] for ev in events]
        measured = None
        if all(outcome == "ok" for outcome, _payload in rows):
            measured = tuple(
                tuple(after - before for after, before in zip(now, then))
                for now, then in zip(_positions(channels), positions)
            )
        if measured is None or traffic not in (None, measured):
            # Something moved deployment state (unreachable without an
            # active plan), or the base's channel traffic changed: the
            # charges are not the base's to share.
            metric_count("load_cohort_uncacheable")
            return costs, per_event
        self._traffic[base] = measured
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
        self._entries[(base, _blocks(positions, measured))] = (
            dict(costs), acct_delta, stats_delta, rows
        )
        return costs, per_event

    def _replay(self, events, entry: tuple, channels, traffic):
        costs, acct_delta, stats_delta, rows = entry
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
        # The replay harness is part of the simulator, not the modeled
        # host, so it may move channel state past the ecall boundary.
        for (_sid, chan, peer), (d_send, d_recv, n_send, n_recv) in zip(
            channels, traffic
        ):
            chan._send_seq += d_send
            peer._recv_seq += d_send
            chan._recv_seq += d_recv
            peer._send_seq += d_recv
            if chan.cipher != "ecb":
                chan._send_stream.skip(n_send)
                peer._recv_stream.skip(n_send)
                chan._recv_stream.skip(n_recv)
                peer._send_stream.skip(n_recv)
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
