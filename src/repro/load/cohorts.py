"""The cohort memo: million-client load folds without per-client replay.

Statistically identical clients are folded into *cohorts*: once one
dispatch with a given signature has executed for real, every later
dispatch with the same signature replays it.  :class:`_CohortCache`
wraps a backend's ``dispatch`` and the one streaming
:class:`~repro.load.engine.LoadEngine` folds its results like any
other; ``--cohorts`` (:func:`run_load_cohorts`) is what puts it in
front of the backend.  A replay moves every accountant by the cold
run's exact per-domain integer counter deltas, bumps the same shard
stats and moves the inter-shard channels to where the dispatch would
have left them — so the report is byte-identical to per-client
replay, which ``tests/conformance/test_cohorts.py`` enforces.

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

**Replay.**  A hit adds the captured counter, stat and sequence
deltas on both endpoints, and moves the four streams past the
consumed bytes with :meth:`~repro.crypto.modes.CtrStream.skip` (at
most one block computed each, nothing charged).  Under a tracer the
capture also keeps the slice of the charge log the dispatch appended
— charges, instants, fields, spans and metric records — and a hit
re-issues it in order, so every metrics sample, including one that
falls inside the dispatch, reads what per-client replay reads.

The cache is bypassed while a fault plan can still fire (decisions
consume plan state; an exhausted plan's ``decide`` is a no-op) and on
a lost deployment.  Under a metrics registry every real dispatch that
is not memoized is counted by reason: ``load_cohort_bypass_faults``,
``load_cohort_bypass_lost`` or ``load_cohort_uncacheable`` (a
non-``ok`` outcome or a base's traffic changing).

Only the default (``regions=None``) routing backend is memoized: the
middlebox backend seeds each flow by dispatch index, Tor couples to
the global simulation clock, and a multi-region tree's relay charges
depend on head liveness — those, and any run given ``regions``,
stream through the same engine unmemoized.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import faults
from repro.load.clients import iter_events
from repro.load.engine import LoadEngine, LoadResult, _serve_load
from repro.obs.metrics import metric_count, metric_gauge

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
    """Dispatch-replay cache wrapped around a one-region routing backend."""

    def __init__(self, backend) -> None:
        self._backend = backend
        #: base -> per live channel, the (send seqs, recv seqs, send
        #: bytes, recv bytes) its first capture consumed
        self._traffic: Dict[tuple, tuple] = {}
        #: (base, blocks) -> (costs, per-shard per-domain counter
        #: deltas, per-shard stat deltas, per-event (outcome, payload)
        #: row, the dispatch's charge-log records or ``None``)
        self._entries: Dict[tuple, tuple] = {}
        #: The tracer observing the deployment's accountants, if any.
        self._tracer = next(iter(backend.dep.accountants().values())).tracer

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
        mark = self._tracer.mark() if self._tracer is not None else 0
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
        records = (
            self._tracer.records(mark) if self._tracer is not None else None
        )
        self._entries[(base, _blocks(positions, measured))] = (
            dict(costs), acct_delta, stats_delta, rows, records
        )
        return costs, per_event

    def _replay(self, events, entry: tuple, channels, traffic):
        costs, acct_delta, stats_delta, rows, records = entry
        dep = self._backend.dep
        accountants = dep.accountants()
        # The accountants move by the captured per-domain sums without
        # logging; under a tracer the captured records stand in for the
        # charges, in the order the real dispatch made them.
        for shard_id, domains in acct_delta.items():
            acct = accountants[shard_id]
            for domain, delta in domains.items():
                counter = acct.counter(domain)
                counter += delta
        if records:
            self._tracer.reissue(records)
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
    """The one :class:`~repro.load.engine.LoadEngine`, under its old name.

    ``bench/`` times ``CohortLoadEngine.run_stream`` by patching the
    name in this class's own namespace, so the alias stays until the
    benchmark's span list is updated.  Nothing in ``repro`` uses it.
    """

    run_stream = LoadEngine.run


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
    """:func:`~repro.load.engine.run_load_engine` through the cohort memo.

    The arrivals stream through the engine without materializing the
    log, and the default routing backend's repeat dispatches replay from
    :class:`_CohortCache`; the report is byte-identical to the
    per-client run's.
    """
    memo = _CohortCache if scenario == "routing" and regions is None else None
    return _serve_load(
        iter_events, memo, scenario, n_clients, n_shards, batch, seed,
        n_events, n_ases, keep_payloads, regions,
    )
