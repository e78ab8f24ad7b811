"""The modeled-cycle queueing engine behind ``repro load``.

Every clock in here is the cost model's instruction clock — a shard is
"busy" for exactly the modeled cycles its accountant charged while
serving, an event's latency is (completion − arrival) in those same
cycles, and throughput is events per billion modeled cycles.  Nothing
reads wall time, so a seeded run is bit-reproducible anywhere.

The queueing model is open-loop with per-server busy clocks:

* events arrive on the generator's schedule regardless of progress
  (arrival never waits on completion — saturation shows up as growing
  latency, exactly like a real open-loop load test);
* each front slot accumulates events until ``batch`` of them arrived,
  then dispatches them as ONE batched enclave crossing
  (:meth:`~repro.sgx.enclave.Enclave.ecall_batch`);
* service starts at max(last arrival in the batch, server busy-until)
  and every shard the dispatch touched advances its busy clock by the
  cycles *it* charged — a cross-shard query occupies both shards.

There is one engine and it streams: :class:`LoadEngine` folds each
dispatch into busy clocks and aggregates (latency counts, outcome
tallies, replies on request) and keeps no per-event record, so a
million-event run needs O(distinct latencies) memory.  The cohort memo
(:mod:`repro.load.cohorts`) is an optional wrapper around a backend's
``dispatch``; the fold never knows whether a dispatch ran or replayed.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.world import World
from repro.cost.model import DEFAULT_MODEL, cycles as counter_cycles
from repro.errors import ReproError, ShardError
from repro.obs.metrics import metric_count, metric_gauge, metric_observe
from repro.load.clients import ClientEvent, FingerprintTap, generate_events
from repro.load.report import weighted_percentile
from repro.load.shards import ShardedRoutingDeployment

__all__ = [
    "LoadResult",
    "LoadEngine",
    "run_load_engine",
    "make_backend",
    "plan_dispatches",
    "default_n_events",
]


@dataclasses.dataclass
class LoadResult:
    """Everything one load run produced (the BENCH_load.json source)."""

    scenario: str
    n_clients: int
    n_shards: int
    batch: int
    seed: int
    n_events: int
    event_fingerprint: str
    setup_cycles: float           # registration + seal (policy phase)
    makespan_cycles: float
    steady_counters: Dict[str, int]
    shard_stats: Dict[int, Dict[str, int]]
    outcomes: Dict[str, int]
    #: sorted ``(latency, count)`` multiset of event latencies
    latency_samples: List[Tuple[float, int]]
    payloads: Optional[Dict[int, bytes]] = None  # seq -> reply (tests only)
    regions: Optional[int] = None  # two-level tree depth (None = one region)

    @property
    def served(self) -> int:
        """Events through the engine, all outcomes."""
        return sum(self.outcomes.values())

    def percentile(self, p: float) -> float:
        """Deterministic nearest-rank percentile over event latencies."""
        return weighted_percentile(self.latency_samples, p)


def plan_dispatches(
    events: Iterable[ClientEvent], n_slots: int, batch: int
) -> Iterator[Tuple[int, List[ClientEvent]]]:
    """The dispatch plan: ordered ``(slot, batch_events)`` pairs, lazily.

    A pure function of the event log: batch-full flushes as events
    stream in, then leftover slots in sorted order.
    """
    queues: Dict[int, List[ClientEvent]] = {}
    for event in events:
        slot = event.client_id % n_slots
        queue = queues.setdefault(slot, [])
        queue.append(event)
        if len(queue) >= batch:
            yield slot, queues.pop(slot)
    for slot in sorted(queues):
        yield slot, queues[slot]


class _RoutingBackend:
    """Full-fidelity backend: the sharded controller enclaves."""

    scenario = "routing"

    def __init__(
        self,
        n_shards: int,
        batch: int,
        n_ases: int,
        seed: int,
        regions: Optional[int] = None,
    ) -> None:
        self.dep = ShardedRoutingDeployment(
            n_shards,
            n_ases=n_ases,
            seed=b"load-routing-%d" % seed,
            batch=batch,
            regions=regions,
        )
        before = self._cycles()
        self.dep.register_all()
        self.dep.seal()
        self.setup_cycles = sum(self._cycles().values()) - sum(before.values())
        self._snapshots = {
            shard_id: acct.snapshot()
            for shard_id, acct in self.dep.accountants().items()
        }
        self._lost = False

    def keys(self) -> List[int]:
        return sorted(self.dep.topology.asns)

    def _cycles(self) -> Dict[int, float]:
        out = {}
        for shard_id, acct in self.dep.accountants().items():
            model = self.dep.platforms[shard_id].model or DEFAULT_MODEL
            out[shard_id] = counter_cycles(acct.total(), model)
        return out

    def steady_counters(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for shard_id, acct in self.dep.accountants().items():
            for counter in acct.delta(self._snapshots[shard_id]).values():
                for field, value in counter.as_dict().items():
                    total[field] = total.get(field, 0) + value
        return total

    def shard_stats(self) -> Dict[int, Dict[str, int]]:
        return self.dep.shard_stats()

    def dispatch(
        self, slot: int, events: Sequence[ClientEvent], index: int = 0
    ) -> Tuple[Dict[int, float], Dict[int, Tuple[str, Optional[bytes]]]]:
        requests = [(ev.seq, ev.key, ev.op) for ev in events]
        if self._lost:
            return {}, {ev.seq: ("failed", None) for ev in events}
        outcome = "ok"
        try:
            live = self.dep._live_ids()
            front = live[slot % len(live)]
            if self.dep.maybe_crash(front):
                outcome = "recovered"
            for attempt in (0, 1):
                live = self.dep._live_ids()
                front = live[slot % len(live)]
                accountants = self.dep.accountants()
                before = {
                    shard_id: acct.snapshot()
                    for shard_id, acct in accountants.items()
                }
                try:
                    replies = self.dep.serve_batch(front, requests)
                except ShardError:
                    if attempt == 0:
                        outcome = "recovered"
                        continue
                    raise
                # Cycles from this dispatch's own integer counter
                # deltas: a pure function of what the dispatch charged,
                # independent of accumulated float totals — which lets
                # the cohort cache replay them byte-identically.
                costs = {}
                for shard_id, acct in accountants.items():
                    model = self.dep.platforms[shard_id].model or DEFAULT_MODEL
                    cyc = sum(
                        counter_cycles(counter, model)
                        for counter in acct.delta(before[shard_id]).values()
                    )
                    if cyc > 0:
                        costs[shard_id] = cyc
                return costs, {
                    seq: (outcome, replies[seq]) for seq, _a, _o in requests
                }
            raise ShardError("unreachable")  # pragma: no cover
        except ShardError:
            # The deployment is beyond recovery (e.g. the last shard
            # crashed).  Every remaining event fails *loudly*.
            self._lost = True
            return {}, {ev.seq: ("failed", None) for ev in events}


class _TorBackend:
    """Tor circuit-build workload over one phase-2 deployment.

    Shards here are *replica slots* in the queueing model only — the
    deployment is a single Tor network; S models S independent client
    frontends sharing it.  Service cost per event is the measured
    accountant delta across every SGX party in the deployment.
    """

    scenario = "tor"

    def __init__(self, n_shards: int, batch: int, n_ases: int, seed: int) -> None:
        from repro.tor.deployment import TorDeployment, TorDeploymentConfig

        self.dep = TorDeployment(
            TorDeploymentConfig(
                phase=2,
                n_relays=6,
                n_exits=2,
                seed=b"load-tor-%d" % seed,
            )
        )
        self.setup_cycles = 0.0
        self._accts = [
            handle.node.accountant
            for handle in self.dep.relays.values()
            if handle.node is not None
        ] + [
            node.accountant
            for node in self.dep.authority_nodes.values()
            if hasattr(node, "accountant")
        ]
        self._snapshots = [acct.snapshot() for acct in self._accts]

    def keys(self) -> List[int]:
        return list(range(256))

    def _cycles(self) -> float:
        return sum(counter_cycles(acct.total(), DEFAULT_MODEL) for acct in self._accts)

    def steady_counters(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for acct, snap in zip(self._accts, self._snapshots):
            for counter in acct.delta(snap).values():
                for field, value in counter.as_dict().items():
                    total[field] = total.get(field, 0) + value
        return total

    def shard_stats(self) -> Dict[int, Dict[str, int]]:
        return {}

    def dispatch(self, slot, events, index=0):
        costs_total = 0.0
        per_event: Dict[int, Tuple[str, Optional[bytes]]] = {}
        for ev in events:
            payload = b"GET /load/%d/%d" % (ev.key, ev.seq)
            before = self._cycles()
            per_event[ev.seq] = ("failed", None)
            for attempt in (0, 1):
                try:
                    outcome = self.dep.run_client_request(payload=payload)
                except ReproError:
                    if attempt == 0:
                        # The consensus validity window lapsed as the
                        # simulation clock advanced past it; the
                        # authorities publish a fresh epoch (their
                        # normal periodic job) and the client retries.
                        self.dep._make_consensus()
                        continue
                    break
                reply = outcome.get("reply")
                per_event[ev.seq] = (
                    "ok" if outcome.get("intact") else "failed",
                    reply if isinstance(reply, bytes) else None,
                )
                break
            costs_total += self._cycles() - before
        return ({slot: costs_total} if costs_total > 0 else {}), per_event


class _MiddleboxBackend:
    """Middlebox-chain flows; ``batch`` maps to one TLS connection
    carrying K application messages (genuine wire batching).  Shards
    are replica slots, as for Tor.

    Trust roots are per run: one :class:`~repro.core.world.World`,
    built on the first dispatch so serving time pays for it.  Each
    batch is one fresh flow with its own TLS handshake, middlebox
    attestation and key provisioning — what a new flow costs in the
    paper's architecture (Section 3.3: keys are provisioned per session).
    """

    scenario = "middlebox"

    def __init__(self, n_shards: int, batch: int, n_ases: int, seed: int) -> None:
        self._seed = seed
        self._world: Optional[World] = None
        self.setup_cycles = 0.0
        self._counters: Dict[str, int] = {}

    def keys(self) -> List[int]:
        return list(range(256))

    def steady_counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def shard_stats(self) -> Dict[int, Dict[str, int]]:
        return {}

    def dispatch(self, slot, events, index=0):
        from repro.middlebox.scenarios import MiddleboxScenario

        if self._world is None:
            self._world = World(b"load-mbox-%d" % self._seed, "sgx", tls=True)
        # The flow seed is the *dispatch-plan index*, so every tier
        # that walks the same plan builds the exact same flows.
        seed = b"load-mbox-%d-%d" % (self._seed, index)
        scn = MiddleboxScenario(n_middleboxes=1, seed=seed, world=self._world)
        accts = [box.node.accountant for box in scn.middleboxes]
        snapshots = [acct.snapshot() for acct in accts]
        payloads = [b"LOAD:%d:%d" % (ev.seq, ev.key) for ev in events]
        result = scn.run(payloads)
        cost = 0.0
        for acct, snap in zip(accts, snapshots):
            for counter in acct.delta(snap).values():
                cost += counter_cycles(counter, DEFAULT_MODEL)
                for field, value in counter.as_dict().items():
                    self._counters[field] = self._counters.get(field, 0) + value
        per_event: Dict[int, Tuple[str, Optional[bytes]]] = {}
        for i, ev in enumerate(events):
            if i < len(result.replies) and result.replies[i] == b"OK:" + payloads[i]:
                per_event[ev.seq] = ("ok", result.replies[i])
            else:
                per_event[ev.seq] = ("failed", None)
        return ({slot: cost} if cost > 0 else {}), per_event


_BACKENDS = {
    "routing": _RoutingBackend,
    "tor": _TorBackend,
    "middlebox": _MiddleboxBackend,
}

LOAD_SCENARIOS = tuple(sorted(_BACKENDS))


class LoadEngine:
    """Folds one backend's dispatches into busy clocks and aggregates.

    ``backend`` is anything with a backend's ``dispatch(slot, events,
    index)``: a scenario backend, or the cohort memo wrapped around one.
    """

    def __init__(
        self, backend, n_slots: int, batch: int, keep_payloads: bool = False
    ) -> None:
        if n_slots < 1:
            raise ReproError("need at least one slot")
        if batch < 1:
            raise ReproError("batch size must be positive")
        self.backend = backend
        self.n_slots = n_slots
        self.batch = batch
        self.keep_payloads = keep_payloads
        self.busy_until: Dict[int, float] = {}
        self.latency_counts: Dict[float, int] = {}
        self.outcomes: Dict[str, int] = {}
        self.payloads: Dict[int, bytes] = {}

    def run(self, events: Iterable[ClientEvent]) -> None:
        for index, (slot, batch_events) in enumerate(
            plan_dispatches(events, self.n_slots, self.batch)
        ):
            self._flush(slot, batch_events, index)

    def _flush(self, slot: int, batch_events: List[ClientEvent], index: int) -> None:
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
        # The dispatching slot is occupied for the whole exchange even
        # when the measured cost landed on other servers' clocks.
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
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            self.latency_counts[latency] = (
                self.latency_counts.get(latency, 0) + 1
            )


def default_n_events(scenario: str, n_clients: int) -> int:
    """The event count used when the caller leaves it unspecified."""
    # Full-fidelity routing serves cheap lookups; the simulator-
    # backed scenarios pay a whole network round per event.
    return n_clients if scenario == "routing" else min(n_clients, 24)


def make_backend(
    scenario: str,
    n_shards: int,
    batch: int,
    n_ases: int,
    seed: int,
    regions: Optional[int] = None,
):
    """Instantiate the scenario backend (regions = routing-only)."""
    backend_class = _BACKENDS.get(scenario)
    if backend_class is None:
        raise ReproError(
            f"unknown load scenario '{scenario}' (have {', '.join(LOAD_SCENARIOS)})"
        )
    if regions is not None and scenario != "routing":
        raise ReproError("--regions only applies to the routing scenario")
    if scenario == "routing":
        return backend_class(n_shards, batch, n_ases, seed, regions=regions)
    return backend_class(n_shards, batch, n_ases, seed)


def _serve_load(
    arrivals: Callable[..., Iterable[ClientEvent]],
    memo: Optional[Callable],
    scenario: str,
    n_clients: int,
    n_shards: int,
    batch: int,
    seed: int,
    n_events: Optional[int],
    n_ases: int,
    keep_payloads: bool,
    regions: Optional[int],
) -> LoadResult:
    """Build a backend, serve the seeded arrivals, package the result.

    ``arrivals`` is :func:`~repro.load.clients.generate_events` or
    :func:`~repro.load.clients.iter_events` (same signature, same
    events); ``memo``, if given, wraps the backend's ``dispatch``.
    """
    if n_events is None:
        n_events = default_n_events(scenario, n_clients)
    backend = make_backend(scenario, n_shards, batch, n_ases, seed, regions)
    tap = FingerprintTap(
        arrivals(scenario, n_clients, n_events, backend.keys(), seed)
    )
    engine = LoadEngine(
        memo(backend) if memo is not None else backend,
        n_shards,
        batch,
        keep_payloads,
    )
    engine.run(tap)
    return LoadResult(
        scenario=scenario,
        n_clients=n_clients,
        n_shards=n_shards,
        batch=batch,
        seed=seed,
        n_events=n_events,
        event_fingerprint=tap.hexdigest(),
        setup_cycles=backend.setup_cycles,
        makespan_cycles=max(engine.busy_until.values(), default=0.0),
        steady_counters=backend.steady_counters(),
        shard_stats=backend.shard_stats(),
        outcomes=engine.outcomes,
        latency_samples=sorted(engine.latency_counts.items()),
        payloads=engine.payloads if keep_payloads else None,
        regions=regions,
    )


def run_load_engine(
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
    """One load run where every dispatch executes for real.

    The whole arrival schedule is drawn before the engine starts, so a
    caller timing the run can tell set-up from serving.
    """
    return _serve_load(
        generate_events, None, scenario, n_clients, n_shards, batch, seed,
        n_events, n_ases, keep_payloads, regions,
    )
