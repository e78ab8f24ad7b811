"""Seeded open-loop client population generator.

Produces the event log a load run replays: ``n_clients`` independent
clients emitting requests on an open loop (arrivals do not wait for
completions — the defining property of a throughput test).  All
arithmetic is integer and every draw comes from the deterministic
:class:`~repro.crypto.drbg.Rng`, so the same seed yields the same
event log byte for byte; the load tests pin this with hypothesis.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Iterable, Iterator, List, Sequence

from repro.crypto.drbg import Rng
from repro.errors import ReproError

__all__ = [
    "ClientEvent",
    "FingerprintTap",
    "generate_events",
    "iter_events",
    "event_log_fingerprint",
    "streaming_fingerprint",
]


@dataclasses.dataclass(frozen=True)
class ClientEvent:
    """One client request in the open-loop arrival stream."""

    seq: int          #: position in the arrival order (0-based)
    client_id: int    #: which client issued it
    arrival: int      #: arrival time in modeled cycles (non-decreasing)
    op: str           #: operation name (scenario-specific)
    key: int          #: request key (ASN / path draw / flow id)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "client_id": self.client_id,
            "arrival": self.arrival,
            "op": self.op,
            "key": self.key,
        }


def generate_events(
    scenario: str,
    n_clients: int,
    n_events: int,
    keys: Sequence[int],
    seed: int,
    mean_gap: int = 200_000,
) -> List[ClientEvent]:
    """The deterministic open-loop arrival stream.

    ``keys`` is the request key space (participant ASNs for routing,
    opaque ids otherwise); each event draws one uniformly.  Inter-
    arrival gaps are uniform integers in ``[1, 2*mean_gap)`` — mean
    ``mean_gap`` modeled cycles between arrivals, integer-only so the
    log is platform-independent.
    """
    return list(
        iter_events(scenario, n_clients, n_events, keys, seed, mean_gap)
    )


def iter_events(
    scenario: str,
    n_clients: int,
    n_events: int,
    keys: Sequence[int],
    seed: int,
    mean_gap: int = 200_000,
) -> Iterator[ClientEvent]:
    """Streaming form of :func:`generate_events` — same draws, same
    events, O(1) memory.  The million-client cohort tier folds this
    stream without ever materializing the log; ``generate_events`` is
    exactly ``list(iter_events(...))``, so the two can never drift.
    """
    if n_clients < 1:
        raise ReproError("need at least one client")
    if n_events < 1:
        raise ReproError("need at least one event")
    if not keys:
        raise ReproError("empty request key space")
    if mean_gap < 1:
        raise ReproError("mean_gap must be positive")
    rng = Rng(seed.to_bytes(8, "big"), f"load-{scenario}")
    ops = _SCENARIO_OPS.get(scenario)
    if ops is None:
        raise ReproError(f"unknown load scenario '{scenario}'")
    clock = 0
    for seq in range(n_events):
        clock += rng.randint(1, 2 * mean_gap - 1)
        yield ClientEvent(
            seq=seq,
            client_id=rng.randint(0, n_clients - 1),
            arrival=clock,
            op=ops[rng.randint(0, len(ops) - 1)],
            key=keys[rng.randint(0, len(keys) - 1)],
        )


#: Operation mix per scenario.  Routing clients overwhelmingly ask for
#: routes (registration happens in the deployment's setup phase and is
#: charged there); a small fraction re-registers, exercising the
#: controller's byte-identical failover path under load.
_SCENARIO_OPS = {
    "routing": (
        "route_request",
        "route_request",
        "route_request",
        "route_request",
        "route_request",
        "route_request",
        "route_request",
        "re_register",
    ),
    "tor": ("circuit_build",),
    "middlebox": ("flow",),
}


def event_log_fingerprint(events: Sequence[ClientEvent]) -> str:
    """Stable digest of an event log (what determinism tests compare)."""
    blob = json.dumps(
        [event.as_dict() for event in events],
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()


class FingerprintTap:
    """Wrap an event stream, fingerprinting it as it drains.

    Computes :func:`event_log_fingerprint` incrementally — the hash is
    fed the identical canonical JSON serialization, one event at a
    time — so the cohort tier's single pass over a million-event
    generator yields the exact digest a per-client replay of the same
    configuration reports, without a second generation pass.
    """

    def __init__(self, events: Iterable[ClientEvent]) -> None:
        self._events = events
        self._digest = hashlib.sha256()
        self._digest.update(b"[")
        self._first = True
        self._drained = False

    def __iter__(self) -> Iterator[ClientEvent]:
        for event in self._events:
            if not self._first:
                self._digest.update(b",")
            self._first = False
            self._digest.update(
                json.dumps(
                    event.as_dict(), sort_keys=True, separators=(",", ":")
                ).encode()
            )
            yield event
        self._drained = True

    def hexdigest(self) -> str:
        if not self._drained:
            raise ReproError(
                "event fingerprint requested before the stream drained"
            )
        digest = self._digest.copy()
        digest.update(b"]")
        return digest.hexdigest()


def streaming_fingerprint(events: Iterable[ClientEvent]) -> str:
    """:func:`event_log_fingerprint` of a stream, in O(1) memory."""
    tap = FingerprintTap(events)
    for _event in tap:
        pass
    return tap.hexdigest()
