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
from typing import Dict, Iterable, Iterator, List, Sequence

from repro.crypto.drbg import Rng
from repro.errors import ReproError

__all__ = [
    "ClientEvent",
    "FingerprintTap",
    "generate_events",
    "iter_events",
    "event_log_fingerprint",
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
    events, O(1) memory.  A million-client ``--cohorts`` run folds this
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
    tap = FingerprintTap(events)
    for _event in tap:
        pass
    return tap.hexdigest()


class FingerprintTap:
    """Wrap an event stream, fingerprinting it as it drains.

    The digest is sha256 of the log's canonical JSON: a list of objects
    with sorted keys and no whitespace, as ``json.dumps(..., sort_keys=
    True, separators=(",", ":"))`` writes it.  Every field but ``op``
    is an int, so each event's bytes come from one format string and
    only ``op`` goes through ``json.dumps`` (once per distinct op).
    One pass over a million-event generator yields the digest a
    materialized log of the same run has.
    """

    def __init__(self, events: Iterable[ClientEvent]) -> None:
        self._events = events
        self._digest = hashlib.sha256(b"[")
        self._drained = False

    def __iter__(self) -> Iterator[ClientEvent]:
        update = self._digest.update
        ops: Dict[str, bytes] = {}
        sep = b""
        for event in self._events:
            op = ops.get(event.op)
            if op is None:
                op = ops[event.op] = json.dumps(event.op).encode()
            update(
                b'%s{"arrival":%d,"client_id":%d,"key":%d,"op":%s,"seq":%d}'
                % (sep, event.arrival, event.client_id, event.key, op, event.seq)
            )
            sep = b","
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
