"""Deterministic discrete-event network simulator.

Hosts exchange MTU-bounded datagrams over links with latency,
bandwidth and (optional) loss; a small TCP-flavored transport provides
reliable message streams; :class:`SecureRecordChannel` carries
attested-channel records.  Simulated time and all randomness are
deterministic, so every experiment replays bit-identically.
"""

from repro.net.channel import SecureRecordChannel
from repro.net.network import MTU, Datagram, Host, LinkParams, Network
from repro.net.sim import (
    MessageQueue,
    Process,
    SimError,
    SimTimeout,
    Simulator,
    create,
)
from repro.net.transport import MSS, StreamListener, StreamSocket, connect

__all__ = [
    "Simulator",
    "Process",
    "MessageQueue",
    "SimTimeout",
    "SimError",
    "create",
    "Network",
    "Host",
    "Datagram",
    "LinkParams",
    "MTU",
    "MSS",
    "StreamSocket",
    "StreamListener",
    "connect",
    "SecureRecordChannel",
]
