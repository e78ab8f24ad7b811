"""Reliable, message-oriented streams over the datagram fabric.

A small TCP-flavored transport: three-way handshake, go-back-N ARQ
with cumulative ACKs and retransmission timeouts, MTU segmentation,
and length-prefixed message framing on top.  On a lossless fabric it
adds no retransmissions; on a lossy one it recovers (the property
tests inject loss and check in-order delivery).

Usage inside simulator processes::

    # server
    listener = StreamListener(host, port=7)
    conn = yield listener.accept()
    msg = yield conn.recv_message()

    # client
    conn = yield from connect(host, "server", 7)
    conn.send_message(b"hello")
"""

from __future__ import annotations

import enum
import zlib
from typing import Dict, Generator, List, Optional, Tuple

from repro import obs
from repro.errors import NetworkError
from repro.net.network import MTU, Datagram, Host
from repro.net.sim import MessageQueue, SimTimeout
from repro.wire import Reader, Writer

__all__ = ["StreamSocket", "StreamListener", "connect", "MSS"]

_HEADER_BYTES = 16
MSS = MTU - _HEADER_BYTES  # payload bytes per segment

_MAX_MESSAGE = 1 << 24
_CRC_BYTES = 3  # fits in the header allowance: 13 encoded + 3 crc = 16


class SegmentKind(enum.IntEnum):
    SYN = 1
    SYN_ACK = 2
    ACK = 3
    DATA = 4
    FIN = 5


def _crc(data: bytes) -> bytes:
    return (zlib.crc32(data) & 0xFFFFFF).to_bytes(_CRC_BYTES, "big")


def _encode_segment(kind: SegmentKind, seq: int, ack: int, payload: bytes = b"") -> bytes:
    body = Writer().u8(int(kind)).u32(seq).u32(ack).varbytes(payload).getvalue()
    return body + _crc(body)


def _decode_segment(data: bytes) -> Tuple[SegmentKind, int, int, bytes]:
    """Decode one segment, raising :class:`NetworkError` on any damage
    (short datagram, checksum mismatch, malformed fields).  Receivers
    treat a damaged segment exactly like a lost one — the ARQ layer
    retransmits — so injected bit-flips can never surface as silently
    corrupted application data."""
    if len(data) < _CRC_BYTES:
        raise NetworkError("segment too short")
    body, checksum = data[:-_CRC_BYTES], data[-_CRC_BYTES:]
    if _crc(body) != checksum:
        raise NetworkError("segment checksum mismatch")
    try:
        reader = Reader(body)
        kind = SegmentKind(reader.u8())
        seq = reader.u32()
        ack = reader.u32()
        payload = reader.varbytes()
    except Exception as exc:
        raise NetworkError(f"malformed segment: {exc}") from exc
    return kind, seq, ack, payload


class StreamSocket:
    """One endpoint of an established (or establishing) stream."""

    WINDOW = 64
    RTO = 0.25
    MAX_RTO = 4.0  # exponential-backoff ceiling
    EOF = None  # what recv_message resolves to after the peer's FIN

    def __init__(
        self,
        host: Host,
        local_port: int,
        queue: MessageQueue,
        peer: str,
        peer_port: Optional[int],
    ) -> None:
        self.host = host
        self.local_port = local_port
        self.peer = peer
        self.peer_port = peer_port
        self._queue = queue

        self._segments: List[bytes] = []   # outgoing payload segments
        self._base = 0                     # first unacked segment
        self._next = 0                     # next segment to transmit
        self._closing = False
        self._fin_sent = False
        self._remote_closed = False

        self._recv_expected = 0
        self._recv_buffer = b""
        self._msg_q = host.sim.queue(f"{host.name}:{local_port}:messages")
        self._ack_event = host.sim.queue(f"{host.name}:{local_port}:acks")
        self._send_event = host.sim.queue(f"{host.name}:{local_port}:send")

        self.segments_sent = 0
        self.retransmissions = 0
        self.messages_delivered = 0
        self.damaged_segments = 0  # dropped by the checksum check
        self._rto = self.RTO

    # -- public API ------------------------------------------------------------

    def send_message(self, data: bytes) -> None:
        """Queue a framed message for reliable delivery (non-blocking)."""
        if self._closing:
            raise NetworkError("send on closing stream")
        if len(data) > _MAX_MESSAGE:
            raise NetworkError(f"message of {len(data)} bytes too large")
        framed = Writer().varbytes(bytes(data)).getvalue()
        for i in range(0, len(framed), MSS):
            self._segments.append(framed[i : i + MSS])
        self._send_event.put(None)

    def recv_message(self, timeout: Optional[float] = None):
        """Yieldable: the next complete message (EOF -> ``None``)."""
        return self._msg_q.get(timeout)

    def close(self) -> None:
        """Flush remaining data, then FIN."""
        self._closing = True
        self._send_event.put(None)

    # -- internals ------------------------------------------------------------

    def _start(self) -> None:
        self.host.sim.spawn(self._dispatcher(), f"stream-rx:{self.host.name}:{self.local_port}")
        self.host.sim.spawn(self._sender(), f"stream-tx:{self.host.name}:{self.local_port}")

    def _send_segment(self, kind: SegmentKind, seq: int, ack: int, payload: bytes = b"") -> None:
        assert self.peer_port is not None
        self.host.send(
            self.peer,
            self.peer_port,
            _encode_segment(kind, seq, ack, payload),
            src_port=self.local_port,
        )

    def _transmit_data(self, index: int) -> None:
        self.segments_sent += 1
        self._send_segment(
            SegmentKind.DATA, index, self._recv_expected, self._segments[index]
        )

    def _sender(self) -> Generator:
        while True:
            while (
                self._next < len(self._segments)
                and self._next < self._base + self.WINDOW
            ):
                self._transmit_data(self._next)
                self._next += 1

            if self._base == len(self._segments):
                if self._closing:
                    if not self._fin_sent:
                        self._fin_sent = True
                        # Best-effort FIN (sent thrice to survive loss).
                        for _ in range(3):
                            self._send_segment(SegmentKind.FIN, self._next, self._recv_expected)
                    return
                yield self._send_event.get()
                continue

            try:
                yield self._ack_event.get(timeout=self._rto)
            except SimTimeout:
                # Go-back-N: resend the whole outstanding window, then
                # back off exponentially so a congested/faulty link is
                # not hammered with the full window at a fixed cadence.
                window = self._next - self._base
                self.retransmissions += window
                obs.instant(
                    "retransmission",
                    count=window,
                    stream=f"{self.host.name}:{self.local_port}",
                    rto=self._rto,
                )
                for index in range(self._base, self._next):
                    self._transmit_data(index)
                self._rto = min(self._rto * 2, self.MAX_RTO)

    def _dispatcher(self) -> Generator:
        while not (self._remote_closed and self._closing):
            # A blocked get() schedules nothing, so idle connections do
            # not keep the simulation alive.
            datagram: Datagram = yield self._queue.get()
            try:
                kind, seq, ack, payload = _decode_segment(datagram.payload)
            except NetworkError:
                # Damaged on the wire: identical to a loss, the sender
                # retransmits.
                self.damaged_segments += 1
                continue
            if kind is SegmentKind.DATA:
                if seq == self._recv_expected:
                    self._recv_expected += 1
                    self._feed(payload)
                self._send_segment(SegmentKind.ACK, 0, self._recv_expected)
            elif kind is SegmentKind.ACK:
                if ack > self._base:
                    self._base = ack
                    self._rto = self.RTO  # progress: reset the backoff
                    self._ack_event.put(None)
            elif kind is SegmentKind.FIN:
                if not self._remote_closed:
                    self._remote_closed = True
                    self._msg_q.put(self.EOF)
            elif kind is SegmentKind.SYN_ACK:
                # Duplicate handshake reply; re-acknowledge.
                self._send_segment(SegmentKind.ACK, 0, 0)

    def _feed(self, payload: bytes) -> None:
        self._recv_buffer += payload
        while len(self._recv_buffer) >= 4:
            length = int.from_bytes(self._recv_buffer[:4], "big")
            if length > _MAX_MESSAGE:
                raise NetworkError("peer sent an oversized frame")
            if len(self._recv_buffer) < 4 + length:
                break
            message = self._recv_buffer[4 : 4 + length]
            self._recv_buffer = self._recv_buffer[4 + length :]
            self.messages_delivered += 1
            self._msg_q.put(message)


class StreamListener:
    """Accepts incoming stream connections on a well-known port."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self._queue = host.bind(port)
        self._accept_q = host.sim.queue(f"{host.name}:{port}:accept")
        self._by_peer: Dict[Tuple[str, int], StreamSocket] = {}
        host.sim.spawn(self._listen(), f"listener:{host.name}:{port}")

    def accept(self, timeout: Optional[float] = None):
        """Yieldable: the next established :class:`StreamSocket`."""
        return self._accept_q.get(timeout)

    def _listen(self) -> Generator:
        while True:
            datagram: Datagram = yield self._queue.get()
            try:
                kind, _seq, _ack, _payload = _decode_segment(datagram.payload)
            except NetworkError:
                continue
            if kind is not SegmentKind.SYN:
                continue
            key = (datagram.src, datagram.src_port)
            sock = self._by_peer.get(key)
            if sock is None:
                local_port, queue = self.host.bind_ephemeral()
                sock = StreamSocket(
                    self.host, local_port, queue, datagram.src, datagram.src_port
                )
                self._by_peer[key] = sock
                sock._start()
                self._accept_q.put(sock)
            # (Re)send SYN_ACK from the connection's own port.
            sock._send_segment(SegmentKind.SYN_ACK, 0, 0)


def connect(
    host: Host,
    dst: str,
    dst_port: int,
    timeout: float = 0.5,
    retries: int = 8,
) -> Generator:
    """Sub-generator establishing a stream: ``sock = yield from connect(...)``."""
    local_port, queue = host.bind_ephemeral()
    sock = StreamSocket(host, local_port, queue, dst, peer_port=None)
    attempt_timeout = timeout
    for _ in range(retries):
        host.send(
            dst, dst_port, _encode_segment(SegmentKind.SYN, 0, 0), src_port=local_port
        )
        try:
            datagram: Datagram = yield queue.get(timeout=attempt_timeout)
        except SimTimeout:
            # Exponential backoff between SYN retries.
            attempt_timeout = min(attempt_timeout * 2, 4.0)
            continue
        try:
            kind, _seq, _ack, _payload = _decode_segment(datagram.payload)
        except NetworkError:
            continue
        if kind is SegmentKind.SYN_ACK:
            sock.peer_port = datagram.src_port
            sock._send_segment(SegmentKind.ACK, 0, 0)
            sock._start()
            return sock
    raise NetworkError(f"connect to {dst}:{dst_port} timed out")
