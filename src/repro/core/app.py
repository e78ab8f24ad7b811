"""In-enclave application framework over attested channels.

:class:`SecureApplicationProgram` is the base class for every case
study's enclave code.  It owns the session state machines (attestation
handshake -> established record channel) *inside the enclave*: channel
keys never cross the boundary, and untrusted host code only shuttles
opaque framed bytes between the network and ``session_handle`` /
``collect_outgoing`` ecalls.

Subclasses implement the underscore hooks (not reachable via ecall):

* ``_on_session_established(session_id)``
* ``_on_secure_message(session_id, payload) -> optional reply payload``

and push asynchronous messages with ``_send_secure``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro import obs
from repro.errors import AttestationError, ProtocolError
from repro.net.channel import SecureRecordChannel
from repro.net.transport import MSS
from repro.sgx.attestation import (
    AttestationConfig,
    ChallengerAttestor,
    IdentityPolicy,
    TargetAttestor,
)
from repro.sgx.measurement import EnclaveIdentity
from repro.sgx.quoting import QuoteVerificationInfo
from repro.sgx.runtime import EnclaveContext, EnclaveProgram

__all__ = [
    "SecureApplicationProgram",
    "FRAME_ATTEST",
    "FRAME_RECORD",
    "FRAME_RECORD_BATCH",
]

FRAME_ATTEST = 0
FRAME_RECORD = 1
FRAME_RECORD_BATCH = 2


@dataclasses.dataclass
class _Session:
    role: str                      # "server" | "client"
    state: str                     # handshake state or "established"
    target: Optional[TargetAttestor] = None
    challenger: Optional[ChallengerAttestor] = None
    channel: Optional[SecureRecordChannel] = None
    peer: Optional[EnclaveIdentity] = None
    outbox: Optional[List[bytes]] = None

    def __post_init__(self) -> None:
        if self.outbox is None:
            self.outbox = []


def _frame(kind: int, body: bytes) -> bytes:
    return bytes([kind]) + body


def _unframe(data: bytes):
    if not data:
        raise ProtocolError("empty session frame")
    return data[0], data[1:]


class SecureApplicationProgram(EnclaveProgram):
    """Base class for enclave network applications."""

    #: Cipher for established channels ("ctr" authenticated, or "ecb"
    #: for paper-parity cost experiments).
    CHANNEL_CIPHER = "ctr"

    def on_load(self, ctx: EnclaveContext) -> None:
        super().on_load(ctx)
        self._sessions: Dict[str, _Session] = {}
        self._default_info: Optional[QuoteVerificationInfo] = None
        self._default_peer_policy: Optional[IdentityPolicy] = None
        self._switchless_io = False

    # -- configuration (ecalls) ------------------------------------------------

    def configure_trust(
        self,
        verification_info: QuoteVerificationInfo,
        peer_policy: Optional[IdentityPolicy] = None,
    ) -> None:
        """Install the attestation-service info (and a default policy)."""
        self._default_info = verification_info
        self._default_peer_policy = peer_policy

    def enable_switchless_io(
        self, capacity: int = 64, poll_interval: int = 8
    ) -> None:
        """Route this program's packet I/O through a switchless queue.

        Sets up the enclave's ocall-direction queue and makes
        ``_charge_send`` / ``_charge_recv`` (the Table 2 path every
        record message pays) use it — the per-packet marshalling cost
        stays, the per-call crossing disappears.
        """
        self.ctx.enable_switchless(capacity=capacity, poll_interval=poll_interval)
        self._switchless_io = True

    # -- session lifecycle (ecalls, driven by the untrusted pump) ----------------

    def session_accept(self, session_id: str) -> None:
        """Server side: expect an attestation challenge on this session."""
        if session_id in self._sessions:
            raise ProtocolError(f"session '{session_id}' already exists")
        self._sessions[session_id] = _Session(
            role="server",
            state="await_challenge",
            target=TargetAttestor(
                self.ctx, self._default_info, self._default_peer_policy
            ),
        )

    def session_connect(
        self,
        session_id: str,
        verification_info: Optional[QuoteVerificationInfo] = None,
        policy: Optional[IdentityPolicy] = None,
        config: AttestationConfig = AttestationConfig(),
    ) -> bytes:
        """Client side: open a session; returns the first wire frame."""
        if session_id in self._sessions:
            raise ProtocolError(f"session '{session_id}' already exists")
        if not config.with_dh:
            raise AttestationError(
                "secure application sessions need the DH channel"
            )
        info = verification_info or self._default_info
        if info is None:
            raise AttestationError("no verification info configured")
        chosen_policy = policy or self._default_peer_policy or IdentityPolicy.accept_any()
        challenger = ChallengerAttestor(self.ctx, info, chosen_policy, config)
        self._sessions[session_id] = _Session(
            role="client", state="await_quote", challenger=challenger
        )
        return _frame(FRAME_ATTEST, challenger.start())

    def session_handle(self, session_id: str, data: bytes) -> Optional[bytes]:
        """Feed one incoming frame; returns an optional reply frame."""
        session = self._session(session_id)
        kind, body = _unframe(data)
        if kind == FRAME_ATTEST:
            return self._handle_attest(session_id, session, body)
        if kind == FRAME_RECORD:
            return self._handle_record(session_id, session, body)
        if kind == FRAME_RECORD_BATCH:
            return self._handle_record_batch(session_id, session, body)
        raise ProtocolError(f"unknown frame kind {kind}")

    def collect_outgoing(self, session_id: str) -> List[bytes]:
        """Drain queued (already encrypted) frames for transmission."""
        session = self._session(session_id)
        out, session.outbox = session.outbox, []
        if out:
            self._charge_send(sum(len(f) for f in out))
        return out

    def session_ids(self) -> List[str]:
        """All known session ids (diagnostics / host bookkeeping)."""
        return sorted(self._sessions)

    def pending_sessions(self) -> List[str]:
        """Session ids with queued outgoing frames.

        Lets the untrusted pump avoid one collect_outgoing ecall per
        idle session (each would cost an EENTER/EEXIT pair) — it asks
        once, then drains only the sessions that actually have data.
        """
        return [sid for sid, s in self._sessions.items() if s.outbox]

    def session_established(self, session_id: str) -> bool:
        session = self._sessions.get(session_id)
        return bool(session and session.state == "established")

    def session_peer(self, session_id: str) -> Optional[EnclaveIdentity]:
        return self._session(session_id).peer

    def session_close(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)

    # -- handshake dispatch -------------------------------------------------------

    def _handle_attest(
        self, session_id: str, session: _Session, body: bytes
    ) -> Optional[bytes]:
        if session.role == "server":
            assert session.target is not None
            if session.state == "await_challenge":
                reply = session.target.handle_challenge(body)
                session.state = "await_confirm"
                return _frame(FRAME_ATTEST, reply)
            if session.state == "await_confirm":
                finish = session.target.handle_confirm(body)
                keys = session.target.session_keys
                assert keys is not None
                session.channel = SecureRecordChannel(
                    keys, "responder", self.CHANNEL_CIPHER
                )
                session.peer = session.target.peer_identity
                session.state = "established"
                self._on_session_established(session_id)
                return _frame(FRAME_ATTEST, finish)
        else:
            assert session.challenger is not None
            if session.state == "await_quote":
                confirm = session.challenger.handle_quote_response(body)
                session.state = "await_finish"
                assert confirm is not None
                return _frame(FRAME_ATTEST, confirm)
            if session.state == "await_finish":
                session.challenger.handle_finish(body)
                keys = session.challenger.session_keys
                assert keys is not None
                session.channel = SecureRecordChannel(
                    keys, "initiator", self.CHANNEL_CIPHER
                )
                session.peer = session.challenger.peer_identity
                session.state = "established"
                self._on_session_established(session_id)
                return None
        raise ProtocolError(
            f"attestation frame in state '{session.state}' ({session.role})"
        )

    @obs.traced("app:handle_record", kind="app")
    def _handle_record(
        self, session_id: str, session: _Session, body: bytes
    ) -> Optional[bytes]:
        if session.state != "established" or session.channel is None:
            raise ProtocolError("record frame before channel establishment")
        self._charge_recv(len(body))
        payload = session.channel.open(body)
        with obs.span("app:on_secure_message", kind="app"):
            reply = self._on_secure_message(session_id, payload)
        if reply is None:
            return None
        self._charge_send(len(reply))
        return _frame(FRAME_RECORD, session.channel.protect(reply))

    @obs.traced("app:handle_record_batch", kind="app")
    def _handle_record_batch(
        self, session_id: str, session: _Session, body: bytes
    ) -> Optional[bytes]:
        """One batched record: K application messages, one crossing's
        worth of channel work (see :meth:`SecureRecordChannel.open_many`).
        Replies, if any, ride back as one batched record too."""
        if session.state != "established" or session.channel is None:
            raise ProtocolError("record frame before channel establishment")
        self._charge_recv(len(body))
        payloads = session.channel.open_many(body)
        replies: List[bytes] = []
        for payload in payloads:
            with obs.span("app:on_secure_message", kind="app"):
                reply = self._on_secure_message(session_id, payload)
            if reply is not None:
                replies.append(reply)
        if not replies:
            return None
        record = session.channel.protect_many(replies)
        self._charge_send(len(record))
        return _frame(FRAME_RECORD_BATCH, record)

    # -- in-enclave API for subclasses ----------------------------------------------

    def _send_secure(self, session_id: str, payload: bytes) -> None:
        """Queue an encrypted message for the untrusted pump to ship."""
        session = self._session(session_id)
        if session.state != "established" or session.channel is None:
            raise ProtocolError("cannot send before channel establishment")
        session.outbox.append(_frame(FRAME_RECORD, session.channel.protect(payload)))

    def _send_secure_batch(self, session_id: str, payloads: List[bytes]) -> None:
        """Queue K messages as one batched record (one seq, one MAC)."""
        session = self._session(session_id)
        if session.state != "established" or session.channel is None:
            raise ProtocolError("cannot send before channel establishment")
        session.outbox.append(
            _frame(FRAME_RECORD_BATCH, session.channel.protect_many(payloads))
        )

    def _session(self, session_id: str) -> _Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise ProtocolError(f"unknown session '{session_id}'")
        return session

    # -- packet-I/O cost (the Table 2 path) --------------------------------------------

    def _charge_send(self, n_bytes: int) -> None:
        packets = [b"\x00" * MSS] * (max(1, -(-n_bytes // MSS)))
        self.ctx.send_packets(
            lambda _pkts: None, packets, switchless=self._switchless_io
        )

    def _charge_recv(self, n_bytes: int) -> None:
        packets = [b"\x00" * MSS] * (max(1, -(-n_bytes // MSS)))
        self.ctx.recv_packets(lambda: packets, switchless=self._switchless_io)

    # -- hooks ------------------------------------------------------------------------

    def _on_session_established(self, session_id: str) -> None:
        """Called inside the enclave when a channel comes up."""

    def _on_secure_message(self, session_id: str, payload: bytes) -> Optional[bytes]:
        """Called per decrypted message; an optional reply is re-encrypted."""
        return None
