"""Remote attestation with secure-channel bootstrap (paper Figure 1).

Message flow (challenger C, target T, quoting enclave Q on T's host):

1. ``C -> T``  Challenge: nonce, flags (DH?, mutual?), DH size.
2. ``T``       EREPORT (bound to nonce + T's DH public), intra-attests
               with Q (ocall out, ecall into Q); Q verifies the REPORT
               MAC via EGETKEY and signs a QUOTE; Q's reciprocal REPORT
               lets T authenticate Q.
3. ``T -> C``  QuoteResponse: QUOTE (+ DH group and T's public value).
4. ``C``       verifies the QUOTE signature against the EPID group key
               and checks T's identity against its policy; computes the
               shared secret.
5. ``C -> T``  ChannelConfirm: C's DH public, key-confirmation MAC
               (+ C's own QUOTE when mutual).
6. ``T -> C``  ChannelFinish: T's key-confirmation MAC.

Without DH the exchange stops after step 4 (attestation only, no
channel) — the cheaper column of the paper's Table 1.

The :class:`TargetAttestor` / :class:`ChallengerAttestor` helpers are
sans-IO state machines meant to be *embedded inside enclave programs*;
bytes move between hosts however the application likes (directly in
unit tests, over the simulated network in the case studies).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, FrozenSet, Optional

from repro import faults, obs
from repro.cost import context as cost_context
from repro.crypto import dh
from repro.crypto.hashes import sha256
from repro.crypto.kdf import hkdf
from repro.crypto.mac import hmac_sha256, hmac_verify
from repro.crypto.numtheory import is_probable_prime
from repro.errors import AttestationError, SgxError
from repro.sgx.measurement import EnclaveIdentity
from repro.sgx.quoting import QuoteVerificationInfo, verify_quote
from repro.sgx.report import Report, verify_report_mac
from repro.sgx.runtime import EnclaveContext, EnclaveProgram
from repro.wire import Reader, Writer

__all__ = [
    "AttestationConfig",
    "IdentityPolicy",
    "SessionKeys",
    "TargetAttestor",
    "ChallengerAttestor",
    "AttestationTargetProgram",
    "AttestationChallengerProgram",
    "run_attestation",
]

_FLAG_DH = 0x01
_FLAG_MUTUAL = 0x02


@dataclasses.dataclass(frozen=True)
class AttestationConfig:
    """Knobs for one attestation run (paper Table 1 varies ``with_dh``)."""

    with_dh: bool = True
    dh_bits: int = 1024
    mutual: bool = False


@dataclasses.dataclass(frozen=True)
class IdentityPolicy:
    """Which enclave identities a verifier accepts."""

    allowed_mrenclaves: Optional[FrozenSet[bytes]] = None
    min_isv_svn: int = 0
    predicate: Optional[Callable[[EnclaveIdentity], bool]] = None

    @classmethod
    def for_mrenclave(cls, *mrenclaves: bytes) -> "IdentityPolicy":
        return cls(allowed_mrenclaves=frozenset(mrenclaves))

    @classmethod
    def accept_any(cls) -> "IdentityPolicy":
        return cls()

    def check(self, identity: EnclaveIdentity) -> None:
        """Raise :class:`AttestationError` if the identity is refused."""
        if (
            self.allowed_mrenclaves is not None
            and identity.mrenclave not in self.allowed_mrenclaves
        ):
            raise AttestationError(
                "attested MRENCLAVE is not in the accepted set "
                "(code differs from the audited build)"
            )
        if identity.isv_svn < self.min_isv_svn:
            raise AttestationError(
                f"enclave SVN {identity.isv_svn} below minimum {self.min_isv_svn}"
            )
        if self.predicate is not None and not self.predicate(identity):
            raise AttestationError("identity predicate rejected the enclave")


@dataclasses.dataclass(frozen=True)
class SessionKeys:
    """Directional channel keys derived from the attested DH secret."""

    initiator_enc: bytes
    initiator_mac: bytes
    responder_enc: bytes
    responder_mac: bytes
    confirm_key: bytes

    @classmethod
    def derive(cls, shared: bytes, nonce: bytes) -> "SessionKeys":
        material = hkdf(
            shared, salt=nonce, info=b"repro-attested-channel", length=128
        )
        return cls(
            initiator_enc=material[0:16],
            initiator_mac=material[16:48],
            responder_enc=material[48:64],
            responder_mac=material[64:96],
            confirm_key=material[96:128],
        )


def _encode_challenge(nonce: bytes, config: AttestationConfig) -> bytes:
    flags = (_FLAG_DH if config.with_dh else 0) | (
        _FLAG_MUTUAL if config.mutual else 0
    )
    return Writer().raw(nonce).u8(flags).u16(config.dh_bits).getvalue()


def _decode_challenge(data: bytes):
    reader = Reader(data)
    nonce = reader.raw(32)
    flags = reader.u8()
    bits = reader.u16()
    return nonce, bool(flags & _FLAG_DH), bool(flags & _FLAG_MUTUAL), bits


def _bind_report_data(nonce: bytes, group: Optional[dh.DhGroup], public: Optional[int]) -> bytes:
    writer = Writer().raw(nonce)
    if group is not None and public is not None:
        writer.varint(group.p).varint(group.g).varint(public)
    return sha256(writer.getvalue())


def _mtu_chunks(data: bytes, mtu: int = 1500):
    """Split a message into the MTU-sized packets it ships as."""
    return [data[i : i + mtu] for i in range(0, max(len(data), 1), mtu)]


def _validate_group(group: dh.DhGroup, rng) -> None:
    """Accept well-known groups by value; really check custom ones."""
    for known in (dh.MODP_1024, dh.MODP_2048):
        if group.p == known.p and group.g == known.g:
            return
    if group.p.bit_length() > 512:
        raise AttestationError("non-standard large DH group refused")
    if not is_probable_prime(group.p, rng) or not is_probable_prime(
        (group.p - 1) // 2, rng
    ):
        raise AttestationError("DH modulus is not a safe prime")
    if not 1 < group.g < group.p - 1:
        raise AttestationError("bad DH generator")


class TargetAttestor:
    """Target-side attestation engine (embed inside an enclave program)."""

    def __init__(
        self,
        ctx: EnclaveContext,
        verification_info: Optional[QuoteVerificationInfo] = None,
        peer_policy: Optional[IdentityPolicy] = None,
    ) -> None:
        self._ctx = ctx
        self._info = verification_info      # needed only for mutual
        self._peer_policy = peer_policy or IdentityPolicy.accept_any()
        self._nonce: Optional[bytes] = None
        self._mutual = False
        self._keypair: Optional[dh.DhKeyPair] = None
        self._transcript = b""
        self.session_keys: Optional[SessionKeys] = None
        self.peer_identity: Optional[EnclaveIdentity] = None
        self.complete = False

    @obs.traced("attest:handle_challenge", kind="attest")
    def handle_challenge(self, data: bytes) -> bytes:
        """Steps 2-3: quote ourselves, optionally offering DH."""
        model = cost_context.current_model()
        cost_context.charge_normal(model.attest_target_runtime_normal)
        # The challenge entered the enclave through the packet-I/O path.
        self._ctx.recv_packets(lambda: [data])

        nonce, with_dh, mutual, bits = _decode_challenge(data)
        self._nonce = nonce
        self._mutual = mutual

        group: Optional[dh.DhGroup] = None
        if with_dh:
            group = dh.generate_parameters(bits, self._ctx.rng)
            self._keypair = dh.generate_keypair(group, self._ctx.rng)

        public = self._keypair.public if self._keypair else None
        report_data = _bind_report_data(nonce, group, public)
        report = self._ctx.ereport(self._ctx.quoting_target_info, report_data)
        bundle = self._ctx.request_quote(report.encode())

        reader = Reader(bundle)
        quote_bytes = reader.varbytes()
        qe_report = Report.decode(reader.varbytes())
        # Authenticate the quoting enclave's answer: its reciprocal
        # REPORT must MAC-verify under *our* report key and bind the
        # quote bytes.  EGETKEY can abort transiently (an injectable
        # fault), so it gets a bounded retry.
        report_key = None
        for attempt in range(3):
            try:
                report_key = self._ctx.egetkey_report(qe_report.key_id)
                break
            except SgxError:
                if attempt == 2:
                    raise
        assert report_key is not None
        verify_report_mac(qe_report, report_key)
        if qe_report.report_data[:32] != sha256(quote_bytes)[:32]:
            raise AttestationError("quoting enclave response does not bind quote")

        writer = Writer().varbytes(quote_bytes)
        if with_dh:
            assert group is not None and self._keypair is not None
            writer.u8(1).varint(group.p).varint(group.g).u16(group.bits)
            writer.varint(self._keypair.public)
        else:
            writer.u8(0)
            self.complete = True  # nothing further without a channel
        response = writer.getvalue()
        self._transcript = sha256(data + response)
        # ...and the response leaves through it.
        self._ctx.send_packets(lambda _p: None, _mtu_chunks(response))
        return response

    @obs.traced("attest:handle_confirm", kind="attest")
    def handle_confirm(self, data: bytes) -> bytes:
        """Steps 5-6: derive keys, verify confirmation, finish."""
        if self._keypair is None or self._nonce is None:
            raise AttestationError("confirm received before challenge")
        reader = Reader(data)
        challenger_public = reader.varint()
        confirm_mac = reader.varbytes()
        challenger_quote = reader.varbytes() if self._mutual else b""

        shared = dh.shared_secret(self._keypair, challenger_public)
        keys = SessionKeys.derive(shared, self._nonce)
        binding = self._transcript + Writer().varint(challenger_public).getvalue()
        if not hmac_verify(keys.confirm_key, b"confirm:" + binding, confirm_mac):
            raise AttestationError("challenger key-confirmation failed")

        if self._mutual:
            if self._info is None:
                raise AttestationError("mutual attestation needs verification info")
            quote = verify_quote(challenger_quote, self._info)
            expected = sha256(
                Writer()
                .raw(self._nonce)
                .varint(challenger_public)
                .varint(self._keypair.public)
                .getvalue()
            )
            if quote.report_data[:32] != expected[:32]:
                raise AttestationError("challenger quote does not bind this session")
            self._peer_policy.check(quote.identity)
            self.peer_identity = quote.identity

        self.session_keys = keys
        self.complete = True
        return hmac_sha256(keys.confirm_key, b"finish:" + binding)


class ChallengerAttestor:
    """Challenger-side engine (paper: the "challenger enclave")."""

    def __init__(
        self,
        ctx: Optional[EnclaveContext],
        verification_info: QuoteVerificationInfo,
        policy: IdentityPolicy,
        config: AttestationConfig = AttestationConfig(),
        rng=None,
    ) -> None:
        """``ctx`` may be ``None`` for an *untrusted* challenger (e.g. a
        legacy Tor client verifying an SGX directory): quote
        verification needs no enclave, only the group public key.  Such
        a challenger must supply ``rng`` and cannot do mutual
        attestation (it has nothing to quote)."""
        if config.mutual and not config.with_dh:
            raise AttestationError("mutual attestation requires the DH channel")
        if ctx is None:
            if rng is None:
                raise AttestationError("untrusted challenger needs an rng")
            if config.mutual:
                raise AttestationError(
                    "mutual attestation requires the challenger to run in an enclave"
                )
        self._ctx = ctx
        self._rng = rng if rng is not None else ctx.rng
        self._info = verification_info
        self._policy = policy
        self._config = config
        self._nonce: Optional[bytes] = None
        self._challenge: Optional[bytes] = None
        self._keys: Optional[SessionKeys] = None
        self._binding = b""
        self.peer_identity: Optional[EnclaveIdentity] = None
        self.complete = False

    @property
    def session_keys(self) -> Optional[SessionKeys]:
        return self._keys

    @obs.traced("attest:start", kind="attest")
    def start(self) -> bytes:
        """Step 1: emit the challenge."""
        self._nonce = self._rng.bytes(32)
        self._challenge = _encode_challenge(self._nonce, self._config)
        return self._challenge

    @obs.traced("attest:handle_quote_response", kind="attest")
    def handle_quote_response(self, data: bytes) -> Optional[bytes]:
        """Step 4-5: verify the quote; emit confirm when DH is on."""
        if self._nonce is None or self._challenge is None:
            raise AttestationError("quote response before challenge")
        model = cost_context.current_model()
        cost_context.charge_normal(model.attest_challenger_runtime_normal)
        if self._ctx is not None:
            self._ctx.recv_packets(lambda: _mtu_chunks(data))

        reader = Reader(data)
        quote_bytes = reader.varbytes()
        has_dh = bool(reader.u8())
        if has_dh != self._config.with_dh:
            raise AttestationError("peer disagreed on channel bootstrap")

        plan = faults.current_plan()
        if plan is not None and plan.decide(faults.QUOTE_REJECT, "attest:quote"):
            # Models e.g. a stale revocation list or an IAS outage: the
            # quote is refused even though it would verify.  The
            # handshake fails cleanly and callers may re-attest.
            raise AttestationError("quote rejected by verifier (injected fault)")
        quote = verify_quote(quote_bytes, self._info)
        self._policy.check(quote.identity)
        self.peer_identity = quote.identity

        if not has_dh:
            expected = _bind_report_data(self._nonce, None, None)
            if quote.report_data[:32] != expected[:32]:
                raise AttestationError("quote does not bind this challenge")
            self.complete = True
            return None

        p = reader.varint()
        g = reader.varint()
        bits = reader.u16()
        target_public = reader.varint()
        group = dh.DhGroup(p=p, g=g, bits=bits)
        _validate_group(group, self._rng)

        expected = _bind_report_data(self._nonce, group, target_public)
        if quote.report_data[:32] != expected[:32]:
            raise AttestationError("quote does not bind the DH exchange")

        keypair = dh.generate_keypair(group, self._rng)
        shared = dh.shared_secret(keypair, target_public)
        self._keys = SessionKeys.derive(shared, self._nonce)

        transcript = sha256(self._challenge + data)
        self._binding = transcript + Writer().varint(keypair.public).getvalue()
        confirm = hmac_sha256(self._keys.confirm_key, b"confirm:" + self._binding)

        writer = Writer().varint(keypair.public).varbytes(confirm)
        if self._config.mutual:
            assert self._ctx is not None
            my_data = sha256(
                Writer()
                .raw(self._nonce)
                .varint(keypair.public)
                .varint(target_public)
                .getvalue()
            )
            report = self._ctx.ereport(self._ctx.quoting_target_info, my_data)
            bundle = self._ctx.request_quote(report.encode())
            my_quote = Reader(bundle).varbytes()
            writer.varbytes(my_quote)
        return writer.getvalue()

    @obs.traced("attest:handle_finish", kind="attest")
    def handle_finish(self, data: bytes) -> None:
        """Step 6: verify the target's key confirmation."""
        if self._keys is None:
            raise AttestationError("finish before key derivation")
        if not hmac_verify(self._keys.confirm_key, b"finish:" + self._binding, data):
            raise AttestationError("target key-confirmation failed")
        self.complete = True


class AttestationTargetProgram(EnclaveProgram):
    """A minimal enclave program that can be remotely attested."""

    def on_load(self, ctx: EnclaveContext) -> None:
        super().on_load(ctx)
        self._attestor: Optional[TargetAttestor] = None

    def configure_attestation(
        self,
        verification_info: Optional[QuoteVerificationInfo] = None,
        peer_policy: Optional[IdentityPolicy] = None,
    ) -> None:
        self._attestor = TargetAttestor(self.ctx, verification_info, peer_policy)

    def ra_challenge(self, data: bytes) -> bytes:
        if self._attestor is None:
            self._attestor = TargetAttestor(self.ctx)
        return self._attestor.handle_challenge(data)

    def ra_confirm(self, data: bytes) -> bytes:
        if self._attestor is None:
            raise AttestationError("not configured")
        return self._attestor.handle_confirm(data)

    def channel_echo(self, ciphertext: bytes) -> bytes:
        """Test helper: decrypt with responder key, re-encrypt reply."""
        from repro.crypto.modes import CtrStream

        keys = self._attestor.session_keys if self._attestor else None
        if keys is None:
            raise AttestationError("no session established")
        plaintext = CtrStream(keys.initiator_enc, b"echo-in").process(ciphertext)
        return CtrStream(keys.responder_enc, b"echo-out").process(plaintext[::-1])


class AttestationChallengerProgram(EnclaveProgram):
    """A minimal enclave program that challenges a remote target."""

    def on_load(self, ctx: EnclaveContext) -> None:
        super().on_load(ctx)
        self._attestor: Optional[ChallengerAttestor] = None

    def configure_attestation(
        self,
        verification_info: QuoteVerificationInfo,
        policy: IdentityPolicy,
        config: AttestationConfig = AttestationConfig(),
    ) -> None:
        self._attestor = ChallengerAttestor(self.ctx, verification_info, policy, config)

    def ra_start(self) -> bytes:
        if self._attestor is None:
            raise AttestationError("not configured")
        return self._attestor.start()

    def ra_quote_response(self, data: bytes) -> Optional[bytes]:
        if self._attestor is None:
            raise AttestationError("not configured")
        return self._attestor.handle_quote_response(data)

    def ra_finish(self, data: bytes) -> None:
        if self._attestor is None:
            raise AttestationError("not configured")
        self._attestor.handle_finish(data)

    def is_complete(self) -> bool:
        return self._attestor is not None and self._attestor.complete

    def peer_identity(self) -> Optional[EnclaveIdentity]:
        return self._attestor.peer_identity if self._attestor else None


def run_attestation(challenger_enclave, target_enclave) -> int:
    """Shuttle attestation messages between two enclaves directly.

    The enclaves must host the programs above (or compatible ones) and
    already be configured.  Returns the number of messages exchanged.
    Used by unit tests and the Table 1 benchmark; networked deployments
    use :mod:`repro.core` instead.
    """
    messages = 0
    challenge = challenger_enclave.ecall("ra_start")
    messages += 1
    response = target_enclave.ecall("ra_challenge", challenge)
    messages += 1
    confirm = challenger_enclave.ecall("ra_quote_response", response)
    if confirm is not None:
        messages += 1
        finish = target_enclave.ecall("ra_confirm", confirm)
        messages += 1
        challenger_enclave.ecall("ra_finish", finish)
    return messages
