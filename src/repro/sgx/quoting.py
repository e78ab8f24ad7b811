"""Quoting enclave and the attestation authority (Intel's role).

Paper, Section 2.2: "Intel SGX uses a specially provisioned enclave,
called quoting enclave, whose identity is well-known...  Only the
quoting enclave can access the processor key used for attestation."
The quoting enclave verifies a locally-attested REPORT and signs a
QUOTE with the platform's EPID member key; remote verifiers check the
signature against the EPID group public key published by the
authority.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Optional

from repro.cost import context as cost_context
from repro.crypto import cache
from repro.crypto.drbg import Rng
from repro.crypto.epid import (
    EpidGroupManager,
    EpidGroupPublicKey,
    EpidMemberKey,
    EpidSignature,
    epid_verify,
)
from repro.crypto.hashes import sha256
from repro.crypto.rsa import RsaPrivateKey, generate_rsa_keypair
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import AttestationError
from repro.sgx.measurement import EnclaveIdentity
from repro.sgx.report import Report, verify_report_mac
from repro.sgx.runtime import EnclaveProgram
from repro.wire import Reader, Writer

__all__ = [
    "Quote",
    "QuotingEnclaveProgram",
    "AttestationAuthority",
    "QuoteVerificationInfo",
    "verify_quote",
]


@dataclasses.dataclass(frozen=True)
class Quote:
    """A signed attestation statement about one enclave."""

    identity: EnclaveIdentity        # the attested enclave
    report_data: bytes               # 64 bytes of user data (binds the channel)
    qe_identity: EnclaveIdentity     # who signed (the quoting enclave)
    signature: EpidSignature

    def signed_body(self) -> bytes:
        return (
            Writer()
            .raw(self.identity.encode())
            .raw(self.report_data)
            .raw(self.qe_identity.encode())
            .getvalue()
        )

    def encode(self) -> bytes:
        return (
            Writer()
            .raw(self.signed_body())
            .varint(self.signature.member_public)
            .varbytes(self.signature.credential.encode())
            .varbytes(self.signature.signature.encode())
            .getvalue()
        )

    @classmethod
    def decode(cls, data: bytes) -> "Quote":
        reader = Reader(data)
        identity = EnclaveIdentity.decode(reader.raw(68))
        report_data = reader.raw(64)
        qe_identity = EnclaveIdentity.decode(reader.raw(68))
        member_public = reader.varint()
        credential = SchnorrSignature.decode(reader.varbytes())
        signature = SchnorrSignature.decode(reader.varbytes())
        return cls(
            identity=identity,
            report_data=report_data,
            qe_identity=qe_identity,
            signature=EpidSignature(
                member_public=member_public,
                credential=credential,
                signature=signature,
            ),
        )


@dataclasses.dataclass(frozen=True)
class QuoteVerificationInfo:
    """What a remote verifier needs (distributed by the authority)."""

    group_public_key: EpidGroupPublicKey
    qe_mrenclave: bytes
    revocation_list: FrozenSet[int] = frozenset()


class QuotingEnclaveProgram(EnclaveProgram):
    """The architectural quoting enclave.

    The platform installs the EPID member key right after launch,
    gated on this enclave's measured identity — modeling the
    provisioning-key access control of real SGX.
    """

    ISV_PROD_ID = 0x0E
    ISV_SVN = 1

    def on_load(self, ctx) -> None:
        super().on_load(ctx)
        self._member_key: Optional[EpidMemberKey] = None
        self._quotes_created = 0

    def quote_count(self) -> int:
        """How many QUOTEs this platform has produced (one per remote
        attestation in which it was the target) — used by the Table 3
        experiment to count attestations from live runs."""
        return self._quotes_created

    def install_attestation_key(self, member_key: EpidMemberKey) -> None:
        """Platform-internal provisioning (see SgxPlatform)."""
        if self._member_key is not None:
            raise AttestationError("attestation key already provisioned")
        self._member_key = member_key

    def create_quote(self, report_bytes: bytes) -> bytes:
        """Verify a locally attested REPORT and sign a QUOTE.

        Returns ``quote || qe_report`` where ``qe_report`` is this
        enclave's reciprocal REPORT targeted at the requesting enclave,
        letting the requester authenticate the quoting enclave in turn
        (the mutual intra-attestation of Section 2.2).
        """
        if self._member_key is None:
            raise AttestationError("quoting enclave not provisioned")
        model = cost_context.current_model()
        cost_context.charge_normal(model.attest_quoting_runtime_normal)

        self._quotes_created += 1
        # The report arrives (and the quote leaves) through the
        # enclave I/O path, like any boundary crossing.
        self.ctx.recv_packets(lambda: [report_bytes])
        report = Report.decode(report_bytes)
        # EGETKEY our report key and verify the MAC: proves the report
        # was created by EREPORT on this same platform.
        report_key = self.ctx.egetkey_report(report.key_id)
        verify_report_mac(report, report_key)

        quote = Quote(
            identity=report.identity,
            report_data=report.report_data,
            qe_identity=self.ctx.identity,
            signature=self._member_key.sign(
                sha256(
                    Writer()
                    .raw(report.identity.encode())
                    .raw(report.report_data)
                    .raw(self.ctx.identity.encode())
                    .getvalue()
                )
            ),
        )
        # Reciprocal report so the requester can verify it was the
        # genuine quoting enclave that answered.
        from repro.sgx.report import TargetInfo  # local import avoids cycle

        qe_report = self.ctx.ereport(
            TargetInfo(mrenclave=report.identity.mrenclave),
            sha256(quote.encode())[:32],
        )
        bundle = (
            Writer().varbytes(quote.encode()).varbytes(qe_report.encode()).getvalue()
        )
        self.ctx.send_packets(lambda _p: None, [bundle[:1500]])
        return bundle


class AttestationAuthority:
    """Plays Intel: owns the EPID group, signs architectural enclaves,
    publishes verification info and the revocation list."""

    def __init__(self, rng: Rng) -> None:
        self._rng = rng
        self._epid = EpidGroupManager(rng.fork("epid"))
        self.architectural_signer: RsaPrivateKey = generate_rsa_keypair(
            512, rng.fork("architectural-signer")
        )
        self._qe_mrenclave: Optional[bytes] = None
        self._members: Dict[str, EpidMemberKey] = {}

    def provision_member(self, platform_name: str) -> EpidMemberKey:
        """Issue a CPU its attestation key (at 'manufacture' time); a
        name seen before gets the same key back, revoked or not."""
        if platform_name not in self._members:
            self._members[platform_name] = self._epid.issue_member_key(platform_name)
        return self._members[platform_name]

    def register_qe_measurement(self, mrenclave: bytes) -> None:
        """Record the well-known quoting-enclave identity (first launch)."""
        if self._qe_mrenclave is None:
            self._qe_mrenclave = mrenclave
        elif self._qe_mrenclave != mrenclave:
            raise AttestationError("conflicting quoting enclave measurement")

    def revoke_platform(self, member_public: int) -> None:
        """Revoke a compromised CPU; verifiers refresh their info."""
        self._epid.revoke(member_public)

    def verification_info(self) -> QuoteVerificationInfo:
        """What verifiers fetch from the attestation service."""
        if self._qe_mrenclave is None:
            raise AttestationError("no quoting enclave registered yet")
        return QuoteVerificationInfo(
            group_public_key=self._epid.group_public_key,
            qe_mrenclave=self._qe_mrenclave,
            revocation_list=self._epid.revocation_list,
        )


@cache.burst_charged
def verify_quote(quote_bytes: bytes, info: QuoteVerificationInfo) -> Quote:
    """Remote verification of a QUOTE (paper Figure 1, step 'verify
    signature').  Returns the decoded quote on success.

    A call charges its totals as one burst (DESIGN.md §15): metrics
    samples that fall inside a verification read that grouping.
    """
    quote = Quote.decode(quote_bytes)
    if quote.qe_identity.mrenclave != info.qe_mrenclave:
        raise AttestationError("quote not signed by a recognized quoting enclave")
    body_hash = sha256(quote.signed_body())
    if not epid_verify(
        info.group_public_key,
        body_hash,
        quote.signature,
        revocation_list=info.revocation_list,
    ):
        raise AttestationError("quote signature invalid or platform revoked")
    return quote
