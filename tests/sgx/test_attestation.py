"""Local and remote attestation end-to-end."""

import pytest

from repro.crypto.drbg import Rng
from repro.crypto.modes import CtrStream
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import AttestationError
from repro.sgx.attestation import (
    AttestationChallengerProgram,
    AttestationConfig,
    AttestationTargetProgram,
    IdentityPolicy,
    SessionKeys,
    run_attestation,
)
from repro.sgx.measurement import EnclaveIdentity
from repro.sgx.platform import SgxPlatform
from repro.sgx.quoting import AttestationAuthority, Quote, verify_quote
from repro.sgx.report import Report, TargetInfo, create_report, verify_report_mac
from repro.sgx.keys import derive_report_key


# authority / author_key fixtures come from tests/conftest.py


def make_pair(authority, author_key, config=AttestationConfig(), policy=None):
    """Two platforms: a challenger enclave and a target enclave."""
    remote = SgxPlatform("remote", authority, rng=Rng(b"remote-host"))
    local = SgxPlatform("local", authority, rng=Rng(b"local-host"))
    target = remote.load_enclave(
        AttestationTargetProgram(), author_key=author_key, name="target"
    )
    challenger = local.load_enclave(
        AttestationChallengerProgram(), author_key=author_key, name="challenger"
    )
    if policy is None:
        policy = IdentityPolicy.for_mrenclave(target.identity.mrenclave)
    info = authority.verification_info()
    challenger.ecall("configure_attestation", info, policy, config)
    target.ecall("configure_attestation", info, policy)
    return local, remote, challenger, target


class TestReports:
    def test_report_roundtrip(self):
        secret = b"\x07" * 32
        identity = EnclaveIdentity(mrenclave=b"\x01" * 32, mrsigner=b"\x02" * 32)
        target = TargetInfo(mrenclave=b"\x03" * 32)
        report = create_report(secret, identity, target, b"user data", b"\x04" * 32)
        key = derive_report_key(secret, target.mrenclave, report.key_id)
        verify_report_mac(report, key)  # must not raise

    def test_report_wrong_key_rejected(self):
        secret = b"\x07" * 32
        identity = EnclaveIdentity(mrenclave=b"\x01" * 32, mrsigner=b"\x02" * 32)
        target = TargetInfo(mrenclave=b"\x03" * 32)
        report = create_report(secret, identity, target, b"", b"\x04" * 32)
        wrong = derive_report_key(secret, b"\x05" * 32, report.key_id)
        with pytest.raises(AttestationError):
            verify_report_mac(report, wrong)

    def test_report_encode_decode(self):
        secret = b"\x07" * 32
        identity = EnclaveIdentity(mrenclave=b"\x01" * 32, mrsigner=b"\x02" * 32)
        report = create_report(
            secret, identity, TargetInfo(b"\x03" * 32), b"data", b"\x04" * 32
        )
        assert Report.decode(report.encode()) == report

    def test_report_data_too_long(self):
        identity = EnclaveIdentity(mrenclave=b"\x01" * 32, mrsigner=b"\x02" * 32)
        with pytest.raises(AttestationError):
            create_report(
                b"\x07" * 32, identity, TargetInfo(b"\x03" * 32), b"x" * 65, b"\x04" * 32
            )


class TestRemoteAttestation:
    def test_with_dh_establishes_matching_keys(self, authority, author_key):
        local, remote, challenger, target = make_pair(authority, author_key)
        n = run_attestation(challenger, target)
        assert n == 4
        assert challenger.ecall("is_complete")
        # Prove both sides hold the same keys: round-trip a secret.
        plaintext = b"policy: prefer customer routes"
        # Untrusted driver only ever sees ciphertext.
        ct = CtrStream(
            _challenger_keys(challenger).initiator_enc, b"echo-in"
        ).process(plaintext)
        reply = target.ecall("channel_echo", ct)
        out = CtrStream(
            _challenger_keys(challenger).responder_enc, b"echo-out"
        ).process(reply)
        assert out == plaintext[::-1]

    def test_without_dh_completes_in_two_messages(self, authority, author_key):
        local, remote, challenger, target = make_pair(
            authority, author_key, AttestationConfig(with_dh=False)
        )
        n = run_attestation(challenger, target)
        assert n == 2
        assert challenger.ecall("is_complete")

    def test_mutual_attestation(self, authority, author_key):
        remote = SgxPlatform("remote-m", authority, rng=Rng(b"remote-m"))
        local = SgxPlatform("local-m", authority, rng=Rng(b"local-m"))
        target = remote.load_enclave(
            AttestationTargetProgram(), author_key=author_key, name="target"
        )
        challenger = local.load_enclave(
            AttestationChallengerProgram(), author_key=author_key, name="challenger"
        )
        info = authority.verification_info()
        challenger.ecall(
            "configure_attestation",
            info,
            IdentityPolicy.for_mrenclave(target.identity.mrenclave),
            AttestationConfig(mutual=True),
        )
        target.ecall(
            "configure_attestation",
            info,
            IdentityPolicy.for_mrenclave(challenger.identity.mrenclave),
        )
        assert run_attestation(challenger, target) == 4
        assert challenger.ecall("is_complete")
        peer = challenger.ecall("peer_identity")
        assert peer.mrenclave == target.identity.mrenclave

    def test_mutual_requires_dh(self, authority, author_key):
        with pytest.raises(AttestationError):
            make_pair(
                authority,
                author_key,
                AttestationConfig(with_dh=False, mutual=True),
            )

    def test_modified_target_rejected_by_policy(self, authority, author_key):
        """A 'tampered' target program measures differently -> refused."""

        class TamperedTargetProgram(AttestationTargetProgram):
            def ra_challenge(self, data):
                # A snooping modification: logs challenges before answering.
                self._log = data
                return super().ra_challenge(data)

        remote = SgxPlatform("remote-t", authority, rng=Rng(b"remote-t"))
        local = SgxPlatform("local-t", authority, rng=Rng(b"local-t"))
        # The attacker self-signs; launch succeeds on their own box...
        target = remote.load_enclave(
            TamperedTargetProgram(), author_key=author_key, name="target"
        )
        challenger = local.load_enclave(
            AttestationChallengerProgram(), author_key=author_key, name="challenger"
        )
        # ...but the challenger pins the *audited* program's measurement.
        pristine = SgxPlatform("audit", authority, rng=Rng(b"audit"))
        audited = pristine.load_enclave(
            AttestationTargetProgram(), author_key=author_key, name="audited"
        )
        challenger.ecall(
            "configure_attestation",
            authority.verification_info(),
            IdentityPolicy.for_mrenclave(audited.identity.mrenclave),
            AttestationConfig(),
        )
        with pytest.raises(AttestationError, match="MRENCLAVE"):
            run_attestation(challenger, target)

    def test_revoked_platform_rejected(self, author_key):
        authority = AttestationAuthority(Rng(b"revocation-test"))
        local, remote, challenger, target = make_pair(authority, author_key)
        # Revoke the remote CPU, then refresh verification info.
        authority.revoke_platform(remote._member_key.keypair.y)
        challenger.ecall(
            "configure_attestation",
            authority.verification_info(),
            IdentityPolicy.accept_any(),
            AttestationConfig(),
        )
        with pytest.raises(AttestationError, match="revoked|invalid"):
            run_attestation(challenger, target)

    def test_reprovisioned_platform_stays_revoked(self, author_key):
        authority = AttestationAuthority(Rng(b"cached-revocation-test"))
        first = SgxPlatform("remote", authority, rng=Rng(b"first-remote-host"))
        authority.revoke_platform(first._member_key.keypair.y)
        # make_pair builds a new "remote" platform: it is handed the
        # cached, revoked key and must still fail attestation.
        local, remote, challenger, target = make_pair(authority, author_key)
        assert remote._member_key is first._member_key
        with pytest.raises(AttestationError, match="revoked|invalid"):
            run_attestation(challenger, target)

    def test_quote_from_foreign_group_rejected(self, authority, author_key):
        rogue_authority = AttestationAuthority(Rng(b"rogue"))
        remote = SgxPlatform("rogue-host", rogue_authority, rng=Rng(b"rogue-host"))
        local = SgxPlatform("verifier", authority, rng=Rng(b"verifier"))
        target = remote.load_enclave(
            AttestationTargetProgram(), author_key=author_key, name="target"
        )
        challenger = local.load_enclave(
            AttestationChallengerProgram(), author_key=author_key, name="challenger"
        )
        challenger.ecall(
            "configure_attestation",
            authority.verification_info(),  # the real group's info
            IdentityPolicy.accept_any(),
            AttestationConfig(),
        )
        with pytest.raises(AttestationError):
            run_attestation(challenger, target)

    def test_tampered_quote_response_rejected(self, authority, author_key):
        local, remote, challenger, target = make_pair(
            authority, author_key, policy=IdentityPolicy.accept_any()
        )
        challenge = challenger.ecall("ra_start")
        response = bytearray(target.ecall("ra_challenge", challenge))
        response[10] ^= 0xFF  # flip a bit inside the quote
        with pytest.raises(Exception):
            challenger.ecall("ra_quote_response", bytes(response))

    def test_confirm_before_challenge_rejected(self, authority, author_key):
        local, remote, challenger, target = make_pair(authority, author_key)
        with pytest.raises(AttestationError):
            target.ecall("ra_confirm", b"\x00" * 64)


class TestSessionKeys:
    def test_derivation_is_deterministic(self):
        keys = SessionKeys.derive(b"shared", b"\x01" * 32)
        again = SessionKeys.derive(b"shared", b"\x01" * 32)
        assert keys == again

    def test_different_nonce_different_keys(self):
        a = SessionKeys.derive(b"shared", b"\x01" * 32)
        b = SessionKeys.derive(b"shared", b"\x02" * 32)
        assert a.initiator_enc != b.initiator_enc

    def test_directional_keys_differ(self):
        keys = SessionKeys.derive(b"shared", b"\x00" * 32)
        assert keys.initiator_enc != keys.responder_enc
        assert keys.initiator_mac != keys.responder_mac


class TestQuoteStructure:
    def test_quote_encode_decode(self, authority, author_key):
        remote = SgxPlatform("qhost", authority, rng=Rng(b"qhost"))
        target = remote.load_enclave(
            AttestationTargetProgram(), author_key=author_key, name="t"
        )
        challenger_rng_nonce = b"\x01" * 32
        from repro.sgx.attestation import _encode_challenge

        response = target.ecall(
            "ra_challenge",
            _encode_challenge(challenger_rng_nonce, AttestationConfig(with_dh=False)),
        )
        from repro.wire import Reader

        quote_bytes = Reader(response).varbytes()
        quote = Quote.decode(quote_bytes)
        assert quote.identity.mrenclave == target.identity.mrenclave
        verified = verify_quote(quote_bytes, authority.verification_info())
        assert verified == quote


def _challenger_keys(challenger_enclave):
    """Test-only peek at the challenger's derived session keys."""
    program = challenger_enclave._program  # bypassing the boundary: test fixture
    return program._attestor.session_keys


class TestMemberProvisioning:
    def test_repeated_name_gets_the_issued_key(self, authority):
        first = authority.provision_member("cpu-a")
        assert authority.provision_member("cpu-a") is first
        other = authority.provision_member("cpu-b")
        assert other.keypair.y != first.keypair.y
        assert authority.provision_member("cpu-b") is other
