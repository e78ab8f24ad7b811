"""Adversarial tests for the recv_packets Iago checks.

The OS is untrusted (paper Section 6): every value an ocall hands back
must be validated before enclave code touches it.  These tests play a
malicious receiver against both the ordinary crossing path and the
switchless worker path — the checks must hold identically on both,
since a compromised switchless worker is exactly as untrusted as a
compromised ocall target.
"""

import pytest

from repro import faults
from repro.crypto.drbg import Rng
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import SgxError
from repro.sgx import EnclaveProgram, SgxPlatform
from repro.sgx.runtime import EnclaveContext


class ReceiverProgram(EnclaveProgram):
    """Exposes the packet-receive path so tests can feed it attacks."""

    def setup_switchless(self) -> None:
        self.ctx.enable_switchless()

    def receive(self, receiver, switchless: bool = False):
        return self.ctx.recv_packets(receiver, switchless=switchless)


@pytest.fixture()
def enclave():
    platform = SgxPlatform("iago-host", rng=Rng(b"iago"))
    author = generate_rsa_keypair(512, Rng(b"iago-author"))
    enclave = platform.load_enclave(ReceiverProgram(), author_key=author)
    enclave.ecall("setup_switchless")
    return enclave


def _recv(enclave, receiver, switchless):
    return enclave.ecall("receive", receiver, switchless)


@pytest.fixture(params=[False, True], ids=["crossing", "switchless"])
def switchless(request):
    return request.param


class TestIagoChecks:
    def test_honest_receiver_passes(self, enclave, switchless):
        packets = _recv(enclave, lambda: [b"a", b"bb"], switchless)
        assert packets == [b"a", b"bb"]

    def test_bytearray_normalized_to_bytes(self, enclave, switchless):
        packets = _recv(enclave, lambda: [bytearray(b"xy")], switchless)
        assert packets == [b"xy"]
        assert all(type(p) is bytes for p in packets)

    def test_oversized_packet_rejected(self, enclave, switchless):
        huge = b"\x00" * (EnclaveContext.MAX_PACKET_BYTES + 1)
        with pytest.raises(SgxError, match="byte packet"):
            _recv(enclave, lambda: [huge], switchless)

    def test_packet_at_cap_accepted(self, enclave, switchless):
        exact = b"\x00" * EnclaveContext.MAX_PACKET_BYTES
        assert _recv(enclave, lambda: [exact], switchless) == [exact]

    def test_over_cap_batch_rejected(self, enclave, switchless):
        flood = [b"x"] * (EnclaveContext.MAX_PACKETS_PER_RECV + 1)
        with pytest.raises(SgxError, match="packets"):
            _recv(enclave, lambda: flood, switchless)

    def test_non_sequence_return_rejected(self, enclave, switchless):
        with pytest.raises(SgxError, match="non-sequence"):
            _recv(enclave, lambda: b"not-a-list", switchless)

    def test_generator_return_rejected(self, enclave, switchless):
        # A lazy iterable could run attacker code during enclave
        # iteration; only materialized sequences are accepted.
        with pytest.raises(SgxError, match="non-sequence"):
            _recv(enclave, lambda: (b"x" for _ in range(2)), switchless)

    def test_non_bytes_packet_rejected(self, enclave, switchless):
        with pytest.raises(SgxError, match="non-bytes"):
            _recv(enclave, lambda: [b"ok", "sneaky-str"], switchless)

    def test_none_return_rejected(self, enclave, switchless):
        with pytest.raises(SgxError, match="non-sequence"):
            _recv(enclave, lambda: None, switchless)


class TestSwitchlessWorkerResponses:
    def test_paused_worker_fallback_still_validates(self, enclave):
        # With the worker stalled the call degrades to a real crossing —
        # the Iago checks must hold on that path too.
        huge = b"\x00" * (EnclaveContext.MAX_PACKET_BYTES + 1)
        plan = faults.FaultPlan(0, [faults.FaultRule(faults.WORKER_STALL)])
        with faults.active(plan), pytest.raises(SgxError, match="byte packet"):
            _recv(enclave, lambda: [huge], True)
        assert enclave.ctx.switchless.stats.fallback_crossings == 1
        assert len(plan.log) == 1

    def test_queue_validate_hook_applies_to_call(self, enclave):
        # Directly exercise the queue API the runtime builds on.
        queue = enclave.ctx.switchless

        def tampering_worker():
            return "garbage"

        with pytest.raises(SgxError, match="non-sequence"):
            queue.call(
                tampering_worker,
                validate=enclave.ctx._validate_recv_packets,
            )
