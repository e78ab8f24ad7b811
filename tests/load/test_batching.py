"""Batched enclave crossings and batched secure records.

The load engine's ``batch=K`` knob leans on two mechanisms pinned
here: ``Enclave.ecall_batch`` (K ecalls under one EENTER/EEXIT) and
``SecureRecordChannel.protect_many``/``open_many`` (K application
messages under one seal/MAC).  The crucial property is *equivalence*:
K=1 charges exactly what the unbatched path charges, and any K
returns the same results the unbatched path returns.
"""

import contextlib

import pytest

from tests.fixtures import make_author_key, make_authority, make_platform

from repro import faults
from repro.cost import context as cost_context
from repro.errors import ProtocolError, SgxError
from repro.net.channel import (
    SecureRecordChannel,
    decode_record_batch,
    encode_record_batch,
)
from repro.sgx import EnclaveProgram
from repro.obs import Tracer
from repro.sgx.attestation import SessionKeys


class ArithmeticProgram(EnclaveProgram):
    """Tiny workload: per-call state mutation with a return value."""

    def on_load(self, ctx):
        super().on_load(ctx)
        self._total = 0

    def add(self, n):
        self._total += n
        return self._total

    def boom(self):
        raise ValueError("handler failure")

    def work(self, n):
        """``add`` that also charges in-enclave compute (for AEX models)."""
        cost_context.charge_app_normal(1_000 * n)
        return self.add(n)


def _fresh_enclave(tag):
    authority = make_authority(b"batch-auth:" + tag)
    platform = make_platform("batch-host", authority, seed=b"batch:" + tag)
    key = make_author_key(b"batch-author")
    return platform, platform.load_enclave(ArithmeticProgram(), author_key=key)


def _k1_setting(setting, platform):
    """Arm one K=1 parity setting; returns the fault plan to activate."""
    if setting == "interrupts":
        platform.interrupt_rate = 0.001
    if setting == "aex_storm":
        return faults.FaultPlan(
            b"k1-parity", [faults.FaultRule(faults.AEX_STORM, max_count=1)]
        )
    return None


def _k1_parity_counts(setting):
    """Run one call unbatched and as a K=1 batch under ``setting``;
    assert results, counters, trace records and fault log all match, and
    return the enclave domain's counters."""
    runs = {}
    for mode in ("plain", "batch"):
        platform, enclave = _fresh_enclave(mode.encode())
        plan = _k1_setting(setting, platform)
        tracer = Tracer()
        tracer.attach(platform.accountant)
        mark = tracer.mark()
        before = platform.accountant.snapshot()
        with faults.active(plan) if plan else contextlib.nullcontext():
            if mode == "plain":
                result = [enclave.ecall("work", 7)]
            else:
                # ``calls`` may be any iterable, not only a list.
                result = enclave.ecall_batch(("work", (n,), {}) for n in (7,))
        delta = platform.accountant.delta(before)
        runs[mode] = (
            result,
            {d: c.as_dict() for d, c in delta.items()},
            tracer.records(mark),
            plan.log.digest() if plan else None,
        )
    assert runs["batch"] == runs["plain"]
    return runs["plain"][1][enclave.domain]


class TestEcallBatch:
    def test_single_element_batch_charges_exactly_one_ecall(self):
        """K=1 parity, integer for integer and record for record — the
        load engine's batch=1 runs must reconcile against unbatched
        baselines exactly, traced or not."""
        assert _k1_parity_counts("plain")["enclave_crossings"] == 1

    @pytest.mark.parametrize("setting", ["interrupts", "aex_storm"])
    def test_single_element_batch_parity_under_aex(self, setting):
        """K=1 parity also holds with interrupts or an injected AEX storm."""
        counts = _k1_parity_counts(setting)
        # The setting really charged asynchronous exits.
        assert counts["enclave_crossings"] > 1

    def test_k_calls_pay_one_crossing(self):
        platform, enclave = _fresh_enclave(b"amortize")
        before = platform.accountant.snapshot()
        results = enclave.ecall_batch([("add", (i,), {}) for i in range(1, 6)])
        assert results == [1, 3, 6, 10, 15]
        delta = platform.accountant.delta(before)[enclave.domain]
        assert delta.enclave_crossings == 1

    def test_batch_results_match_sequential_ecalls(self):
        p_seq, e_seq = _fresh_enclave(b"seq")
        p_bat, e_bat = _fresh_enclave(b"bat")
        sequential = [e_seq.ecall("add", i) for i in range(1, 9)]
        batched = e_bat.ecall_batch([("add", (i,), {}) for i in range(1, 9)])
        assert batched == sequential
        # The amortization is real: strictly fewer crossings.
        seq_cross = p_seq.accountant.total().enclave_crossings
        bat_cross = p_bat.accountant.total().enclave_crossings
        assert bat_cross < seq_cross

    def test_empty_batch_rejected(self):
        _platform, enclave = _fresh_enclave(b"empty")
        with pytest.raises(SgxError, match="empty"):
            enclave.ecall_batch([])

    def test_failing_handler_aborts_batch(self):
        _platform, enclave = _fresh_enclave(b"abort")
        with pytest.raises(ValueError, match="handler failure"):
            enclave.ecall_batch([("add", (1,), {}), ("boom", (), {})])
        # Partial results are discarded but state mutations before the
        # failure stand (same semantics as sequential ecalls).
        assert enclave.ecall("add", 0) == 1

    def test_batch_respects_export_rules(self):
        _platform, enclave = _fresh_enclave(b"export")
        with pytest.raises(Exception):
            enclave.ecall_batch([("_hidden", (), {})])


class TestRecordBatch:
    def test_encode_decode_roundtrip(self):
        for messages in ([], [b""], [b"a"], [b"a", b"bb", b"", b"ccc" * 100]):
            assert decode_record_batch(encode_record_batch(messages)) == messages

    def _pair(self):
        keys = SessionKeys.derive(b"batch-secret", b"\x01" * 32)
        return (
            SecureRecordChannel(keys, "initiator"),
            SecureRecordChannel(keys, "responder"),
        )

    def test_protect_many_roundtrip(self):
        tx, rx = self._pair()
        messages = [b"alpha", b"", b"gamma" * 50]
        assert rx.open_many(tx.protect_many(messages)) == messages

    def test_batch_and_single_records_interleave(self):
        """One batch consumes one sequence number: plain records keep
        flowing on the same channel afterwards."""
        tx, rx = self._pair()
        assert rx.open_many(tx.protect_many([b"one", b"two"])) == [b"one", b"two"]
        assert rx.open(tx.protect(b"three")) == b"three"
        assert rx.open_many(tx.protect_many([b"four"])) == [b"four"]

    def test_tampered_batch_rejected(self):
        tx, rx = self._pair()
        record = bytearray(tx.protect_many([b"payload"]))
        record[-1] ^= 0x01
        with pytest.raises(ProtocolError):
            rx.open_many(bytes(record))
