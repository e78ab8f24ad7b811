"""Tests for switchless calls: the synchronous mode of ``RingPair``.

Covers the queue mechanics (slots, polling, fallback crossings), the
cost accounting it produces per domain, the runtime integration
(ocall / send_packets / recv_packets / ecall_switchless), adoption in
the routing deployment, and the heap-index construction fix.
"""

import pytest

from tests.fixtures import make_author_key

from repro import faults
from repro.cost import DEFAULT_MODEL
from repro.crypto.drbg import Rng

from repro.errors import SgxError
from repro.sgx import EnclaveProgram, RingPair, SgxPlatform
from repro.sgx.runtime import EnclaveContext


class WorkloadProgram(EnclaveProgram):
    def setup(self, capacity: int = 64, poll_interval: int = 8):
        self.ctx.enable_switchless(capacity=capacity, poll_interval=poll_interval)

    def do_ocalls(self, n: int, switchless: bool):
        seen = []
        for i in range(n):
            self.ctx.ocall(seen.append, i, switchless=switchless)
        return seen

    def do_send(self, packets, switchless: bool):
        return self.ctx.send_packets(lambda _p: None, packets, switchless=switchless)

    def do_recv(self, receiver, switchless: bool):
        return self.ctx.recv_packets(receiver, switchless=switchless)

    def flush(self):
        return self.ctx.switchless.flush()

    def bump(self, amount: int = 1):
        self._count = getattr(self, "_count", 0) + amount
        return self._count


def _stalled():
    """A plan whose worker misses every polling window it is asked about."""
    return faults.active(faults.FaultPlan(0, [faults.FaultRule(faults.WORKER_STALL)]))


@pytest.fixture()
def platform():
    return SgxPlatform("sw-host", rng=Rng(b"switchless-test"))


@pytest.fixture()
def author():
    return make_author_key(b"switchless-author")


@pytest.fixture()
def enclave(platform, author):
    enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
    enclave.ecall("setup")
    return enclave


def _domain_delta(platform, enclave, before):
    return platform.accountant.delta(before).get(enclave.domain)


class TestQueueMechanics:
    def test_invalid_parameters_rejected(self, platform, author):
        enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
        with pytest.raises(SgxError):
            RingPair(platform, "sideways", enclave.domain, mode="sync")
        with pytest.raises(SgxError):
            RingPair(platform, "ocall", enclave.domain, capacity=0, mode="sync")
        with pytest.raises(SgxError):
            RingPair(platform, "ocall", enclave.domain, harvest_depth=0, mode="sync")
        with pytest.raises(SgxError):
            RingPair(platform, "ocall", enclave.domain, mode="sideways")

    def test_call_returns_result_with_zero_crossings(self, enclave, platform):
        before = platform.accountant.snapshot()
        queue = enclave.ctx.switchless
        assert queue.call(lambda a, b: a + b, (2, 3)) == 5
        delta = platform.accountant.delta(before)
        assert all(c.enclave_crossings == 0 for c in delta.values())
        assert all(c.sgx_instructions == 0 for c in delta.values())
        assert queue.stats.submitted == 1
        assert queue.stats.completed == 1
        assert queue.stats.fallback_crossings == 0

    def test_post_drains_on_poll_interval(self, platform, author):
        enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
        enclave.ecall("setup", 64, 4)
        queue = enclave.ctx.switchless
        ran = []
        for i in range(3):
            queue.post(ran.append, (i,))
        assert ran == []          # below the poll interval: still queued
        assert queue.depth == 3
        queue.post(ran.append, (3,))
        assert ran == [0, 1, 2, 3]  # 4th post triggers the worker pass
        assert queue.depth == 0

    def test_flush_drains_pending_posts(self, enclave):
        queue = enclave.ctx.switchless
        ran = []
        queue.post(ran.append, (1,))
        queue.post(ran.append, (2,))
        assert queue.flush() == 2
        assert ran == [1, 2]
        assert queue.flush() == 0

    def test_reenable_drains_old_backlog(self, platform, author):
        enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
        enclave.ecall("setup", 64, 100)   # high interval: posts stay queued
        old = enclave.ctx.switchless
        ran = []
        old.post(ran.append, (1,))
        old.post(ran.append, (2,))
        assert old.depth == 2
        new = enclave.ctx.enable_switchless()
        assert new is not old
        assert ran == [1, 2]              # old backlog ran, not dropped
        assert new.depth == 0

    def test_full_queue_with_worker_polls_without_crossing(
        self, platform, author
    ):
        enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
        enclave.ecall("setup", 2, 100)  # tiny capacity, lazy polling
        queue = enclave.ctx.switchless
        ran = []
        before = platform.accountant.snapshot()
        for i in range(5):
            queue.post(ran.append, (i,))
        delta = platform.accountant.delta(before)
        assert all(c.enclave_crossings == 0 for c in delta.values())
        assert queue.stats.fallback_crossings == 0
        assert queue.stats.max_depth == 2
        queue.flush()
        assert ran == [0, 1, 2, 3, 4]

    def test_paused_worker_call_falls_back_to_one_crossing(
        self, enclave, platform
    ):
        queue = enclave.ctx.switchless
        before = platform.accountant.snapshot()
        with _stalled():
            assert queue.call(lambda: 41) == 41
        delta = _domain_delta(platform, enclave, before)
        assert delta.enclave_crossings == 1
        assert delta.sgx_instructions == 2  # EEXIT + ERESUME
        assert queue.stats.fallback_crossings == 1

    def test_fallback_drains_backlog_with_single_crossing(
        self, platform, author
    ):
        enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
        enclave.ecall("setup", 8, 100)   # high interval: posts stay queued
        queue = enclave.ctx.switchless
        ran = []
        for i in range(6):
            queue.post(ran.append, (i,))
        assert ran == []
        before = platform.accountant.snapshot()
        with _stalled():
            queue.call(ran.append, (6,))
        assert ran == [0, 1, 2, 3, 4, 5, 6]
        delta = _domain_delta(platform, enclave, before)
        # The stalled call's one crossing runs the six posted slots
        # first, then the call itself — never one crossing per call.
        assert delta.enclave_crossings == 1
        assert queue.stats.fallback_crossings == 1
        assert queue.depth == 0


class TestQueueAccounting:
    def test_submit_charges_caller_domain(self, enclave, platform):
        before = platform.accountant.snapshot()
        with platform.accountant.attribute(enclave.domain):
            enclave.ctx.switchless.call(lambda: None)
        delta = platform.accountant.delta(before)
        assert (
            delta[enclave.domain].normal_instructions
            == DEFAULT_MODEL.switchless_slot_normal
        )
        assert delta[enclave.domain].switchless_calls == 1

    def test_service_charges_worker_domain(self, enclave, platform):
        before = platform.accountant.snapshot()
        with platform.accountant.attribute(enclave.domain):
            enclave.ctx.switchless.call(lambda: None)
        delta = platform.accountant.delta(before)
        # Caller side (slot write) lands in the enclave domain; the
        # worker's poll pass lands untrusted.
        assert (
            delta[platform.untrusted_domain].normal_instructions
            == DEFAULT_MODEL.ring_poll_normal
        )

    def test_fallback_charges_crossing_costs(self, enclave, platform):
        queue = enclave.ctx.switchless
        before = platform.accountant.snapshot()
        with _stalled():
            queue.call(lambda: None)
        delta = platform.accountant.delta(before)
        expected = (
            DEFAULT_MODEL.trampoline_normal
            + DEFAULT_MODEL.ring_fallback_normal
        )
        assert delta[enclave.domain].normal_instructions == expected


class TestRuntimeIntegration:
    def test_switchless_ocall_requires_enable(self, platform, author):
        enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
        with pytest.raises(SgxError, match="enable_switchless"):
            enclave.ecall("do_ocalls", 1, True)

    def test_ocall_burst_pays_no_crossings(self, enclave, platform):
        before = platform.accountant.snapshot()
        assert enclave.ecall("do_ocalls", 50, True) == list(range(50))
        delta = _domain_delta(platform, enclave, before)
        assert delta.enclave_crossings == 1        # just the ecall itself
        assert delta.switchless_calls == 50

    def test_regular_ocall_burst_for_comparison(self, enclave, platform):
        before = platform.accountant.snapshot()
        enclave.ecall("do_ocalls", 50, False)
        delta = _domain_delta(platform, enclave, before)
        assert delta.enclave_crossings == 51       # ecall + one per ocall

    def test_switchless_send_returns_none_and_skips_crossing(
        self, enclave, platform
    ):
        before = platform.accountant.snapshot()
        result = enclave.ecall("do_send", [b"x"] * 10, True)
        enclave.ecall("flush")
        assert result is None
        delta = _domain_delta(platform, enclave, before)
        assert delta.enclave_crossings == 2        # the two ecalls only
        assert delta.sgx_instructions == 4         # their EENTER/EEXIT pairs

    def test_switchless_recv_validates_and_returns(self, enclave, platform):
        before = platform.accountant.snapshot()
        packets = enclave.ecall("do_recv", lambda: [b"aa", b"bb"], True)
        assert packets == [b"aa", b"bb"]
        delta = _domain_delta(platform, enclave, before)
        assert delta.enclave_crossings == 1        # just the ecall

    def test_ecall_switchless_falls_back_without_queue(self, platform, author):
        enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
        assert enclave.switchless_ecalls is None
        assert enclave.ecall_switchless("bump") == 1  # plain ecall path

    def test_ecall_switchless_uses_queue(self, platform, author):
        enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
        enclave.enable_switchless_ecalls()
        before = platform.accountant.snapshot()
        assert enclave.ecall_switchless("bump") == 1
        assert enclave.ecall_switchless("bump", 2) == 3
        delta = platform.accountant.delta(before)
        assert all(c.enclave_crossings == 0 for c in delta.values())
        # The method's work is attributed to the enclave's domain (the
        # worker lives inside for the ecall direction).
        assert delta[enclave.domain].normal_instructions > 0
        assert enclave.switchless_ecalls.stats.completed == 2

    def test_ecall_switchless_still_validates_exports(self, platform, author):
        enclave = platform.load_enclave(WorkloadProgram(), author_key=author)
        enclave.enable_switchless_ecalls()
        with pytest.raises(SgxError):
            enclave.ecall_switchless("no_such_method")
        from repro.errors import EnclaveAccessError

        with pytest.raises(EnclaveAccessError):
            enclave.ecall_switchless("_count")


class TestAdoption:
    def test_routing_switchless_same_routes_fewer_crossings(self):
        from repro.routing.deployment import run_sgx_routing

        base = run_sgx_routing(n_ases=3, seed=b"sw-routing")
        sw = run_sgx_routing(n_ases=3, seed=b"sw-routing", switchless=True)
        assert sw.routes == base.routes
        assert (
            sw.controller_steady.enclave_crossings
            <= base.controller_steady.enclave_crossings // 2
        )
        assert sw.controller_steady.switchless_calls > 0

    def test_middlebox_switchless_same_verdicts(self):
        from repro.middlebox.scenarios import MiddleboxScenario

        payloads = [b"hello", b"SECRET-TOKEN inside", b"bye"]
        base = MiddleboxScenario(n_middleboxes=1, seed=b"sw-mbox").run(payloads)
        sw = MiddleboxScenario(
            n_middleboxes=1, seed=b"sw-mbox", switchless=True
        ).run(payloads)
        assert sw.replies == base.replies
        assert sw.alerts == base.alerts
        assert sw.stats == base.stats

    def test_relay_core_batch_matches_sequential(self):
        from repro.tor.handshake import OnionKeyPair
        from repro.tor.relay import RelayCore

        def build(seed):
            rng = Rng(seed, "relay")
            return RelayCore("r", OnionKeyPair.generate(rng.fork("key")), rng.fork("c"))

        # An unknown-circuit RELAY cell deterministically produces a
        # destroy directive — enough to compare batch vs sequential.
        from repro.tor.cell import Cell, CellCommand

        cells = [
            (7, Cell(i, CellCommand.RELAY, b"\x00" * 507).encode())
            for i in range(1, 4)
        ]
        sequential = build(b"a")
        expected = []
        for link_id, cell in cells:
            expected.extend(sequential.handle_cell(link_id, cell))
        batched = build(b"a")
        assert batched.handle_cells(cells) == expected
        assert batched.cells_processed == sequential.cells_processed


class TestHeapIndexFix:
    def test_enclave_without_pages_raises_clearly(self, platform):
        class Hollow:
            name = "hollow"
            _pages = []

        with pytest.raises(SgxError, match="no EPC pages"):
            EnclaveContext(Hollow(), platform)

    def test_enclave_missing_pages_attr_raises(self, platform):
        class NoPages:
            name = "nopages"

        with pytest.raises(SgxError, match="no EPC pages"):
            EnclaveContext(NoPages(), platform)

    def test_normal_enclave_has_heap_page(self, enclave):
        assert enclave.ctx.heap_page_count == 1
        enclave.ctx.write_heap(0, b"data")
        assert enclave.ctx.read_heap(0, length=4) == b"data"
