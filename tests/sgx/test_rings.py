"""Property and mechanics suite for the async I/O rings (repro.sgx.rings).

The hypothesis property drives arbitrary interleavings of submit /
reap / reap_all / flush against the dumbest correct model there is — a
dict of entries walked in submission (seq) order — and
:class:`~repro.sgx.rings.RingPair` must never disagree: not on ticket
numbers, not on results, not on which reaps are refused, not on the
order ``reap_all`` returns completions.  Wrap-around falls out of tiny
ring capacities (slot index is seq mod capacity), and full-ring
backpressure out of the overflow service points the model mirrors.

The deterministic classes below pin the modeled costs against
``DEFAULT_MODEL`` field by field: submit/reap marshalling, the
adaptive spin -> sleep -> doorbell worker cycle, the backpressure each
mode implies (sync drains through its worker, async crosses), and the
worker-less fallback crossing that ablation A14 rests on.
:class:`TestRingsAblationGrid` pins the A14 grid itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.fixtures import make_author_key

from repro import experiments, faults
from repro.cost import DEFAULT_MODEL
from repro.crypto.drbg import Rng
from repro.errors import SgxError
from repro.sgx import EnclaveProgram, RingPair, SgxPlatform

SPIN_BUDGET = RingPair.SPIN_BUDGET


def _value_of(x: int) -> int:
    return x * 3 + 1


def _total(delta):
    """Sum a domain->Counter delta into one Counter."""
    total = None
    for counter in delta.values():
        if total is None:
            total = counter.copy()
        else:
            total += counter
    return total


def _make_ring(platform, **kwargs) -> RingPair:
    kwargs.setdefault("direction", "ecall")
    return RingPair(platform, enclave_domain="enclave:model", **kwargs)


@pytest.fixture()
def platform():
    return SgxPlatform("ring-host", rng=Rng(b"ring-test"))


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


class _ModelRing:
    """Reference semantics: entries in a dict, serviced in seq order.

    Service points mirror the worker-less ring exactly: a submit that
    finds the ring full, any reap of a still-pending entry, reap_all
    with outstanding submissions, and flush — each drains *every*
    pending entry (the fallback crossing drains the whole ring).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries = {}
        self.order = []
        self.pending = []
        self.seq = 0

    def _service(self):
        for seq in self.pending:
            self.entries[seq]["serviced"] = True
        self.pending = []

    def submit(self, value: int) -> int:
        if len(self.pending) >= self.capacity:
            self._service()
        seq = self.seq
        self.seq += 1
        self.entries[seq] = {
            "value": _value_of(value),
            "serviced": False,
            "reaped": False,
        }
        self.order.append(seq)
        self.pending.append(seq)
        return seq

    def reap(self, seq: int):
        """The entry's value, or None where the real ring must raise."""
        entry = self.entries.get(seq)
        if entry is None or entry["reaped"]:
            return None
        if not entry["serviced"]:
            self._service()
        entry["reaped"] = True
        return entry["value"]

    def reap_all(self):
        self._service()
        out = []
        for seq in self.order:
            entry = self.entries[seq]
            if entry["reaped"]:
                continue
            entry["reaped"] = True
            out.append((seq, entry["value"]))
        return out

    def flush(self) -> int:
        count = len(self.pending)
        self._service()
        return count

    @property
    def depth(self) -> int:
        return len(self.pending)

    @property
    def in_flight(self) -> int:
        return sum(1 for seq in self.order if not self.entries[seq]["reaped"])


# One program = a sequence of operations; indices address the k-th
# ticket ever issued (mod count), so reaps hit live and consumed
# entries alike.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("reap"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("reap_all")),
        st.tuples(st.just("flush")),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops, capacity=st.integers(min_value=1, max_value=5))
def test_property_matches_model_worker_less(ops, capacity):
    """Worker-less (ecall-direction) ring vs the model, tiny capacities."""
    platform = SgxPlatform("ring-prop", rng=Rng(b"ring-prop"))
    ring = _make_ring(platform, capacity=capacity)
    model = _ModelRing(capacity)
    tickets = []
    for op in ops:
        if op[0] == "submit":
            real = ring.submit(_value_of, (op[1],))
            assert real == model.submit(op[1])
            tickets.append(real)
        elif op[0] == "reap":
            if not tickets:
                continue
            ticket = tickets[op[1] % len(tickets)]
            expected = model.reap(ticket)
            if expected is None:
                with pytest.raises(SgxError):
                    ring.reap(ticket)
            else:
                assert ring.reap(ticket) == expected
        elif op[0] == "reap_all":
            assert ring.reap_all() == model.reap_all()
        else:
            assert ring.flush() == model.flush()
        assert ring.depth == model.depth
        assert ring.in_flight == model.in_flight
    # Drain: the survivors come out in exact submission order.
    assert ring.reap_all() == model.reap_all()
    assert ring.in_flight == 0
    assert ring.stats.submitted == model.seq
    assert ring.stats.reaped == sum(
        1 for e in model.entries.values() if e["reaped"]
    )


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=99), max_size=40),
    harvest_depth=st.integers(min_value=1, max_value=10),
)
def test_property_live_worker_preserves_order_and_books(values, harvest_depth):
    """Ocall-direction ring with a live adaptive worker: completions
    come back in submission order whatever the harvest depth, and the
    spin/sleep/wakeup books stay consistent."""
    platform = SgxPlatform("ring-prop-w", rng=Rng(b"ring-prop-w"))
    ring = _make_ring(
        platform,
        direction="ocall",
        harvest_depth=harvest_depth,
        capacity=64,
    )
    assert ring.worker_running
    for value in values:
        ring.submit(_value_of, (value,))
    reaped = ring.reap_all()
    assert reaped == [(i, _value_of(v)) for i, v in enumerate(values)]
    stats = ring.stats
    assert stats.submitted == stats.completed == stats.reaped == len(values)
    assert stats.spins <= len(values)
    # Every sleep is entered through an exhausted budget and left
    # through exactly one doorbell (except a final sleep nothing woke).
    assert stats.wakeups in (stats.sleeps, stats.sleeps - 1)
    if harvest_depth <= SPIN_BUDGET:
        assert stats.sleeps == 0  # every pass comes before the budget runs out
    if len(values) >= harvest_depth:
        assert stats.polls >= 1
    # A live worker never needs the crossing fallback.
    assert stats.fallback_crossings == 0


# ---------------------------------------------------------------------------
# Construction and parameter validation
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_invalid_parameters_rejected(self, platform):
        with pytest.raises(SgxError):
            _make_ring(platform, direction="sideways")
        with pytest.raises(SgxError):
            _make_ring(platform, capacity=0)
        with pytest.raises(SgxError):
            _make_ring(platform, harvest_depth=0)
        with pytest.raises(SgxError):
            _make_ring(platform, mode="panic")

    def test_worker_defaults_by_direction(self, platform):
        # Host cores are cheap: the ocall direction polls by default.
        assert _make_ring(platform, direction="ocall").worker_running
        # An in-enclave poller burns a TCS + core: ecall defaults off.
        assert not _make_ring(platform, direction="ecall").worker_running
        assert _make_ring(platform, direction="ecall", worker=True).worker_running


# ---------------------------------------------------------------------------
# Cost accounting against DEFAULT_MODEL
# ---------------------------------------------------------------------------


class TestCosts:
    def test_submit_charges_marshalling_no_crossing(self, platform):
        ring = _make_ring(platform)
        before = platform.accountant.snapshot()
        ring.submit(_value_of, (1,))
        total = _total(platform.accountant.delta(before))
        assert total.normal_instructions == DEFAULT_MODEL.ring_submit_normal
        assert total.enclave_crossings == 0
        assert total.sgx_instructions == 0
        assert total.switchless_calls == 1

    def test_worker_less_harvest_is_one_crossing(self, platform):
        ring = _make_ring(platform)  # ecall, no worker
        for i in range(6):
            ring.submit(_value_of, (i,))
        before = platform.accountant.snapshot()
        assert ring.reap_all() == [(i, _value_of(i)) for i in range(6)]
        delta = platform.accountant.delta(before)
        enclave = delta["enclave:model"]
        # One genuine crossing drains all six: EENTER + EEXIT, the
        # trampoline, and the ring-drain fallback path.
        assert enclave.enclave_crossings == 1
        assert enclave.sgx_instructions == 2
        assert enclave.normal_instructions == (
            DEFAULT_MODEL.trampoline_normal + DEFAULT_MODEL.ring_fallback_normal
        )
        # The completion reads land on the (untrusted) caller's side.
        assert delta[platform.untrusted_domain].normal_instructions == (
            6 * DEFAULT_MODEL.ring_reap_normal
        )
        assert ring.stats.fallback_crossings == 1

    def test_adaptive_worker_spin_sleep_doorbell_cycle(self, platform):
        assert SPIN_BUDGET == 4
        ring = _make_ring(platform, direction="ocall", harvest_depth=8)
        for i in range(8):
            ring.submit(_value_of, (i,))
        stats = ring.stats
        # Submissions 1-4 each burn a spin credit; the 4th exhausts the
        # budget and the worker sleeps.  Submission 5 pays the doorbell
        # (resetting the budget), 5-7 spin again, and the 8th hits the
        # harvest depth: one poll pass drains all eight.
        assert stats.spins == 7
        assert stats.sleeps == 1
        assert stats.wakeups == 1
        assert stats.polls == 1
        assert stats.completed == 8
        assert stats.fallback_crossings == 0

    def test_doorbell_charges_wakeup_cost(self, platform):
        ring = _make_ring(platform, direction="ocall", harvest_depth=64)
        for i in range(SPIN_BUDGET):  # exhausts the spin budget
            ring.submit(_value_of, (i,))
        assert ring.stats.sleeps == 1
        before = platform.accountant.snapshot()
        ring.submit(_value_of, (SPIN_BUDGET,))
        total = _total(platform.accountant.delta(before))
        assert ring.stats.wakeups == 1
        assert total.normal_instructions == (
            DEFAULT_MODEL.ring_wakeup_normal
            + DEFAULT_MODEL.ring_submit_normal
            + DEFAULT_MODEL.ring_spin_normal
        )

    def test_worker_poll_charged_to_worker_domain(self, platform):
        ring = _make_ring(platform, direction="ocall", harvest_depth=2)
        before = platform.accountant.snapshot()
        ring.submit(_value_of, (0,))
        ring.submit(_value_of, (1,))  # hits harvest_depth: poll pass
        delta = platform.accountant.delta(before)
        assert ring.stats.polls == 1
        untrusted = delta[platform.untrusted_domain]
        # The ocall direction's worker lives on the host side.
        assert untrusted.normal_instructions >= DEFAULT_MODEL.ring_poll_normal
        assert untrusted.enclave_crossings == 0


# ---------------------------------------------------------------------------
# Backpressure (full submission ring)
# ---------------------------------------------------------------------------


class TestBackpressure:
    """A full sync ring blocks (drains through its worker); a full async
    ring falls back to one crossing that drains everything."""

    def test_block_mode_spins_without_crossing(self, platform):
        # The caller of a sync ring already spins on its slot, so the
        # drain through the live worker charges no spin-wait either.
        ring = _make_ring(
            platform, direction="ocall", capacity=2, harvest_depth=100,
            mode="sync",
        )
        ran = []
        before = platform.accountant.snapshot()
        for i in range(5):
            ring.post(ran.append, (i,))
        delta = platform.accountant.delta(before)
        assert all(c.enclave_crossings == 0 for c in delta.values())
        assert ring.stats.overflows == 2  # 3rd and 5th post found it full
        assert ring.stats.polls == 2
        assert ring.stats.spins == 0
        assert ring.stats.fallback_crossings == 0
        assert ring.stats.max_depth == 2
        ring.flush()
        assert ran == list(range(5))

    def test_block_without_worker_degrades_to_crossing(self, platform):
        ring = _make_ring(platform, capacity=2, mode="sync", worker=False)
        assert not ring.worker_running
        ran = []
        for i in range(3):
            ring.post(ran.append, (i,))
        # The blocked caller has no worker to wait on: the overflow
        # must degrade to the fallback crossing, not hang.
        assert ring.stats.overflows == 1
        assert ring.stats.fallback_crossings == 1
        assert ran == [0, 1]
        ring.flush()
        assert ran == [0, 1, 2]

    def test_fallback_mode_crossing_drains_everything(self, platform):
        # An async ring falls back even with a live worker to wait on.
        ring = _make_ring(platform, capacity=3, worker=True, harvest_depth=100)
        before = platform.accountant.snapshot()
        for i in range(7):  # overflows capacity 3 twice
            ring.submit(_value_of, (i,))
        delta = platform.accountant.delta(before)
        assert delta["enclave:model"].enclave_crossings == 2
        assert ring.stats.overflows == 2
        assert ring.stats.fallback_crossings == 2


# ---------------------------------------------------------------------------
# Worker stalls, validation hooks, error transport
# ---------------------------------------------------------------------------


class TestLifecycleAndHooks:
    def test_paused_worker_service_pays_crossing(self, platform):
        # An injected stall deschedules the worker for one harvest pass:
        # that pass degrades to one crossing that drains the ring.
        ring = _make_ring(platform, direction="ocall", harvest_depth=100)
        ring.submit(_value_of, (5,))
        plan = faults.FaultPlan(0, [faults.FaultRule(faults.RING_WORKER_STALL)])
        with faults.active(plan):
            assert ring.reap_all() == [(0, _value_of(5))]
        assert ring.worker_running
        assert ring.stats.fallback_crossings == 1
        assert ring.stats.polls == 0
        assert len(plan.log) == 1

    def test_validate_rejection_propagates(self, platform):
        # The Iago discipline: an untrusted result passes the enclave's
        # validator before any trusted code consumes it.
        ring = _make_ring(platform, direction="ocall", mode="sync")

        def reject(_value):
            raise SgxError("iago: implausible ocall result")

        with pytest.raises(SgxError, match="iago"):
            ring.call(_value_of, (3,), validate=reject)
        assert ring.stats.completed == 1

    def test_typed_error_travels_completion_ring(self, platform):
        ring = _make_ring(platform)

        def boom():
            raise SgxError("payload failed")

        ticket = ring.submit(boom)
        ok = ring.submit(_value_of, (1,))
        with pytest.raises(SgxError, match="payload failed"):
            ring.reap(ticket)
        # The failure is per-entry: its neighbor reaps normally.
        assert ring.reap(ok) == _value_of(1)

    def test_flush_counts_and_is_idempotent(self, platform):
        ring = _make_ring(platform)
        ring.submit(_value_of, (1,))
        ring.submit(_value_of, (2,))
        assert ring.flush() == 2
        assert ring.flush() == 0


# ---------------------------------------------------------------------------
# Runtime integration: ecall_submit plumbing
# ---------------------------------------------------------------------------


class RingWorkload(EnclaveProgram):
    def double(self, x: int):
        return x * 2


class TestRuntimeIntegration:
    @pytest.fixture()
    def author(self):
        return make_author_key(b"ring-author")

    def test_ecall_submit_requires_ring_attach(self, platform, author):
        enclave = platform.load_enclave(RingWorkload(), author_key=author)
        with pytest.raises(SgxError, match="enable_ring_ecalls"):
            enclave.ecall_submit("double", 2)

    def test_ecall_rings_amortize_crossings(self, platform, author):
        enclave = platform.load_enclave(RingWorkload(), author_key=author)
        enclave.enable_ring_ecalls(harvest_depth=4)
        before = platform.accountant.snapshot()
        tickets = [enclave.ecall_submit("double", i) for i in range(8)]
        results = enclave.ecall_reap_all()
        assert results == [(t, 2 * i) for i, t in enumerate(tickets)]
        delta = platform.accountant.delta(before)
        # 8 async ecalls, harvest drains on demand: 2 crossings total
        # (one fallback drain per reap_all-visible batch boundary),
        # never one per call.
        assert delta[enclave.domain].enclave_crossings < 8
        assert enclave.ring_ecalls.stats.submitted == 8

    def test_ecall_reap_single_ticket(self, platform, author):
        enclave = platform.load_enclave(RingWorkload(), author_key=author)
        enclave.enable_ring_ecalls()
        ticket = enclave.ecall_submit("double", 21)
        assert enclave.ecall_reap(ticket) == 42


# ---------------------------------------------------------------------------
# A8: the synchronous mode's off/on grid, integer-exact
# ---------------------------------------------------------------------------


class TestSwitchlessAblationPin:
    def test_grid_pinned(self):
        results = experiments.run_switchless_ablation()

        def cell(counter):
            return (
                counter.enclave_crossings,
                counter.sgx_instructions,
                counter.normal_instructions,
                counter.switchless_calls,
            )

        ocalls, packets = results["ocalls"], results["packets"]
        assert (cell(ocalls[False]), cell(ocalls[True])) == (
            (100, 200, 45000, 0),
            (0, 0, 55000, 100),
        )
        assert {key: cell(counter) for key, counter in packets.items()} == {
            (1, False): (1, 6, 13000, 0),
            (1, True): (0, 0, 1792, 1),
            (10, False): (1, 24, 24178, 0),
            (10, True): (0, 0, 12970, 1),
            (100, False): (1, 204, 135958, 0),
            (100, True): (0, 0, 124750, 1),
        }


# ---------------------------------------------------------------------------
# A14: the sync-vs-async crossing grid, integer-exact
# ---------------------------------------------------------------------------


class TestRingsAblationGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        return experiments.run_rings_ablation(n_records=64)["grid"]

    def test_grid_pinned(self, grid):
        assert [
            (cell["mode"], cell["depth"], cell["crossings"], cell["cycles"])
            for cell in grid
        ] == [
            ("ecall", 1, 64, 1331840),
            ("switchless", 1, 0, 63360),
            ("rings", 1, 64, 1483904),
            ("rings", 2, 32, 766144),
            ("rings", 4, 16, 407264),
            ("rings", 8, 8, 227824),
        ]

    def test_deep_rings_halve_crossings_twice(self, grid):
        # The acceptance bar: >= 2x crossings/record reduction at
        # depth >= 4 relative to the one-crossing-per-record baseline.
        deep = [
            cell for cell in grid if cell["mode"] == "rings" and cell["depth"] >= 4
        ]
        assert deep
        assert all(cell["crossing_reduction"] >= 2 for cell in deep)
