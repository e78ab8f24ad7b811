"""Regression pins for the ring pumps' wait loop (PR 2 and PR 6 bugs).

The ring pumps (``OnionRouterNode._link_pump_rings``,
``MiddleboxNode._pump_rings``) sit in exactly the two traps this repo
has already fixed once:

* **PR 2** — a ``MessageQueue`` delivery and a ``get(timeout=...)``
  timeout landing on the same timestamp: the earlier-scheduled event
  must win and a losing delivery must re-buffer its item.  The pumps
  linger with ``timeout=REAP_LINGER`` on *every* iteration with work
  in flight, so this tie fires constantly — a regression would
  silently drop cells/records.
* **Stale entries** — a stale entry must never act twice.  The
  calendar queue cancels nothing: a linger timeout that *loses* (a
  message arrives first) still fires, and the kernel's wake token
  makes it a no-op.  The ring keeps the same discipline for serviced
  tickets: once reaped, a ticket is released and any later reap of it
  is refused.

Both are pinned here against the ring shapes, on both kernels.
"""

import pytest

from repro.crypto.drbg import Rng
from repro.errors import SgxError, SimTimeout
from repro.net import sim
from repro.sgx import RingPair, SgxPlatform
from tests.conformance.harness import Knobs, applied
from tests.oracles import sim_reference

#: Mirrors OnionRouterNode.REAP_LINGER / MiddleboxNode.REAP_LINGER.
REAP_LINGER = 1e-6


# ---------------------------------------------------------------------------
# PR 2: the linger timeout vs same-timestamp delivery tie
# ---------------------------------------------------------------------------


def _linger_tie(sim_module):
    """A put scheduled before a REAP_LINGER timeout at the same
    timestamp: the timeout still fires first (it entered the bucket
    earlier), and the losing delivery re-buffers the item for the next
    recv — exactly the PR 2 contract, at the pumps' tiny timeout."""
    simulator = sim_module.Simulator()
    queue = simulator.queue("linger-tie")
    outcomes = []

    def producer():
        yield simulator.sleep(REAP_LINGER)
        queue.put("cell")

    def pump():
        try:
            item = yield queue.get(timeout=REAP_LINGER)
            outcomes.append(("got", item))
        except SimTimeout:
            outcomes.append(("linger-expired",))
        # The pump's next blocking recv must still see the item.
        item = yield queue.get()
        outcomes.append(("drained", item))

    simulator.spawn(producer(), "producer")
    simulator.spawn(pump(), "pump")
    simulator.run()
    return outcomes


def test_linger_tie_fast_kernel():
    assert _linger_tie(sim) == [("linger-expired",), ("drained", "cell")]


def test_linger_tie_reference_kernel():
    assert _linger_tie(sim_reference) == [
        ("linger-expired",),
        ("drained", "cell"),
    ]


def _ring_pump_batches(sim_module, arrivals):
    """A miniature of the real ring pumps: blocking recv when idle,
    linger recv with work in flight, flush on timeout or at depth 4.
    Returns the batch partition — it must be deterministic and lose
    nothing, whatever the arrival timestamps."""
    simulator = sim_module.Simulator()
    queue = simulator.queue("pump")
    batches = []
    depth = 4

    def producer():
        now = 0.0
        for t, item in arrivals:
            if t > now:
                yield simulator.sleep(t - now)
                now = t
            queue.put(item)
        yield simulator.sleep(1.0)
        queue.put(None)  # EOF

    def pump():
        batch = []
        while True:
            if batch:
                try:
                    item = yield queue.get(timeout=REAP_LINGER)
                except SimTimeout:
                    batches.append(batch)
                    batch = []
                    continue
            else:
                item = yield queue.get()
            if item is None:
                if batch:
                    batches.append(batch)
                return
            batch.append(item)
            if len(batch) >= depth:
                batches.append(batch)
                batch = []

    simulator.spawn(producer(), "producer")
    simulator.spawn(pump(), "pump")
    simulator.run()
    return batches


_ARRIVAL_SHAPES = [
    # A same-instant burst coalesces into one batch under the linger.
    [(0.0, i) for i in range(3)],
    # A burst past the depth splits exactly at the depth boundary.
    [(0.0, i) for i in range(6)],
    # Spaced arrivals (beyond the linger) flush one by one.
    [(0.1 * i, i) for i in range(3)],
    # Burst, gap, burst.
    [(0.0, 0), (0.0, 1), (0.5, 2), (0.5, 3), (0.5, 4)],
]
_EXPECTED_BATCHES = [
    [[0, 1, 2]],
    [[0, 1, 2, 3], [4, 5]],
    [[0], [1], [2]],
    [[0, 1], [2, 3, 4]],
]


@pytest.mark.parametrize(
    "arrivals,expected", zip(_ARRIVAL_SHAPES, _EXPECTED_BATCHES)
)
def test_pump_batches_deterministic_fast_kernel(arrivals, expected):
    assert _ring_pump_batches(sim, arrivals) == expected


@pytest.mark.parametrize(
    "arrivals,expected", zip(_ARRIVAL_SHAPES, _EXPECTED_BATCHES)
)
def test_pump_batches_deterministic_reference_kernel(arrivals, expected):
    assert _ring_pump_batches(sim_reference, arrivals) == expected


# ---------------------------------------------------------------------------
# PR 6: a serviced ticket is released; a stale one is refused
# ---------------------------------------------------------------------------


@pytest.fixture()
def ring():
    platform = SgxPlatform("ring-regr", rng=Rng(b"ring-regr"))
    return RingPair(platform, "ecall", "enclave:regr")


class TestCancelAfterService:
    """What a ticket is worth after its entry was serviced and reaped."""

    def test_reaped_entries_are_released(self, ring):
        for i in range(1000):
            assert ring.reap(ring.submit(lambda v=i: v)) == i
        assert ring.in_flight == 0
        assert not ring._entries
        with pytest.raises(SgxError, match="reaped"):
            ring.reap(0)

    def test_unknown_ticket_rejected(self, ring):
        with pytest.raises(SgxError, match="unknown"):
            ring.reap(999)


# ---------------------------------------------------------------------------
# End to end: the real middlebox ring pump on both kernels
# ---------------------------------------------------------------------------


class TestPumpCrossKernel:
    def _run(self):
        from repro.middlebox.scenarios import MiddleboxScenario

        scenario = MiddleboxScenario(
            n_middleboxes=1, seed=b"ring-kernels", rings=True, ring_depth=4
        )
        result = scenario.run([b"r%d" % i for i in range(6)], pipeline=True)
        return result.replies, result.stats

    def test_ring_scenario_identical_on_both_kernels(self):
        # The linger loop leans on same-timestamp scheduling; the two
        # kernels must agree byte for byte or the pump is relying on
        # kernel-private ordering.
        fast = self._run()
        with applied(Knobs(kernel="reference")):
            reference = self._run()
        assert fast == reference
        assert fast[0] == [b"OK:r%d" % i for i in range(6)]
