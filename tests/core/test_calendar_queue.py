"""Property suite for the calendar-queue/heap hybrid.

Hypothesis pushes arbitrary timestamps through
:class:`repro.net.calqueue.CalendarQueue` and drains it the way the
kernel does (:meth:`~repro.net.calqueue.CalendarQueue.advance_onto`).
Entries must come out in time order and, within a shared timestamp,
in insertion (FIFO) order — the invariant the fast simulator kernel's
correctness rests on (see DESIGN.md).

The deterministic tests at the bottom pin ``advance_onto`` on a fixed
shape and the same-timestamp timeout-vs-delivery tie-break in
:class:`~repro.net.sim.MessageQueue` that PR 2 fixed, on both kernels.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import sim
from repro.net.calqueue import CalendarQueue
from repro.errors import SimTimeout
from tests.oracles import sim_reference

# A tiny timestamp pool forces heavy same-timestamp collisions; the
# integers avoid float-comparison noise.
_times = st.sampled_from([0.0, 0.25, 0.25, 0.5, 1.0, 1.0, 2.0, 7.5])


@settings(max_examples=100, deadline=None)
@given(times=st.lists(_times, max_size=60))
def test_property_raw_path_drains_in_time_then_fifo_order(times):
    """push/advance_onto yields time order, then FIFO within a time."""
    q = CalendarQueue()
    for i, t in enumerate(times):
        q.push(t, (t, i))
    drained = []
    advanced = []
    while q._times:
        fifo = deque()
        advanced.append(q.advance_onto(fifo))
        # One bucket per call: every entry carries the returned time.
        assert {t for t, _ in fifo} == {advanced[-1]}
        drained.extend(fifo)
    assert advanced == sorted(set(times))
    assert [t for t, _ in drained] == sorted(times)
    for t in set(times):
        seqs = [i for when, i in drained if when == t]
        assert seqs == sorted(seqs)
    assert sorted(drained) == sorted((t, i) for i, t in enumerate(times))
    with pytest.raises(IndexError):
        q.advance_onto(deque())


def test_advance_onto_splices_whole_bucket():
    q = CalendarQueue()
    q.push(2.0, ("b", 0))
    q.push(1.0, ("a", 0))
    q.push(2.0, ("b", 1))
    q.push(2.0, ("b", 2))
    fifo = deque()
    assert q.advance_onto(fifo) == 1.0
    assert list(fifo) == [("a", 0)]
    fifo.clear()
    assert q.advance_onto(fifo) == 2.0
    assert list(fifo) == [("b", 0), ("b", 1), ("b", 2)]
    assert not q._times and not q._buckets
    with pytest.raises(IndexError):
        q.advance_onto(fifo)


# -- the PR 2 MessageQueue same-timestamp regression, on both kernels ------


def _timeout_vs_delivery_tie(sim_module):
    """A put and a get-timeout landing on the same timestamp: the
    earlier-scheduled event wins, and a losing delivery re-buffers its
    item instead of dropping it or waking a stale wait."""
    sim_obj = sim_module.Simulator()
    queue = sim_obj.queue("tie")
    outcomes = []

    def producer():
        yield sim_obj.sleep(1.0)
        queue.put("payload")

    def consumer():
        try:
            item = yield queue.get(timeout=1.0)
            outcomes.append(("got", item))
        except SimTimeout:
            outcomes.append(("timeout",))

    # Producer first: its put at t=1.0 is scheduled *before* the
    # consumer's timeout at t=1.0, so the delivery enqueues a wake —
    # but the timeout still fires first at that timestamp (it entered
    # the t=1.0 bucket before the put-wake entered the now-lane), the
    # wake goes stale, and the item must be re-buffered.
    sim_obj.spawn(producer(), "producer")
    sim_obj.spawn(consumer(), "consumer")
    sim_obj.run()
    return outcomes, len(queue), sim_obj.now


def test_message_queue_timeout_vs_delivery_tie_fast_kernel():
    assert _timeout_vs_delivery_tie(sim) == ([("timeout",)], 1, 1.0)


def test_message_queue_timeout_vs_delivery_tie_reference_kernel():
    assert _timeout_vs_delivery_tie(sim_reference) == ([("timeout",)], 1, 1.0)
