"""Property suite for the calendar-queue/heap hybrid.

The model is the dumbest correct priority queue there is: a list of
``(time, seq, value)`` triples popped by ``min`` over ``(time, seq)``.
Hypothesis drives arbitrary interleavings of schedule / cancel / pop
against :class:`repro.net.calqueue.CalendarQueue` and the model must
never disagree — in particular on FIFO order within a shared
timestamp, which is the invariant the fast simulator kernel's
correctness rests on (see DESIGN.md).

The deterministic tests at the bottom pin the raw kernel path
(``push`` / ``min_time`` / ``pop_bucket`` / ``advance_onto``) and the
same-timestamp timeout-vs-delivery tie-break in
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
# integers avoid float-comparison noise in the model.
_times = st.sampled_from([0.0, 0.25, 0.25, 0.5, 1.0, 1.0, 2.0, 7.5])

# One program = a sequence of operations:
#   ("schedule", time)  — insert the next value at ``time``
#   ("cancel", k)       — cancel the k-th handle issued so far (mod len)
#   ("pop",)            — pop the earliest live entry
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _times),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("pop")),
    ),
    max_size=120,
)


class _ModelQueue:
    """Sorted-list reference: pop-min over (time, insertion seq)."""

    def __init__(self):
        self.entries = []  # live (time, seq, value)
        self.seq = 0

    def schedule(self, time, value):
        key = (time, self.seq, value)
        self.seq += 1
        self.entries.append(key)
        return key

    def cancel(self, key):
        if key in self.entries:
            self.entries.remove(key)
            return True
        return False

    def pop(self):
        best = min(self.entries)  # (time, seq) lexicographic
        self.entries.remove(best)
        return best[0], best[2]

    def __len__(self):
        return len(self.entries)


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_property_matches_sorted_list_model(ops):
    real = CalendarQueue()
    model = _ModelQueue()
    handles = []  # (real handle, model key), including consumed ones
    counter = 0
    for op in ops:
        if op[0] == "schedule":
            value = counter
            counter += 1
            handles.append(
                (real.schedule(op[1], value), model.schedule(op[1], value))
            )
        elif op[0] == "cancel":
            if not handles:
                continue
            handle, key = handles[op[1] % len(handles)]
            # Cancelling an already-popped or already-cancelled handle
            # must be a refused no-op in both.
            assert real.cancel(handle) == model.cancel(key)
        else:
            if len(model):
                assert real.pop() == model.pop()
            else:
                with pytest.raises(IndexError):
                    real.pop()
        assert len(real) == len(model)
        assert bool(real) == bool(model)
    # Drain: the survivors must come out in exact model order.
    while len(model):
        assert real.pop() == model.pop()
    with pytest.raises(IndexError):
        real.pop()


@settings(max_examples=100, deadline=None)
@given(times=st.lists(_times, max_size=60))
def test_property_raw_path_drains_in_time_then_fifo_order(times):
    """push/pop_bucket (no cancellation) yields (time, seq) order."""
    q = CalendarQueue()
    for i, t in enumerate(times):
        q.push(t, (t, i))
    expected = sorted(((t, i) for i, t in enumerate(times)))
    drained = []
    while q:
        assert q.min_time() == (expected[len(drained)][0] if expected else None)
        _, bucket = q.pop_bucket()
        drained.extend(bucket if type(bucket) is list else [bucket])
    assert drained == expected
    assert q.min_time() is None


def test_same_timestamp_fifo_tie_break():
    """Entries sharing a timestamp pop in insertion order, even when
    interleaved with cancellations and other timestamps."""
    q = CalendarQueue()
    first = q.schedule(1.0, "first")
    q.schedule(0.5, "early")
    second = q.schedule(1.0, "second")
    q.schedule(1.0, "third")
    q.cancel(second)
    assert [q.pop() for _ in range(3)] == [
        (0.5, "early"),
        (1.0, "first"),
        (1.0, "third"),
    ]


def test_advance_onto_splices_whole_bucket():
    q = CalendarQueue()
    q.push(2.0, ("b", 0))
    q.push(1.0, ("a", 0))
    q.push(2.0, ("b", 1))
    fifo = deque()
    assert q.advance_onto(fifo) == 1.0
    assert list(fifo) == [("a", 0)]
    fifo.clear()
    assert q.advance_onto(fifo) == 2.0
    assert list(fifo) == [("b", 0), ("b", 1)]
    assert not q
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
