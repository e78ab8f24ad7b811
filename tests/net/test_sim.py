"""Event-loop, process and queue semantics."""

import pytest

from repro.errors import NetworkError
from repro.net.sim import SimTimeout, Simulator


class TestScheduling:
    def test_time_advances_in_order(self):
        sim = Simulator()
        seen = []
        sim.call_later(2.0, lambda: seen.append(("b", sim.now)))
        sim.call_later(1.0, lambda: seen.append(("a", sim.now)))
        sim.run()
        assert seen == [("a", 1.0), ("b", 2.0)]

    def test_same_time_fifo(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.call_later(1.0, seen.append, i)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(NetworkError):
            sim.call_later(-1, lambda: None)

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.0, seen.append, 1)
        sim.call_later(5.0, seen.append, 5)
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0

    def test_run_returns_final_time(self):
        sim = Simulator()
        sim.call_later(3.5, lambda: None)
        assert sim.run() == 3.5

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.call_later(0.001, rearm)

        sim.call_later(0, rearm)
        with pytest.raises(NetworkError, match="exceeded"):
            sim.run(max_events=100)


class TestProcesses:
    def test_sleep_resumes_at_right_time(self):
        sim = Simulator()
        wakeups = []

        def proc():
            yield sim.sleep(1.5)
            wakeups.append(sim.now)
            yield sim.sleep(0.5)
            wakeups.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert wakeups == [1.5, 2.0]

    def test_process_return_value_via_join(self):
        sim = Simulator()
        results = []

        def child():
            yield sim.sleep(1)
            return 42

        def parent():
            value = yield sim.spawn(child())
            results.append(value)

        sim.spawn(parent())
        sim.run()
        assert results == [42]

    def test_join_already_finished_process(self):
        sim = Simulator()
        results = []

        def child():
            return "done"
            yield  # pragma: no cover

        def parent():
            c = sim.spawn(child())
            yield sim.sleep(5)  # child long dead
            value = yield c
            results.append(value)

        sim.spawn(parent())
        sim.run()
        assert results == ["done"]

    def test_unjoined_exception_aborts_run(self):
        sim = Simulator()

        def bad():
            yield sim.sleep(1)
            raise ValueError("boom")

        sim.spawn(bad())
        with pytest.raises(NetworkError, match="failed"):
            sim.run()

    def test_joined_exception_propagates_to_joiner(self):
        sim = Simulator()
        caught = []

        def bad():
            yield sim.sleep(1)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.spawn(bad())
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(parent())
        sim.run()
        assert caught == ["boom"]

    def test_interrupt_kills_process(self):
        sim = Simulator()
        progress = []

        def victim():
            progress.append("start")
            yield sim.sleep(100)
            progress.append("never")

        p = sim.spawn(victim())
        sim.call_later(1.0, p.interrupt, "killed by OS")
        with pytest.raises(NetworkError):
            sim.run()
        assert progress == ["start"]

    def test_unknown_yield_fails_process(self):
        sim = Simulator()

        def weird():
            yield "not a command"

        sim.spawn(weird())
        with pytest.raises(NetworkError):
            sim.run()


class TestQueues:
    def test_put_then_get(self):
        sim = Simulator()
        q = sim.queue()
        got = []

        def consumer():
            item = yield q.get()
            got.append(item)

        q.put("early")
        sim.spawn(consumer())
        sim.run()
        assert got == ["early"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        q = sim.queue()
        got = []

        def consumer():
            item = yield q.get()
            got.append((item, sim.now))

        sim.spawn(consumer())
        sim.call_later(3.0, q.put, "late")
        sim.run()
        assert got == [("late", 3.0)]

    def test_fifo_ordering_of_items(self):
        sim = Simulator()
        q = sim.queue()
        got = []

        def consumer():
            for _ in range(3):
                got.append((yield q.get()))

        for i in range(3):
            q.put(i)
        sim.spawn(consumer())
        sim.run()
        assert got == [0, 1, 2]

    def test_multiple_waiters_fifo(self):
        sim = Simulator()
        q = sim.queue()
        got = []

        def consumer(tag):
            item = yield q.get()
            got.append((tag, item))

        sim.spawn(consumer("a"))
        sim.spawn(consumer("b"))
        sim.call_later(1.0, q.put, 1)
        sim.call_later(2.0, q.put, 2)
        sim.run()
        assert got == [("a", 1), ("b", 2)]

    def test_get_timeout_raises_simtimeout(self):
        sim = Simulator()
        q = sim.queue("empty")
        outcome = []

        def consumer():
            try:
                yield q.get(timeout=2.0)
            except SimTimeout:
                outcome.append(sim.now)

        sim.spawn(consumer())
        sim.run()
        assert outcome == [2.0]

    def test_timeout_cancelled_by_delivery(self):
        sim = Simulator()
        q = sim.queue()
        got = []

        def consumer():
            got.append((yield q.get(timeout=10.0)))
            # A second get must not be poisoned by the stale timer.
            got.append((yield q.get()))

        sim.spawn(consumer())
        sim.call_later(1.0, q.put, "x")
        sim.call_later(2.0, q.put, "y")
        sim.run()
        assert got == ["x", "y"]

    def test_timeout_and_delivery_at_same_timestamp(self):
        # Regression: an item put at exactly the waiter's timeout
        # instant must not be lost (or delivered to the timed-out
        # get).  The timeout wins the tie; the delivery wake-up sees
        # the stale token and re-buffers the item for the next get.
        sim = Simulator()
        q = sim.queue()
        events = []

        def consumer():
            try:
                yield q.get(timeout=1.0)
            except SimTimeout:
                events.append(("timeout", sim.now))
            events.append(("got", (yield q.get())))

        sim.spawn(consumer())
        sim.call_later(1.0, q.put, "raced")
        sim.run()
        assert events == [("timeout", 1.0), ("got", "raced")]

    def test_len_reports_buffered(self):
        sim = Simulator()
        q = sim.queue()
        q.put(1)
        q.put(2)
        assert len(q) == 2


class TestKernelFailureReporting:
    """The fast kernel's typed give-up paths (new in the rewrite)."""

    def test_max_events_raises_typed_sim_error(self):
        from repro.net.sim import SimError

        sim = Simulator()

        def spinner():
            while True:
                yield None

        sim.spawn(spinner(), "whirligig")
        with pytest.raises(SimError) as excinfo:
            sim.run(max_events=10)
        # SimError subclasses NetworkError, so pre-rewrite callers
        # catching the old type keep working.
        assert isinstance(excinfo.value, NetworkError)
        assert "exceeded 10 events" in str(excinfo.value)

    def test_exhaustion_names_oldest_runnable_process(self):
        from repro.net.sim import SimError

        sim = Simulator()

        def spinner():
            while True:
                yield None

        def finisher():
            yield sim.sleep(0.5)

        sim.spawn(spinner(), "oldest-spinner")
        sim.spawn(finisher(), "short-lived")
        with pytest.raises(SimError, match="oldest still-runnable process: 'oldest-spinner'"):
            sim.run(max_events=50)

    def test_exhaustion_report_scans_calendar_lane_too(self):
        from repro.net.sim import SimError

        sim = Simulator()

        def staller():
            while True:
                yield sim.sleep(1.0)

        sim.spawn(staller(), "far-future")
        with pytest.raises(SimError, match="far-future"):
            sim.run(max_events=7)

    def test_orphan_failure_report_records_process_and_error(self):
        sim = Simulator()

        def doomed():
            yield sim.sleep(0.25)
            raise RuntimeError("kaboom")

        process = sim.spawn(doomed(), "doomed")
        with pytest.raises(NetworkError, match="process 'doomed' failed at t=0.250000") as excinfo:
            sim.run()
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # _report_orphan_failure stashed the (process, error) pair the
        # run loop re-raised from.
        assert sim._orphan_failures == [(process, excinfo.value.__cause__)]
        assert str(excinfo.value.__cause__) == "kaboom"


class TestKernelSelection:
    def test_create_defaults_to_fast_kernel(self):
        from repro.net import sim as sim_mod

        assert type(sim_mod.create()) is Simulator

    def test_harness_swap_restores_create_when_block_raises(self):
        from repro.net import sim as sim_mod
        from tests.conformance.harness import Knobs, applied
        from tests.oracles import sim_reference

        create = sim_mod.create
        with pytest.raises(RuntimeError, match="inside"):
            with applied(Knobs(kernel="reference")):
                assert type(sim_mod.create()) is sim_reference.Simulator
                raise RuntimeError("inside")
        assert sim_mod.create is create
        assert type(sim_mod.create()) is Simulator
