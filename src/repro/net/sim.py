"""A deterministic discrete-event simulator (SimPy-flavored, tiny).

Processes are generators that ``yield`` commands:

* ``sim.sleep(dt)`` — resume after ``dt`` simulated seconds;
* ``queue.get(timeout=...)`` — resume with the next item (or raise
  :class:`SimTimeout` into the process);
* another :class:`Process` — resume when it finishes (its return value
  is delivered; its exception re-raised).

Everything is ordered by (time, sequence number), so identical runs
replay identically.

This module is the **fast kernel**: a two-lane calendar-queue/heap
hybrid scheduler (see :mod:`repro.net.calqueue` and DESIGN.md for the
invariants).  Events due *now* live in a plain FIFO deque; future
events live in per-timestamp buckets behind a heap of unique
timestamps.  Advancing time splices one whole bucket into the FIFO, so
no per-event sequence numbers are stored or compared — within a
timestamp, insertion order is execution order, which is exactly the
(time, seq) order of the frozen reference scheduler, a test oracle
under ``tests/oracles/``.  The conformance suite
(``tests/conformance/test_sim_conformance.py``) runs both kernels
lock-step on generated programs to pin the equivalence.

Deployments construct their simulator through :func:`create`, the
seam the knob lattice swaps to re-run whole experiments on the
reference kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Deque, Generator, List, Optional, Tuple
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush

from repro.errors import NetworkError, SimError, SimTimeout
from repro.net.calqueue import _EMPTY, CalendarQueue

__all__ = [
    "Simulator",
    "Process",
    "MessageQueue",
    "SimTimeout",
    "SimError",
    "create",
]


class _SleepCmd:
    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise NetworkError("cannot sleep a negative duration")
        self.duration = duration


class _GetCmd:
    __slots__ = ("queue", "timeout")

    def __init__(self, queue: "MessageQueue", timeout: Optional[float]) -> None:
        self.queue = queue
        self.timeout = timeout


class Process:
    """One running generator inside the simulator."""

    __slots__ = (
        "_sim",
        "_gen",
        "name",
        "alive",
        "result",
        "error",
        "_joiners",
        "_wake_token",
        "_resume_entry",
    )

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self._sim = sim
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._joiners: List["Process"] = []
        self._wake_token = 0  # invalidates stale timeout callbacks
        # The no-argument resume is scheduled once per yield on the hot
        # path; binding it once avoids a bound-method + tuple
        # allocation per event.  A process waits on at most one thing
        # at a time, so the shared tuple is never enqueued twice.
        self._resume_entry: Tuple[Callable, tuple] = (self._resume, ())

    # -- driving ------------------------------------------------------------

    def _resume(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if not self.alive:
            return
        self._wake_token += 1
        try:
            if exc is not None:
                cmd = self._gen.throw(exc)
            else:
                cmd = self._gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as failure:  # noqa: BLE001 - propagated below
            self._finish(error=failure)
            return
        self._dispatch(cmd)

    def _dispatch(self, cmd: Any) -> None:
        # Exact-class checks first: _SleepCmd/_GetCmd are final (and
        # __slots__-sealed), so ``is`` on the class is equivalent to
        # isinstance and skips the mro walk on the hot path.
        cls = cmd.__class__
        if cls is _SleepCmd:
            # Inlined call_later + CalendarQueue.push (the method is
            # the reference for these lines): _SleepCmd validated
            # duration >= 0, and a plain sleep is the kernel's single
            # hottest timer path.
            sim = self._sim
            time = sim.now + cmd.duration
            if time == sim.now:
                sim._fifo.append(self._resume_entry)
            else:
                # setdefault folds the probe and the miss-insert into
                # one dict operation; ``current is entry`` detects the
                # miss because a process schedules its (unique) resume
                # entry at most once at a time.
                cal = sim._cal
                entry = self._resume_entry
                current = cal._buckets.setdefault(time, entry)
                if current is entry:
                    _heappush(cal._times, time)
                elif type(current) is list:
                    current.append(entry)
                else:
                    cal._buckets[time] = [current, entry]
        elif cls is _GetCmd:
            cmd.queue._register(self, cmd.timeout)
        elif cmd is None:
            self._sim._fifo.append(self._resume_entry)
        elif isinstance(cmd, Process):
            if cmd.alive:
                cmd._joiners.append(self)
            elif cmd.error is not None:
                self._sim._fifo.append((self._resume, (None, cmd.error)))
            else:
                self._sim._fifo.append((self._resume, (cmd.result,)))
        else:
            self._finish(
                error=NetworkError(f"process yielded unknown command {cmd!r}")
            )

    def _finish(
        self, result: Any = None, error: Optional[BaseException] = None
    ) -> None:
        self.alive = False
        self.result = result
        self.error = error
        joiners, self._joiners = self._joiners, []
        if error is not None and not joiners:
            self._sim._report_orphan_failure(self, error)
            return
        fifo = self._sim._fifo
        for joiner in joiners:
            if error is not None:
                fifo.append((joiner._resume, (None, error)))
            else:
                fifo.append((joiner._resume, (result,)))

    def interrupt(self, reason: str = "interrupted") -> None:
        """Kill the process (models the OS stopping it: DoS is allowed)."""
        if self.alive:
            self._resume(exc=NetworkError(reason))


class MessageQueue:
    """FIFO queue connecting processes (and the outside world)."""

    __slots__ = ("_sim", "name", "_items", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._waiters: Deque[Tuple[Process, int]] = deque()

    def put(self, item: Any) -> None:
        """Enqueue; wakes the oldest waiting process, if any."""
        while self._waiters:
            process, token = self._waiters.popleft()
            if process.alive and process._wake_token == token:
                self._sim._fifo.append((self._wake, (process, token, item)))
                return
        self._items.append(item)

    def get(self, timeout: Optional[float] = None) -> _GetCmd:
        """Yieldable: resume with the next item or raise SimTimeout."""
        return _GetCmd(self, timeout)

    def _register(self, process: Process, timeout: Optional[float]) -> None:
        if self._items:
            self._sim._fifo.append(
                (self._wake, (process, process._wake_token, self._items.popleft()))
            )
            return
        token = process._wake_token
        self._waiters.append((process, token))
        if timeout is not None:
            self._sim.call_later(timeout, self._timeout, process, token)

    def _wake(self, process: Process, token: int, item: Any) -> None:
        """Deliver ``item`` iff the wait it was scheduled for is still
        current.  If the process moved on in the meantime (e.g. its
        timeout fired at this same timestamp, beating the delivery in
        the event order), the item is re-queued instead of being
        injected into whatever the process is now waiting on."""
        if process.alive and process._wake_token == token:
            process._resume(item)
        else:
            self.put(item)

    def _timeout(self, process: Process, token: int) -> None:
        if process.alive and process._wake_token == token:
            process._resume(exc=SimTimeout(f"get() timed out on {self.name or 'queue'}"))

    def __len__(self) -> int:
        return len(self._items)


class Simulator:
    """The event loop (two-lane calendar-queue kernel)."""

    __slots__ = ("now", "_fifo", "_cal", "_orphan_failures")

    def __init__(self) -> None:
        self.now = 0.0
        #: Events due at the current time, in execution order.
        self._fifo: Deque[Tuple[Callable, tuple]] = deque()
        #: Events due strictly after ``now``, bucketed by timestamp.
        self._cal = CalendarQueue()
        self._orphan_failures: List[Tuple[Process, BaseException]] = []

    # -- scheduling ---------------------------------------------------------

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise NetworkError("cannot schedule in the past")
        # Branch on the *computed* time, not the delay: a positive
        # delay so small it underflows (now + delay == now) must land
        # in the now-lane, exactly where the reference's (time, seq)
        # order puts it.
        time = self.now + delay
        if time == self.now:
            self._fifo.append((fn, args))
        else:
            self._cal.push(time, (fn, args))

    def sleep(self, duration: float) -> _SleepCmd:
        """Yieldable: resume after ``duration`` simulated seconds."""
        return _SleepCmd(duration)

    def queue(self, name: str = "") -> MessageQueue:
        return MessageQueue(self, name)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process at the current time."""
        process = Process(self, generator, name)
        self._fifo.append(process._resume_entry)
        return process

    def _report_orphan_failure(self, process: Process, error: BaseException) -> None:
        self._orphan_failures.append((process, error))

    # -- running --------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains (or ``until``).

        A process that dies with an unjoined exception aborts the run
        by re-raising it — errors never pass silently.  Exhausting
        ``max_events`` raises :class:`SimError` naming the oldest
        still-runnable process (a runaway workload is a bug, never a
        silent partial result).
        """
        fifo = self._fifo
        cal = self._cal
        orphans = self._orphan_failures
        events = 0
        popleft = fifo.popleft
        # ``_times``/``_buckets`` are bound once in CalendarQueue and
        # only ever mutated in place, so hoisting them is safe; the
        # advance step below is an inlined CalendarQueue.advance_onto
        # (the method is the reference for these lines).  ``_times``
        # truthiness is the emptiness test: nothing is ever cancelled,
        # so a heaped timestamp always has pending entries.
        times = cal._times
        buckets = cal._buckets
        if until is None:
            # Fast loop: no bound checks beyond the counters.
            while True:
                while fifo:
                    fn, args = popleft()
                    fn(*args)
                    if orphans:
                        self._raise_orphan()
                    events += 1
                    if events >= max_events:
                        self._raise_exhausted(max_events)
                if not times:
                    break
                time = _heappop(times)
                bucket = buckets.pop(time)
                self.now = time
                if type(bucket) is list:
                    fifo.extend(bucket)
                else:
                    # Sole event at this time and the FIFO is drained:
                    # run it directly, skipping the deque round-trip.
                    fn, args = bucket
                    fn(*args)
                    if orphans:
                        self._raise_orphan()
                    events += 1
                    if events >= max_events:
                        self._raise_exhausted(max_events)
        else:
            # Bounded loop: the reference kernel compares each event's
            # timestamp against ``until`` before executing it, so
            # events in the now-lane are skipped too once now > until
            # (possible when run(until=...) is called again with an
            # earlier bound).
            while True:
                if self.now > until:
                    break
                while fifo:
                    fn, args = popleft()
                    fn(*args)
                    if orphans:
                        self._raise_orphan()
                    events += 1
                    if events >= max_events:
                        self._raise_exhausted(max_events)
                if not times or times[0] > until:
                    break
                self.now = cal.advance_onto(fifo)
            if self.now < until:
                self.now = until
        return self.now

    # -- failure reporting (cold paths) --------------------------------------

    def _raise_orphan(self) -> None:
        process, error = self._orphan_failures[0]
        raise NetworkError(
            f"process '{process.name}' failed at t={self.now:.6f}"
        ) from error

    def _raise_exhausted(self, max_events: int) -> None:
        oldest = self._oldest_runnable()
        suffix = (
            f" (oldest still-runnable process: '{oldest.name}')"
            if oldest is not None
            else ""
        )
        raise SimError(
            f"simulation exceeded {max_events} events at t={self.now:.6f}{suffix}"
        )

    def _oldest_runnable(self) -> Optional[Process]:
        """The live process behind the earliest pending event, if any.

        Scans the now-lane then the calendar buckets in time order —
        strictly a diagnostic path, only reached when the kernel is
        about to abort the run.
        """

        def live(entry: Tuple[Callable, tuple]) -> Optional[Process]:
            fn, args = entry
            candidates = [getattr(fn, "__self__", None)]
            candidates.extend(args)
            for obj in candidates:
                if isinstance(obj, Process) and obj.alive:
                    return obj
            return None

        for entry in self._fifo:
            found = live(entry)
            if found is not None:
                return found
        for time in sorted(self._cal._buckets):
            bucket = self._cal._buckets[time]
            for entry in bucket if type(bucket) is list else (bucket,):
                found = live(entry)
                if found is not None:
                    return found
        return None


def create() -> "Simulator":
    """Construct a deployment's simulator.

    Routing, Tor and middlebox deployments build their event loop
    through this module attribute so a test can swap in the reference
    kernel for a whole experiment (``tests/conformance/harness.py``).
    """
    return Simulator()
