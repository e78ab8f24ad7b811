"""The frozen reference scheduler (pre-rewrite ``repro.net.sim``).

This is the sorted-heap event kernel exactly as it shipped before the
calendar-queue rewrite, kept verbatim as the semantic oracle: the
conformance suite (``tests/conformance/test_sim_conformance.py``) runs
hypothesis-generated process/queue/timeout programs lock-step on this
kernel and on the fast one, asserting identical event orderings,
timestamps, timeout firings and integer-equal cost counters.  The knob
lattice (``tests/conformance/harness.py``) re-runs whole experiments on
it by swapping :func:`repro.net.sim.create`, the factory every
deployment builds its simulator through.  It is a test oracle only:
nothing under ``src/`` imports it.

Do not optimize or "fix" this module — its entire value is that it
does not change.  The only edit from the original is that
:class:`SimTimeout` is imported from :mod:`repro.errors` so both
kernels raise the same exception class.

Everything is ordered by (time, sequence number), so identical runs
replay identically.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple
from collections import deque

from repro.errors import NetworkError, SimTimeout

__all__ = ["Simulator", "Process", "MessageQueue", "SimTimeout"]


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

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self._sim = sim
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._joiners: List["Process"] = []
        self._wake_token = 0  # invalidates stale timeout callbacks

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
        if isinstance(cmd, _SleepCmd):
            self._sim.call_later(cmd.duration, self._resume)
        elif isinstance(cmd, _GetCmd):
            cmd.queue._register(self, cmd.timeout)
        elif isinstance(cmd, Process):
            if cmd.alive:
                cmd._joiners.append(self)
            elif cmd.error is not None:
                self._sim.call_later(0, self._resume, None, cmd.error)
            else:
                self._sim.call_later(0, self._resume, cmd.result)
        elif cmd is None:
            self._sim.call_later(0, self._resume)
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
        for joiner in joiners:
            if error is not None:
                self._sim.call_later(0, joiner._resume, None, error)
            else:
                self._sim.call_later(0, joiner._resume, result)

    def interrupt(self, reason: str = "interrupted") -> None:
        """Kill the process (models the OS stopping it: DoS is allowed)."""
        if self.alive:
            self._resume(exc=NetworkError(reason))


class MessageQueue:
    """FIFO queue connecting processes (and the outside world)."""

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
                self._sim.call_later(0, self._wake, process, token, item)
                return
        self._items.append(item)

    def get(self, timeout: Optional[float] = None) -> _GetCmd:
        """Yieldable: resume with the next item or raise SimTimeout."""
        return _GetCmd(self, timeout)

    def _register(self, process: Process, timeout: Optional[float]) -> None:
        if self._items:
            self._sim.call_later(
                0, self._wake, process, process._wake_token, self._items.popleft()
            )
            return
        token = process._wake_token
        self._waiters.append((process, token))
        if timeout is not None:
            self._sim.call_later(0 + timeout, self._timeout, process, token)

    def _wake(self, process: Process, token: int, item: Any) -> None:
        """Deliver ``item`` iff the wait it was scheduled for is still
        current.  If the process moved on in the meantime (e.g. its
        timeout fired at this same timestamp, beating the delivery in
        the event heap), the item is re-queued instead of being
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
    """The event loop (frozen heap-scheduler reference)."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._orphan_failures: List[Tuple[Process, BaseException]] = []

    # -- scheduling ---------------------------------------------------------

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise NetworkError("cannot schedule in the past")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def sleep(self, duration: float) -> _SleepCmd:
        """Yieldable: resume after ``duration`` simulated seconds."""
        return _SleepCmd(duration)

    def queue(self, name: str = "") -> MessageQueue:
        return MessageQueue(self, name)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process at the current time."""
        process = Process(self, generator, name)
        self.call_later(0, process._resume)
        return process

    def _report_orphan_failure(self, process: Process, error: BaseException) -> None:
        self._orphan_failures.append((process, error))

    # -- running --------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains (or ``until``).

        A process that dies with an unjoined exception aborts the run
        by re-raising it — errors never pass silently.
        """
        events = 0
        while self._heap:
            time, _, fn, args = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            self.now = time
            fn(*args)
            if self._orphan_failures:
                process, error = self._orphan_failures[0]
                raise NetworkError(
                    f"process '{process.name}' failed at t={self.now:.6f}"
                ) from error
            events += 1
            if events >= max_events:
                raise NetworkError(f"simulation exceeded {max_events} events")
        if until is not None and self.now < until:
            self.now = until
        return self.now
