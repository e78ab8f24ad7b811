"""Calendar-queue/heap hybrid backing the fast event kernel.

The classic binary-heap scheduler pays ``O(log n)`` per event *and* a
tuple comparison (time, then sequence number) per sift step.  Discrete-
event workloads in this repo are heavily co-scheduled — bursts of
events share a timestamp (zero-delay wakeups, batched deliveries) — so
the hybrid stores one heap entry per *unique* timestamp and an
insertion-ordered bucket of entries per timestamp:

* :meth:`push` on an already-known timestamp is a dict hit plus a list
  append — no heap traffic at all;
* advancing time (:meth:`advance_onto`) pops ONE heap entry and hands
  the whole bucket to the kernel's FIFO lane, amortizing the
  ``O(log n)`` across every event in the burst;
* within a timestamp, insertion order *is* the (time, seq) order of
  the reference scheduler, because pushes happen in global sequence
  order and appends preserve it.  No per-entry sequence number is
  stored or compared — the structure never reorders a bucket.

Nothing is ever cancelled: stale timeouts are token-checked by the
kernel when they fire.  The kernel tests emptiness on ``_times``
directly (see :meth:`repro.net.sim.Simulator.run`).
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, List

__all__ = ["CalendarQueue"]

_EMPTY = object()  # dict.get sentinel (None is a legal entry)


class CalendarQueue:
    """Time-bucketed priority queue with FIFO same-timestamp order."""

    __slots__ = ("_times", "_buckets")

    def __init__(self) -> None:
        #: Heap of unique timestamps; invariant: ``t in self._buckets``
        #: and ``self._buckets[t]`` non-empty for every heaped ``t``.
        self._times: List[float] = []
        self._buckets: dict = {}

    def push(self, time: float, entry: Any) -> None:
        """Append ``entry`` to the bucket at ``time``.

        Most timestamps hold exactly one entry, so a bucket starts out
        as the entry itself and is only promoted to a list on the first
        collision — the common case pays no list allocation.  Entries
        must therefore never *be* lists (the kernel's are tuples).
        """
        buckets = self._buckets
        current = buckets.get(time, _EMPTY)
        if current is _EMPTY:
            buckets[time] = entry
            _heappush(self._times, time)
        elif type(current) is list:
            current.append(entry)
        else:
            buckets[time] = [current, entry]

    def advance_onto(self, fifo: Any) -> float:
        """Pop the earliest bucket straight into ``fifo``; return its time.

        The queue forgets the bucket entirely (the kernel drains it as
        its FIFO lane).  Raises ``IndexError`` when empty, like
        ``heappop``.
        """
        time = _heappop(self._times)
        bucket = self._buckets.pop(time)
        if type(bucket) is list:
            fifo.extend(bucket)
        else:
            fifo.append(bucket)
        return time
