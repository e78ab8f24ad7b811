"""Crossing amortization: paired submission/completion rings.

The paper's Tables 1/2/4 show boundary crossings — two ~10K-cycle SGX
instructions plus a trampoline per ocall/ecall — dominating the
overhead of SGX network applications, and Table 2 shows batching
amortizes them.  Switchless calls (Intel SDK "switchless mode";
HotCalls) and exitless async calls (Svenningsson et al., "Speeding up
enclave transitions for IO-intensive applications") take the next
step: the caller writes request descriptors into a bounded ring in
untrusted shared memory and a worker on the *other* side of the
boundary drains a batch per poll pass.  No EENTER/EEXIT/ERESUME
executes while a worker is live, and even with no worker at all one
genuine crossing drains the entire ring, so N calls cost 1/N crossings
each instead of one.

:class:`RingPair` models that mechanism on the repo's cost accounting,
in one of two modes.  The mode fixes what a descriptor costs, the
worker's polling and the backpressure (below), and the trace kind of
the ring's spans (``switchless`` for sync, ``rings`` for async):

* ``mode="async"`` — exitless async calls.  :meth:`RingPair.submit`
  posts a descriptor and returns a ticket without waiting;
  :meth:`RingPair.reap` / :meth:`RingPair.reap_all` read completions
  back later (``ring_submit_normal`` plus ``ring_reap_normal``).
* ``mode="sync"`` — switchless calls, the depth-1, always-awake case.
  :meth:`RingPair.call` enqueues, harvests and reads in one step; the
  slot carries the response the caller spins on
  (``switchless_slot_normal``), so there is no separate reap.
  :meth:`RingPair.post` is fire-and-forget and never reaped.

One class serves both directions:

* ``direction="ocall"`` — the enclave is the caller and the worker is
  an untrusted host thread (``ocall``, ``send_packets`` and
  ``recv_packets`` with ``switchless=True``).  A worker defaults to
  *running*: the host has spare cores.
* ``direction="ecall"`` — untrusted code is the caller and the worker
  runs inside the enclave (``Enclave.ecall_submit`` / ``ecall_reap``;
  ``Enclave.ecall_switchless``).  An async worker defaults to *not
  running*: a dedicated in-enclave polling thread would burn a TCS and
  a core, so instead the harvest itself pays one genuine crossing that
  drains every posted submission — crossings per call fall as 1/depth,
  which is exactly the grid ablation A14 measures on the middlebox
  record path.  A relay that dedicates a cell-service thread passes
  ``worker=True``.

A live async worker polls adaptively: it spins a modeled budget
(:attr:`RingPair.SPIN_BUDGET` iterations, ``ring_spin_normal`` each)
waiting for more submissions, then sleeps; a submission that finds it
asleep pays a doorbell (``ring_wakeup_normal``) to rouse it.  A sync
worker is always awake: it never spins down, so it needs no doorbell.
Backpressure when the submission ring fills follows the mode and is
deterministic either way: a sync ring drains through its live worker
with no crossing (the caller already spins on its slot); an async ring
degrades to one genuine crossing that drains everything.

Fault hooks (:mod:`repro.faults`): ``worker_stall`` stalls a sync
:meth:`RingPair.call`, which then rides the fallback crossing with no
slot charge; ``ring_worker_stall`` makes an async harvest pass miss —
the operation degrades to the fallback crossing, which drains the
ring, so results are unchanged; ``lost_completion`` loses an async
completion-ring write *after* the work ran — the reaper detects the
still-pending entry and pays a recovery crossing to fetch the result
straight from the slot (the work is never re-executed, so side effects
stay exactly-once).

A sync call's result crossing *into* trusted code passes the
caller-side ``validate`` hook before any enclave code touches it — the
same Iago-attack discipline as ordinary ocall returns (paper,
Section 6).
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro import faults, obs
from repro.cost import context as cost_context
from repro.errors import ReproError, SgxError
from repro.sgx.isa import UserInstruction, execute_user

__all__ = ["RingPair", "RingStats"]

#: mode -> the CostModel field one descriptor write charges.
_DESCRIPTOR_COST = {"async": "ring_submit_normal", "sync": "switchless_slot_normal"}


@dataclasses.dataclass
class RingStats:
    """Telemetry from one ring pair (what ablations A8 and A14 report)."""

    submitted: int = 0           #: descriptors posted to the submission ring
    completed: int = 0           #: entries executed by the worker/harvest
    reaped: int = 0              #: completions read back by the caller
    polls: int = 0               #: worker harvest passes (no crossing)
    spins: int = 0               #: idle worker spin iterations charged
    sleeps: int = 0              #: spin budget exhausted -> worker slept
    wakeups: int = 0             #: doorbells paid to wake a slept worker
    overflows: int = 0           #: submissions that hit a full ring
    fallback_crossings: int = 0  #: genuine crossings that drained the ring
    recovery_crossings: int = 0  #: crossings paid to fetch lost completions
    max_depth: int = 0           #: high-water mark of in-flight entries


@dataclasses.dataclass(eq=False)
class _Entry:
    """One submission descriptor and its (eventual) completion."""

    func: Callable[..., Any]
    args: Tuple[Any, ...]
    kwargs: dict
    seq: int = -1             #: the ticket, assigned when a slot is taken
    done: bool = False        #: completion visible in the completion ring
    lost: bool = False        #: executed, but the completion write was lost
    result: Any = None
    error: Optional[BaseException] = None


class RingPair:
    """Paired submission/completion rings across the enclave boundary."""

    DIRECTIONS = ("ocall", "ecall")
    #: idle spin iterations a live async worker burns before sleeping.
    SPIN_BUDGET = 4

    def __init__(
        self,
        platform: Any,
        direction: str,
        enclave_domain: str,
        capacity: int = 64,
        harvest_depth: int = 8,
        worker: Optional[bool] = None,
        name: str = "",
        mode: str = "async",
    ) -> None:
        if direction not in self.DIRECTIONS:
            raise SgxError(f"unknown ring direction {direction!r}")
        if mode not in _DESCRIPTOR_COST:
            raise SgxError(f"unknown ring mode {mode!r}")
        if capacity <= 0:
            raise SgxError("ring needs at least one slot")
        if harvest_depth <= 0:
            raise SgxError("ring harvest depth must be positive")
        self._platform = platform
        self.direction = direction
        self.enclave_domain = enclave_domain
        self.synchronous = mode == "sync"
        #: trace kind of this ring's spans: a sync ring is the switchless
        #: queue, so its spans share the switchless front doors' kind.
        self._kind = "switchless" if self.synchronous else "rings"
        self._descriptor_cost = _DESCRIPTOR_COST[mode]
        self.capacity = capacity
        #: a live worker drains the ring every this-many submissions
        #: (models its polling period relative to caller progress).
        self.harvest_depth = harvest_depth
        self._spin_budget = 0 if self.synchronous else self.SPIN_BUDGET
        self.name = name or f"rings-{direction}"
        # An in-enclave polling worker would burn a TCS + core, so an
        # async ecall ring defaults to the worker-less exitless regime
        # (harvest = one crossing draining the whole ring).
        if worker is None:
            worker = self.synchronous or direction == "ocall"
        self._worker_running = worker
        self._worker_asleep = False
        self._spin_credit = self._spin_budget
        self._subs_since_harvest = 0
        self._next_seq = 0
        #: submitted-and-not-yet-reaped entries, by ticket
        #: in submission order (drives the in-order walk of reap_all).
        self._entries: Dict[int, _Entry] = {}
        #: unserviced submission descriptors, seq order (the ring proper;
        #: slot index is seq % capacity — wrap-around is implicit).
        self._submission: Deque[_Entry] = deque()
        self.stats = RingStats()

    # -- worker lifecycle --------------------------------------------------

    @property
    def worker_running(self) -> bool:
        return self._worker_running

    @property
    def depth(self) -> int:
        """Currently unserviced submission descriptors."""
        return len(self._submission)

    @property
    def in_flight(self) -> int:
        """Submitted entries not yet reaped."""
        return len(self._entries)

    # -- the async call interface ------------------------------------------

    def submit(
        self,
        func: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
    ) -> int:
        """Post one request descriptor; returns its ticket.

        The caller does not wait: the entry is executed on the worker's
        next harvest pass (every ``harvest_depth`` submissions), by a
        later :meth:`reap`/:meth:`reap_all`, or — ring full — by one
        genuine crossing that drains it.
        """
        entry = _Entry(func, args, kwargs or {})
        self._post(entry, keep=True)
        return entry.seq

    def reap(self, ticket: int) -> Any:
        """Read one completion; services the ring first if needed.

        Raises the entry's stored ``repro.errors`` exception if its
        execution failed, and :class:`SgxError` for unknown or
        already-reaped tickets.
        """
        with self._context():
            entry = self._entries.pop(ticket, None)
            if entry is None:
                stale = 0 <= ticket < self._next_seq
                why = "was reaped" if stale else "is unknown"
                raise SgxError(f"ring '{self.name}': ticket {ticket} {why}")
            if not (entry.done or entry.lost):
                self._service_or_fallback()
            return self._read_completion(entry)

    def reap_all(self) -> List[Tuple[int, Any]]:
        """Harvest every outstanding completion, in submission order.

        Returns ``[(ticket, result), ...]``.  The first entry whose
        execution failed re-raises its stored exception; callers that
        expect per-entry failures should :meth:`reap` tickets
        individually instead.
        """
        with self._context():
            if self._submission:
                self._service_or_fallback()
            return [
                (seq, self._read_completion(self._entries.pop(seq)))
                for seq in list(self._entries)
            ]

    def flush(self) -> int:
        """Service every outstanding submission; returns how many ran."""
        with self._context():
            outstanding = len(self._submission)
            if outstanding:
                self._service_or_fallback()
            return outstanding

    # -- the sync call interface -------------------------------------------

    def call(
        self,
        func: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
        validate: Optional[Callable[[Any], Any]] = None,
    ) -> Any:
        """One synchronous switchless call: enqueue, harvest, read.

        The caller needs the result, so it busy-waits on the response
        word while the worker services the slot — zero crossings.  With
        no worker running (or an injected ``worker_stall``) the call
        degrades to one genuine crossing, which also drains any
        backlog.  ``validate`` runs on the caller's side of the
        boundary before the result is returned — for the ocall
        direction that is the enclave's Iago check on untrusted output.
        """
        entry = _Entry(func, args, kwargs or {})
        with self._context():
            plan = faults.current_plan()
            stalled = plan is not None and plan.decide(
                faults.WORKER_STALL, f"switchless:{self.direction}:{self.name}"
            )
            if stalled or not self._worker_running:
                self._fallback_harvest(entry)
            else:
                self._enqueue(entry)
                self._harvest()
            if entry.error is not None:
                raise entry.error
        return validate(entry.result) if validate is not None else entry.result

    def post(
        self,
        func: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
    ) -> None:
        """Fire-and-forget submission (the ``send_packets`` shape).

        The caller does not wait and never reaps: the slot is drained on
        the worker's next poll pass (every ``harvest_depth``
        submissions), by a later :meth:`call`, or by :meth:`flush`.
        When every slot is occupied and no worker is running, one
        genuine crossing drains the entire backlog — N posts cost at
        most one crossing.
        """
        self._post(_Entry(func, args, kwargs or {}))

    # -- internals ---------------------------------------------------------

    def _context(self):
        """Charges flow to the owning platform's accountant/model."""
        platform = self._platform
        return cost_context.use_accountant(platform.accountant, platform.model)

    def _worker_domain(self) -> str:
        return (
            self.enclave_domain
            if self.direction == "ecall"
            else self._platform.untrusted_domain
        )

    def _site(self) -> str:
        return f"rings:{self.direction}:{self.name}"

    def _post(self, entry: _Entry, keep: bool = False) -> None:
        """Enqueue without waiting, then advance the worker's cadence."""
        with self._context():
            model = cost_context.current_model()
            if self._worker_running and self._worker_asleep:
                # Doorbell: futex-wake the slept worker before posting.
                cost_context.charge_normal(model.ring_wakeup_normal)
                self._worker_asleep = False
                self._spin_credit = self._spin_budget
                self.stats.wakeups += 1
                obs.instant("ring_worker_wake", ring=self.name)
                obs.metric_count("ring_doorbells")
            self._enqueue(entry, keep)
            self._subs_since_harvest += 1
            if not self._worker_running:
                return
            if self._subs_since_harvest >= self.harvest_depth:
                self._harvest()
            elif self._spin_credit > 0:
                # The worker burns one spin iteration waiting for more
                # work to batch up.
                with self._platform.accountant.attribute(self._worker_domain()):
                    cost_context.charge_normal(model.ring_spin_normal)
                self.stats.spins += 1
                self._spin_credit -= 1
                if self._spin_credit == 0:
                    self._worker_asleep = True
                    self.stats.sleeps += 1
                    obs.instant("ring_worker_sleep", ring=self.name)

    def _enqueue(self, entry: _Entry, keep: bool = False) -> None:
        """Caller side: write one descriptor into a free slot; ``keep``
        retains the entry under its ticket until it is reaped."""
        if len(self._submission) >= self.capacity:
            self._overflow()
        self._platform.accountant.charge_switchless()
        cost_context.charge_normal(
            getattr(cost_context.current_model(), self._descriptor_cost)
        )
        entry.seq = self._next_seq
        self._next_seq += 1
        if keep:
            self._entries[entry.seq] = entry
        self._submission.append(entry)
        self.stats.submitted += 1
        self.stats.max_depth = max(self.stats.max_depth, len(self._submission))
        obs.instant("ring_submit", ring=self.name, ticket=entry.seq)
        obs.metric_gauge("ring_occupancy", len(self._submission))

    def _overflow(self) -> None:
        """Submission ring full: a sync ring drains through its worker,
        an async ring crosses; both exact."""
        self.stats.overflows += 1
        obs.instant(
            "ring_overflow",
            ring=self.name,
            backlog=len(self._submission),
            mode="block" if self.synchronous else "fallback",
        )
        if self.synchronous and self._worker_running:
            self._harvest()
        else:
            self._fallback_harvest()

    def _service_or_fallback(self) -> None:
        if self._worker_running:
            self._harvest()
        else:
            self._fallback_harvest()

    def _stalled(self) -> bool:
        plan = faults.current_plan()
        return plan is not None and plan.decide(
            faults.RING_WORKER_STALL, self._site()
        ) is not None

    def _harvest(self) -> None:
        """One worker harvest pass: drain the submission ring, no crossing."""
        if not self.synchronous and self._stalled():
            # The worker missed this pass (injected deschedule): the
            # triggering operation degrades to a genuine crossing.
            self._fallback_harvest()
            return
        self.stats.polls += 1
        self._subs_since_harvest = 0
        self._spin_credit = self._spin_budget
        with self._platform.accountant.attribute(self._worker_domain()):
            with obs.span(f"rings:harvest:{self.name}", kind=self._kind):
                cost_context.charge_normal(
                    cost_context.current_model().ring_poll_normal
                )
                self._drain()
        obs.metric_gauge("ring_occupancy", len(self._submission))

    def _fallback_harvest(self, extra: Optional[_Entry] = None) -> None:
        """No worker pass available: one genuine crossing drains the ring.

        ``extra`` (a stalled sync call) runs on the far side after the
        backlog, without ever taking a slot.  The drained entries'
        results still travel through completion-ring writes, so the
        ``lost_completion`` fault applies here exactly as it does on an
        async worker harvest pass.
        """
        self.stats.fallback_crossings += 1
        self._subs_since_harvest = 0
        self._spin_credit = self._spin_budget
        obs.instant(
            "ring_fallback", ring=self.name, backlog=len(self._submission)
        )
        with self._crossing("fallback"):
            with self._platform.accountant.attribute(self._worker_domain()):
                self._drain()
                if extra is not None:
                    self._execute(extra)
        obs.metric_gauge("ring_occupancy", len(self._submission))

    def _drain(self) -> None:
        """Execute every pending descriptor in order, writing completions."""
        plan = None if self.synchronous else faults.current_plan()
        while self._submission:
            entry = self._submission.popleft()
            self._execute(entry)
            if plan is not None and plan.decide(faults.LOST_COMPLETION, self._site()):
                # The work ran; only the completion-ring write is lost.
                # The reaper recovers it with one direct-fetch crossing
                # — never by re-running.
                entry.lost = True
            else:
                entry.done = True

    def _execute(self, entry: _Entry) -> None:
        try:
            entry.result = entry.func(*entry.args, **entry.kwargs)
        except ReproError as exc:
            # Typed failures travel the completion ring like results
            # and re-raise on the caller's side when it reads them.
            entry.error = exc
        self.stats.completed += 1

    @contextlib.contextmanager
    def _crossing(self, what: str) -> Iterator[None]:
        """One genuine boundary crossing; the body runs on the far side."""
        accountant = self._platform.accountant
        enter, leave = (
            (UserInstruction.EEXIT, UserInstruction.ERESUME)
            if self.direction == "ocall"
            else (UserInstruction.EENTER, UserInstruction.EEXIT)
        )
        with obs.span(f"rings:{what}:{self.name}", kind=self._kind):
            with accountant.attribute(self.enclave_domain):
                execute_user(enter)
                accountant.charge_crossing()
                model = cost_context.current_model()
                cost_context.charge_normal(
                    model.trampoline_normal + model.ring_fallback_normal
                )
            yield
            with accountant.attribute(self.enclave_domain):
                execute_user(leave)

    def _read_completion(self, entry: _Entry) -> Any:
        if entry.lost:
            # Fetch the lost completion with one direct crossing.
            self.stats.recovery_crossings += 1
            obs.instant(
                "ring_completion_recovered", ring=self.name, ticket=entry.seq
            )
            with self._crossing("recover"):
                pass
            entry.lost = False
            entry.done = True
        cost_context.charge_normal(
            cost_context.current_model().ring_reap_normal
        )
        self.stats.reaped += 1
        obs.instant("ring_reap", ring=self.name, ticket=entry.seq)
        if entry.error is not None:
            raise entry.error
        return entry.result
