"""The Enclave object: the untrusted world's handle to protected code.

Untrusted code interacts with an enclave exclusively through
:meth:`Enclave.ecall`; the hosted program object itself is not
reachable (attempting to grab it raises), which is the functional
equivalent of the hardware isolation boundary.
"""

from __future__ import annotations

from typing import Any, List

from repro import faults, obs
from repro.cost import context as cost_context
from repro.errors import EnclaveAccessError, SgxError
from repro.sgx.epc import EpcPage
from repro.sgx.measurement import EnclaveIdentity
from repro.sgx.runtime import EnclaveContext, EnclaveProgram

__all__ = ["Enclave"]


class Enclave:
    """An initialized enclave hosted on an :class:`SgxPlatform`."""

    def __init__(
        self,
        platform: Any,
        enclave_id: int,
        name: str,
        program: EnclaveProgram,
        identity: EnclaveIdentity,
        pages: List[EpcPage],
    ) -> None:
        self._platform = platform
        self.enclave_id = enclave_id
        self.name = name
        self._domain = f"enclave:{name}"
        self.identity = identity
        self._pages = pages
        self._program = program
        self._destroyed = False
        self._switchless_ecalls = None  # installed by enable_switchless_ecalls()
        self._ring_ecalls = None  # installed by enable_ring_ecalls()
        self.ctx = EnclaveContext(self, platform)

    # -- isolation boundary ------------------------------------------------

    @property
    def program(self) -> EnclaveProgram:
        """Untrusted code cannot reach inside the enclave."""
        raise EnclaveAccessError(
            f"enclave '{self.name}' memory is hardware-protected; "
            "use ecall() to invoke exported functions"
        )

    @property
    def domain(self) -> str:
        """Cost-accounting domain for in-enclave execution."""
        return self._domain

    def ecall(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Enter the enclave and run an exported method.

        Charges EENTER/EEXIT, a trampoline cost, and attributes the
        method's work (and any costs it incurs) to this enclave's
        domain in the platform's accountant, as a one-element batch.
        """
        handler = self._resolve_ecall(method)
        return self._enter(method, ((handler, args, kwargs),))[0]

    def ecall_batch(self, calls: Any) -> List[Any]:
        """Run several exported methods under ONE enclave crossing.

        ``calls`` is an iterable of ``(method, args, kwargs)`` tuples.
        The batch pays a single EENTER/EEXIT pair, one crossing and one
        trampoline — K requests amortize the boundary cost that
        :meth:`ecall` pays per call.  A one-element batch charges and
        traces exactly what the equivalent :meth:`ecall` does
        (``TestEcallBatch.test_single_element_batch_charges_exactly_one_ecall``
        in ``tests/load/test_batching.py``), so ``batch=1`` runs
        reconcile integer-for-integer against the unbatched path.

        Error semantics match a plain ecall: the first raising handler
        aborts the batch (EEXIT and interrupt modeling still charged),
        and the exception propagates — partial results are discarded.
        """
        calls = list(calls)
        if not calls:
            raise SgxError(f"enclave '{self.name}': empty ecall batch")
        resolved = [(self._resolve_ecall(m), a, kw) for m, a, kw in calls]
        label = calls[0][0] if len(calls) == 1 else f"batch[{len(calls)}]"
        return self._enter(label, resolved)

    def _enter(self, label: str, resolved: Any) -> List[Any]:
        """The one crossing frame (DESIGN.md §16).  :meth:`ecall` and
        :meth:`ecall_batch` each call it, so neither enters the other."""
        platform = self._platform
        accountant = platform.accountant
        accountant_token = cost_context.ACCOUNTANT_VAR.set(accountant)
        model = platform.model
        model_token = None if model is None else cost_context.MODEL_VAR.set(model)
        domain = self._domain
        accountant.push_domain(domain)
        try:
            with obs.span(f"ecall:{self.name}.{label}", kind="ecall"):
                accountant.charge_sgx(1)  # EENTER
                accountant.charge_crossing()
                trampoline = cost_context.MODEL_VAR.get().trampoline_normal
                accountant.charge_normal(int(trampoline))
                before = accountant.counter(domain).normal_instructions
                program = self._program
                results = []  # a loop: a comprehension costs a call here
                try:
                    for handler, args, kwargs in resolved:
                        results.append(handler(program, *args, **kwargs))
                    return results
                finally:
                    self._charge_async_exits(accountant, before)
                    self._charge_aex_storm(accountant, label)
                    accountant.charge_sgx(1)  # EEXIT
        finally:
            accountant.pop_domain()
            if model_token is not None:
                cost_context.MODEL_VAR.reset(model_token)
            cost_context.ACCOUNTANT_VAR.reset(accountant_token)

    def _resolve_ecall(self, method: str):
        """Shared ecall validation: exported, existing, enclave alive."""
        if self._destroyed:
            raise SgxError(f"enclave '{self.name}' has been destroyed")
        if method.startswith("_"):
            raise EnclaveAccessError(f"'{method}' is not an exported ecall")
        handler = getattr(type(self._program), method, None)
        if handler is None or not callable(handler):
            raise SgxError(f"enclave '{self.name}' exports no ecall '{method}'")
        return handler

    def enable_switchless_ecalls(
        self, capacity: int = 64, poll_interval: int = 8
    ) -> Any:
        """Attach a switchless ecall queue — a sync-mode ring serviced
        by an in-enclave worker thread; :meth:`ecall_switchless` then
        routes through it.  Returns the ring (its ``stats`` is what
        the ablations report).  Re-enabling replaces the queue,
        draining any pending backlog on the old one first.
        """
        if self._switchless_ecalls is not None:
            self._switchless_ecalls.flush()
        self._switchless_ecalls = self._platform.create_ring(
            self,
            direction="ecall",
            capacity=capacity,
            harvest_depth=poll_interval,
            worker=True,
            mode="sync",
        )
        return self._switchless_ecalls

    @property
    def switchless_ecalls(self) -> Any:
        """The attached switchless ecall queue, or None."""
        return self._switchless_ecalls

    def ecall_switchless(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Run an exported method via the switchless ecall queue.

        The request slot is written from untrusted memory and serviced
        by an in-enclave worker — no EENTER/EEXIT, no crossing.  The
        method's work is still attributed to the enclave's domain.
        Falls back to a regular :meth:`ecall` when no queue is attached
        (so callers can pass a flag through without branching).
        """
        if self._switchless_ecalls is None:
            return self.ecall(method, *args, **kwargs)
        handler = self._resolve_ecall(method)
        return self._switchless_ecalls.call(
            handler, (self._program,) + args, kwargs
        )

    # -- async ecall rings (switchless v2) -----------------------------------

    def enable_ring_ecalls(
        self,
        capacity: int = 64,
        harvest_depth: int = 8,
        worker: bool = False,
    ) -> Any:
        """Attach paired submission/completion ecall rings.

        :meth:`ecall_submit` then posts async ecalls into the
        submission ring and :meth:`ecall_reap` / :meth:`ecall_reap_all`
        harvest their results.  By default no in-enclave polling worker
        runs (it would burn a TCS + core); instead one genuine harvest
        crossing drains every posted call, so a depth-D batch pays
        1/D crossings per call.  Returns the ring pair (its ``stats``
        is what ablation A14 reports).  Re-enabling replaces the rings,
        draining any pending backlog on the old pair first.
        """
        if self._ring_ecalls is not None:
            self._ring_ecalls.flush()
        self._ring_ecalls = self._platform.create_ring(
            self,
            direction="ecall",
            capacity=capacity,
            harvest_depth=harvest_depth,
            worker=worker,
        )
        return self._ring_ecalls

    @property
    def ring_ecalls(self) -> Any:
        """The attached ecall ring pair, or None."""
        return self._ring_ecalls

    def ecall_submit(self, method: str, *args: Any, **kwargs: Any) -> int:
        """Post an async ecall into the submission ring; returns a ticket.

        The caller does not wait for the result — harvest it later with
        :meth:`ecall_reap`/:meth:`ecall_reap_all`.  The descriptor write
        is exitless; the eventual harvest pays at most one crossing for
        the whole batch.  Requires :meth:`enable_ring_ecalls` first.
        """
        if self._ring_ecalls is None:
            raise SgxError(
                f"enclave '{self.name}': no ecall rings attached "
                "(call enable_ring_ecalls() first)"
            )
        handler = self._resolve_ecall(method)
        return self._ring_ecalls.submit(
            handler, (self._program,) + args, kwargs
        )

    def ecall_reap(self, ticket: int) -> Any:
        """Harvest one async ecall completion by ticket."""
        if self._ring_ecalls is None:
            raise SgxError(f"enclave '{self.name}': no ecall rings attached")
        return self._ring_ecalls.reap(ticket)

    def ecall_reap_all(self) -> List[Any]:
        """Harvest every outstanding async ecall, in submission order."""
        if self._ring_ecalls is None:
            raise SgxError(f"enclave '{self.name}': no ecall rings attached")
        return self._ring_ecalls.reap_all()

    def _charge_async_exits(self, accountant, normal_before: int) -> None:
        """Interrupt model: the host's timer/device interrupts force
        AEX + ERESUME pairs proportional to in-enclave compute time
        (paper Section 5: enclaves run near-native only absent
        asynchronous exits)."""
        rate = self._platform.interrupt_rate
        if rate <= 0:
            return
        executed = accountant.counter(self._domain).normal_instructions
        events = int((executed - normal_before) * rate)
        if events > 0:
            self._charge_aex(accountant, events, cause="interrupt_rate")

    #: AEX+ERESUME pairs charged per injected interrupt storm.
    AEX_STORM_EVENTS = 32

    def _charge_aex_storm(self, accountant, method: str) -> None:
        """Fault hook: a burst of asynchronous exits hits this ecall
        (the host's scheduler preempting the enclave repeatedly).
        Purely a cost fault — correctness is unaffected, the SSA
        save/restore just makes the call more expensive."""
        plan = faults.current_plan()
        if plan is None:
            return
        site = f"ecall:{self.name}:{method}"
        rule = plan.decide(faults.AEX_STORM, site)
        if rule is not None:
            events = self.AEX_STORM_EVENTS if rule.param is None else int(rule.param)
            self._charge_aex(accountant, events, cause="aex_storm", site=site)

    @staticmethod
    def _charge_aex(accountant, events: int, **args: Any) -> None:
        """Charge ``events`` AEX + ERESUME pairs and their SSA work."""
        accountant.charge_sgx(2 * events)
        accountant.charge_crossing(events)
        accountant.charge_normal(cost_context.current_model().aex_ssa_normal * events)
        obs.instant("aex", count=events, **args)

    # -- lifecycle -----------------------------------------------------------

    @property
    def page_indices(self) -> List[int]:
        """EPC page indices backing this enclave (for memory experiments)."""
        return [page.index for page in self._pages]

    def destroy(self) -> None:
        """EREMOVE all pages; models the OS killing the enclave (DoS)."""
        if not self._destroyed:
            self._platform.epc.free_enclave_pages(self.enclave_id)
            self._destroyed = True

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def __repr__(self) -> str:
        return (
            f"<Enclave {self.name!r} id={self.enclave_id} "
            f"mrenclave={self.identity.mrenclave.hex()[:12]}>"
        )
