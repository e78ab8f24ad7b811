"""Enclave programming model: programs, contexts, and trampolines.

An *enclave program* is a Python class whose instances run "inside" an
emulated enclave: untrusted code can only reach them through
:meth:`repro.sgx.enclave.Enclave.ecall`, and the program can only reach
the outside world through its :class:`EnclaveContext` (ocalls, packet
I/O, EREPORT/EGETKEY, sealing).  Every boundary crossing charges the
SGX-instruction and trampoline costs the paper's Tables 1/2/4 count.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro import faults, obs
from repro.cost import context as cost_context
from repro.crypto.drbg import Rng
from repro.errors import OcallError, SgxError
from repro.sgx import sealing
from repro.sgx.isa import UserInstruction, execute_user
from repro.sgx.keys import SealPolicy, derive_report_key, derive_seal_key
from repro.sgx.measurement import EnclaveIdentity
from repro.sgx.report import Report, TargetInfo, create_report

__all__ = ["EnclaveProgram", "EnclaveContext", "PAGE_BYTES"]

PAGE_BYTES = 4096


class EnclaveProgram:
    """Base class for code intended to run inside an enclave.

    Subclasses implement ecall-able methods; names starting with an
    underscore are not callable from outside.  ``on_load`` runs once,
    inside the enclave, right after EINIT.
    """

    #: Independent software vendor metadata baked into the identity.
    ISV_PROD_ID = 0
    ISV_SVN = 1

    ctx: "EnclaveContext"

    def on_load(self, ctx: "EnclaveContext") -> None:
        """Called inside the enclave after initialization."""
        self.ctx = ctx


class EnclaveContext:
    """The in-enclave view of the platform (handed to programs).

    It deliberately exposes no reference to the raw platform object:
    everything flows through methods that model SGX instructions or
    ocalls, so cost accounting and isolation stay honest.
    """

    def __init__(self, enclave: Any, platform: Any) -> None:
        self._enclave = enclave
        self._platform = platform
        self._rng = platform.rng.fork(f"enclave:{enclave.name}")
        self._heap_used = 0
        self._heap_pages = 1  # one data page pre-allocated at load
        self._switchless = None  # installed by enable_switchless()
        # EPC indices of the heap pages (initial page is the last one
        # added at load time); grows with alloc().
        enclave_pages = getattr(enclave, "_pages", None)
        if not enclave_pages:
            raise SgxError(
                f"enclave '{getattr(enclave, 'name', '?')}' has no EPC pages; "
                "an EnclaveContext needs at least the initial heap page "
                "(was the enclave built without EADD?)"
            )
        self._heap_indices = [enclave_pages[-1].index]

    # -- identity & randomness ------------------------------------------

    @property
    def identity(self) -> EnclaveIdentity:
        """This enclave's measured identity."""
        return self._enclave.identity

    @property
    def rng(self) -> Rng:
        """In-enclave randomness (models RDRAND; deterministic here)."""
        return self._rng

    # -- SGX instructions -------------------------------------------------

    def ereport(self, target: TargetInfo, report_data: bytes, key_id: Optional[bytes] = None) -> Report:
        """EREPORT: produce a MAC'd report destined for ``target``."""
        with obs.span(f"ereport:{self._enclave.name}", kind="sgx"):
            execute_user(UserInstruction.EREPORT)
            if key_id is None:
                key_id = self._rng.bytes(32)
            return create_report(
                self._platform.device_secret,
                self.identity,
                target,
                report_data,
                key_id,
            )

    def egetkey_report(self, key_id: bytes) -> bytes:
        """EGETKEY(REPORT): this enclave's own report-MAC key.

        An active fault plan can make this fail transiently (modeling
        e.g. a power-transition abort); callers on the attestation path
        retry a bounded number of times.
        """
        with obs.span("egetkey:report", kind="sgx"):
            execute_user(UserInstruction.EGETKEY)
            plan = faults.current_plan()
            if plan is not None and plan.decide(
                faults.EGETKEY_FAIL, f"egetkey:report:{self._enclave.name}"
            ):
                raise SgxError("EGETKEY failed transiently (injected fault)")
            return derive_report_key(
                self._platform.device_secret, self.identity.mrenclave, key_id
            )

    def egetkey_seal(self, policy: SealPolicy, key_id: bytes) -> bytes:
        """EGETKEY(SEAL): a sealing key under the given policy."""
        with obs.span("egetkey:seal", kind="sgx"):
            execute_user(UserInstruction.EGETKEY)
            return derive_seal_key(
                self._platform.device_secret, self.identity, policy, key_id
            )

    # -- sealing ---------------------------------------------------------

    def seal(self, data: bytes, policy: SealPolicy = SealPolicy.MRENCLAVE) -> bytes:
        """Seal ``data`` so only the policy-matching enclave recovers it."""
        key_id = self._rng.bytes(32)
        key = self.egetkey_seal(policy, key_id)
        return sealing.seal(key, key_id, policy, data, self._rng.bytes(16))

    def unseal(self, blob: bytes) -> bytes:
        """Recover sealed data (raises SealingError on mismatch)."""
        key_id, policy = sealing.peek(blob)
        key = self.egetkey_seal(policy, key_id)
        return sealing.unseal(key, blob)

    # -- boundary crossings ------------------------------------------------

    def enable_switchless(self, capacity: int = 64, poll_interval: int = 8) -> Any:
        """Attach a switchless ocall queue to this enclave.

        After this, ``ocall(..., switchless=True)`` and the packet-I/O
        methods with ``switchless=True`` route through a sync-mode
        :class:`~repro.sgx.rings.RingPair` serviced by a modeled
        untrusted worker instead of paying an EEXIT/ERESUME crossing
        per call; the worker drains posted slots every
        ``poll_interval`` posts.  Returns the ring (its ``stats`` field
        is what ablation A8 reports).

        Re-enabling replaces the queue; any backlog pending on the old
        one is drained first so posted calls are never lost.
        """
        if self._switchless is not None:
            self._switchless.flush()
        self._switchless = self._platform.create_ring(
            self._enclave,
            capacity=capacity,
            harvest_depth=poll_interval,
            worker=True,
            mode="sync",
        )
        return self._switchless

    @property
    def switchless(self) -> Any:
        """The attached switchless queue, or None."""
        return self._switchless

    def ocall(
        self,
        func: Callable[..., Any],
        *args: Any,
        switchless: bool = False,
        **kwargs: Any,
    ) -> Any:
        """Leave the enclave, run ``func`` untrusted, re-enter.

        Charges EEXIT + ERESUME and the trampoline cost; the function's
        own work is attributed to the untrusted domain.  With
        ``switchless=True`` (requires :meth:`enable_switchless`) the
        call is instead written to the shared-memory queue and serviced
        by the untrusted worker — no crossing, no SGX instructions.
        """
        name = getattr(func, "__name__", "anonymous")
        if switchless:
            if self._switchless is None:
                raise SgxError(
                    "switchless ocall requested but enable_switchless() "
                    "was never called on this enclave"
                )
            with obs.span(f"ocall:{name}", kind="switchless"):
                return self._switchless.call(func, args, kwargs)
        with obs.span(f"ocall:{name}", kind="ocall"):
            execute_user(UserInstruction.EEXIT)
            accountant = self._platform.accountant
            accountant.charge_crossing()
            cost_context.charge_normal(cost_context.current_model().trampoline_normal)
            plan = faults.current_plan()
            if plan is not None and plan.decide(faults.OCALL_FAIL, f"ocall:{name}"):
                # The crossing already happened; the untrusted side hands
                # back a failure code and the enclave re-enters.
                execute_user(UserInstruction.ERESUME)
                raise OcallError(
                    f"ocall '{name}' returned failure (injected fault)"
                )
            with accountant.attribute(self._platform.untrusted_domain):
                result = func(*args, **kwargs)
            execute_user(UserInstruction.ERESUME)
            return result

    @property
    def quoting_target_info(self) -> TargetInfo:
        """The well-known identity of this platform's quoting enclave."""
        quoting = self._platform.quoting_enclave
        if quoting is None:
            raise SgxError("platform has no quoting enclave (no authority)")
        return TargetInfo(mrenclave=quoting.identity.mrenclave)

    #: Bounded retries for transient quoting failures (injected ocall
    #: faults, transient EGETKEY aborts inside the quoting enclave).
    QUOTE_ATTEMPTS = 3

    def request_quote(self, report_bytes: bytes) -> Any:
        """Ask the platform's quoting enclave to turn a REPORT into a QUOTE.

        The exchange transits untrusted memory (an ocall) and enters
        the quoting enclave (an ecall), exactly as in Figure 1.  The
        untrusted leg can fail transiently, so the request is retried a
        bounded number of times before the failure propagates.
        """
        quoting = self._platform.quoting_enclave
        last_error: Optional[SgxError] = None
        with obs.span("request_quote", kind="attest"):
            for _ in range(self.QUOTE_ATTEMPTS):
                try:
                    return self.ocall(quoting.ecall, "create_quote", report_bytes)
                except (OcallError, SgxError) as exc:
                    last_error = exc
            raise last_error

    # -- dynamic memory ----------------------------------------------------

    def alloc(self, n_bytes: int) -> int:
        """Model an in-enclave heap allocation.

        The paper attributes much of the steady-state overhead to
        dynamic memory allocation: growing the heap needs EAUG (OS) +
        EACCEPT (enclave) and a trampoline out to the OS.  Allocations
        within already-committed pages only pay bookkeeping.
        """
        if n_bytes < 0:
            raise SgxError("negative allocation")
        cost_context.charge_allocation()
        self._heap_used += n_bytes
        grown = False
        while self._heap_used > self._heap_pages * PAGE_BYTES:
            self._heap_pages += 1
            grown = True
            page = self._platform.grow_enclave_heap(self._enclave)
            self._heap_indices.append(page.index)
            execute_user(UserInstruction.EACCEPT)
        if grown:
            # One round trip to the OS to request the pages.
            execute_user(UserInstruction.EEXIT)
            execute_user(UserInstruction.ERESUME)
            self._platform.accountant.charge_crossing()
            cost_context.charge_normal(cost_context.current_model().trampoline_normal)
        return self._heap_used

    def alloc_table_region(self, n_pages: int) -> List[int]:
        """Commit ``n_pages`` dedicated REG pages and return their EPC
        indices.

        Unlike :meth:`alloc`, the pages are *not* part of the byte
        heap: they back large flat data structures (the DPI goto
        table) whose residency the owner manages page-by-page through
        :meth:`touch_table_page`.  Costs mirror a heap growth of the
        same size — EAUG+EACCEPT per page, one trampoline round trip.
        """
        if n_pages < 1:
            raise SgxError("table region needs at least one page")
        cost_context.charge_allocation()
        indices: List[int] = []
        for _ in range(n_pages):
            page = self._platform.grow_enclave_heap(self._enclave)
            indices.append(page.index)
            execute_user(UserInstruction.EACCEPT)
        execute_user(UserInstruction.EEXIT)
        execute_user(UserInstruction.ERESUME)
        self._platform.accountant.charge_crossing()
        cost_context.charge_normal(cost_context.current_model().trampoline_normal)
        return indices

    def write_table_page(self, index: int, data: bytes) -> None:
        """Fill one table-region page (by EPC index) with ``data``."""
        self._platform.epc.write(self._enclave.enclave_id, index, data, 0)

    def touch_table_page(self, index: int) -> None:
        """Read one table-region page — transparently reloading (and
        charging ELDB) if the page cache evicted it."""
        self._platform.epc.read(self._enclave.enclave_id, index, 0, 1)

    @property
    def epc(self):
        """The platform's page cache (for residency introspection)."""
        return self._platform.epc

    # -- heap page access (exercises EPC residency / paging) -----------------

    @property
    def heap_page_count(self) -> int:
        return len(self._heap_indices)

    def write_heap(self, page_number: int, data: bytes, offset: int = 0) -> None:
        """Write into the n-th heap page through the EPC (an evicted
        page is transparently reloaded, with its EWB/ELDB costs)."""
        index = self._heap_index(page_number)
        self._platform.epc.write(self._enclave.enclave_id, index, data, offset)

    def read_heap(self, page_number: int, offset: int = 0, length: int = 64) -> bytes:
        """Read from the n-th heap page through the EPC."""
        index = self._heap_index(page_number)
        return self._platform.epc.read(
            self._enclave.enclave_id, index, offset, length
        )

    def _heap_index(self, page_number: int) -> int:
        if not 0 <= page_number < len(self._heap_indices):
            raise SgxError(
                f"heap page {page_number} out of range "
                f"(have {len(self._heap_indices)})"
            )
        return self._heap_indices[page_number]

    # -- packet I/O (the Table 2 path) --------------------------------------

    def send_packets(
        self,
        sender: Callable[[Sequence[bytes]], Any],
        packets: Sequence[bytes],
        switchless: bool = False,
    ) -> Any:
        """Send packets from inside the enclave via an untrusted sender.

        One call costs a fixed trampoline (marshalling the batch out of
        the EPC) plus a per-packet cost; batching therefore amortizes —
        the effect Table 2 measures.  With ``switchless=True`` the batch
        is posted to the switchless queue instead: the per-packet
        marshalling cost stays (bytes still leave the EPC) but the fixed
        crossing disappears.  Switchless sends are fire-and-forget and
        return ``None``; the worker drains them on its next poll.
        """
        model = cost_context.current_model()
        if switchless:
            if self._switchless is None:
                raise SgxError(
                    "switchless send_packets requested but "
                    "enable_switchless() was never called on this enclave"
                )
            with obs.span("send_packets", kind="switchless"):
                cost_context.charge_normal(
                    model.send_per_packet_normal * len(packets)
                )
                self._switchless.post(sender, (list(packets),))
                return None
        with obs.span("send_packets", kind="io"):
            execute_user(UserInstruction.EEXIT, model.send_call_fixed_sgx // 2)
            cost_context.charge_normal(model.send_call_fixed_normal)
            cost_context.charge_normal(model.send_per_packet_normal * len(packets))
            cost_context.charge_sgx(model.send_per_packet_sgx * len(packets))
            accountant = self._platform.accountant
            accountant.charge_crossing()
            plan = faults.current_plan()
            if plan is not None and plan.decide(
                faults.OCALL_FAIL, "ocall:send_packets"
            ):
                execute_user(UserInstruction.ERESUME, model.send_call_fixed_sgx // 2)
                raise OcallError(
                    "send_packets ocall returned failure (injected fault)"
                )
            with accountant.attribute(self._platform.untrusted_domain):
                result = sender(list(packets))
            execute_user(UserInstruction.ERESUME, model.send_call_fixed_sgx // 2)
            return result

    #: Upper bound on what an ocall may hand back per packet.  The OS
    #: is untrusted (Iago attacks, paper Section 6): "the enclave
    #: program must verify/sanity check the return values and output
    #: parameters of system calls."
    MAX_PACKET_BYTES = 65_536
    MAX_PACKETS_PER_RECV = 4_096

    def recv_packets(
        self,
        receiver: Callable[[], Sequence[bytes]],
        switchless: bool = False,
    ) -> List[bytes]:
        """Receive a batch of packets into the enclave (mirror of send).

        The untrusted receiver's return value is sanity-checked before
        any enclave code touches it — the Iago-attack discipline the
        paper's Section 6 calls for.  With ``switchless=True`` the
        request goes through the queue (no crossing), but the worker's
        response passes through exactly the same checks.
        """
        model = cost_context.current_model()
        if switchless:
            if self._switchless is None:
                raise SgxError(
                    "switchless recv_packets requested but "
                    "enable_switchless() was never called on this enclave"
                )
            with obs.span("recv_packets", kind="switchless"):
                packets = self._switchless.call(
                    receiver, validate=self._validate_recv_packets
                )
                cost_context.charge_normal(
                    model.send_per_packet_normal * len(packets)
                )
                return packets
        with obs.span("recv_packets", kind="io"):
            execute_user(UserInstruction.EEXIT, model.send_call_fixed_sgx // 2)
            cost_context.charge_normal(model.send_call_fixed_normal)
            accountant = self._platform.accountant
            accountant.charge_crossing()
            plan = faults.current_plan()
            if plan is not None and plan.decide(
                faults.OCALL_FAIL, "ocall:recv_packets"
            ):
                execute_user(UserInstruction.ERESUME, model.send_call_fixed_sgx // 2)
                raise OcallError(
                    "recv_packets ocall returned failure (injected fault)"
                )
            with accountant.attribute(self._platform.untrusted_domain):
                raw = receiver()
            execute_user(UserInstruction.ERESUME, model.send_call_fixed_sgx // 2)
            packets = self._validate_recv_packets(raw)
            cost_context.charge_sgx(model.send_per_packet_sgx * len(packets))
            cost_context.charge_normal(model.send_per_packet_normal * len(packets))
            return packets

    def _validate_recv_packets(self, raw: Any) -> List[bytes]:
        """Iago checks: validate untrusted output before enclave use."""
        if not isinstance(raw, (list, tuple)):
            raise SgxError("untrusted receiver returned a non-sequence")
        if len(raw) > self.MAX_PACKETS_PER_RECV:
            raise SgxError(
                f"untrusted receiver returned {len(raw)} packets "
                f"(cap {self.MAX_PACKETS_PER_RECV})"
            )
        packets: List[bytes] = []
        for item in raw:
            if not isinstance(item, (bytes, bytearray)):
                raise SgxError("untrusted receiver returned a non-bytes packet")
            if len(item) > self.MAX_PACKET_BYTES:
                raise SgxError(
                    f"untrusted receiver returned a {len(item)}-byte packet "
                    f"(cap {self.MAX_PACKET_BYTES})"
                )
            packets.append(bytes(item))
        return packets
