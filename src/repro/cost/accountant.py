"""Instruction accounting: who executed how many instructions, where.

A :class:`CostAccountant` keeps one :class:`Counter` per *domain*.  A
domain is a string label identifying an execution context, e.g.
``"untrusted"``, ``"enclave:inter-domain-controller"`` or
``"enclave:quoting"``.  Components charge instructions into whatever
domain is current; the SGX emulator switches domains on every enclave
entry/exit so that in-enclave and untrusted work are attributed
separately, as in the paper's tables.

The accountant is intentionally *not* a global: every
:class:`repro.sgx.platform.SgxPlatform` and every simulated host owns
its own, so experiments can report per-party numbers (Table 1 reports
target / quoting / challenger separately; Table 4 reports the
inter-domain controller and the average AS-local controller).
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, Iterator, Optional

UNTRUSTED = "untrusted"

#: The tracer new accountants attach to, if any.  Lives here (not in
#: :mod:`repro.obs`) so the cost layer never imports the observability
#: layer; :func:`repro.obs.tracing` flips it for the duration of a
#: traced run.  ``None`` (the default) keeps every charge a plain
#: counter increment — tracing is strictly opt-in and zero-cost off.
_ACTIVE_TRACER: Optional[Any] = None


def set_active_tracer(tracer: Optional[Any]) -> Optional[Any]:
    """Install ``tracer`` as the auto-attach target; returns the prior one."""
    global _ACTIVE_TRACER
    prior = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    return prior


def active_tracer() -> Optional[Any]:
    """The tracer newly created accountants attach to (``None`` = off)."""
    return _ACTIVE_TRACER


@dataclasses.dataclass
class Counter:
    """Event counts for one execution domain."""

    sgx_instructions: int = 0
    normal_instructions: int = 0
    enclave_crossings: int = 0
    allocations: int = 0
    switchless_calls: int = 0
    faults_injected: int = 0

    def copy(self) -> "Counter":
        return Counter(**self.as_dict())

    def as_dict(self) -> Dict[str, int]:
        """Field-name → count mapping (for exporters and reports)."""
        return {
            "sgx_instructions": self.sgx_instructions,
            "normal_instructions": self.normal_instructions,
            "enclave_crossings": self.enclave_crossings,
            "allocations": self.allocations,
            "switchless_calls": self.switchless_calls,
            "faults_injected": self.faults_injected,
        }

    def __iadd__(self, other: "Counter") -> "Counter":
        self.sgx_instructions += other.sgx_instructions
        self.normal_instructions += other.normal_instructions
        self.enclave_crossings += other.enclave_crossings
        self.allocations += other.allocations
        self.switchless_calls += other.switchless_calls
        self.faults_injected += other.faults_injected
        return self

    def __sub__(self, other: "Counter") -> "Counter":
        return Counter(
            sgx_instructions=self.sgx_instructions - other.sgx_instructions,
            normal_instructions=self.normal_instructions - other.normal_instructions,
            enclave_crossings=self.enclave_crossings - other.enclave_crossings,
            allocations=self.allocations - other.allocations,
            switchless_calls=self.switchless_calls - other.switchless_calls,
            faults_injected=self.faults_injected - other.faults_injected,
        )


class CostAccountant:
    """Accumulates instruction counts per execution domain.

    The *current domain* is managed as a stack so nested attribution
    (e.g. an ocall temporarily running untrusted code from inside an
    enclave) unwinds correctly.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self._counters: Dict[str, Counter] = {}
        self._domain_stack = [UNTRUSTED]
        #: Counter of the top-of-stack domain, or ``None`` if that
        #: domain has never been charged — kept hot so charge calls
        #: skip the property + dict probe without ever materializing a
        #: zero counter (``domains()`` must only list charged domains).
        #: Every path that changes the stack or the counter table keeps
        #: it in sync.
        self._current: Optional[Counter] = None
        self.enabled = True
        self.name = name
        #: Set by ``Tracer.attach``: the tracer observing this
        #: accountant (or ``None``) and the unique source label the
        #: tracer knows it by.  When no tracer is active this stays
        #: ``None`` and every charge is a plain counter increment.
        self.tracer: Optional[Any] = None
        self.source: str = name or "acct"
        if _ACTIVE_TRACER is not None:
            _ACTIVE_TRACER.attach(self)

    # -- domain management -------------------------------------------------

    @property
    def current_domain(self) -> str:
        return self._domain_stack[-1]

    @contextlib.contextmanager
    def attribute(self, domain: str) -> Iterator[None]:
        """Attribute all charges inside the ``with`` block to ``domain``.

        The domain stack is orthogonal to the counters: a
        :meth:`reset` issued *inside* an open ``attribute`` block zeroes
        the counters but leaves the stack intact, so subsequent charges
        keep flowing into the still-stacked domain (its counter is
        simply recreated on first use).  The stack also unwinds
        correctly when the block exits via an exception — attribution
        never leaks into the caller's domain.
        """
        self.push_domain(domain)
        try:
            yield
        finally:
            self.pop_domain()

    def push_domain(self, domain: str) -> None:
        """Make ``domain`` current until the matching :meth:`pop_domain`."""
        self._domain_stack.append(domain)
        self._current = self._counters.get(domain)

    def pop_domain(self) -> None:
        """Undo the matching :meth:`push_domain`."""
        self._domain_stack.pop()
        self._current = self._counters.get(self._domain_stack[-1])

    # -- charging ----------------------------------------------------------

    def counter(self, domain: Optional[str] = None) -> Counter:
        """Return (creating if needed) the counter for ``domain``."""
        key = domain if domain is not None else self._domain_stack[-1]
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
            if key == self._domain_stack[-1]:
                self._current = counter
        return counter

    def charge_sgx(self, count: int = 1) -> None:
        """Record ``count`` user-mode SGX instructions in the current domain."""
        if self.enabled:
            counter = self._current
            if counter is None:
                counter = self.counter()
            counter.sgx_instructions += count
            if self.tracer is not None:
                self.tracer.on_charge(self.source, self._domain_stack[-1], count, 0)

    def charge_normal(self, count: int) -> None:
        """Record ``count`` normal x86 instructions in the current domain."""
        if self.enabled:
            counter = self._current
            if counter is None:
                counter = self.counter()
            counter.normal_instructions += int(count)
            if self.tracer is not None:
                self.tracer.on_charge(
                    self.source, self._domain_stack[-1], 0, int(count)
                )

    def charge_crossing(self, count: int = 1) -> None:
        """Record ``count`` enclave entry/exit transitions."""
        if self.enabled:
            counter = self._current
            if counter is None:
                counter = self.counter()
            counter.enclave_crossings += count
            if self.tracer is not None:
                self.tracer.on_instant(
                    "crossing", self.source, self._domain_stack[-1], count=count
                )

    def charge_allocation(self, count: int = 1) -> None:
        """Record ``count`` in-enclave dynamic memory allocations."""
        if self.enabled:
            counter = self._current
            if counter is None:
                counter = self.counter()
            counter.allocations += count
            if self.tracer is not None:
                self.tracer.on_field(
                    "allocations", self.source, self._domain_stack[-1], count
                )

    def charge_switchless(self, count: int = 1) -> None:
        """Record ``count`` boundary calls served without a crossing."""
        if self.enabled:
            counter = self._current
            if counter is None:
                counter = self.counter()
            counter.switchless_calls += count
            if self.tracer is not None:
                self.tracer.on_instant(
                    "switchless_hit", self.source, self._domain_stack[-1], count=count
                )

    def charge_fault(self, count: int = 1) -> None:
        """Record ``count`` injected faults (see :mod:`repro.faults`).

        No instant event is emitted here: :func:`repro.faults._record`
        publishes a richer ``fault`` instant (kind + site) alongside
        this charge, and one event per fault is enough.
        """
        if self.enabled:
            counter = self._current
            if counter is None:
                counter = self.counter()
            counter.faults_injected += count
            if self.tracer is not None:
                self.tracer.on_field(
                    "faults_injected", self.source, self._domain_stack[-1], count
                )

    def charge_burst(
        self,
        sgx: int = 0,
        normal: int = 0,
        crossings: int = 0,
        allocations: int = 0,
        switchless: int = 0,
        faults: int = 0,
    ) -> None:
        """Charge one burst of pre-summed integer deltas in one call.

        Exactly equivalent — counters, span self-counts, instant stream,
        clock snapshots and metrics samples — to the per-field sequence
        ``charge_normal; charge_sgx; charge_crossing;
        charge_allocation; charge_switchless; charge_fault``: the
        tracer sees the same two ``on_charge`` records (normal, then
        sgx), so a sample boundary between them reads the same, and the
        same ``crossing``/``switchless_hit`` instants in the same order.
        ``obs.reconcile()`` is the oracle for that equivalence.
        """
        if not self.enabled:
            return
        counter = self._current
        if counter is None:
            counter = self.counter()
        counter.sgx_instructions += sgx
        counter.normal_instructions += normal
        counter.enclave_crossings += crossings
        counter.allocations += allocations
        counter.switchless_calls += switchless
        counter.faults_injected += faults
        tracer = self.tracer
        if tracer is not None:
            domain = self._domain_stack[-1]
            if normal:
                tracer.on_charge(self.source, domain, 0, normal)
            if sgx:
                tracer.on_charge(self.source, domain, sgx, 0)
            if crossings:
                tracer.on_instant("crossing", self.source, domain, count=crossings)
            if switchless:
                tracer.on_instant(
                    "switchless_hit", self.source, domain, count=switchless
                )
            if allocations:
                tracer.on_field("allocations", self.source, domain, allocations)
            if faults:
                tracer.on_field("faults_injected", self.source, domain, faults)

    # -- reading results ---------------------------------------------------

    def domains(self) -> Dict[str, Counter]:
        """A copy of every domain's counter."""
        return {name: c.copy() for name, c in self._counters.items()}

    def total(self) -> Counter:
        """Sum of every domain's counter."""
        out = Counter()
        for c in self._counters.values():
            out += c
        return out

    def snapshot(self) -> Dict[str, Counter]:
        """Alias of :meth:`domains`, for before/after diffing."""
        return self.domains()

    def delta(self, before: Dict[str, Counter]) -> Dict[str, Counter]:
        """Per-domain difference between now and a prior snapshot."""
        out: Dict[str, Counter] = {}
        for name, counter in self._counters.items():
            base = before.get(name, Counter())
            out[name] = counter - base
        return out

    def reset(self) -> None:
        """Zero all counters.

        The domain stack is deliberately *not* touched: ``reset()``
        inside an open :meth:`attribute` block keeps attributing later
        charges to the still-stacked domain (see ``attribute``'s
        docstring).  An attached tracer is told so exact span/counter
        reconciliation knows this source's history was discarded.
        """
        self._counters.clear()
        self._current = None
        if self.tracer is not None:
            self.tracer.on_reset(self.source)


@contextlib.contextmanager
def disabled(accountant: CostAccountant) -> Iterator[None]:
    """Temporarily stop charging, e.g. for test fixture setup."""
    prior = accountant.enabled
    accountant.enabled = False
    try:
        yield
    finally:
        accountant.enabled = prior
