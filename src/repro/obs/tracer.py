"""Span-based, cycle-accurate tracer for the cost-model stack.

The paper's evaluation is a cost model — counts of SGX instructions and
normal instructions converted to cycles — so the only clock a faithful
trace needs is that same model.  A :class:`Tracer` keeps two integer
instruction clocks (user-mode SGX and normal x86) advanced by every
charge any attached :class:`repro.cost.CostAccountant` records; a
timestamp is just ``model.cycles(clock_sgx, clock_normal)``.  No wall
time is ever read, so traces are bit-for-bit reproducible across runs
and machines for a fixed seed.

Three invariants the design leans on:

* **Zero cost when off.**  ``accountant.tracer`` is ``None`` by
  default and every instrumentation site goes through the module-level
  :func:`span` / :func:`instant` helpers, which return a shared no-op
  context manager when no tracer is active.  Golden Table 1-4 outputs
  are byte-identical with tracing off *and* on (the tracer observes
  charges, it never adds any).

* **One charge log, views on read, exact totals.**  While tracing,
  every accountant hook, span open/close and metric helper appends one
  tuple to a single append-only log, in call order, and does nothing
  else.  ``spans``, ``instants``, ``orphans``, ``clock`` and an attached
  registry's series fold from the log's unread tail when first read, in
  one pass.  The log carries *raw instruction integers* per
  ``(source, domain)``, so :func:`repro.obs.reconcile` holds its sums
  (:meth:`Tracer.totals`) equal to every accountant's counters, int
  for int, without folding a view.

* **Strict nesting.**  Spans only wrap synchronous code (an ecall body,
  one ocall, one record protect) and close innermost first; they never
  stretch across a simulator ``yield``.  Global nesting therefore
  implies per-domain nesting.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.cost import accountant as _accountant_mod
from repro.cost import context as _cost_context
from repro.cost.accountant import Counter, CostAccountant
from repro.cost.model import DEFAULT_MODEL, CostModel

# Log records, by tag: (CHARGE, source, domain, sgx, normal), (INSTANT,
# name, source, domain, count, args), (FIELD, field, source, domain, count),
# (OPEN, name, kind, domain, source), (CLOSE, error); and from the metrics
# registry: (INC|GAUGE|OBSERVE, name, value, labels), (CLOCK, cycles), (FINAL,).
CHARGE, INSTANT, FIELD, OPEN, CLOSE, INC, GAUGE, OBSERVE, CLOCK, FINAL = range(10)

#: Counter field positions (its field order) of the logged instants and
#: fields; charges fill positions 0 (sgx) and 1 (normal).
_COUNTER_INDEX = {
    INSTANT: {"crossing": 2, "switchless_hit": 4},
    FIELD: {"allocations": 3, "faults_injected": 5},
}


def _view(attr: str, doc: str) -> property:
    """A read-only attribute that folds the log before returning ``attr``."""

    def get(self):
        self._fold()
        return getattr(self, attr)

    return property(get, doc=doc)


@dataclasses.dataclass
class Span:
    """One nested region of (synchronous) work on the cycle timeline."""

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    domain: str
    source: str
    open_seq: int
    start_sgx: int
    start_normal: int
    close_seq: int = -1
    end_sgx: int = -1
    end_normal: int = -1
    #: Raw instructions charged while this span was innermost, keyed by
    #: the charging accountant's source and its attribution domain.
    self_counts: Dict[Tuple[str, str], List[int]] = dataclasses.field(
        default_factory=dict
    )
    error: bool = False

    @property
    def closed(self) -> bool:
        return self.close_seq >= 0

    def self_instructions(self) -> Tuple[int, int]:
        """Total (sgx, normal) instructions charged directly to this span."""
        sgx = normal = 0
        for s, n in self.self_counts.values():
            sgx += s
            normal += n
        return sgx, normal


@dataclasses.dataclass
class Instant:
    """A point event: crossing, AEX, switchless hit/fallback, fault, ..."""

    seq: int
    name: str
    source: str
    domain: str
    ts_sgx: int
    ts_normal: int
    count: int = 1
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)


class LogTotals(NamedTuple):
    """Integer sums of a whole log (see :meth:`Tracer.totals`)."""

    counters: Dict[Tuple[str, str], Counter]  # per charging (source, domain)
    metric_counts: Dict[str, int]  # counter records per family, all labels
    gauges: Dict[str, float]  # last value of each unlabeled gauge


class _SpanScope:
    """What :meth:`Tracer.span` returns: logs the open and the close."""

    __slots__ = ("_log", "_open")

    def __init__(self, log: List[tuple], record: tuple) -> None:
        self._log = log
        self._open = record

    def __enter__(self) -> None:
        self._log.append(self._open)

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._log.append((CLOSE, exc_type is not None))
        return False


class Tracer:
    """Deterministic span recorder driven by the cost model's clock.

    One tracer observes any number of accountants (one per simulated
    party); :meth:`attach` is normally called for you by
    ``CostAccountant.__init__`` while :func:`tracing` is active.
    """

    def __init__(
        self, model: CostModel = DEFAULT_MODEL, metrics: Optional[Any] = None
    ) -> None:
        self.model = model
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` riding on
        #: this tracer's log and clock (opt-in: ``None`` by default).
        self.metrics = metrics
        self.accountants: List[CostAccountant] = []
        self.reset_sources: Set[str] = set()
        #: Live :class:`repro.sgx.epc.EnclavePageCache` objects created
        #: while this tracer was active, consumed by
        #: ``reconcile_metrics`` to hold the ``epc_*`` metric families
        #: equal to the caches' own eviction/reload counters.
        self.epcs: List[Any] = []
        self._source_counts: Dict[str, int] = {}
        #: The one charge log; :meth:`reissue` states why a slice of it
        #: may be appended again.
        self._log: List[tuple] = metrics._log if metrics is not None else []
        self._folded = 0  # the views hold the log up to here
        self._spans: List[Span] = []
        self._instants: List[Instant] = []
        self._orphans: Dict[Tuple[str, str], List[int]] = {}
        self._open: List[Span] = []
        self._seq = 0
        self._clock: Tuple[int, int] = (0, 0)
        if metrics is not None:
            metrics._tracer = self

    spans = _view("_spans", "Every span opened so far, in open order.")
    instants = _view("_instants", "Every instant so far, in order.")
    orphans = _view(
        "_orphans", "Charges logged while no span was open, per (source, domain)."
    )

    clock = _view("_clock", "Current (sgx, normal) instruction clocks.")

    def cycles_at(self, sgx: int, normal: int) -> float:
        """Convert an instruction-clock reading to modeled cycles."""
        return self.model.cycles(sgx, normal)

    def _fold(self) -> None:
        """Fold the log's unread tail into every view, the registry's too."""
        log = self._log
        end = len(log)
        if self._folded == end:
            return
        registry = self.metrics
        counters = registry._counters if registry is not None else None
        cycles = self.model.cycles
        spans, stack, orphans = self._spans, self._open, self._orphans
        seq, (clock_sgx, clock_normal) = self._seq, self._clock
        for i in range(self._folded, end):
            rec = log[i]
            tag = rec[0]
            if tag == CHARGE:
                _, source, domain, sgx, normal = rec
                clock_sgx += sgx
                clock_normal += normal
                counts = stack[-1].self_counts if stack else orphans
                cell = counts.get((source, domain))
                if cell is None:
                    counts[(source, domain)] = [sgx, normal]
                else:
                    cell[0] += sgx
                    cell[1] += normal
                if counters is not None:
                    labels = (("domain", domain), ("source", source))
                    if sgx:
                        key = ("sgx_instructions", labels)
                        counters[key] = counters.get(key, 0) + sgx
                    if normal:
                        key = ("normal_instructions", labels)
                        counters[key] = counters.get(key, 0) + normal
                    registry.observe_clock(cycles(clock_sgx, clock_normal))
            elif tag == OPEN:
                seq += 1
                s = Span(len(spans) + 1, stack[-1].span_id if stack else None,
                         *rec[1:], seq, clock_sgx, clock_normal)
                spans.append(s)
                stack.append(s)
            elif tag == CLOSE:
                s = stack.pop()
                seq += 1
                s.close_seq, s.end_sgx, s.end_normal = seq, clock_sgx, clock_normal
                s.error = rec[1]
            elif tag == INSTANT or tag == FIELD:
                _, name, source, domain, count = rec[:5]
                if tag == INSTANT:
                    seq += 1
                    self._instants.append(Instant(seq, name, source, domain,
                                                  clock_sgx, clock_normal, count, rec[5]))
                    name = f"event:{name}"
                if counters is not None:
                    key = (name, (("domain", domain), ("source", source)))
                    counters[key] = counters.get(key, 0) + count
            elif registry is not None:
                registry._apply(rec)
        self._folded = end
        self._seq, self._clock = seq, (clock_sgx, clock_normal)

    def totals(self) -> LogTotals:
        """Sum the whole log as integers, building no span or sample.

        ``counters`` holds, per ``(source, domain)``, what an accountant
        attached from the start holds in its Counter.
        """
        cells: Dict[Tuple[str, str], List[int]] = {}
        metric_counts: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        for rec in self._log:
            tag = rec[0]
            if tag == CHARGE:
                cell = cells.get(rec[1:3]) or cells.setdefault(rec[1:3], [0] * 6)
                cell[0] += rec[3]
                cell[1] += rec[4]
            elif tag == INSTANT or tag == FIELD:
                index = _COUNTER_INDEX[tag].get(rec[1])
                if index is not None:
                    key = rec[2:4]
                    cell = cells.get(key) or cells.setdefault(key, [0] * 6)
                    cell[index] += rec[4]
            elif tag == INC:
                metric_counts[rec[1]] = metric_counts.get(rec[1], 0) + rec[2]
            elif tag == GAUGE and not rec[3]:
                gauges[rec[1]] = rec[2]
        counters = {key: Counter(*cell) for key, cell in cells.items()}
        return LogTotals(counters, metric_counts, gauges)

    # -- accountant hookup -------------------------------------------------

    def attach(self, acct: CostAccountant) -> None:
        """Observe ``acct``'s charges; assigns it a unique source label."""
        if acct.tracer is self:
            return
        base = acct.name or "acct"
        n = self._source_counts.get(base, 0)
        self._source_counts[base] = n + 1
        acct.source = base if n == 0 else f"{base}#{n}"
        acct.tracer = self
        self.accountants.append(acct)

    def detach_all(self) -> None:
        """Stop observing every attached accountant (used by ``tracing``)."""
        for acct in self.accountants:
            acct.tracer = None

    # -- hooks (called by CostAccountant): one log record each -------------

    def on_charge(self, source: str, domain: str, sgx: int, normal: int) -> None:
        """Log one charge; the clock and span self-counts fold from it."""
        self._log.append((CHARGE, source, domain, sgx, normal))

    def on_instant(
        self, name: str, source: str, domain: str, count: int = 1, **args: Any
    ) -> None:
        """Log a typed point event, stamped with the clock when folded."""
        self._log.append((INSTANT, name, source, domain, count, args))

    def on_field(self, field: str, source: str, domain: str, count: int) -> None:
        """Log a Counter field no instant carries (faults, allocations)."""
        self._log.append((FIELD, field, source, domain, count))

    def on_reset(self, source: str) -> None:
        """Note that ``source`` discarded its counters (reconcile skips it)."""
        self.reset_sources.add(source)

    def span(
        self, name: str, kind: str = "span", domain: str = "", source: str = ""
    ) -> _SpanScope:
        """Record a nested region; charges inside land in its self-counts.

        The context manager yields ``None`` (the :class:`Span` exists
        only once the log is folded); an exception leaving the block
        marks the span ``error``.
        """
        return _SpanScope(self._log, (OPEN, name, kind, domain, source))

    # -- the log as data ---------------------------------------------------

    def mark(self) -> int:
        """The log's current length: a position :meth:`records` reads from."""
        return len(self._log)

    def records(self, since: int = 0) -> List[tuple]:
        """The records logged from position ``since`` on, in order."""
        return self._log[since:]

    def reissue(self, records: List[tuple]) -> None:
        """Log ``records`` again, as if the code that logged them re-ran.

        No record holds an absolute clock (charges carry instruction
        counts, spans and samples are stamped when folded), so a slice
        with balanced spans and no ``CLOCK``/``FINAL`` record reads the
        same in every view wherever it lands.  The accountants are not
        moved: a caller replaying charges adds them to the counters too.
        """
        self._log.extend(records)


#: Shared no-op context manager returned when tracing is off.  One
#: instance for the whole process keeps the off-path allocation-free.
_NULL_SPAN = contextlib.nullcontext()


def current_tracer() -> Optional[Tracer]:
    """The globally active tracer installed by :func:`tracing`, if any."""
    return _accountant_mod.active_tracer()


def _resolve() -> Tuple[Optional[Tracer], str, str]:
    """Find the tracer + (source, domain) an instrumentation site uses.

    Preference order: the ambient accountant's tracer (gives the true
    charging source/domain), then the globally active tracer (for sites
    like the transport fabric that run outside any accountant).
    """
    acct = _cost_context.current_accountant()
    if acct is not None and acct.tracer is not None:
        return acct.tracer, acct.source, acct.current_domain
    tracer = _accountant_mod.active_tracer()
    if tracer is not None:
        return tracer, "", ""
    return None, "", ""


def span(name: str, kind: str = "span"):
    """Open a span on the active tracer, or a no-op when tracing is off.

    The source/domain are read from the ambient accountant at open
    time, so instrumentation sites never thread tracer handles around.
    """
    tracer, source, domain = _resolve()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, kind=kind, domain=domain, source=source)


def traced(name: str, kind: str = "span"):
    """Decorator form of :func:`span` for fixed-name synchronous methods.

    Only for plain functions — never decorate a generator with this
    (the span must not stretch across simulator ``yield``s).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            with span(name, kind=kind):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def instant(name: str, count: int = 1, **args: Any) -> None:
    """Record a typed point event on the active tracer (no-op when off)."""
    tracer, source, domain = _resolve()
    if tracer is not None:
        tracer.on_instant(name, source, domain, count=count, **args)


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` globally so new accountants auto-attach.

    ``tracing(None)`` is a no-op pass-through, which lets every
    ``run_*(trace=...)`` entry point wrap its body unconditionally.
    Re-entering with the *same* tracer nests fine (the experiment
    runners compose); installing a *different* tracer while one is
    active is almost certainly a bug and raises.
    """
    if tracer is None:
        yield None
        return
    prior = _accountant_mod.active_tracer()
    if prior is tracer:
        yield tracer
        return
    if prior is not None:
        raise RuntimeError("a different tracer is already active")
    _accountant_mod.set_active_tracer(tracer)
    try:
        yield tracer
    finally:
        _accountant_mod.set_active_tracer(prior)
        tracer.detach_all()
