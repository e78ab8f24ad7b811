"""The eager tracer and metrics registry, frozen as the charge-log oracle.

Before the charge log, every accountant hook updated the span stack,
the orphan bucket, the clock and the metric series on the spot, and
:func:`reconcile` summed the recorded spans.  This module keeps that
implementation verbatim so ``tests/obs/test_charge_log_oracle.py`` can
drive random operation sequences through both and demand equal views,
exports, reconcile results and errors.  It is a test oracle only:
nothing under ``src/`` imports it.

The classes duck-type :class:`repro.obs.Tracer` and
:class:`repro.obs.MetricsRegistry` (accountants, ``obs.tracing``, the
span/instant/metric helpers and the exporters all accept them).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.cost.accountant import CostAccountant
from repro.cost.model import DEFAULT_MODEL, CostModel
from repro.obs.export import ReconcileError
from repro.obs.metrics import (
    DEFAULT_SAMPLE_INTERVAL,
    MetricKey,
    MetricsReconcileError,
    MetricsSample,
    _Histogram,
    _key,
)
from repro.obs.tracer import Instant, Span


class EagerTracer:
    """The tracer with every view maintained on each charge."""

    def __init__(
        self, model: CostModel = DEFAULT_MODEL, metrics: Optional[Any] = None
    ) -> None:
        self.model = model
        self.metrics = metrics
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.accountants: List[CostAccountant] = []
        self.reset_sources: Set[str] = set()
        self.epcs: List[Any] = []
        self.orphans: Dict[Tuple[str, str], List[int]] = {}
        self._stack: List[Span] = []
        self._seq = 0
        self._clock_sgx = 0
        self._clock_normal = 0
        self._source_counts: Dict[str, int] = {}

    @property
    def clock(self) -> Tuple[int, int]:
        return self._clock_sgx, self._clock_normal

    def cycles_at(self, sgx: int, normal: int) -> float:
        return self.model.cycles(sgx, normal)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def attach(self, acct: CostAccountant) -> None:
        if acct.tracer is self:
            return
        base = acct.name or "acct"
        n = self._source_counts.get(base, 0)
        self._source_counts[base] = n + 1
        acct.source = base if n == 0 else f"{base}#{n}"
        acct.tracer = self
        self.accountants.append(acct)

    def detach_all(self) -> None:
        for acct in self.accountants:
            acct.tracer = None

    def on_charge(self, source: str, domain: str, sgx: int, normal: int) -> None:
        self._clock_sgx += sgx
        self._clock_normal += normal
        if self._stack:
            counts = self._stack[-1].self_counts
        else:
            counts = self.orphans
        key = (source, domain)
        cell = counts.get(key)
        if cell is None:
            counts[key] = [sgx, normal]
        else:
            cell[0] += sgx
            cell[1] += normal
        metrics = self.metrics
        if metrics is not None:
            metrics.observe_charge(source, domain, sgx, normal)
            metrics.on_clock(
                self.model.cycles(self._clock_sgx, self._clock_normal)
            )

    def on_instant(
        self, name: str, source: str, domain: str, count: int = 1, **args: Any
    ) -> None:
        self.instants.append(
            Instant(
                seq=self._next_seq(),
                name=name,
                source=source,
                domain=domain,
                ts_sgx=self._clock_sgx,
                ts_normal=self._clock_normal,
                count=count,
                args=args,
            )
        )
        metrics = self.metrics
        if metrics is not None:
            metrics.observe_instant(name, source, domain, count)

    def on_field(self, field: str, source: str, domain: str, count: int) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.observe_field(field, source, domain, count)

    def on_reset(self, source: str) -> None:
        self.reset_sources.add(source)

    @contextlib.contextmanager
    def span(
        self, name: str, kind: str = "span", domain: str = "", source: str = ""
    ) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(
            span_id=len(self.spans) + 1,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind=kind,
            domain=domain,
            source=source,
            open_seq=self._next_seq(),
            start_sgx=self._clock_sgx,
            start_normal=self._clock_normal,
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            popped = self._stack.pop()
            assert popped is s, "span stack corrupted (overlapping spans)"
            s.close_seq = self._next_seq()
            s.end_sgx = self._clock_sgx
            s.end_normal = self._clock_normal


class EagerRegistry:
    """The registry with every series updated (and sampled) per call."""

    def __init__(
        self,
        interval: int = DEFAULT_SAMPLE_INTERVAL,
        model: CostModel = DEFAULT_MODEL,
    ) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive cycles")
        self.interval = int(interval)
        self.model = model
        self.counters: Dict[MetricKey, int] = {}
        self.gauges: Dict[MetricKey, float] = {}
        self.histograms: Dict[MetricKey, _Histogram] = {}
        self.samples: List[MetricsSample] = []
        self.clock_cycles = 0.0
        self._next_at = float(self.interval)
        self._finalized = False

    def inc(self, name: str, n: int = 1, **labels: str) -> None:
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + n

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self.gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: str) -> None:
        key = _key(name, labels)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = _Histogram()
        hist.observe(value)

    def observe_charge(self, source: str, domain: str, sgx: int, normal: int) -> None:
        if sgx:
            self.inc("sgx_instructions", sgx, source=source, domain=domain)
        if normal:
            self.inc("normal_instructions", normal, source=source, domain=domain)

    def observe_instant(self, name: str, source: str, domain: str, count: int) -> None:
        self.inc(f"event:{name}", count, source=source, domain=domain)

    def observe_field(self, field: str, source: str, domain: str, count: int) -> None:
        self.inc(field, count, source=source, domain=domain)

    def on_clock(self, cycles: float) -> None:
        self.clock_cycles = cycles
        if cycles < self._next_at:
            return
        boundary = int(cycles // self.interval)
        self._snapshot(boundary, boundary * float(self.interval))
        self._next_at = (boundary + 1) * float(self.interval)

    def _snapshot(self, boundary: int, at_cycles: float) -> None:
        self.samples.append(
            MetricsSample(
                boundary=boundary,
                at_cycles=at_cycles,
                counters=dict(self.counters),
                gauges=dict(self.gauges),
                histograms={
                    key: hist.freeze() for key, hist in self.histograms.items()
                },
            )
        )

    def finalize(self) -> MetricsSample:
        if not self._finalized:
            self._snapshot(-1, self.clock_cycles)
            self._finalized = True
        return self.samples[-1]

    def total(self, name: str) -> float:
        return sum(v for (n, _), v in self.counters.items() if n == name)


_RECONCILED_FAMILIES = (
    ("sgx_instructions", "sgx_instructions"),
    ("normal_instructions", "normal_instructions"),
    ("enclave_crossings", "event:crossing"),
    ("switchless_calls", "event:switchless_hit"),
    ("faults_injected", "faults_injected"),
    ("allocations", "allocations"),
)


def reconcile_metrics(registry: EagerRegistry, tracer) -> None:
    """The series-against-accountants check, read from the live series."""
    mismatches: List[str] = []
    for acct in tracer.accountants:
        if acct.source in tracer.reset_sources:
            continue
        for domain, counter in acct.domains().items():
            labels = (("domain", domain), ("source", acct.source))
            fields = counter.as_dict()
            for field, family in _RECONCILED_FAMILIES:
                got = registry.counters.get((family, labels), 0)
                if got != fields[field]:
                    mismatches.append(
                        f"{acct.source}/{domain}: metric {family}={got} != "
                        f"counter {field}={fields[field]}"
                    )
    epcs = list(getattr(tracer, "epcs", ()))
    if epcs and not tracer.reset_sources:
        for family, field in (("epc_ewb", "evictions"), ("epc_eldu", "reloads")):
            got = registry.total(family)
            want = sum(getattr(epc, field) for epc in epcs)
            if got != want:
                mismatches.append(
                    f"epc: metric {family}={got} != sum of cache {field}={want}"
                )
        if len(epcs) == 1:
            for family, want in (
                ("epc_resident_pages", epcs[0].resident_count),
                ("epc_free_frames", epcs[0].free_frames),
            ):
                gauge = registry.gauges.get((family, ()))
                if gauge is not None and int(gauge) != want:
                    mismatches.append(
                        f"epc: gauge {family}={gauge} != live {want}"
                    )
    final = registry.finalize()
    if final.counters != registry.counters:
        mismatches.append("final sample disagrees with cumulative counters")
    if mismatches:
        raise MetricsReconcileError(
            "metrics do not reconcile with accountants:\n  "
            + "\n  ".join(mismatches)
        )


def reconcile(tracer) -> Dict[str, Dict[str, float]]:
    """The trace-against-accountants check, summed over recorded spans."""
    traced: Dict[Tuple[str, str], List[int]] = {}

    def add(counts: Dict[Tuple[str, str], Sequence[int]]) -> None:
        for key, (sgx, normal) in counts.items():
            cell = traced.setdefault(key, [0, 0])
            cell[0] += sgx
            cell[1] += normal

    for s in tracer.spans:
        add(s.self_counts)
    add(tracer.orphans)

    crossings: Dict[Tuple[str, str], int] = {}
    switchless: Dict[Tuple[str, str], int] = {}
    for i in tracer.instants:
        if i.name == "crossing":
            key = (i.source, i.domain)
            crossings[key] = crossings.get(key, 0) + i.count
        elif i.name == "switchless_hit":
            key = (i.source, i.domain)
            switchless[key] = switchless.get(key, 0) + i.count

    mismatches: List[str] = []
    totals: Dict[str, Dict[str, float]] = {}
    seen: set = set()
    for acct in tracer.accountants:
        if acct.source in tracer.reset_sources:
            continue
        totals[acct.source] = {}
        for domain, counter in acct.domains().items():
            key = (acct.source, domain)
            seen.add(key)
            got = traced.get(key, [0, 0])
            if (
                got[0] != counter.sgx_instructions
                or got[1] != counter.normal_instructions
            ):
                mismatches.append(
                    f"{acct.source}/{domain}: traced sgx={got[0]} "
                    f"normal={got[1]} != counter sgx={counter.sgx_instructions} "
                    f"normal={counter.normal_instructions}"
                )
            got_x = crossings.get(key, 0)
            if got_x != counter.enclave_crossings:
                mismatches.append(
                    f"{acct.source}/{domain}: {got_x} crossing events != "
                    f"counter {counter.enclave_crossings}"
                )
            got_sl = switchless.get(key, 0)
            if got_sl != counter.switchless_calls:
                mismatches.append(
                    f"{acct.source}/{domain}: {got_sl} switchless_hit events != "
                    f"counter {counter.switchless_calls}"
                )
            totals[acct.source][domain] = tracer.cycles_at(
                counter.sgx_instructions, counter.normal_instructions
            )
    reset = {acct.source for acct in tracer.accountants} & tracer.reset_sources
    for key in traced:
        if key not in seen and key[0] not in reset and traced[key] != [0, 0]:
            mismatches.append(
                f"{key[0]}/{key[1]}: traced charges with no matching counter"
            )
    if mismatches:
        raise ReconcileError(
            "trace does not reconcile with accountants:\n  "
            + "\n  ".join(mismatches)
        )
    if tracer.metrics is not None:
        reconcile_metrics(tracer.metrics, tracer)
    return totals
