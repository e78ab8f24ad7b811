"""Deterministic metrics: instruments + a simulated-time sampler.

Spans answer "where did the cycles go?"; the Counter / Gauge /
Histogram series here answer "is the system healthy *right now* in
simulated time?", snapshotted at a configurable interval of the same
cost-model cycle clock the tracer uses.

Design invariants (DESIGN.md §10):

* **Zero cost when off.**  No registry exists by default; every
  hot-path helper (:func:`metric_count` & friends) resolves the active
  tracer's ``metrics`` attribute and returns immediately when there is
  none.  Golden Table 1-4 outputs are byte-identical with metrics off
  *and* on (the registry observes charges, it never adds any).

* **Series fold from the charge log.**  An instrument call appends one
  record to the tracer's log and does nothing else; the per
  ``(source, domain)`` family of every :class:`CostAccountant` field
  folds from the same records as the spans, and
  :func:`reconcile_metrics` checks the accountants against the log's
  integer totals without building a sample.

* **Deterministic sampling.**  The sample clock is
  ``model.cycles(clock_sgx, clock_normal)`` — never wall time.  A
  sample is taken immediately after the charge that advanced the clock
  across a boundary (multiple of ``interval``); when one charge jumps
  several boundaries a single sample is recorded at the last crossed
  boundary (the series is flat across the gap by construction).  Two
  same-seed runs therefore produce byte-identical exports.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.cost import accountant as _accountant_mod
from repro.cost.accountant import Counter
from repro.cost.model import DEFAULT_MODEL, CostModel
from repro.obs.tracer import (
    CLOCK, FINAL, GAUGE, INC, OBSERVE, LogTotals, Tracer, _view,
)

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL",
    "HISTOGRAM_BUCKETS",
    "MetricKey",
    "MetricsSample",
    "MetricsRegistry",
    "MetricsReconcileError",
    "metric_count",
    "metric_gauge",
    "metric_observe",
    "active_registry",
    "reconcile_metrics",
    "openmetrics_timeseries",
]

#: Cycles between time-series snapshots (configurable per registry).
DEFAULT_SAMPLE_INTERVAL = 10_000_000

#: Fixed log-bucket upper bounds (powers of 4 from 1 to ~1.1e12 cycles)
#: plus the implicit +Inf bucket.  Fixed boundaries keep every
#: histogram export byte-comparable across runs and scenarios.
HISTOGRAM_BUCKETS: Tuple[int, ...] = tuple(4 ** k for k in range(21))

#: One OpenMetrics second per this many modeled cycles (matches the
#: trace_event convention of 1 trace us = 1K cycles).
CYCLES_PER_OM_SECOND = 1_000_000_000.0

#: ``(name, ((label, value), ...))`` — the identity of one series.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, str]) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted(labels.items())))


class MetricsReconcileError(AssertionError):
    """Metric series totals disagree with the accountant counters."""


@dataclasses.dataclass
class _Histogram:
    """Cumulative log-bucket histogram (fixed boundaries)."""

    counts: List[int] = dataclasses.field(
        default_factory=lambda: [0] * (len(HISTOGRAM_BUCKETS) + 1)
    )
    count: int = 0
    total: float = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(HISTOGRAM_BUCKETS, value)] += 1
        self.count += 1
        self.total += value

    def freeze(self) -> Tuple[Tuple[int, ...], int, float]:
        return tuple(self.counts), self.count, self.total

    def quantile(self, q: float) -> float:
        """Upper bucket bound holding the q-quantile (0 if empty)."""
        if self.count == 0:
            return 0.0
        rank = max(1, -(-int(q * self.count * 100) // 100))  # ceil
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i < len(HISTOGRAM_BUCKETS):
                    return float(HISTOGRAM_BUCKETS[i])
                return float("inf")
        return float(HISTOGRAM_BUCKETS[-1])  # pragma: no cover


@dataclasses.dataclass
class MetricsSample:
    """One snapshot of every series at a sample boundary."""

    #: Boundary index (``at_cycles == boundary * interval``), or -1 for
    #: the final snapshot :meth:`MetricsRegistry.finalize` stamps at
    #: the end-of-run clock.
    boundary: int
    at_cycles: float
    counters: Dict[MetricKey, int]
    gauges: Dict[MetricKey, float]
    histograms: Dict[MetricKey, Tuple[Tuple[int, ...], int, float]]


class MetricsRegistry:
    """Counter/Gauge/Histogram series sampled on the cost-model clock.

    Attach one to a :class:`repro.obs.Tracer` (``Tracer(metrics=...)``)
    and its series fold from the tracer's charge log, sampled whenever
    the folded cycle clock crosses a multiple of ``interval``.  A
    registry on its own is clocked by :meth:`on_clock`.
    """

    def __init__(
        self,
        interval: int = DEFAULT_SAMPLE_INTERVAL,
        model: CostModel = DEFAULT_MODEL,
    ) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive cycles")
        self.interval = int(interval)
        self.model = model
        #: Records in call order.  The tracer this registry rides on
        #: logs into, and folds, the same list.
        self._log: List[tuple] = []
        self._tracer: Optional[Tracer] = None
        self._final_at = -1  # log index of the finalize() record
        self._counters: Dict[MetricKey, int] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, _Histogram] = {}
        self._samples: List[MetricsSample] = []
        self._clock_cycles = 0.0
        self._next_at = float(self.interval)

    counters = _view("_counters", "Cumulative counter series.")
    gauges = _view("_gauges", "Current gauge values.")
    histograms = _view("_histograms", "Cumulative histogram series.")
    samples = _view("_samples", "Snapshots, one per crossed boundary.")
    clock_cycles = _view("_clock_cycles", "The sample clock, in cycles.")

    # -- instruments: one log record each ----------------------------------

    def inc(self, name: str, n: int = 1, **labels: str) -> None:
        """Add ``n`` to a (cumulative, integer) counter series."""
        self._log.append((INC, name, n, labels))

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the instantaneous value of a gauge series."""
        self._log.append((GAUGE, name, value, labels))

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one observation into a log-bucket histogram series."""
        self._log.append((OBSERVE, name, value, labels))

    def on_clock(self, cycles: float) -> None:
        """Advance the sample clock to ``cycles`` (a registry on its own)."""
        self._log.append((CLOCK, cycles))

    def finalize(self) -> MetricsSample:
        """Stamp one last sample at the current clock (idempotent).

        Every export and SLO evaluation calls this so the series always
        ends with the cumulative totals, even when the run stopped
        between boundaries.
        """
        self._stamp_final()
        return self.samples[-1]

    def _stamp_final(self) -> int:
        """Log the finalize record once; return its log index."""
        if self._final_at < 0:
            self._final_at = len(self._log)
            self._log.append((FINAL,))
        return self._final_at

    # -- the fold ----------------------------------------------------------

    def _fold(self) -> None:
        # The tracer folds spans and series in one pass (a registry on
        # its own gets a tracer of its own).
        (self._tracer or Tracer(self.model, metrics=self))._fold()

    def _apply(self, rec: tuple) -> None:
        """Fold one instrument, clock or finalize record."""
        tag = rec[0]
        if tag == CLOCK:
            self.observe_clock(rec[1])
        elif tag == FINAL:
            self._snapshot(-1, self._clock_cycles)
        else:
            key = _key(rec[1], rec[3])
            if tag == INC:
                self._counters[key] = self._counters.get(key, 0) + rec[2]
            elif tag == GAUGE:
                self._gauges[key] = rec[2]
            else:
                hist = self._histograms.get(key)
                if hist is None:
                    hist = self._histograms[key] = _Histogram()
                hist.observe(rec[2])

    def observe_clock(self, cycles: float) -> None:
        """Fold one clock reading; snapshot at each crossed boundary.

        One charge can cross several boundaries; the series is flat
        between them (the clock advances atomically per charge), so a
        single sample at the *last* crossed boundary loses nothing.
        """
        self._clock_cycles = cycles
        if cycles < self._next_at:
            return
        boundary = int(cycles // self.interval)
        self._snapshot(boundary, boundary * float(self.interval))
        self._next_at = (boundary + 1) * float(self.interval)

    def _snapshot(self, boundary: int, at_cycles: float) -> None:
        self._samples.append(
            MetricsSample(
                boundary=boundary,
                at_cycles=at_cycles,
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    key: hist.freeze() for key, hist in self._histograms.items()
                },
            )
        )

    # -- reading -----------------------------------------------------------

    def total(self, name: str) -> float:
        """Sum of a counter family's cumulative value over all labels."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def series_points(self, name: str) -> List[Tuple[float, float]]:
        """``(cycles, cumulative value)`` per sample, family-aggregated.

        Ends with the current totals; a value at time ``t`` is the last
        point at or before ``t`` (step interpolation, 0 before the
        first charge).
        """
        points = [
            (
                s.at_cycles,
                float(sum(v for (n, _), v in s.counters.items() if n == name)),
            )
            for s in self.samples
        ]
        if self._final_at < 0:
            points.append((self.clock_cycles, float(self.total(name))))
        return points

    def histogram_total(self, name: str) -> _Histogram:
        """Family-wide merged histogram (cumulative, end of run)."""
        out = _Histogram()
        for (n, _), hist in self.histograms.items():
            if n != name:
                continue
            for i, c in enumerate(hist.counts):
                out.counts[i] += c
            out.count += hist.count
            out.total += hist.total
        return out


# ---------------------------------------------------------------------------
# Hot-path helpers (no-ops unless a registry is active)
# ---------------------------------------------------------------------------


def active_registry() -> Optional[MetricsRegistry]:
    """The metrics registry of the globally active tracer, if any."""
    tracer = _accountant_mod.active_tracer()
    return tracer.metrics if tracer is not None else None


def metric_count(name: str, n: int = 1) -> None:
    """Increment an aggregate counter on the active registry."""
    registry = active_registry()
    if registry is not None:
        registry.inc(name, n)


def metric_gauge(name: str, value: float) -> None:
    """Set an aggregate gauge on the active registry."""
    registry = active_registry()
    if registry is not None:
        registry.set_gauge(name, value)


def metric_observe(name: str, value: float) -> None:
    """Record a histogram observation on the active registry."""
    registry = active_registry()
    if registry is not None:
        registry.observe(name, value)


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------

#: accountant Counter field -> the metric family mirroring it.
_RECONCILED_FAMILIES = (
    ("sgx_instructions", "sgx_instructions"),
    ("normal_instructions", "normal_instructions"),
    ("enclave_crossings", "event:crossing"),
    ("switchless_calls", "event:switchless_hit"),
    ("faults_injected", "faults_injected"),
    ("allocations", "allocations"),
)


def _compare_accountants(tracer):
    """One loop holding all six Counter fields against the log's totals.

    Returns ``(totals, cycles per source and domain, mismatches worded
    for ReconcileError, mismatches worded for MetricsReconcileError)``;
    sources that ``reset()`` are skipped.
    """
    totals = tracer.totals()
    cycles: Dict[str, Dict[str, float]] = {}
    trace: List[str] = []
    metric: List[str] = []
    seen = set()
    for acct in tracer.accountants:
        if acct.source in tracer.reset_sources:
            continue
        cycles[acct.source] = {}
        for domain, want in acct.domains().items():
            seen.add((acct.source, domain))
            got = totals.counters.get((acct.source, domain)) or Counter()
            where = f"{acct.source}/{domain}"
            if (got.sgx_instructions, got.normal_instructions) != (
                want.sgx_instructions, want.normal_instructions
            ):
                trace.append(
                    f"{where}: traced sgx={got.sgx_instructions} "
                    f"normal={got.normal_instructions} != counter "
                    f"sgx={want.sgx_instructions} normal={want.normal_instructions}"
                )
            for event, field in (("crossing", "enclave_crossings"),
                                 ("switchless_hit", "switchless_calls")):
                if getattr(got, field) != getattr(want, field):
                    trace.append(
                        f"{where}: {getattr(got, field)} {event} events != "
                        f"counter {getattr(want, field)}"
                    )
            g, w = got.as_dict(), want.as_dict()
            metric += [
                f"{where}: metric {family}={g[field]} != counter {field}={w[field]}"
                for field, family in _RECONCILED_FAMILIES
                if g[field] != w[field]
            ]
            cycles[acct.source][domain] = tracer.cycles_at(
                want.sgx_instructions, want.normal_instructions
            )
    reset = {acct.source for acct in tracer.accountants} & tracer.reset_sources
    for key, got in totals.counters.items():
        if key not in seen and key[0] not in reset and (
            got.sgx_instructions or got.normal_instructions
        ):
            trace.append(f"{key[0]}/{key[1]}: traced charges with no matching counter")
    return totals, cycles, trace, metric


def reconcile_metrics(registry: MetricsRegistry, tracer) -> None:
    """Assert series totals equal the accountants *exactly* (integers).

    For every attached accountant (sources that ``reset()`` are skipped
    like the tracer does) each Counter field must equal the series for
    that ``(source, domain)``, and the finalized last sample must equal
    the cumulative totals.  A disabled accountant charges nothing, so
    its counters and series agree by construction.  Raises
    :class:`MetricsReconcileError` listing every mismatch.
    """
    totals, _, _, mismatches = _compare_accountants(tracer)
    _check_series(registry, tracer, totals, mismatches)


def _check_series(
    registry: MetricsRegistry, tracer, totals: LogTotals, mismatches: List[str]
) -> None:
    """Add the EPC and final-sample checks; raise if anything mismatched.

    EPC: the epc_ewb/epc_eldu families must equal the page caches' own
    eviction/reload counters, summed over every cache the tracer saw,
    and with a single cache the last gauges must equal its occupancy
    (skipped when a source reset).
    """
    epcs = list(getattr(tracer, "epcs", ()))
    if epcs and not tracer.reset_sources:
        for family, field in (("epc_ewb", "evictions"), ("epc_eldu", "reloads")):
            got = totals.metric_counts.get(family, 0)
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
                gauge = totals.gauges.get(family)
                if gauge is not None and int(gauge) != want:
                    mismatches.append(
                        f"epc: gauge {family}={gauge} != live {want}"
                    )
    # A final sample stamped now holds the totals by construction; one
    # stamped earlier must still equal the counters logged since.
    if registry._stamp_final() < len(registry._log) - 1 and (
        registry.samples[-1].counters != registry.counters
    ):
        mismatches.append("final sample disagrees with cumulative counters")
    if mismatches:
        raise MetricsReconcileError(
            "metrics do not reconcile with accountants:\n  "
            + "\n  ".join(mismatches)
        )


# ---------------------------------------------------------------------------
# OpenMetrics time-series export
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _om_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _om_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _om_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_om_escape(str(v))}"' for k, v in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _om_ts(cycles: float) -> str:
    return f"{cycles / CYCLES_PER_OM_SECOND:.6f}"


def _om_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def openmetrics_timeseries(registry: MetricsRegistry) -> str:
    """The sampled series as OpenMetrics text (timestamped points).

    One MetricPoint per sample per series, timestamped on the modeled
    clock (1 OpenMetrics second = 10^9 cycles).  Purely a function of
    the registry state, so two same-seed runs export byte-identical
    documents.  Ends with ``# EOF`` as the spec requires.
    """
    registry.finalize()
    samples = registry.samples
    lines: List[str] = []

    def families(attr: str) -> List[Tuple[str, List[MetricKey]]]:
        by_family: Dict[str, List[MetricKey]] = {}
        for key in sorted({k for s in samples for k in getattr(s, attr)}):
            by_family.setdefault(key[0], []).append(key)
        return sorted(by_family.items())

    def points(attr: str, key: MetricKey):
        """Deduplicated (cycles, value) points for one series."""
        out: List[Tuple[float, Any]] = []
        for sample in samples:
            value = getattr(sample, attr).get(key)
            if value is None:
                continue
            if out and out[-1][1] == value and sample.boundary != -1:
                continue
            out.append((sample.at_cycles, value))
        return out

    for attr, kind, suffix in (("counters", "counter", "_total"),
                               ("gauges", "gauge", "")):
        for family, keys in families(attr):
            name = _om_name(family)
            lines.append(f"# TYPE {name} {kind}")
            for key in keys:
                for cycles, value in points(attr, key):
                    lines.append(
                        f"{name}{suffix}{_om_labels(key[1])} "
                        f"{_om_value(value)} {_om_ts(cycles)}"
                    )
    for family, keys in families("histograms"):
        name = _om_name(family)
        lines.append(f"# TYPE {name} histogram")
        for key in keys:
            labels = key[1]
            for cycles, (counts, count, total) in points("histograms", key):
                ts = _om_ts(cycles)
                cumulative = [*itertools.accumulate(counts[:-1]), count]
                for bound, acc in zip([*HISTOGRAM_BUCKETS, "+Inf"], cumulative):
                    le = f'le="{bound}"'
                    lines.append(f"{name}_bucket{_om_labels(labels, le)} {acc} {ts}")
                lines.append(f"{name}_count{_om_labels(labels)} {count} {ts}")
                lines.append(
                    f"{name}_sum{_om_labels(labels)} {_om_value(total)} {ts}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
