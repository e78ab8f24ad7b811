"""Exporters for :class:`repro.obs.Tracer` recordings.

Three formats, all deterministic text so traces diff cleanly:

* Chrome/Perfetto ``trace_event`` JSON — load in https://ui.perfetto.dev
  or ``chrome://tracing``.  One trace "process" per cost source (one
  simulated party / accountant), one "thread" per attribution domain.
  The timeline unit is **1 trace microsecond = 1,000 modeled cycles**
  (the cost model's clock, never wall time).
* Folded-stack text — ``frame;frame;frame value`` lines, compatible
  with inferno / flamegraph.pl (value = span self-cycles, rounded).
* Prometheus-style text exposition — aggregate counters for dashboards
  or plain grepping.

:func:`reconcile` is the correctness anchor: it asserts that the
tracer's charge log sums to every attached accountant's per-domain
counters *exactly*, integer for integer — the trace is the table,
redistributed over a timeline.  It reads only the log's totals; the
exporters are what fold the timeline.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import _check_series, _compare_accountants, _om_labels
from repro.obs.tracer import Tracer

#: One trace-event microsecond per this many modeled cycles.
CYCLES_PER_TRACE_US = 1_000.0


class ReconcileError(AssertionError):
    """Span self-cost totals disagree with the accountant counters."""


# ---------------------------------------------------------------------------
# Chrome / Perfetto trace_event JSON
# ---------------------------------------------------------------------------


def to_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Flatten a recording into Chrome ``trace_event`` dicts.

    Events are ordered by the tracer's sequence numbers, which gives an
    exact chronological order even when several events share a cycle
    timestamp (the clock only advances on charges).
    """
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    meta: List[Dict[str, Any]] = []

    def name(kind: str, pid: int, tid: int, label: str) -> None:
        meta.append(
            {"ph": "M", "name": kind, "pid": pid, "tid": tid, "args": {"name": label}}
        )

    def pid_for(source: str) -> int:
        label = source or "global"
        if label not in pids:
            pids[label] = len(pids) + 1
            name("process_name", pids[label], 0, label)
        return pids[label]

    def tid_for(source: str, domain: str) -> int:
        label = domain or "main"
        pid = pid_for(source)
        key = (source or "global", label)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == key[0]]) + 1
            name("thread_name", pid, tids[key], label)
        return tids[key]

    def ts(sgx: int, normal: int) -> float:
        return tracer.cycles_at(sgx, normal) / CYCLES_PER_TRACE_US

    timed: List[Tuple[int, Dict[str, Any]]] = []
    spans = tracer.spans  # folds the log, so the sequence counter is final
    final_seq = tracer._seq + 1
    for s in spans:
        base = {
            "name": s.name,
            "cat": s.kind,
            "pid": pid_for(s.source),
            "tid": tid_for(s.source, s.domain),
        }
        self_sgx, self_normal = s.self_instructions()
        timed.append(
            (
                s.open_seq,
                {
                    "ph": "B",
                    **base,
                    "ts": ts(s.start_sgx, s.start_normal),
                    "args": {
                        "domain": s.domain,
                        "source": s.source,
                        "self_sgx_instructions": self_sgx,
                        "self_normal_instructions": self_normal,
                        "self_cycles": tracer.cycles_at(self_sgx, self_normal),
                        "error": s.error,
                    },
                },
            )
        )
        if s.closed:
            end_seq, end_sgx, end_normal = s.close_seq, s.end_sgx, s.end_normal
        else:  # never-closed span (crashed run): clamp to the final clock
            end_seq, end_sgx, end_normal = final_seq, *tracer.clock
        timed.append((end_seq, {"ph": "E", **base, "ts": ts(end_sgx, end_normal)}))
    for i in tracer.instants:
        timed.append(
            (
                i.seq,
                {
                    "ph": "i",
                    "name": i.name,
                    "cat": "event",
                    "s": "t",
                    "pid": pid_for(i.source),
                    "tid": tid_for(i.source, i.domain),
                    "ts": ts(i.ts_sgx, i.ts_normal),
                    "args": {"count": i.count, **i.args},
                },
            )
        )
    timed.sort(key=lambda pair: pair[0])
    return meta + [event for _, event in timed]


def trace_event_json(tracer: Tracer, indent: Optional[int] = None) -> str:
    """Serialize to the Chrome/Perfetto JSON object format."""
    payload = {
        "traceEvents": to_trace_events(tracer),
        "displayTimeUnit": "ms",
        "metadata": {
            "clock": f"modeled cycles ({CYCLES_PER_TRACE_US:.0f} cycles per trace us)",
            "sgx_instruction_cycles": tracer.model.sgx_instruction_cycles,
            "cycles_per_instruction": tracer.model.cycles_per_instruction,
        },
    }
    return json.dumps(payload, indent=indent, sort_keys=False)


def validate_trace_events(payload: Any) -> List[Dict[str, Any]]:
    """Check trace_event shape; returns the event list or raises ValueError.

    Accepts either the object form (``{"traceEvents": [...]}``) or a
    bare event list.  Checks the keys each phase requires, that ``ts``
    is monotonically non-decreasing over the non-metadata stream, and
    that B/E events balance per (pid, tid) with matching names.
    """
    events = payload.get("traceEvents") if isinstance(payload, dict) else payload
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    last_ts: Optional[float] = None
    stacks: Dict[Tuple[int, int], List[str]] = {}
    for n, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event #{n} is not an object")
        ph = event.get("ph")
        if ph == "M":
            continue
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in event:
                raise ValueError(f"event #{n} ({ph!r}) missing key {key!r}")
        ts = event["ts"]
        if last_ts is not None and ts < last_ts:
            raise ValueError(f"event #{n}: ts {ts} < previous {last_ts}")
        last_ts = ts
        thread = (event["pid"], event["tid"])
        if ph == "B":
            stacks.setdefault(thread, []).append(event["name"])
        elif ph == "E":
            stack = stacks.get(thread) or []
            if not stack:
                raise ValueError(f"event #{n}: E with empty stack on {thread}")
            top = stack.pop()
            if top != event["name"]:
                raise ValueError(
                    f"event #{n}: E {event['name']!r} does not close {top!r}"
                )
        elif ph == "i":
            if event.get("s") not in ("t", "p", "g"):
                raise ValueError(f"event #{n}: instant missing scope 's'")
        else:
            raise ValueError(f"event #{n}: unsupported phase {ph!r}")
    unbalanced = {t: s for t, s in stacks.items() if s}
    if unbalanced:
        raise ValueError(f"unbalanced B events left open: {unbalanced}")
    return events


# ---------------------------------------------------------------------------
# Folded stacks (inferno / flamegraph.pl)
# ---------------------------------------------------------------------------


def folded_stacks(tracer: Tracer) -> str:
    """Semicolon-folded stacks weighted by span self-cycles.

    Feed to ``flamegraph.pl`` or ``inferno-flamegraph`` directly.
    Charges recorded outside any span appear as single-frame
    ``[unattributed source:domain]`` rows so the flamegraph's total
    equals the run's total cycles.
    """
    by_id = {s.span_id: s for s in tracer.spans}
    weights: Dict[str, int] = {}

    def frame(s) -> str:
        return s.name.replace(";", ",").replace("\n", " ")

    for s in tracer.spans:
        frames = [frame(s)]
        parent = s.parent_id
        while parent is not None:
            p = by_id[parent]
            frames.append(frame(p))
            parent = p.parent_id
        stack = ";".join(reversed(frames))
        value = int(round(tracer.cycles_at(*s.self_instructions())))
        if value:
            weights[stack] = weights.get(stack, 0) + value
    for (source, domain), (sgx, normal) in sorted(tracer.orphans.items()):
        value = int(round(tracer.cycles_at(sgx, normal)))
        if value:
            stack = f"[unattributed {source}:{domain}]"
            weights[stack] = weights.get(stack, 0) + value
    return "".join(f"{stack} {value}\n" for stack, value in sorted(weights.items()))


# ---------------------------------------------------------------------------
# Prometheus-style text metrics
# ---------------------------------------------------------------------------


def _labels(**labels: str) -> str:
    return _om_labels(tuple(labels.items()))


def prometheus_text(tracer: Tracer, openmetrics: bool = False) -> str:
    """Aggregate the recording into Prometheus text exposition format.

    With ``openmetrics=True`` the output follows the OpenMetrics 1.0
    text format instead: counter *family* names drop the ``_total``
    suffix (it moves to the sample names, including
    ``repro_trace_span_count_total``, which plain Prometheus mode keeps
    bare for backward compatibility), cycle-valued families carry
    ``# UNIT`` metadata, and the exposition ends with the mandatory
    ``# EOF`` terminator.  The default output is byte-identical to what
    this exporter has always produced.
    """
    lines: List[str] = []

    def header(name: str, help_text: str, kind: str, unit: str = "") -> None:
        family = name
        if openmetrics and kind == "counter" and family.endswith("_total"):
            family = family[: -len("_total")]
        lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} {kind}")
        if openmetrics and unit:
            lines.append(f"# UNIT {family} {unit}")

    span_cycles, span_counts = _span_sites(tracer)
    for family, help_text, unit, values, fmt in (
        (
            "repro_trace_span_self_cycles_total",
            "Modeled cycles charged directly to spans with this name/kind.",
            "cycles", span_cycles, "{:.1f}",
        ),
        (
            "repro_trace_span_count",
            "Number of spans recorded per name/kind.",
            "", span_counts, "{}",
        ),
    ):
        header(family, help_text, "counter", unit=unit)
        if openmetrics and not family.endswith("_total"):
            family += "_total"
        for (name, kind), value in sorted(values.items()):
            lines.append(
                family + _labels(name=name, kind=kind) + " " + fmt.format(value)
            )

    event_counts: Dict[str, int] = {}
    for i in tracer.instants:
        event_counts[i.name] = event_counts.get(i.name, 0) + i.count
    header(
        "repro_trace_events_total",
        "Instant events (crossings, AEX, switchless, faults, retransmissions).",
        "counter",
    )
    for name, value in sorted(event_counts.items()):
        lines.append("repro_trace_events_total" + _labels(name=name) + f" {value}")

    for field, help_text in (
        ("sgx", "User-mode SGX instructions per accountant source and domain."),
        ("normal", "Normal x86 instructions per accountant source and domain."),
    ):
        family = f"repro_domain_{field}_instructions_total"
        header(family, help_text, "counter", unit="instructions")
        for acct in tracer.accountants:
            for domain, counter in sorted(acct.domains().items()):
                lines.append(
                    family
                    + _labels(source=acct.source, domain=domain)
                    + f" {getattr(counter, field + '_instructions')}"
                )

    header(
        "repro_trace_clock_cycles",
        "Final cycle-clock reading (total modeled cycles observed).",
        "gauge",
        unit="cycles",
    )
    lines.append(f"repro_trace_clock_cycles {tracer.cycles_at(*tracer.clock):.1f}")
    if openmetrics:
        lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Summaries + reconciliation
# ---------------------------------------------------------------------------


def _span_sites(tracer: Tracer):
    """Self-cycles and span count per span (name, kind), in span order."""
    cycles: Dict[Tuple[str, str], float] = {}
    counts: Dict[Tuple[str, str], int] = {}
    for s in tracer.spans:
        key = (s.name, s.kind)
        cycles[key] = cycles.get(key, 0.0) + tracer.cycles_at(*s.self_instructions())
        counts[key] = counts.get(key, 0) + 1
    return cycles, counts


def top_cost_sites(tracer: Tracer, n: int = 5) -> List[Tuple[str, str, float, int]]:
    """The ``n`` hottest sites: spans by self-cycles, then instants.

    Returns (name, kind, self_cycles, count) tuples, hottest first —
    the "top-N cost sites" table of EXPERIMENTS.md ablation A10.  Typed
    instants (``ring_*``, ``fault``, ``retransmission``, ...) carry no
    cycles of their own, so they rank below every nonzero span — by
    descending total count — but are no longer invisible: a paging
    storm or retransmit burst shows up here even when its cycles are
    charged inside some broader span.
    """
    cycles, counts = _span_sites(tracer)
    for i in tracer.instants:
        key = (i.name, "event")
        cycles.setdefault(key, 0.0)
        counts[key] = counts.get(key, 0) + i.count
    ranked = sorted(
        cycles.items(), key=lambda kv: (-kv[1], -counts[kv[0]], kv[0])
    )
    return [(name, kind, value, counts[(name, kind)]) for (name, kind), value in ranked[:n]]


def reconcile(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Assert the log's totals match the accountants exactly; return per-domain cycles.

    For every attached accountant (except any that called ``reset()``,
    whose history the trace can no longer account for), the raw
    (sgx, normal) instructions, crossings and switchless hits summed
    from the charge log (:meth:`Tracer.totals`; no span or sample is
    built) must equal its per-domain counters *as integers*.  Raises
    :class:`ReconcileError` listing every mismatch otherwise.

    The return value maps ``source -> {domain: cycles}`` using the
    tracer's model — the same numbers the Table 1-4 reports print.
    With a metrics registry attached, the checks of
    :func:`repro.obs.metrics.reconcile_metrics` (faults, allocations, EPC,
    the final sample) run too.
    """
    totals, cycles, mismatches, metric_mismatches = _compare_accountants(tracer)
    if mismatches:
        raise ReconcileError(
            "trace does not reconcile with accountants:\n  "
            + "\n  ".join(mismatches)
        )
    if tracer.metrics is not None:
        _check_series(tracer.metrics, tracer, totals, metric_mismatches)
    return cycles
