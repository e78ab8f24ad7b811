"""Observability: cycle-accurate span tracing + metrics + exporters.

Quick start::

    from repro import experiments, obs

    tracer = obs.Tracer()
    experiments.run_table2(trace=tracer)
    obs.reconcile(tracer)                   # exact, or ReconcileError
    open("t2.json", "w").write(obs.trace_event_json(tracer))

Metrics ride along the same tracer (PR 8)::

    registry = obs.MetricsRegistry(interval=10_000_000)
    tracer = obs.Tracer(metrics=registry)
    experiments.run_load("routing", trace=tracer)
    obs.reconcile(tracer)                   # trace AND series totals
    open("ts.om", "w").write(obs.openmetrics_timeseries(registry))

Tracing is opt-in and zero-cost when off; see :mod:`repro.obs.tracer`.
"""

from repro.obs.export import (
    CYCLES_PER_TRACE_US,
    ReconcileError,
    folded_stacks,
    prometheus_text,
    reconcile,
    to_trace_events,
    top_cost_sites,
    trace_event_json,
    validate_trace_events,
)
from repro.obs.metrics import (
    DEFAULT_SAMPLE_INTERVAL,
    HISTOGRAM_BUCKETS,
    MetricsRegistry,
    MetricsReconcileError,
    MetricsSample,
    active_registry,
    metric_count,
    metric_gauge,
    metric_observe,
    openmetrics_timeseries,
    reconcile_metrics,
)
from repro.obs.tracer import (
    Instant,
    Span,
    Tracer,
    current_tracer,
    instant,
    span,
    traced,
    tracing,
)

__all__ = [
    "CYCLES_PER_TRACE_US",
    "DEFAULT_SAMPLE_INTERVAL",
    "HISTOGRAM_BUCKETS",
    "Instant",
    "MetricsReconcileError",
    "MetricsRegistry",
    "MetricsSample",
    "ReconcileError",
    "Span",
    "Tracer",
    "active_registry",
    "current_tracer",
    "folded_stacks",
    "instant",
    "metric_count",
    "metric_gauge",
    "metric_observe",
    "openmetrics_timeseries",
    "prometheus_text",
    "reconcile",
    "reconcile_metrics",
    "span",
    "to_trace_events",
    "top_cost_sites",
    "traced",
    "trace_event_json",
    "tracing",
    "validate_trace_events",
]
