"""The charge log against the frozen eager tracer and registry.

Random operation sequences — every ``charge_*`` and ``charge_burst``,
nested spans (some closed by an exception), instants, ``reset()``,
``metric_*`` calls, counter tampering, ``finalize()`` at a random point
and reads of the views in the middle of the run — are played through
the log-based :class:`repro.obs.Tracer` / :class:`MetricsRegistry` and
through the eager oracle in :mod:`tests.oracles.eager_obs`.  The two
must agree on every mid-run read, every export, the ``reconcile``
result and the error it raises.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cost import CostAccountant
from tests.oracles import eager_obs

_CHARGES = ("sgx", "normal", "crossing", "switchless", "allocation", "fault")
_FIELDS = (
    "sgx_instructions",
    "normal_instructions",
    "enclave_crossings",
    "allocations",
    "switchless_calls",
    "faults_injected",
)
_INSTANTS = ("crossing", "switchless_hit", "aex", "fault")

_small = st.integers(min_value=0, max_value=400)
_acct = st.integers(min_value=0, max_value=1)
_op = st.one_of(
    st.tuples(st.just("charge"), _acct, st.sampled_from(_CHARGES), _small),
    st.tuples(st.just("burst"), _acct, st.tuples(*[_small] * 2,
                                                 *[st.integers(0, 3)] * 4)),
    st.tuples(st.just("open"), st.booleans()),
    st.tuples(st.just("close"), st.booleans()),
    st.tuples(st.just("raise"), _acct, _small),
    st.tuples(st.just("domain"), _acct),
    st.tuples(st.just("instant"), st.sampled_from(_INSTANTS),
              st.integers(0, 3), st.booleans()),
    st.tuples(st.just("reset"), _acct),
    st.tuples(st.just("metric"), st.sampled_from(("count", "gauge", "observe")),
              _small),
    st.tuples(st.just("tamper"), _acct, st.sampled_from(_FIELDS)),
    st.tuples(st.just("finalize")),
    st.tuples(st.just("read")),
)


class _Boom(Exception):
    pass


def _views(tracer, registry):
    """Copies of the views, taken now (the live ones keep changing)."""
    return (
        [dataclasses.asdict(s) for s in tracer.spans],
        [dataclasses.asdict(i) for i in tracer.instants],
        {k: list(v) for k, v in tracer.orphans.items()},
        tracer.clock,
        dict(registry.counters),
        dict(registry.gauges),
        {k: h.freeze() for k, h in registry.histograms.items()},
        [dataclasses.asdict(s) for s in registry.samples],
        registry.clock_cycles,
    )


def _play(tracer_cls, registry_cls, reconcile, ops, interval):
    """Run ``ops`` on one implementation; return everything observable."""
    registry = registry_cls(interval=interval)
    tracer = tracer_cls(metrics=registry)
    seen = []
    with obs.tracing(tracer):
        accts = [CostAccountant(name="a"), CostAccountant(name="a")]
        spans, domains = [], [[], []]
        for n, op in enumerate(ops):
            kind = op[0]
            if kind == "charge":
                _, i, what, count = op
                getattr(accts[i], f"charge_{what}")(count)
            elif kind == "burst":
                sgx, normal, crossings, allocs, switchless, faults = op[2]
                accts[op[1]].charge_burst(
                    sgx=sgx, normal=normal, crossings=crossings,
                    allocations=allocs, switchless=switchless, faults=faults,
                )
            elif kind == "open":
                if op[1]:
                    cm = tracer.span(f"s{n}", kind="ecall", domain="d",
                                     source=accts[0].source)
                else:
                    cm = obs.span(f"s{n}")
                cm.__enter__()
                spans.append(cm)
            elif kind == "close" and spans:
                cm = spans.pop()
                if op[1]:
                    assert cm.__exit__(_Boom, _Boom(), None) is False
                else:
                    cm.__exit__(None, None, None)
            elif kind == "raise":
                try:
                    with obs.span(f"r{n}", kind="io"):
                        accts[op[1]].charge_normal(op[2])
                        raise _Boom
                except _Boom:
                    pass
            elif kind == "domain":
                stack = domains[op[1]]
                if len(stack) < 2 and n % 3:
                    cm = accts[op[1]].attribute(f"enclave:e{n % 3}")
                    cm.__enter__()
                    stack.append(cm)
                elif stack:
                    stack.pop().__exit__(None, None, None)
            elif kind == "instant":
                _, name, count, global_ = op
                if global_:
                    obs.instant(name, count=count, site=f"n{n}")
                else:
                    tracer.on_instant(name, accts[1].source,
                                      accts[1].current_domain, count=count)
            elif kind == "reset":
                accts[op[1]].reset()
            elif kind == "metric":
                _, what, value = op
                if what == "count":
                    obs.metric_count("hits", value)
                elif what == "gauge":
                    obs.metric_gauge("depth", float(value))
                else:
                    obs.metric_observe("lat", float(value))
            elif kind == "tamper":
                counter = accts[op[1]].counter()
                setattr(counter, op[2], getattr(counter, op[2]) + 1)
            elif kind == "finalize":
                seen.append(dataclasses.asdict(registry.finalize()))
            elif kind == "read":
                seen.append(_views(tracer, registry))
        for stack in domains:
            while stack:
                stack.pop().__exit__(None, None, None)
        # Spans still open at the end stay open: the exporters clamp them.
        seen.append(_views(tracer, registry))
    try:
        outcome = ("ok", reconcile(tracer))
    except AssertionError as exc:
        outcome = (type(exc).__name__, str(exc))
    exports = (
        obs.trace_event_json(tracer),
        obs.folded_stacks(tracer),
        obs.prometheus_text(tracer),
        obs.prometheus_text(tracer, openmetrics=True),
        obs.top_cost_sites(tracer, 10),
        obs.openmetrics_timeseries(registry),
    )
    views = _views(tracer, registry)
    while spans:  # close them after all, innermost first
        spans.pop().__exit__(None, None, None)
    return seen, outcome, exports, views


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(_op, max_size=50),
    interval=st.sampled_from([100, 1000, 100_000]),
)
def test_charge_log_matches_eager_oracle(ops, interval):
    log = _play(obs.Tracer, obs.MetricsRegistry, obs.reconcile, ops, interval)
    eager = _play(eager_obs.EagerTracer, eager_obs.EagerRegistry,
                  eager_obs.reconcile, ops, interval)
    assert log[0] == eager[0]  # every mid-run read and finalize()
    assert log[1] == eager[1]  # reconcile result or error
    assert log[2] == eager[2]  # exports
    assert log[3] == eager[3]  # views after the exports


def test_oracle_is_exercised_on_errors():
    """A tampered counter fails both implementations the same way."""
    ops = [("charge", 0, "normal", 5), ("tamper", 0, "allocations")]
    log = _play(obs.Tracer, obs.MetricsRegistry, obs.reconcile, ops, 1000)
    eager = _play(eager_obs.EagerTracer, eager_obs.EagerRegistry,
                  eager_obs.reconcile, ops, 1000)
    assert log[1][0] == "MetricsReconcileError"
    assert log[1] == eager[1]
