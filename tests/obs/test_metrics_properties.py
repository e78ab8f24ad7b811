"""Hypothesis properties for the metrics registry.

Two generators feed the same invariant — summed metric series reconcile
*integer-exactly* with every ``CostAccountant`` counter and with
``obs.reconcile()``:

* synthetic recordings (any valid sequence of spans, charges and
  domain switches, extended with crossing/switchless/fault/allocation
  charges so every reconciled family is exercised), and
* random scheduler programs executed on BOTH event kernels
  (:mod:`repro.net.sim` and the frozen :mod:`tests.oracles.sim_reference`):
  conformant kernels must charge identically, so the two runs must
  also export byte-identical OpenMetrics time-series.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cost import CostAccountant
from repro.net import sim
from repro.obs.metrics import MetricsRegistry, openmetrics_timeseries
from tests.conformance.harness import examples
from tests.oracles import sim_reference

EXAMPLES = examples(25)

# Accountant Counter field -> the metric family mirroring it.
_FAMILIES = {
    "sgx_instructions": "sgx_instructions",
    "normal_instructions": "normal_instructions",
    "enclave_crossings": "event:crossing",
    "switchless_calls": "event:switchless_hit",
    "faults_injected": "faults_injected",
    "allocations": "allocations",
}


def assert_families_match(registry, tracer):
    """Every accountant field equals its metric family, int for int."""
    for acct in tracer.accountants:
        if not acct.enabled or acct.source in tracer.reset_sources:
            continue
        for domain, counter in acct.domains().items():
            labels = (("domain", domain), ("source", acct.source))
            fields = counter.as_dict()
            for field, family in _FAMILIES.items():
                got = registry.counters.get((family, labels), 0)
                assert got == fields[field], (
                    f"{acct.source}/{domain}: {family}={got} != "
                    f"{field}={fields[field]}"
                )


# -- synthetic recordings ---------------------------------------------------

# Ops 0-4 mirror test_obs_properties._interpret; 5-8 add the remaining
# reconciled families (crossing, switchless, fault, allocation).
_ops = st.lists(st.integers(min_value=0, max_value=8), max_size=60)


def _interpret(tracer, acct, ops):
    open_spans = []
    domains = []
    try:
        for n, op in enumerate(ops):
            if op == 0:
                cm = tracer.span(f"s{n}")
                cm.__enter__()
                open_spans.append(cm)
            elif op == 1 and open_spans:
                open_spans.pop().__exit__(None, None, None)
            elif op == 2:
                acct.charge_normal(10 + n)
            elif op == 3:
                acct.charge_sgx(1)
            elif op == 4:
                if domains:
                    domains.pop().__exit__(None, None, None)
                else:
                    cm = acct.attribute(f"enclave:d{n % 3}")
                    cm.__enter__()
                    domains.append(cm)
            elif op == 5:
                acct.charge_crossing(1 + n % 2)
            elif op == 6:
                acct.charge_switchless()
            elif op == 7:
                acct.charge_fault()
            elif op == 8:
                acct.charge_allocation(n % 3 + 1)
    finally:
        while open_spans:
            open_spans.pop().__exit__(None, None, None)
        while domains:
            domains.pop().__exit__(None, None, None)


@settings(max_examples=50, deadline=None)
@given(ops=_ops)
def test_property_synthetic_recordings_reconcile_metrics(ops):
    registry = MetricsRegistry(interval=1000)
    tracer = obs.Tracer(metrics=registry)
    with obs.tracing(tracer):
        acct = CostAccountant(name="synth")
        _interpret(tracer, acct, ops)
        assert_families_match(registry, tracer)
        obs.reconcile(tracer)  # includes reconcile_metrics


# -- random programs on both kernels ----------------------------------------
#
# A trimmed version of the conformance interpreter: processes sleep,
# yield, and exchange messages over two queues; every op charges the
# accountant under a pid-derived domain (normal always, sgx on sleep,
# crossing on put, switchless/fault/allocation keyed off the step) so
# the registry sees every family with a non-trivially advancing clock.

_dt = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
_timeout = st.sampled_from([None, 0.0, 0.5, 1.0])
_queue_idx = st.integers(min_value=0, max_value=1)

_op = st.one_of(
    st.tuples(st.just("sleep"), _dt),
    st.tuples(st.just("yield")),
    st.tuples(st.just("put"), _queue_idx),
    st.tuples(st.just("get"), _queue_idx, _timeout),
)
_program = st.lists(st.lists(_op, max_size=8), min_size=1, max_size=3)


def run_metered_program(sim_mod, program, interval):
    """Run one program under a metered tracer; return all the pieces."""
    from repro.errors import SimTimeout

    registry = MetricsRegistry(interval=interval)
    tracer = obs.Tracer(metrics=registry)
    with obs.tracing(tracer):
        simulator = sim_mod.Simulator()
        accountant = CostAccountant("metered")
        queues = [simulator.queue(f"q{i}") for i in range(2)]

        def body(spec, pid):
            domain = f"dom{pid % 3}"
            for step, op in enumerate(spec):
                kind = op[0]
                with accountant.attribute(domain):
                    accountant.charge_normal(100 + step)
                    if kind == "sleep":
                        accountant.charge_sgx(2)
                    elif kind == "put":
                        accountant.charge_crossing()
                        if step % 2:
                            accountant.charge_switchless()
                    elif kind == "get":
                        accountant.charge_allocation()
                if kind == "sleep":
                    yield simulator.sleep(op[1])
                elif kind == "yield":
                    yield None
                elif kind == "put":
                    queues[op[1] % len(queues)].put((pid, step))
                elif kind == "get":
                    try:
                        yield queues[op[1] % len(queues)].get(timeout=op[2])
                    except SimTimeout:
                        with accountant.attribute(domain):
                            accountant.charge_fault()

        for pid, spec in enumerate(program):
            simulator.spawn(body(spec, pid), f"p{pid}")
        simulator.run()
        assert_families_match(registry, tracer)
        obs.reconcile(tracer)
    return registry, tracer, accountant


@settings(max_examples=EXAMPLES, deadline=None)
@given(program=_program, interval=st.sampled_from([100, 1000, 100_000]))
def test_property_both_kernels_reconcile_and_export_identically(
    program, interval
):
    fast = run_metered_program(sim, program, interval)
    reference = run_metered_program(sim_reference, program, interval)
    # Conformant kernels charge identically, so the accountants...
    assert (
        {d: c.as_dict() for d, c in fast[2].domains().items()}
        == {d: c.as_dict() for d, c in reference[2].domains().items()}
    )
    # ...and the sampled, timestamped exports match byte for byte.
    assert openmetrics_timeseries(fast[0]) == openmetrics_timeseries(
        reference[0]
    )
