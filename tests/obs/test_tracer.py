"""Unit tests for the span tracer (repro.obs.tracer)."""

import pytest

from repro import obs
from repro.cost import DEFAULT_MODEL, CostAccountant, CostModel
from repro.cost import context as cost_context
from repro.cost.accountant import active_tracer


class TestAttach:
    def test_accountants_auto_attach_while_tracing(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="party")
        assert acct in tracer.accountants
        assert acct.source == "party"

    def test_same_name_gets_unique_sources(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            a = CostAccountant(name="host")
            b = CostAccountant(name="host")
            c = CostAccountant(name="host")
        assert [a.source, b.source, c.source] == ["host", "host#1", "host#2"]

    def test_anonymous_accountant_source(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant()
        assert acct.source == "acct"

    def test_attach_is_idempotent(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            tracer.attach(acct)
        assert tracer.accountants.count(acct) == 1

    def test_tracing_detaches_on_exit(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            assert acct.tracer is tracer
        assert acct.tracer is None
        # Charges after detach must not advance the tracer's clock.
        acct.charge_normal(100)
        assert tracer.clock == (0, 0)


class TestTracingContext:
    def test_none_is_passthrough(self):
        with obs.tracing(None) as t:
            assert t is None
            assert obs.current_tracer() is None

    def test_reentrant_with_same_tracer(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            with obs.tracing(tracer):
                assert obs.current_tracer() is tracer
            # Inner exit must not uninstall the outer tracer.
            assert obs.current_tracer() is tracer
        assert obs.current_tracer() is None

    def test_different_tracer_raises(self):
        with obs.tracing(obs.Tracer()):
            with pytest.raises(RuntimeError):
                with obs.tracing(obs.Tracer()):
                    pass

    def test_uninstalls_on_exception(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with obs.tracing(tracer):
                raise ValueError
        assert active_tracer() is None


class TestClockAndCharges:
    def test_clock_advances_with_charges(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            acct.charge_sgx(3)
            acct.charge_normal(100)
        assert tracer.clock == (3, 100)
        assert tracer.cycles_at(3, 100) == DEFAULT_MODEL.cycles(3, 100)

    def test_custom_model_clock(self):
        model = CostModel(sgx_instruction_cycles=7, cycles_per_instruction=2.0)
        tracer = obs.Tracer(model=model)
        assert tracer.cycles_at(1, 10) == model.cycles(1, 10)

    def test_charges_outside_spans_are_orphans(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            with acct.attribute("enclave:x"):
                acct.charge_sgx(2)
                acct.charge_normal(50)
        assert tracer.orphans == {("x", "enclave:x"): [2, 50]}

    def test_charges_inside_span_land_in_self_counts(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            with tracer.span("work"):
                acct.charge_normal(10)
        (span,) = tracer.spans
        assert span.self_counts == {("x", "untrusted"): [0, 10]}
        assert span.self_instructions() == (0, 10)

    def test_nested_span_gets_innermost_charges(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            with tracer.span("outer"):
                acct.charge_normal(1)
                with tracer.span("inner"):
                    acct.charge_normal(10)
                acct.charge_normal(100)
        outer, inner = tracer.spans
        assert outer.name == "outer" and inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.self_instructions() == (0, 101)
        assert inner.self_instructions() == (0, 10)

    def test_span_start_end_clocks_bracket_charges(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            acct.charge_normal(5)
            with tracer.span("work"):
                acct.charge_normal(10)
        (span,) = tracer.spans
        assert (span.start_sgx, span.start_normal) == (0, 5)
        assert (span.end_sgx, span.end_normal) == (0, 15)
        assert span.closed
        assert span.open_seq < span.close_seq


class TestSpanStack:
    def test_exception_marks_error_and_unwinds(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError
        (span,) = tracer.spans
        assert span.error
        assert span.closed
        # The stack unwound: the next span is a root, not a child of "boom".
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].parent_id is None

    def test_module_span_is_noop_when_off(self):
        # No tracer active anywhere: the helper returns the shared
        # null context and records nothing.
        acct = CostAccountant(name="x")
        with cost_context.use_accountant(acct):
            with obs.span("ignored"):
                acct.charge_normal(5)
        assert acct.total().normal_instructions == 5

    def test_module_span_uses_ambient_accountant(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="party")
            with cost_context.use_accountant(acct):
                with acct.attribute("enclave:e"):
                    with obs.span("work", kind="app"):
                        cost_context.charge_normal(9)
        (span,) = tracer.spans
        assert span.source == "party"
        assert span.domain == "enclave:e"
        assert span.kind == "app"
        assert span.self_counts == {("party", "enclave:e"): [0, 9]}

    def test_module_span_falls_back_to_global_tracer(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            with obs.span("no-ambient-accountant"):
                pass
        (span,) = tracer.spans
        assert (span.source, span.domain) == ("", "")

    def test_traced_decorator(self):
        tracer = obs.Tracer()

        @obs.traced("decorated", kind="app")
        def fn(x):
            return x * 2

        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            with cost_context.use_accountant(acct):
                assert fn(21) == 42
        (span,) = tracer.spans
        assert span.name == "decorated"


class TestInstantsAndReset:
    def test_instant_records_at_current_clock(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            acct.charge_normal(7)
            with cost_context.use_accountant(acct):
                obs.instant("retransmission", count=3, stream="a:1")
        (inst,) = [i for i in tracer.instants]
        assert inst.name == "retransmission"
        assert inst.count == 3
        assert inst.args == {"stream": "a:1"}
        assert (inst.ts_sgx, inst.ts_normal) == (0, 7)

    def test_crossing_and_switchless_emit_instants(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            with acct.attribute("enclave:x"):
                acct.charge_crossing(2)
                acct.charge_switchless(3)
        names = [(i.name, i.count) for i in tracer.instants]
        assert names == [("crossing", 2), ("switchless_hit", 3)]

    def test_instant_noop_when_off(self):
        obs.instant("nothing-listens")  # must not raise

    def test_reset_marks_source(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            acct = CostAccountant(name="x")
            acct.charge_normal(5)
            acct.reset()
        assert "x" in tracer.reset_sources


class TestZeroCostOff:
    def test_accountant_without_tracing_has_no_tracer(self):
        acct = CostAccountant(name="x")
        assert acct.tracer is None

    def test_off_path_uses_shared_null_span(self):
        from repro.obs import tracer as tracer_mod

        assert obs.span("a") is tracer_mod._NULL_SPAN
        assert obs.span("b") is tracer_mod._NULL_SPAN
