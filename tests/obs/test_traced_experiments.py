"""End-to-end tracing of the paper experiments.

The acceptance bar for the tracer: a traced ``run_table4`` emits a
Perfetto-loadable trace whose per-domain span cycle totals reconcile
*exactly* (integer instruction counts, asserted — not eyeballed) with
the Table 4 accountant numbers.  That every golden table output is
byte-identical with tracing off and on is a knob-lattice pin
(``tests/conformance/test_lattice.py``).
"""

import json

import pytest

from repro import experiments, obs
from repro.cost import DEFAULT_MODEL


def _span_sums(tracer):
    """Independent tally of (sgx, normal) per (source, domain) from the
    raw spans + orphan bucket — deliberately not reusing reconcile()."""
    sums = {}
    for span in tracer.spans:
        for key, (sgx, normal) in span.self_counts.items():
            cell = sums.setdefault(key, [0, 0])
            cell[0] += sgx
            cell[1] += normal
    for key, (sgx, normal) in tracer.orphans.items():
        cell = sums.setdefault(key, [0, 0])
        cell[0] += sgx
        cell[1] += normal
    return sums


class TestTable4Acceptance:
    @pytest.fixture(scope="class")
    def traced_table4(self):
        tracer = obs.Tracer()
        sgx, native = experiments.run_table4(n_ases=30, trace=tracer)
        return tracer, sgx, native

    def test_reconciles_exactly(self, traced_table4):
        tracer, sgx, native = traced_table4
        totals = obs.reconcile(tracer)  # raises on any integer mismatch
        # The per-domain cycles reconcile() returns are exactly the
        # numbers the Table 4 report is built from.
        for acct in tracer.accountants:
            if acct.source in tracer.reset_sources:
                continue
            for domain, counter in acct.domains().items():
                assert totals[acct.source][domain] == DEFAULT_MODEL.cycles(
                    counter.sgx_instructions, counter.normal_instructions
                )

    def test_span_sums_equal_accountant_counters(self, traced_table4):
        tracer, _, _ = traced_table4
        sums = _span_sums(tracer)
        checked = 0
        for acct in tracer.accountants:
            assert acct.source not in tracer.reset_sources
            for domain, counter in acct.domains().items():
                got = sums.get((acct.source, domain), [0, 0])
                assert got[0] == counter.sgx_instructions, (acct.source, domain)
                assert got[1] == counter.normal_instructions, (acct.source, domain)
                checked += 1
        assert checked > 0

    def test_clock_equals_total_charges(self, traced_table4):
        tracer, _, _ = traced_table4
        total_sgx = sum(c[0] for c in _span_sums(tracer).values())
        total_normal = sum(c[1] for c in _span_sums(tracer).values())
        assert tracer.clock == (total_sgx, total_normal)

    def test_json_export_is_perfetto_loadable(self, traced_table4):
        tracer, _, _ = traced_table4
        payload = json.loads(obs.trace_event_json(tracer))
        events = obs.validate_trace_events(payload)
        assert len(events) > len(tracer.spans)  # B + E + instants + meta
        assert "traceEvents" in payload and "metadata" in payload

    def test_controller_domains_are_in_the_trace(self, traced_table4):
        tracer, sgx, _ = traced_table4
        sources = {a.source for a in tracer.accountants}
        assert "idc" in sources           # the SGX controller platform
        assert "idc-native" in sources    # the native baseline
        span_names = {s.name for s in tracer.spans}
        assert "routing:distribute_routes" in span_names
        assert any(name.startswith("ecall:") for name in span_names)
        assert any(name.startswith("attest:") for name in span_names)


class TestTracedScenarios:
    def test_table1_reconciles(self):
        tracer = obs.Tracer()
        experiments.run_table1(trace=tracer)
        obs.reconcile(tracer)
        kinds = {s.kind for s in tracer.spans}
        assert {"scenario", "ecall", "attest", "launch", "sgx"} <= kinds

    def test_table2_reconciles_and_is_deterministic(self):
        traces = []
        for _ in range(2):
            tracer = obs.Tracer()
            experiments.run_table2(trace=tracer)
            obs.reconcile(tracer)
            traces.append(obs.trace_event_json(tracer))
        # Cycle clock + fixed seeds -> byte-identical traces.
        assert traces[0] == traces[1]

    def test_fault_matrix_trace_has_fault_instants(self):
        tracer = obs.Tracer()
        experiments.run_fault_matrix(
            seed=0, fault_classes=["drop"], scenarios=("middlebox",),
            trace=tracer,
        )
        fault_instants = [i for i in tracer.instants if i.name == "fault"]
        assert fault_instants
        assert all("kind" in i.args and "site" in i.args for i in fault_instants)

    def test_switchless_trace_has_hits_and_fallbacks(self):
        tracer = obs.Tracer()
        experiments.run_switchless_ablation(
            batch_sizes=(1,), n_ocalls=40, trace=tracer
        )
        obs.reconcile(tracer)
        names = {i.name for i in tracer.instants}
        assert "switchless_hit" in names
        assert "crossing" in names

    def test_sync_and_async_ring_spans_keep_their_own_kind(self):
        """One middlebox enclave runs both a sync ring (the switchless
        ecall queue) and an async ring, under the same name.  Each
        ring's spans carry its own kind, so a trace tells them apart."""
        from repro.middlebox.scenarios import MiddleboxScenario

        tracer = obs.Tracer()
        with obs.tracing(tracer):
            scenario = MiddleboxScenario(
                n_middleboxes=1, switchless=True, rings=True
            )
            scenario.run([b"a", b"b"], pipeline=True)
        obs.reconcile(tracer)
        enclave = scenario.middleboxes[0].enclave
        rings = {
            "switchless": enclave.switchless_ecalls,
            "rings": enclave.ring_ecalls,
        }
        assert len({ring.name for ring in rings.values()}) == 1
        for kind, ring in rings.items():
            spans = [
                s for s in tracer.spans
                if s.kind == kind and s.name.startswith("rings:")
                and s.name.endswith(f":{ring.name}")
            ]
            stats = ring.stats
            passes = (
                stats.polls + stats.fallback_crossings + stats.recovery_crossings
            )
            assert passes > 0
            assert len(spans) == passes
