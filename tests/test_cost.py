"""Tests for the cost-accounting layer."""

import dataclasses

import pytest

from repro.cost import (
    UNTRUSTED,
    CostAccountant,
    Counter,
    CostModel,
    DEFAULT_MODEL,
    cycles,
    disabled,
    format_count,
    format_table,
    render_comparison,
    render_counters,
)
from repro.cost import context as cost_context


class TestCounter:
    def test_iadd_accumulates_all_fields(self):
        a = Counter(1, 2, 3, 4)
        a += Counter(10, 20, 30, 40)
        assert a == Counter(11, 22, 33, 44)

    def test_sub_produces_delta(self):
        assert Counter(5, 5, 5, 5) - Counter(1, 2, 3, 4) == Counter(4, 3, 2, 1)

    def test_copy_is_independent(self):
        a = Counter(1, 1, 1, 1)
        b = a.copy()
        b.sgx_instructions += 1
        assert a.sgx_instructions == 1

    def test_as_dict_covers_every_field(self):
        c = Counter(1, 2, 3, 4, 5, 6)
        assert c.as_dict() == {
            "sgx_instructions": 1,
            "normal_instructions": 2,
            "enclave_crossings": 3,
            "allocations": 4,
            "switchless_calls": 5,
            "faults_injected": 6,
        }

    def test_as_dict_and_copy_follow_the_dataclass_fields(self):
        """Exporters iterate as_dict in field order; a new field must
        show up in as_dict and copy, in the same order as asdict."""
        c = Counter(1, 2, 3, 4, 5, 6)
        assert list(c.as_dict().items()) == list(dataclasses.asdict(c).items())
        assert c.copy() == c and c.copy() is not c

    def test_cycles_helper_matches_model(self):
        c = Counter(sgx_instructions=8, normal_instructions=348_000_000)
        assert cycles(c) == DEFAULT_MODEL.cycles(8, 348e6)

    def test_cycles_helper_custom_model(self):
        model = CostModel(sgx_instruction_cycles=100)
        c = Counter(sgx_instructions=2, normal_instructions=0)
        assert cycles(c, model) == model.cycles(2, 0)


class TestCostAccountant:
    def test_default_domain_is_untrusted(self):
        acct = CostAccountant()
        assert acct.current_domain == UNTRUSTED

    def test_charges_go_to_current_domain(self):
        acct = CostAccountant()
        acct.charge_normal(100)
        with acct.attribute("enclave:test"):
            acct.charge_normal(7)
            acct.charge_sgx(2)
        assert acct.counter(UNTRUSTED).normal_instructions == 100
        assert acct.counter("enclave:test").normal_instructions == 7
        assert acct.counter("enclave:test").sgx_instructions == 2

    def test_attribute_nests_and_unwinds(self):
        acct = CostAccountant()
        with acct.attribute("a"):
            with acct.attribute("b"):
                assert acct.current_domain == "b"
            assert acct.current_domain == "a"
        assert acct.current_domain == UNTRUSTED

    def test_attribute_unwinds_on_exception(self):
        acct = CostAccountant()
        with pytest.raises(ValueError):
            with acct.attribute("a"):
                raise ValueError
        assert acct.current_domain == UNTRUSTED

    def test_total_sums_domains(self):
        acct = CostAccountant()
        acct.charge_normal(10)
        with acct.attribute("x"):
            acct.charge_normal(5)
            acct.charge_crossing()
        total = acct.total()
        assert total.normal_instructions == 15
        assert total.enclave_crossings == 1

    def test_snapshot_delta(self):
        acct = CostAccountant()
        acct.charge_normal(10)
        before = acct.snapshot()
        acct.charge_normal(3)
        with acct.attribute("new"):
            acct.charge_sgx(1)
        delta = acct.delta(before)
        assert delta[UNTRUSTED].normal_instructions == 3
        assert delta["new"].sgx_instructions == 1

    def test_disabled_context_suppresses_charges(self):
        acct = CostAccountant()
        with disabled(acct):
            acct.charge_normal(1000)
        assert acct.total().normal_instructions == 0
        acct.charge_normal(1)
        assert acct.total().normal_instructions == 1

    def test_reset_clears_counters(self):
        acct = CostAccountant()
        acct.charge_normal(5)
        acct.reset()
        assert acct.total() == Counter()

    def test_reset_inside_open_attribute_block_keeps_domain(self):
        # reset() zeroes counters but must NOT touch the domain stack:
        # charges after the reset keep flowing to the still-stacked
        # domain (its counter is recreated on first use).
        acct = CostAccountant()
        with acct.attribute("enclave:x"):
            acct.charge_normal(5)
            acct.reset()
            assert acct.current_domain == "enclave:x"
            acct.charge_normal(7)
            acct.charge_sgx(2)
        assert acct.counter("enclave:x").normal_instructions == 7
        assert acct.counter("enclave:x").sgx_instructions == 2
        assert acct.total().normal_instructions == 7

    def test_reset_inside_nested_attribute_unwinds_cleanly(self):
        acct = CostAccountant()
        with acct.attribute("enclave:outer"):
            with acct.attribute("enclave:inner"):
                acct.reset()
            # Inner frame popped normally even though its counter died.
            assert acct.current_domain == "enclave:outer"
            acct.charge_normal(1)
        assert acct.counter("enclave:outer").normal_instructions == 1
        assert acct.current_domain == UNTRUSTED

    def test_exception_after_reset_still_unwinds_domain_stack(self):
        acct = CostAccountant()
        with pytest.raises(ValueError):
            with acct.attribute("enclave:x"):
                acct.reset()
                raise ValueError
        assert acct.current_domain == UNTRUSTED
        acct.charge_normal(3)
        assert acct.counter(UNTRUSTED).normal_instructions == 3


class TestCostModel:
    def test_cycle_formula_matches_paper_footnote6(self):
        # Challenger w/ DH: 8 SGX(U) + 348M normal -> ~626M cycles.
        model = CostModel()
        cycles = model.cycles(8, 348e6)
        assert cycles == pytest.approx(626.48e6, rel=0.01)

    def test_remote_platform_cycles(self):
        # Target + quoting w/ DH: 37 SGX(U) + 4463M normal -> ~8033M.
        model = CostModel()
        cycles = model.cycles(37, 4463e6)
        assert cycles == pytest.approx(8033.77e6, rel=0.01)

    def test_modexp_scales_cubically(self):
        model = CostModel()
        assert model.modexp_normal(2048) == pytest.approx(
            8 * model.modexp_1024_normal, rel=0.01
        )

    def test_aes_cost_rounds_up_to_blocks(self):
        model = CostModel()
        assert model.aes_normal(1) == model.aes_block_normal
        assert model.aes_normal(16) == model.aes_block_normal
        assert model.aes_normal(17) == 2 * model.aes_block_normal

    def test_table2_calibration_one_packet(self):
        # fixed + 1 packet = 13K normal instructions (paper Table 2).
        model = CostModel()
        total = model.send_call_fixed_normal + model.send_per_packet_normal
        assert total == 13_000

    def test_table2_calibration_hundred_packets(self):
        model = CostModel()
        total = model.send_call_fixed_normal + 100 * model.send_per_packet_normal
        assert total == 135_958  # paper: 136K
        sgx = model.send_call_fixed_sgx + 100 * model.send_per_packet_sgx
        assert sgx == 204

    def test_model_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_MODEL.sgx_instruction_cycles = 1


class TestAmbientContext:
    def test_no_accountant_is_noop(self):
        cost_context.charge_normal(100)  # must not raise
        assert cost_context.current_accountant() is None

    def test_use_accountant_routes_charges(self):
        acct = CostAccountant()
        with cost_context.use_accountant(acct):
            cost_context.charge_normal(42)
            cost_context.charge_sgx(3)
        assert acct.total().normal_instructions == 42
        assert acct.total().sgx_instructions == 3

    def test_nested_accountants_restore(self):
        a1, a2 = CostAccountant(), CostAccountant()
        with cost_context.use_accountant(a1):
            with cost_context.use_accountant(a2):
                cost_context.charge_normal(5)
            cost_context.charge_normal(7)
        assert a2.total().normal_instructions == 5
        assert a1.total().normal_instructions == 7

    def test_charge_allocation_adds_model_cost(self):
        acct = CostAccountant()
        with cost_context.use_accountant(acct):
            cost_context.charge_allocation(2)
        assert acct.total().allocations == 2
        assert (
            acct.total().normal_instructions
            == 2 * DEFAULT_MODEL.enclave_alloc_normal
        )

    def test_custom_model_in_context(self):
        acct = CostAccountant()
        model = CostModel(enclave_alloc_normal=7)
        with cost_context.use_accountant(acct, model):
            assert cost_context.current_model().enclave_alloc_normal == 7
            cost_context.charge_allocation()
        assert acct.total().normal_instructions == 7
        assert cost_context.current_model() is DEFAULT_MODEL


class TestReporting:
    def test_format_count_units(self):
        assert format_count(12) == "12"
        assert format_count(13_000) == "13K"
        assert format_count(154e6) == "154M"
        assert format_count(4.338e9) == "4.34G"

    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_counters(self):
        out = render_counters({"untrusted": Counter(2, 1000, 0, 0)})
        assert "untrusted" in out
        assert "1000" in out or "1K" in out

    def test_render_comparison_ratio(self):
        out = render_comparison([("x", 90.0, 100.0)])
        assert "0.90x" in out

    def test_render_comparison_handles_missing_paper_value(self):
        out = render_comparison([("x", 90.0, None)])
        assert "-" in out


class TestAccountantEdgeCases:
    def test_nested_attribute_unwinds_on_exception(self):
        acct = CostAccountant()
        with pytest.raises(ValueError):
            with acct.attribute("enclave:a"):
                with acct.attribute("enclave:b"):
                    assert acct.current_domain == "enclave:b"
                    raise ValueError("boom")
        # Both frames must have been popped despite the exception.
        assert acct.current_domain == UNTRUSTED
        acct.charge_normal(5)
        assert acct.counter(UNTRUSTED).normal_instructions == 5

    def test_attribute_partial_unwind(self):
        acct = CostAccountant()
        with acct.attribute("enclave:outer"):
            with pytest.raises(RuntimeError):
                with acct.attribute("enclave:inner"):
                    raise RuntimeError
            # Only the inner frame popped; still inside the outer one.
            assert acct.current_domain == "enclave:outer"
        assert acct.current_domain == UNTRUSTED

    def test_delta_against_snapshot_missing_domains(self):
        acct = CostAccountant()
        acct.charge_normal(10)
        before = acct.snapshot()
        with acct.attribute("enclave:new"):
            acct.charge_sgx(3)
        delta = acct.delta(before)
        # A domain born after the snapshot diffs against a zero counter.
        assert delta["enclave:new"].sgx_instructions == 3
        assert delta[UNTRUSTED].normal_instructions == 0

    def test_delta_ignores_domains_only_in_snapshot(self):
        acct = CostAccountant()
        with acct.attribute("enclave:gone"):
            acct.charge_normal(1)
        before = acct.snapshot()
        acct.reset()
        acct.charge_normal(2)
        delta = acct.delta(before)
        assert "enclave:gone" not in delta
        assert delta[UNTRUSTED].normal_instructions == 2

    def test_disabled_reentrant(self):
        acct = CostAccountant()
        with disabled(acct):
            with disabled(acct):
                acct.charge_normal(100)
                assert not acct.enabled
            # The inner exit must not re-enable inside the outer block.
            assert not acct.enabled
            acct.charge_sgx()
        assert acct.enabled
        assert acct.total() == Counter()

    def test_disabled_restores_on_exception(self):
        acct = CostAccountant()
        with pytest.raises(KeyError):
            with disabled(acct):
                raise KeyError
        assert acct.enabled

    def test_disabled_suppresses_all_charge_kinds(self):
        acct = CostAccountant()
        with disabled(acct):
            acct.charge_normal(1)
            acct.charge_sgx()
            acct.charge_crossing()
            acct.charge_allocation()
            acct.charge_switchless()
        assert acct.total() == Counter()

    def test_counter_switchless_arithmetic(self):
        a = Counter(1, 2, 3, 4, 5)
        b = Counter(1, 1, 1, 1, 1)
        a += b
        assert a.switchless_calls == 6
        assert (a - b).switchless_calls == 5

    def test_charge_switchless_lands_in_current_domain(self):
        acct = CostAccountant()
        with acct.attribute("enclave:x"):
            acct.charge_switchless(4)
        assert acct.counter("enclave:x").switchless_calls == 4
        assert acct.counter(UNTRUSTED).switchless_calls == 0
