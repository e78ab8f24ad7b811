"""Cost accounting: the paper's instruction/cycle evaluation methodology."""

from repro.cost.accountant import (
    UNTRUSTED,
    CostAccountant,
    Counter,
    active_tracer,
    disabled,
    set_active_tracer,
)
from repro.cost.model import DEFAULT_MODEL, CostModel, cycles
from repro.cost.report import (
    comparison_row,
    counter_row,
    format_count,
    format_table,
    render_comparison,
    render_counters,
)

__all__ = [
    "UNTRUSTED",
    "CostAccountant",
    "Counter",
    "disabled",
    "CostModel",
    "DEFAULT_MODEL",
    "cycles",
    "active_tracer",
    "set_active_tracer",
    "format_count",
    "format_table",
    "counter_row",
    "render_counters",
    "comparison_row",
    "render_comparison",
]
