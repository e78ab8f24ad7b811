"""Per-field charging: the reference for ``CostAccountant.charge_burst``.

``charge_burst`` lands a burst of pre-summed integer deltas in one
call.  Its contract is that this is exactly equivalent to one
``charge_*`` call per non-zero field, in field order.  The knob lattice
(``tests/conformance/harness.py``) swaps this function in for
``charge_burst`` on its ``burst=False`` arm, so every modeled output is
held equal under both.
"""


def charge_burst_per_field(
    self,
    sgx: int = 0,
    normal: int = 0,
    crossings: int = 0,
    allocations: int = 0,
    switchless: int = 0,
    faults: int = 0,
) -> None:
    """The field-by-field sequence a burst stands for."""
    if normal:
        self.charge_normal(normal)
    if sgx:
        self.charge_sgx(sgx)
    if crossings:
        self.charge_crossing(crossings)
    if allocations:
        self.charge_allocation(allocations)
    if switchless:
        self.charge_switchless(switchless)
    if faults:
        self.charge_fault(faults)
