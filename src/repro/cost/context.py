"""Ambient cost-charging context.

Threading an accountant through every crypto call would pollute the
API, so charging is ambient: the SGX platform (or a simulated host)
activates its accountant with :func:`use_accountant`, and primitives
charge through the module-level helpers, which no-op when no accountant
is active (e.g. in pure unit tests of the crypto code).
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator, Optional

from repro.cost.accountant import CostAccountant
from repro.cost.model import DEFAULT_MODEL, CostModel

ACCOUNTANT_VAR: contextvars.ContextVar[Optional[CostAccountant]] = contextvars.ContextVar(
    "repro_cost_accountant", default=None
)
MODEL_VAR: contextvars.ContextVar[CostModel] = contextvars.ContextVar(
    "repro_cost_model", default=DEFAULT_MODEL
)


def current_accountant() -> Optional[CostAccountant]:
    """The accountant charges currently flow into, if any."""
    return ACCOUNTANT_VAR.get()


def current_model() -> CostModel:
    """The cost model in effect (defaults to :data:`DEFAULT_MODEL`)."""
    return MODEL_VAR.get()


@contextlib.contextmanager
def use_accountant(
    accountant: Optional[CostAccountant],
    model: Optional[CostModel] = None,
) -> Iterator[Optional[CostAccountant]]:
    """Route ambient charges into ``accountant`` within the block."""
    token = ACCOUNTANT_VAR.set(accountant)
    model_token = MODEL_VAR.set(model) if model is not None else None
    try:
        yield accountant
    finally:
        if model_token is not None:
            MODEL_VAR.reset(model_token)
        ACCOUNTANT_VAR.reset(token)


def charge_normal(count: float) -> None:
    """Charge normal instructions to the ambient accountant, if any."""
    accountant = ACCOUNTANT_VAR.get()
    if accountant is not None:
        accountant.charge_normal(int(count))


def charge_normal_repeat(count: float, times: int) -> None:
    """Charge ``times`` identical normal-instruction charges at once.

    Integer-exact equivalent of calling :func:`charge_normal` with
    ``count`` ``times`` times (each call truncates independently, so
    the batch charges ``int(count) * times``).  Lets bulk kernels —
    e.g. a CTR keystream refill of N blocks — pay per-block model costs
    without N trips through the ambient context.
    """
    accountant = ACCOUNTANT_VAR.get()
    if accountant is not None and times > 0:
        accountant.charge_normal(int(count) * times)


def charge_app_normal(count: float) -> None:
    """Charge application-level work, inflated when running in-enclave.

    Work units executed inside an enclave cost
    ``enclave_execution_factor`` times their native cost (see the cost
    model's calibration notes).  Whether we are "inside" is read off
    the accountant's current attribution domain.
    """
    accountant = ACCOUNTANT_VAR.get()
    if accountant is None:
        return
    if accountant.current_domain.startswith("enclave:"):
        count *= MODEL_VAR.get().enclave_execution_factor
    accountant.charge_normal(int(count))


def charge_sgx(count: int = 1) -> None:
    """Charge user-mode SGX instructions to the ambient accountant."""
    accountant = ACCOUNTANT_VAR.get()
    if accountant is not None:
        accountant.charge_sgx(count)


def charge_switchless(count: int = 1) -> None:
    """Record boundary calls that skipped the crossing (switchless)."""
    accountant = ACCOUNTANT_VAR.get()
    if accountant is not None:
        accountant.charge_switchless(count)


def charge_fault(count: int = 1) -> None:
    """Record injected faults against the ambient accountant."""
    accountant = ACCOUNTANT_VAR.get()
    if accountant is not None:
        accountant.charge_fault(count)


def charge_allocation(count: int = 1) -> None:
    """Record in-enclave allocations against the ambient accountant."""
    accountant = ACCOUNTANT_VAR.get()
    if accountant is not None:
        accountant.charge_allocation(count)
        accountant.charge_normal(current_model().enclave_alloc_normal * count)
