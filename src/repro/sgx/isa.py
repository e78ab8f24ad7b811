"""The SGX instruction set surface the emulator models.

Following the paper's methodology, only *user-mode* SGX instructions
(ENCLU leaf functions) are charged at 10K cycles each in the cost
model; privileged instructions (ENCLS leaves) run during enclave
launch, which the paper's steady-state measurements exclude (they are
still counted, in a separate bucket, so launch experiments can report
them).

Switchless calls and async rings (:mod:`repro.sgx.rings`) deliberately
bypass this module: their whole point is that a boundary call serviced
by a shared-memory worker executes *no* ENCLU leaf at all, so it
charges no SGX instructions here — only a fallback or recovery path (a
genuine crossing) comes back through :func:`execute_user`.
"""

from __future__ import annotations

import enum

from repro.cost import context as cost_context

__all__ = ["UserInstruction", "PrivilegedInstruction", "execute_user", "execute_privileged"]


class UserInstruction(enum.Enum):
    """ENCLU leaf functions (user mode)."""

    EENTER = "eenter"
    EEXIT = "eexit"
    ERESUME = "eresume"
    EGETKEY = "egetkey"
    EREPORT = "ereport"
    EACCEPT = "eaccept"    # dynamic memory (SGX2-style, rev2 spec)
    EMODPE = "emodpe"


class PrivilegedInstruction(enum.Enum):
    """ENCLS leaf functions (ring 0, used at launch / paging)."""

    ECREATE = "ecreate"
    EADD = "eadd"
    EEXTEND = "eextend"
    EINIT = "einit"
    EAUG = "eaug"
    EREMOVE = "eremove"
    ELDB = "eldb"
    EWB = "ewb"


def execute_user(instruction: UserInstruction, count: int = 1) -> None:
    """Charge ``count`` executions of a user-mode SGX instruction."""
    cost_context.charge_sgx(count)


def execute_privileged(instruction: PrivilegedInstruction, count: int = 1) -> None:
    """Privileged instructions: charged as normal-instruction work only.

    The paper excludes launch cost from steady-state numbers; we charge
    a nominal normal-instruction cost so launch experiments still see
    the work, without polluting the SGX(U) counter the tables report.
    """
    cost_context.charge_normal(2_000 * count)
