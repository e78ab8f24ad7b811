"""EGETKEY key derivations.

All SGX symmetric keys descend from a per-CPU device secret that never
leaves the package.  The emulator derives them with HKDF; access
control (which enclave may request which key) is enforced by the
platform when it executes EGETKEY on behalf of an enclave:

* **report key** — keyed to a *target* enclave's MRENCLAVE: EREPORT can
  derive it for any target, EGETKEY only hands it to that target.
* **seal key** — keyed to MRENCLAVE or MRSIGNER per sealing policy.
"""

from __future__ import annotations

import enum

from repro.crypto.kdf import hkdf
from repro.sgx.measurement import EnclaveIdentity

__all__ = ["SealPolicy", "derive_report_key", "derive_seal_key"]

KEY_SIZE = 16  # SGX symmetric keys are 128-bit


class SealPolicy(enum.Enum):
    """Which identity a seal key binds to."""

    MRENCLAVE = "mrenclave"   # only this exact enclave can unseal
    MRSIGNER = "mrsigner"     # any enclave from the same author


def derive_report_key(device_secret: bytes, target_mrenclave: bytes, key_id: bytes) -> bytes:
    """The CMAC key protecting REPORTs destined for ``target_mrenclave``."""
    return hkdf(
        device_secret,
        info=b"sgx-report-key:" + target_mrenclave + key_id,
        length=KEY_SIZE,
    )


def derive_seal_key(
    device_secret: bytes,
    identity: EnclaveIdentity,
    policy: SealPolicy,
    key_id: bytes,
) -> bytes:
    """A sealing key bound to the enclave or its signer."""
    if policy is SealPolicy.MRENCLAVE:
        binding = b"enclave:" + identity.mrenclave
    else:
        binding = (
            b"signer:"
            + identity.mrsigner
            + identity.isv_prod_id.to_bytes(2, "big")
        )
    return hkdf(
        device_secret,
        info=b"sgx-seal-key:" + binding + key_id,
        length=KEY_SIZE,
    )

