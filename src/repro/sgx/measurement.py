"""Enclave measurement: MRENCLAVE and software identity.

Paper, Section 2.1: after provisioning, "the hardware measures the
identity of the software (i.e., a SHA-256 digest of enclave contents)"
and only verified software runs.  The emulator computes MRENCLAVE as a
running SHA-256 over the ECREATE parameters and every EADD/EEXTEND-ed
page, exactly mirroring the real construction at page granularity.

Enclave *programs* are Python classes; their canonical code bytes come
from the class source (plus an explicit version tag), which models the
paper's Section 4 assumption of deterministic builds: everyone who
has the same source derives the same measurement.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
from typing import Dict, Optional, Tuple, Type

from repro.crypto import cache
from repro.crypto.hashes import sha256

__all__ = [
    "EnclaveIdentity",
    "MeasurementLog",
    "program_code_bytes",
    "compute_mrenclave",
    "measure_program",
]


@dataclasses.dataclass(frozen=True)
class EnclaveIdentity:
    """What attestation statements speak about."""

    mrenclave: bytes            # SHA-256 of enclave contents
    mrsigner: bytes             # SHA-256 of the author's public key
    isv_prod_id: int = 0
    isv_svn: int = 0

    def encode(self) -> bytes:
        return (
            self.mrenclave
            + self.mrsigner
            + self.isv_prod_id.to_bytes(2, "big")
            + self.isv_svn.to_bytes(2, "big")
        )

    @classmethod
    def decode(cls, data: bytes) -> "EnclaveIdentity":
        return cls(
            mrenclave=data[:32],
            mrsigner=data[32:64],
            isv_prod_id=int.from_bytes(data[64:66], "big"),
            isv_svn=int.from_bytes(data[66:68], "big"),
        )


class MeasurementLog:
    """Running MRENCLAVE computation (ECREATE / EADD / EEXTEND)."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._finalized: Optional[bytes] = None

    def ecreate(self, ssa_frame_size: int, size: int) -> None:
        self._extend(b"ECREATE" + ssa_frame_size.to_bytes(4, "big") + size.to_bytes(8, "big"))

    def eadd(self, page_offset: int, page_type: str, flags: int) -> None:
        self._extend(
            b"EADD"
            + page_offset.to_bytes(8, "big")
            + page_type.encode()
            + flags.to_bytes(2, "big")
        )

    def eextend(self, page_offset: int, chunk: bytes) -> None:
        self._extend(b"EEXTEND" + page_offset.to_bytes(8, "big") + sha256(chunk))

    def _extend(self, record: bytes) -> None:
        if self._finalized is not None:
            raise RuntimeError("measurement already finalized (EINIT done)")
        self._hash.update(record)

    def finalize(self) -> bytes:
        """EINIT: freeze and return MRENCLAVE."""
        if self._finalized is None:
            self._finalized = self._hash.digest()
        return self._finalized

    @property
    def value(self) -> Optional[bytes]:
        return self._finalized


def compute_mrenclave(code: bytes, page_size: int = 4096) -> bytes:
    """Predict the MRENCLAVE an :class:`~repro.sgx.platform.SgxPlatform`
    computes when loading ``code`` — without touching a platform.

    This is how auditors in the paper's Section 4 model work: inspect
    the source, build deterministically, and derive the measurement
    offline to publish or pin it.  Must mirror the loader's ECREATE /
    EADD / EEXTEND sequence exactly (a cross-check test enforces this).
    """
    n_code_pages = max(1, -(-len(code) // page_size))
    log = MeasurementLog()
    log.ecreate(ssa_frame_size=1, size=(n_code_pages + 2) * page_size)
    log.eadd(0, "tcs", 0)
    for i in range(n_code_pages):
        chunk = code[i * page_size : (i + 1) * page_size].ljust(page_size, b"\x00")
        offset = (i + 1) * page_size
        log.eadd(offset, "reg", 0x7)
        log.eextend(offset, chunk)
    return log.finalize()


def measure_program(program_class: Type, version: str = "1") -> bytes:
    """Offline MRENCLAVE of an enclave program class."""
    return compute_mrenclave(program_code_bytes(program_class, version))


#: (class, version) -> code bytes.  ``inspect.getsource`` re-reads and
#: re-parses the defining module on every call — pure wall-clock waste
#: (no charges happen here), and the answer is fixed for the process
#: lifetime of a class.
_CODE_BYTES: Dict[Tuple[Type, str], bytes] = {}
_CODE_STATS = cache.register(_CODE_BYTES, "program-code-bytes")


def program_code_bytes(program_class: Type, version: str = "1") -> bytes:
    """Canonical code bytes of an enclave program class.

    Uses the class source when available (deterministic-build model);
    classes may override with an explicit ``CODE_BYTES`` attribute —
    useful for tests that want two distinct classes to measure equal,
    or to pin identities across refactors.
    """
    explicit = getattr(program_class, "CODE_BYTES", None)
    if explicit is not None:
        return bytes(explicit)
    if cache.enabled():
        cached = _CODE_BYTES.get((program_class, version))
        if cached is not None:
            _CODE_STATS.hits += 1
            return cached
        _CODE_STATS.misses += 1
    try:
        source = inspect.getsource(program_class)
    except (OSError, TypeError):
        source = f"{program_class.__module__}.{program_class.__qualname__}"
    header = f"{program_class.__module__}.{program_class.__qualname__}:{version}\n"
    code = (header + source).encode("utf-8")
    if cache.enabled():
        _CODE_BYTES[(program_class, version)] = code
    return code
