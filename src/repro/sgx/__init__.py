"""A functional Intel SGX emulator in the spirit of OpenSGX.

Provides enclaves with measured launch, EPC memory protection,
EREPORT/EGETKEY, sealing, a quoting enclave with EPID-style group
signatures, and the full remote-attestation protocol with DH channel
bootstrap — everything the paper's case studies run on, with the
paper's instruction-cost accounting wired into every boundary
crossing.
"""

from repro.sgx.attestation import (
    AttestationChallengerProgram,
    AttestationConfig,
    AttestationTargetProgram,
    ChallengerAttestor,
    IdentityPolicy,
    SessionKeys,
    TargetAttestor,
    run_attestation,
)
from repro.sgx.enclave import Enclave
from repro.sgx.epc import PAGE_SIZE, EnclavePageCache, PageType
from repro.sgx.isa import PrivilegedInstruction, UserInstruction
from repro.sgx.keys import SealPolicy
from repro.sgx.local_attestation import (
    LocalAttestationPartyProgram,
    LocalAttestor,
    run_local_attestation,
)
from repro.sgx.measurement import (
    EnclaveIdentity,
    MeasurementLog,
    compute_mrenclave,
    measure_program,
    program_code_bytes,
)
from repro.sgx.platform import SgxPlatform
from repro.sgx.quoting import (
    AttestationAuthority,
    Quote,
    QuoteVerificationInfo,
    QuotingEnclaveProgram,
    verify_quote,
)
from repro.sgx.report import Report, TargetInfo
from repro.sgx.rings import RingPair, RingStats
from repro.sgx.runtime import EnclaveContext, EnclaveProgram
from repro.sgx.sigstruct import SigStruct, sign_enclave

__all__ = [
    "SgxPlatform",
    "Enclave",
    "EnclaveProgram",
    "EnclaveContext",
    "EnclaveIdentity",
    "MeasurementLog",
    "program_code_bytes",
    "compute_mrenclave",
    "measure_program",
    "PAGE_SIZE",
    "EnclavePageCache",
    "PageType",
    "UserInstruction",
    "PrivilegedInstruction",
    "RingPair",
    "RingStats",
    "SealPolicy",
    "Report",
    "TargetInfo",
    "SigStruct",
    "sign_enclave",
    "AttestationAuthority",
    "Quote",
    "QuoteVerificationInfo",
    "QuotingEnclaveProgram",
    "verify_quote",
    "AttestationConfig",
    "IdentityPolicy",
    "SessionKeys",
    "TargetAttestor",
    "ChallengerAttestor",
    "AttestationTargetProgram",
    "AttestationChallengerProgram",
    "run_attestation",
    "LocalAttestor",
    "LocalAttestationPartyProgram",
    "run_local_attestation",
]
