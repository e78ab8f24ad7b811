"""Exception hierarchy shared across the repro packages."""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, bad padding, bad MAC...)."""


class SgxError(ReproError):
    """An SGX emulator operation was used incorrectly or denied."""


class EnclaveAccessError(SgxError):
    """Untrusted code attempted to touch protected enclave state."""


class MeasurementError(SgxError):
    """An enclave measurement or SIGSTRUCT check failed."""


class OcallError(SgxError):
    """An ocall returned failure to the enclave (untrusted host fault)."""


class AttestationError(ReproError):
    """Local or remote attestation failed verification."""


class SealingError(SgxError):
    """Sealed data could not be recovered (wrong enclave or corrupt blob)."""


class NetworkError(ReproError):
    """A simulated-network operation failed."""


class SimTimeout(NetworkError):
    """Raised inside a simulator process whose ``get`` timed out.

    Lives here (not in :mod:`repro.net.sim`) so the fast kernel and the
    frozen reference kernel (a test oracle under ``tests/oracles/``)
    raise the *same* class — ``except SimTimeout`` clauses behave identically
    whichever kernel is driving the run.
    """


class SimError(NetworkError):
    """The simulator kernel itself gave up (e.g. ``max_events`` hit)."""


class ProtocolError(ReproError):
    """A peer violated an application protocol."""


class PolicyError(ReproError):
    """A routing policy or verification predicate was malformed or denied."""


class ShardError(ReproError):
    """A sharded-controller operation failed (dead shard, bad ownership)."""


class TorError(ReproError):
    """Tor case-study specific failure (circuit, directory, consensus)."""


class MiddleboxError(ReproError):
    """Middlebox case-study specific failure."""
