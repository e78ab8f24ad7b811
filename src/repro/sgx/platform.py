"""The SGX-capable machine: CPU keys, EPC, enclaves, quoting.

An :class:`SgxPlatform` models one physical host's CPU package: the
device secret that never leaves it, the EPC it protects, the enclaves
it runs, and the architectural quoting enclave provisioned with the
platform's EPID member key.  Per the threat model (paper Section 2.1),
everything *outside* this object's enclave boundary — the OS, the
host's network stack, other processes — is untrusted; the platform
offers explicit hooks (`corrupt_enclave_page`, `destroy`) to play that
adversary in experiments.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro import obs
from repro.cost import CostAccountant
from repro.cost import context as cost_context
from repro.cost.model import CostModel
from repro.crypto.drbg import Rng
from repro.crypto.kdf import hkdf
from repro.crypto.rsa import RsaPrivateKey
from repro.errors import MeasurementError, SgxError
from repro.sgx.enclave import Enclave
from repro.sgx.epc import PAGE_SIZE, EnclavePageCache, PageType
from repro.sgx.isa import PrivilegedInstruction, execute_privileged
from repro.sgx.measurement import EnclaveIdentity, MeasurementLog, program_code_bytes
from repro.sgx.quoting import AttestationAuthority, QuotingEnclaveProgram
from repro.sgx.runtime import EnclaveProgram
from repro.sgx.sigstruct import SigStruct, sign_enclave

__all__ = ["SgxPlatform"]


class SgxPlatform:
    """One SGX-enabled host."""

    def __init__(
        self,
        name: str,
        authority: Optional[AttestationAuthority] = None,
        rng: Optional[Rng] = None,
        accountant: Optional[CostAccountant] = None,
        model: Optional[CostModel] = None,
        epc_frames: int = 4096,
        epc_paging: bool = False,
        interrupt_rate: float = 0.0,
    ) -> None:
        self.name = name
        self.rng = rng if rng is not None else Rng(name, "platform")
        self.accountant = (
            accountant if accountant is not None else CostAccountant(name=name)
        )
        self.model = model
        self.authority = authority
        self.untrusted_domain = "untrusted"
        #: Asynchronous exits per in-enclave normal instruction (paper:
        #: enclaves run near-native "if no ... interrupts (e.g.,
        #: asynchronous exits in SGX) are incurred").  0 = quiescent.
        self.interrupt_rate = interrupt_rate

        #: The per-CPU secret that never leaves the package.
        self.device_secret = self.rng.fork("device-secret").bytes(32)
        self.epc = EnclavePageCache(
            mee_key=hkdf(self.device_secret, info=b"mee-root", length=32),
            frames=epc_frames,
            allow_paging=epc_paging,
        )

        self._next_enclave_id = 1
        self._enclaves: Dict[int, Enclave] = {}

        self.quoting_enclave: Optional[Enclave] = None
        if authority is not None:
            self._member_key = authority.provision_member(name)
            self.quoting_enclave = self.load_enclave(
                QuotingEnclaveProgram(),
                author_key=authority.architectural_signer,
                name="quoting",
            )
            authority.register_qe_measurement(
                self.quoting_enclave.identity.mrenclave
            )
            self._provision_quoting_enclave()

    # -- enclave lifecycle -------------------------------------------------

    def load_enclave(
        self,
        program: EnclaveProgram,
        author_key: Optional[RsaPrivateKey] = None,
        sigstruct: Optional[SigStruct] = None,
        name: Optional[str] = None,
    ) -> Enclave:
        """ECREATE/EADD/EEXTEND/EINIT an enclave around ``program``.

        Exactly one of ``author_key`` / ``sigstruct`` must be given.
        With ``author_key`` the platform signs the measured value
        itself (the developer's own machine); with ``sigstruct`` EINIT
        enforces that the measured MRENCLAVE matches the authored one —
        a modified program fails to launch under the original
        SIGSTRUCT, and a re-signed one launches with a *different*
        measurement, which remote attestation then rejects.  This is
        the paper's Tor / shared-code trust model.
        """
        if (author_key is None) == (sigstruct is None):
            raise SgxError("provide exactly one of author_key / sigstruct")
        if name is None:
            name = type(program).__name__
        if any(e.name == name for e in self._enclaves.values()):
            raise SgxError(f"enclave name '{name}' already in use")

        with cost_context.use_accountant(self.accountant, self.model):
            with obs.span(f"load:{name}", kind="launch"):
                return self._do_load(program, author_key, sigstruct, name)

    def _do_load(
        self,
        program: EnclaveProgram,
        author_key: Optional[RsaPrivateKey],
        sigstruct: Optional[SigStruct],
        name: str,
    ) -> Enclave:
        code = program_code_bytes(type(program))
        n_code_pages = max(1, math.ceil(len(code) / PAGE_SIZE))
        enclave_id = self._next_enclave_id
        self._next_enclave_id += 1

        log = MeasurementLog()
        pages = []

        # ECREATE: the SECS page.
        execute_privileged(PrivilegedInstruction.ECREATE)
        pages.append(self.epc.allocate(enclave_id, PageType.SECS))
        log.ecreate(ssa_frame_size=1, size=(n_code_pages + 2) * PAGE_SIZE)

        # TCS page.
        execute_privileged(PrivilegedInstruction.EADD)
        pages.append(self.epc.allocate(enclave_id, PageType.TCS))
        log.eadd(0, "tcs", 0)

        # Code/data pages: EADD + EEXTEND, measured page by page (real
        # SGX extends in 256-byte chunks; page granularity keeps the
        # emulator fast and the digest is equally binding).
        for i in range(n_code_pages):
            chunk = code[i * PAGE_SIZE : (i + 1) * PAGE_SIZE].ljust(PAGE_SIZE, b"\x00")
            execute_privileged(PrivilegedInstruction.EADD)
            page = self.epc.allocate(enclave_id, PageType.REG, executable=True)
            page.write(0, chunk)
            pages.append(page)
            offset = (i + 1) * PAGE_SIZE
            log.eadd(offset, "reg", 0x7)
            execute_privileged(PrivilegedInstruction.EEXTEND, count=PAGE_SIZE // 256)
            log.eextend(offset, chunk)

        # One initial heap page (unmeasured, like real SGX heap).
        execute_privileged(PrivilegedInstruction.EADD)
        pages.append(self.epc.allocate(enclave_id, PageType.REG))

        # EINIT: check the SIGSTRUCT against the measurement.
        mrenclave = log.finalize()
        if sigstruct is None:
            assert author_key is not None
            sigstruct = sign_enclave(
                author_key,
                mrenclave,
                isv_prod_id=program.ISV_PROD_ID,
                isv_svn=program.ISV_SVN,
            )
        sigstruct.verify()
        if sigstruct.enclave_hash != mrenclave:
            self.epc.free_enclave_pages(enclave_id)
            raise MeasurementError(
                "EINIT rejected: measured MRENCLAVE does not match SIGSTRUCT "
                "(enclave code differs from what the author signed)"
            )
        execute_privileged(PrivilegedInstruction.EINIT)

        identity = EnclaveIdentity(
            mrenclave=mrenclave,
            mrsigner=sigstruct.mrsigner,
            isv_prod_id=sigstruct.isv_prod_id,
            isv_svn=sigstruct.isv_svn,
        )
        enclave = Enclave(
            platform=self,
            enclave_id=enclave_id,
            name=name,
            program=program,
            identity=identity,
            pages=pages,
        )
        self._enclaves[enclave_id] = enclave
        enclave.ecall("on_load", enclave.ctx)
        return enclave

    def _provision_quoting_enclave(self) -> None:
        """Install the EPID member key, gated on the QE's identity."""
        assert self.quoting_enclave is not None and self.authority is not None
        expected_signer = self.authority.architectural_signer.public_key().fingerprint()
        if self.quoting_enclave.identity.mrsigner != expected_signer:
            raise MeasurementError("quoting enclave not signed by the authority")
        self.quoting_enclave.ecall("install_attestation_key", self._member_key)

    # -- crossing amortization: switchless queues and async rings -----------

    def create_ring(
        self,
        enclave: Enclave,
        direction: str = "ocall",
        capacity: int = 64,
        harvest_depth: int = 8,
        worker: bool = False,
        mode: str = "async",
    ):
        """Set up paired submission/completion rings for ``enclave``.

        ``direction="ocall"`` gives the enclave ocalls serviced by an
        untrusted worker; ``direction="ecall"`` gives untrusted code
        ecalls serviced inside the enclave.  ``mode="async"`` rings
        back ``Enclave.ecall_submit``/``ecall_reap``; ``mode="sync"``
        rings are the switchless queues behind ``switchless=True`` and
        ``Enclave.ecall_switchless``.  The mode fixes the rest: an async
        ring spins :attr:`~repro.sgx.rings.RingPair.SPIN_BUDGET` worker
        iterations before sleeping and takes the fallback crossing when
        full; a sync ring never sleeps and drains through its worker.
        A sync ring needs ``worker=True``; an async one runs a polling
        worker only when given it.
        """
        from repro.sgx.rings import RingPair

        return RingPair(
            platform=self,
            direction=direction,
            enclave_domain=enclave.domain,
            capacity=capacity,
            harvest_depth=harvest_depth,
            worker=worker,
            name=f"{enclave.name}-{direction}",
            mode=mode,
        )

    # -- heap growth (called from EnclaveContext.alloc) ----------------------

    def grow_enclave_heap(self, enclave: Enclave):
        """EAUG one page into a running enclave's heap; returns it."""
        execute_privileged(PrivilegedInstruction.EAUG)
        page = self.epc.allocate(enclave.enclave_id, PageType.REG, pending=True)
        self.epc.accept_pending(enclave.enclave_id, page.index)
        enclave._pages.append(page)
        return page

    # -- adversary hooks ------------------------------------------------------

    def enclaves(self) -> List[Enclave]:
        return list(self._enclaves.values())

    def find_enclave(self, name: str) -> Enclave:
        for enclave in self._enclaves.values():
            if enclave.name == name:
                return enclave
        raise SgxError(f"no enclave named '{name}'")

    def corrupt_enclave_page(self, enclave: Enclave, page_number: int = 2) -> None:
        """Play a physical attacker writing into enclave DRAM.

        The MEE integrity protection makes the next enclave access to
        that page fault — i.e. the attack degrades to denial of
        service, exactly the guarantee the paper's threat model gives.
        """
        indices = enclave.page_indices
        self.epc.corrupt_page(indices[page_number % len(indices)])

    def os_read_enclave_memory(self, enclave: Enclave, page_number: int = 2) -> bytes:
        """What the (malicious) OS sees when reading enclave pages."""
        indices = enclave.page_indices
        return self.epc.read_as_untrusted(indices[page_number % len(indices)])

    def destroy_enclave(self, enclave: Enclave) -> None:
        """The OS can always kill an enclave (DoS is out of scope)."""
        enclave.destroy()
        self._enclaves.pop(enclave.enclave_id, None)
