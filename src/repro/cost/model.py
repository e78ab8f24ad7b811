"""Instruction-cost model reproducing the paper's evaluation methodology.

The paper (Section 5) estimates the cost of SGX-enabled network
applications by counting two classes of events under the OpenSGX
emulator:

* **user-mode SGX instructions** (EENTER, EEXIT, ERESUME, EREPORT,
  EGETKEY, ...), each assumed to cost 10K CPU cycles, and
* **normal x86 instructions**, converted to cycles with a measured
  factor of 1.8 (the paper calls this factor "IPC"; its formula in
  footnote 6 multiplies by it, so it is used as cycles-per-instruction).

We reproduce the methodology: every primitive in this library charges a
modeled x86 instruction cost into a :class:`repro.cost.CostAccountant`
at the point where the real Python implementation executes it.  The
constants below are calibrated against the paper's own tables so that
absolute magnitudes are comparable; all *scaling* (with packets, bytes,
ASes, hops, handshakes) emerges from genuinely executed code paths.

Calibration notes
-----------------
Table 2 (packet I/O) determines the per-packet and per-call costs by
solving the 1-packet and 100-packet rows simultaneously:

* ``fixed + per_pkt = 13K`` and ``fixed + 100*per_pkt = 136K`` give
  ``per_pkt = 1,242`` and ``fixed = 11,758`` normal instructions, and
  likewise ``4 + 2`` user-mode SGX instructions.
* crypto columns give ``cipher_init + 94*aes_block = 84K`` and
  ``cipher_init + 9,400*aes_block = 836K`` (1500-byte MTU = 94 AES
  blocks), i.e. ``aes_block ~= 81`` and ``cipher_init ~= 76,400``.

Table 1 (remote attestation) determines the DH costs: the challenger's
"w/ DH" delta (224M instructions) covers its two 1024-bit modular
exponentiations (~112M each), and the target's delta (4,184M) adds
Diffie-Hellman parameter generation (~3,960M) on top of its own two
exponentiations.  Per-party runtime constants absorb the remaining
non-crypto attestation work (serialization, enclave heap setup, report
construction) so that Table 1 totals are in the paper's range.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Per-primitive modeled x86 instruction costs.

    Instances are immutable; tweakable copies can be made with
    :func:`dataclasses.replace` for ablation studies.
    """

    # ---- cycle conversion (paper, Section 5 / footnote 6) ----
    sgx_instruction_cycles: int = 10_000
    cycles_per_instruction: float = 1.8

    # ---- packet I/O from inside an enclave (calibrated: Table 2) ----
    send_call_fixed_normal: int = 11_758
    send_per_packet_normal: int = 1_242
    send_call_fixed_sgx: int = 4
    send_per_packet_sgx: int = 2

    # ---- symmetric crypto (calibrated: Table 2 "crypto" columns) ----
    aes_block_normal: int = 81
    cipher_init_normal: int = 76_400
    sha256_block_normal: int = 2_600          # per 64-byte compression
    hmac_fixed_normal: int = 6_000            # key pads + finalization

    # ---- public-key crypto (calibrated: Table 1 "w/ DH" deltas) ----
    modexp_1024_normal: int = 112_000_000     # one 1024-bit modexp
    dh_param_gen_normal: int = 3_960_000_000  # safe-prime generation
    signature_sign_normal: int = 12_000_000   # Schnorr/EPID sign
    signature_verify_normal: int = 14_000_000 # Schnorr/EPID verify

    # ---- attestation runtime (calibrated: Table 1 residuals) ----
    # Non-crypto in-enclave work during one attestation: report
    # marshalling, enclave heap setup for the crypto library, message
    # serialization.  One constant per role.
    attest_target_runtime_normal: int = 153_400_000
    attest_quoting_runtime_normal: int = 112_400_000
    attest_challenger_runtime_normal: int = 95_700_000

    # ---- enclave runtime overheads (calibrated: Table 4 residuals) ----
    # Dynamic memory allocation inside an enclave triggers EPC page
    # management and bookkeeping; the paper names in-enclave I/O and
    # dynamic allocation as the dominant steady-state overheads.
    enclave_alloc_normal: int = 11_500
    trampoline_normal: int = 450              # per EENTER/EEXIT pair

    # ---- crossing amortization: switchless queues and async rings
    # (Svenningsson et al.; Intel SDK "switchless mode").  Both replace
    # the two ~10K-cycle SGX instructions of a crossing with descriptors
    # written to a ring in untrusted shared memory and a worker on the
    # far side that polls it; magnitudes follow the switchless
    # literature's "hundreds of cycles instead of tens of thousands"
    # finding.  A synchronous switchless slot carries the response the
    # caller spins on, so it costs more than an async submission
    # descriptor and needs no separate completion read.  The async
    # worker's polling is adaptive — it spins a modeled budget waiting
    # for more work, then sleeps, and a submission that finds it asleep
    # pays a doorbell (futex-wake-style syscall) to rouse it.  A full
    # ring either blocks until the worker drains it or falls back to one
    # genuine crossing that drains everything; that crossing pays
    # ring-management bookkeeping on top of the normal trampoline.
    switchless_slot_normal: int = 400         # write request + read response
    ring_submit_normal: int = 300             # write one submission descriptor
    ring_reap_normal: int = 120               # read one completion descriptor
    ring_poll_normal: int = 150               # one worker harvest pass
    ring_spin_normal: int = 60                # one idle worker spin iteration
    ring_wakeup_normal: int = 2_000           # doorbell to wake a slept worker
    ring_fallback_normal: int = 900           # give-up-and-cross bookkeeping

    # ---- asynchronous exits (paper: enclaves run near-native "if no
    # external communications or interrupts (e.g., asynchronous exits
    # in SGX) are incurred") ----
    # One AEX = save SSA state, exit, handle interrupt, ERESUME.
    aex_ssa_normal: int = 3_000

    # ---- EPC paging (EWB/ELDB): evicting an enclave page to main
    # memory re-encrypts it and updates the version tree; reloading
    # verifies and decrypts.  (~40K cycles each on real hardware.) ----
    epc_evict_normal: int = 22_000
    epc_load_normal: int = 22_000

    # ---- DPI scan (the middlebox data plane): one compiled-automaton
    # transition per payload byte plus per-match reporting.  Charged
    # identically by the compiled engine and the frozen reference
    # walker so the conformance suite can hold their cost counters
    # integer-equal (the wall-clock difference between them is real;
    # the *modeled* cost is a property of the input, not the engine).
    dpi_scan_fixed_normal: int = 300          # per-record setup/flow lookup
    dpi_scan_byte_normal: int = 24            # one goto-table transition
    dpi_match_normal: int = 180               # report one signature hit

    # ---- application work units (calibrated: Table 4 "w/o SGX") ----
    route_update_normal: int = 30_000         # process one announcement
    policy_eval_normal: int = 4_200           # evaluate one export/pref rule
    route_install_normal: int = 50_000        # install one route locally
    aslc_policy_build_normal: int = 11_500_000  # AS-local policy assembly
    serialize_byte_normal: int = 12           # marshal one byte

    # ---- in-enclave execution slowdown ----
    # Application work executed inside an enclave costs more per unit
    # (OpenSGX instrumentation, in-enclave allocator, buffer copies).
    # Calibrated from Table 4: the paper's inter-domain controller ran
    # 82% more instructions under SGX, of which the explicit I/O and
    # allocation charges above explain ~15%; the rest is this factor.
    enclave_execution_factor: float = 1.675

    def cycles(self, sgx_instructions: int, normal_instructions: float) -> float:
        """Convert instruction counts to CPU cycles, per footnote 6."""
        return (
            self.sgx_instruction_cycles * sgx_instructions
            + self.cycles_per_instruction * normal_instructions
        )

    def modexp_normal(self, bits: int) -> int:
        """Cost of one modular exponentiation, cubic in operand size."""
        scale = (bits / 1024.0) ** 3
        return int(self.modexp_1024_normal * scale)

    def sha256_normal(self, n_bytes: int) -> int:
        """Cost of hashing ``n_bytes`` (Merkle-Damgard padding included)."""
        blocks = (n_bytes + 8) // 64 + 1
        return blocks * self.sha256_block_normal

    def aes_normal(self, n_bytes: int) -> int:
        """Cost of AES-processing ``n_bytes`` (whole blocks)."""
        blocks = (n_bytes + 15) // 16
        return blocks * self.aes_block_normal


#: Default model used throughout the library unless a component is
#: configured with a custom one.
DEFAULT_MODEL = CostModel()


def cycles(counter, model: CostModel = DEFAULT_MODEL) -> float:
    """Cycle cost of a :class:`repro.cost.Counter` under ``model``.

    Accepts anything with ``sgx_instructions`` / ``normal_instructions``
    attributes (duck-typed to avoid importing the accountant module).
    This is *the* conversion used by every report and exporter; charging
    sites should not hand-roll ``model.cycles(c.sgx..., c.normal...)``.
    """
    return model.cycles(counter.sgx_instructions, counter.normal_instructions)
