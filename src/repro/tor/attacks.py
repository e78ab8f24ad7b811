"""Attack models from the paper's Tor discussion (Section 3.2).

"Because Tor relies on volunteer nodes, once they are admitted in the
system, it is easy for their owners to modify the software to launch
attacks."  These are those modifications:

* :class:`TamperingExitCore` — rewrites plaintext crossing the exit
  ("when the malicious Tor node is selected as an exit node, an
  attacker can modify the plain-text");
* :class:`SnoopingExitCore` — records exit plaintext (profiling /
  bad-apple building block);
* :class:`SnoopingGuardCore` — records who connects (the other half of
  an end-to-end correlation);
* :class:`CompromisedAuthorityCore` — a subverted directory authority
  that admits attacker relays and flags honest exits BadExit (the
  tie-breaking/subversion attacks on directories).

Under SGX these same modifications change the enclave measurement:
:class:`TamperingExitEnclaveProgram` *is* the tampering relay built for
SGX — it launches fine on the attacker's own box (self-signed) but
fails every attestation against the audited relay measurement.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.tor.apps import OnionRouterEnclaveProgram
from repro.tor.directory import DirectoryAuthorityCore, RouterDescriptor
from repro.tor.relay import RelayCore

__all__ = [
    "TamperingExitCore",
    "SnoopingExitCore",
    "SnoopingGuardCore",
    "CompromisedAuthorityCore",
    "TamperingExitEnclaveProgram",
    "SnoopingExitEnclaveProgram",
    "INJECTED",
]

INJECTED = b"<script>evil()</script>"


class TamperingExitCore(RelayCore):
    """Modifies response plaintext before sealing it inward."""

    def _process_exit_data(self, data: bytes) -> bytes:
        self_tampered = getattr(self, "tampered_count", 0)
        self.tampered_count = self_tampered + 1
        return (INJECTED + data)[: len(data)] if data else data


class SnoopingExitCore(RelayCore):
    """Logs every request plaintext leaving toward destinations."""

    def _process_exit_request(self, data: bytes) -> bytes:
        log: List[bytes] = getattr(self, "snooped", [])
        log.append(data)
        self.snooped = log
        return data


class SnoopingGuardCore(RelayCore):
    """Logs link activity (entry-side half of a correlation attack)."""

    def handle_cell(self, link_id: int, cell_bytes: bytes):
        log: List[Tuple[int, int]] = getattr(self, "observed", [])
        log.append((link_id, len(cell_bytes)))
        self.observed = log
        return super().handle_cell(link_id, cell_bytes)


class CompromisedAuthorityCore(DirectoryAuthorityCore):
    """An authority whose host (and thus behavior) the attacker owns.

    It admits the attacker's relays unconditionally and votes BadExit
    on honest exits the attacker wants pushed out of the network.
    """

    def __init__(self, *args, attacker_relays=(), smear_targets=(), **kwargs):
        super().__init__(*args, **kwargs)
        self._attacker_relays = set(attacker_relays)
        self._smear_targets = set(smear_targets)
        for nickname in self._smear_targets:
            self.flag_bad_exit(nickname)

    def register(
        self,
        descriptor: RouterDescriptor,
        attested_mrenclave: Optional[bytes] = None,
        manual_approved: bool = False,
    ) -> bool:
        if descriptor.nickname in self._attacker_relays:
            # Bypass all admission control for the attacker's nodes.
            self._registered[descriptor.nickname] = descriptor
            return True
        return super().register(descriptor, attested_mrenclave, manual_approved)


class TamperingExitEnclaveProgram(OnionRouterEnclaveProgram):
    """The attacker's SGX build of the tampering relay.

    Identical interface, different code -> different MRENCLAVE: it can
    launch (the attacker signs it themselves) but can never pass an
    attestation pinned to the audited relay build.
    """

    RELAY_CORE_CLASS = TamperingExitCore


class SnoopingExitEnclaveProgram(OnionRouterEnclaveProgram):
    """SGX build of the snooping relay (same fate as above)."""

    RELAY_CORE_CLASS = SnoopingExitCore
