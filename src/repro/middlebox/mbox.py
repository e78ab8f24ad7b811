"""The middlebox enclave: key provisioning + in-enclave inspection.

Paper, Section 3.3: "endpoints use a remote attestation to
authenticate middleboxes and give their session keys through the
secure channel to in-path middleboxes."  The enclave program here:

* accepts session-key provisioning over attested channels (endpoints
  attested *us*; what they learn from the quote is that this exact DPI
  build — and nothing else — will see their plaintext);
* optionally requires **both** endpoints' consent before inspecting
  ("allow only the middleboxes that both end-points agree upon
  decrypt/encrypt the TLS traffic");
* reconstructs both record streams with observer channels and runs
  DPI inside the enclave — decrypted bytes never reach the host.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.core.app import SecureApplicationProgram
from repro.errors import MiddleboxError, ProtocolError
from repro.middlebox.dpi import DpiAction, DpiEngine, DpiRule
from repro.net.channel import SecureRecordChannel
from repro.sgx.attestation import SessionKeys
from repro.wire import Reader, Writer

__all__ = [
    "MiddleboxProgram",
    "TAG_PROVISION",
    "TAG_PROVISION_ACK",
    "encode_provision",
]

TAG_PROVISION = 0x21
TAG_PROVISION_ACK = 0x22


def encode_provision(flow_id: str, keys: SessionKeys, endpoint_role: str) -> bytes:
    """Provisioning message an endpoint sends over its attested channel."""
    if endpoint_role not in ("client", "server"):
        raise MiddleboxError("endpoint role must be 'client' or 'server'")
    return (
        Writer()
        .u8(TAG_PROVISION)
        .string(flow_id)
        .string(endpoint_role)
        .varbytes(keys.initiator_enc)
        .varbytes(keys.initiator_mac)
        .varbytes(keys.responder_enc)
        .varbytes(keys.responder_mac)
        .varbytes(keys.confirm_key)
        .getvalue()
    )


def _decode_provision(reader: Reader) -> Tuple[str, str, SessionKeys]:
    flow_id = reader.string()
    role = reader.string()
    keys = SessionKeys(
        initiator_enc=reader.varbytes(),
        initiator_mac=reader.varbytes(),
        responder_enc=reader.varbytes(),
        responder_mac=reader.varbytes(),
        confirm_key=reader.varbytes(),
    )
    return flow_id, role, keys


@dataclasses.dataclass
class _Flow:
    keys: Optional[SessionKeys] = None
    consents: Set[str] = dataclasses.field(default_factory=set)
    c2s: Optional[SecureRecordChannel] = None
    s2c: Optional[SecureRecordChannel] = None


class MiddleboxProgram(SecureApplicationProgram):
    """The in-path middlebox's enclave code."""

    def on_load(self, ctx) -> None:
        super().on_load(ctx)
        self._dpi: Optional[DpiEngine] = None
        self._flows: Dict[str, _Flow] = {}
        self._require_both = False
        self.records_inspected = 0
        self.records_opaque = 0
        self.records_blocked = 0

    # -- configuration ------------------------------------------------------------

    def configure_dpi(
        self,
        rules: List[Tuple[str, bytes, str]],
        require_both_endpoints: bool = False,
        epc_resident: bool = False,
        layout: str = "hot-first",
        max_flows: Optional[int] = None,
    ) -> int:
        """Install DPI rules [(id, pattern, "alert"|"block")]; returns
        the automaton size (a build sanity signal).

        ``epc_resident=True`` backs the automaton's goto rows with
        real EnclavePageCache pages, so a ruleset bigger than EPC pays
        the modeled paging tax on every scan (the working-set stress
        experiments); ``layout`` picks the row order the pages hold.
        """
        kwargs = {} if max_flows is None else {"max_flows": max_flows}
        engine = DpiEngine(
            [DpiRule(rule_id, pattern, DpiAction(action)) for rule_id, pattern, action in rules],
            layout=layout,
            **kwargs,
        )
        if epc_resident:
            engine.attach_epc(self.ctx)
        self._dpi = engine
        self._require_both = require_both_endpoints
        return engine._automaton.node_count

    # -- key provisioning (arrives over the attested channel) -------------------------

    def _on_secure_message(self, session_id: str, payload: bytes) -> Optional[bytes]:
        reader = Reader(payload)
        tag = reader.u8()
        if tag != TAG_PROVISION:
            raise ProtocolError(f"middlebox got unexpected tag {tag}")
        flow_id, role, keys = _decode_provision(reader)
        flow = self._flows.setdefault(flow_id, _Flow())
        if flow.keys is not None and flow.keys != keys:
            raise MiddleboxError(f"conflicting keys for flow '{flow_id}'")
        flow.keys = keys
        flow.consents.add(role)
        if self._inspection_enabled(flow) and flow.c2s is None:
            # Observer channels: we *open* what each side protects.
            flow.c2s = SecureRecordChannel(keys, "responder")
            flow.s2c = SecureRecordChannel(keys, "initiator")
        return (
            Writer()
            .u8(TAG_PROVISION_ACK)
            .string(flow_id)
            .u8(1 if self._inspection_enabled(flow) else 0)
            .getvalue()
        )

    def _inspection_enabled(self, flow: _Flow) -> bool:
        if flow.keys is None:
            return False
        if self._require_both:
            return {"client", "server"} <= flow.consents
        return bool(flow.consents)

    # -- the data path (ecall per transiting record) -----------------------------------

    @obs.traced("mbox:inspect_record", kind="app")
    def inspect_record(self, flow_id: str, direction: str, record: bytes) -> Tuple[str, List[str]]:
        """Inspect one transiting record.

        Returns (verdict, alerts) with verdict one of:
        ``"forward"`` (clean or alert-only), ``"block"``, or
        ``"opaque"`` (no keys / not yet consented / not a data record —
        forwarded uninspected, exactly what a middlebox without the
        paper's design could do at best).
        """
        if direction not in ("c2s", "s2c"):
            raise MiddleboxError("direction must be 'c2s' or 's2c'")
        flow = self._flows.get(flow_id)
        if flow is None or not self._inspection_enabled(flow):
            self.records_opaque += 1
            return "opaque", []
        channel = flow.c2s if direction == "c2s" else flow.s2c
        assert channel is not None
        try:
            plaintext = channel.open(record)
        except ProtocolError:
            # Handshake frames or out-of-band bytes: not ours to read.
            self.records_opaque += 1
            return "opaque", []
        assert self._dpi is not None
        verdict = self._dpi.inspect(flow_id, direction, plaintext)
        self.records_inspected += 1
        if verdict.block:
            self.records_blocked += 1
            return "block", verdict.alerts
        return "forward", verdict.alerts

    def end_flow(self, flow_id: str, direction: Optional[str] = None) -> None:
        """Drop a flow direction's DPI streaming state on connection
        close (both directions when ``direction`` is None).

        Keys and observer channels are kept — a reconnecting peer
        reuses its provisioned flow id — but the automaton state is
        per-connection and must not leak across long runs.
        """
        if self._dpi is not None:
            self._dpi.end_flow(flow_id, direction)

    # -- telemetry ----------------------------------------------------------------------

    def dpi_telemetry(self) -> Dict[str, int]:
        """Flow-table and EPC-residency counters (0s when not enabled)."""
        dpi = self._dpi
        if dpi is None:
            return {"flows": 0, "flows_evicted": 0, "table_pages": 0,
                    "pages_touched": 0, "reloads": 0, "aex_events": 0}
        tables = dpi.epc_tables
        return {
            "flows": dpi.flow_count,
            "flows_evicted": dpi.flows_evicted,
            "table_pages": tables.n_pages if tables else 0,
            "pages_touched": tables.pages_touched if tables else 0,
            "reloads": tables.reloads if tables else 0,
            "aex_events": tables.aex_events if tables else 0,
        }

    def stats(self) -> Dict[str, int]:
        return {
            "inspected": self.records_inspected,
            "opaque": self.records_opaque,
            "blocked": self.records_blocked,
            "alerts": self._dpi.total_alerts if self._dpi else 0,
        }

    def flow_consents(self, flow_id: str) -> List[str]:
        flow = self._flows.get(flow_id)
        return sorted(flow.consents) if flow else []
