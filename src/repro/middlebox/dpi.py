"""Deep packet inspection: a compiled flat-array Aho-Corasick engine.

The paper's motivating middlebox is DPI over TLS traffic ("TLS traffic
in enterprise networks can be sent to the SGX-enabled cloud for deep
packet inspection").  The engine is streaming: automaton state
persists per (connection, direction), so signatures spanning record
boundaries are still caught.

This module is the *compiled* rewrite of the original per-node dict
walker (frozen verbatim as a test oracle under ``tests/oracles/``; a
hypothesis conformance suite holds the two verdict- and
cost-identical).  Three things changed:

* **Flat tables.**  The goto function is DFA-converted at build time
  into one contiguous ``array('i')`` of 256-slot rows (failure links
  are resolved into the rows, so a transition is a single indexed
  load per byte — no fail-chain walk, no per-node dict hashing).
  Outputs are packed the same way: ``out_start``/``out_count`` arrays
  into one flat rule-id list.  The packed arrays are the canonical
  tables: they are what EPC residency backs and what the paged scan
  walks.
* **Linked-row accelerator.**  For the pure-Python hot loop the rows
  are additionally hydrated into row-reference lists (``row[byte]``
  *is* the next row object, ``row[256]`` its output tuple), so the
  scan loop runs two list indexes per byte — measured ~3.5× the
  reference walker.  The accelerator is derived from the packed
  tables; it holds no information of its own.
* **EPC residency.**  The row array can be backed by real
  :class:`~repro.sgx.epc.EnclavePageCache` pages
  (:class:`EpcResidentTables`): each scan touches the pages of the
  rows it visited, so a ruleset bigger than EPC pays modeled EWB/ELDU
  charges and AEX storms — the Stress-SGX throughput cliff.  Rows are
  laid out breadth-first so the hot shallow states share the first
  pages (LRU-friendly), which is exactly the knob ``layout=`` exposes.

Modeled scan cost is charged by :func:`charge_scan` — a single
``charge_burst`` per record, a pure function of (bytes scanned,
matches reported) so both engines charge identically.
"""

from __future__ import annotations

import dataclasses
import enum
from array import array
from collections import OrderedDict, deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cost import context as cost_context
from repro.errors import MiddleboxError

__all__ = [
    "AhoCorasick",
    "DpiAction",
    "DpiRule",
    "DpiEngine",
    "DpiVerdict",
    "EpcResidentTables",
    "ROW_SLOTS",
    "ROW_BYTES",
    "ROWS_PER_PAGE",
    "charge_scan",
    "scan_cost",
]

#: One goto row = one dense next-state slot per possible byte.
ROW_SLOTS = 256
#: Rows are serialized as little-endian int32 (`array('i')`).
ROW_BYTES = 4 * ROW_SLOTS
#: Goto rows per 4 KiB EPC page (the unit EWB/ELDU moves).
ROWS_PER_PAGE = 4096 // ROW_BYTES
_ROWS_PER_PAGE_SHIFT = ROWS_PER_PAGE.bit_length() - 1

#: Flows kept in the streaming state table before the least recently
#: active (flow, direction) entry is evicted back to the root state.
DEFAULT_MAX_FLOWS = 4096


def scan_cost(model, n_bytes: int, n_matches: int) -> int:
    """Modeled instruction cost of scanning one record.

    A pure function of the input — per-byte table transitions plus
    per-match reporting — so the compiled engine and the frozen
    reference walker charge the *same* integers (the conformance
    suite's cost-identity axis).
    """
    return (
        model.dpi_scan_fixed_normal
        + n_bytes * model.dpi_scan_byte_normal
        + n_matches * model.dpi_match_normal
    )


def charge_scan(n_bytes: int, n_matches: int) -> None:
    """Charge one record's scan as a single burst (in-enclave inflated)."""
    accountant = cost_context.current_accountant()
    if accountant is None:
        return
    model = cost_context.current_model()
    total = scan_cost(model, n_bytes, n_matches)
    if accountant.current_domain.startswith("enclave:"):
        total = int(total * model.enclave_execution_factor)
    accountant.charge_burst(normal=total)


class AhoCorasick:
    """Multi-pattern matcher compiled to contiguous flat-array rows.

    Match semantics are byte-for-byte those of the frozen dict walker
    (the ``ReferenceAhoCorasick`` test oracle in ``tests/oracles/``):
    ``search`` returns ``(matches, state)`` with one ``(end_offset,
    rule_id)`` per hit in the same order, and the returned state feeds
    back in to continue across chunk boundaries.
    """

    def __init__(
        self, patterns: Dict[str, bytes], layout: str = "hot-first"
    ) -> None:
        if not patterns:
            raise MiddleboxError("need at least one pattern")
        for rule_id, pattern in patterns.items():
            if not pattern:
                raise MiddleboxError(f"rule '{rule_id}' has an empty pattern")
        if layout not in ("hot-first", "insertion"):
            raise MiddleboxError(f"unknown table layout {layout!r}")
        self.layout = layout

        # Phase 1 — build the classic trie + failure links exactly as
        # the reference walker does (this is what defines the match
        # semantics, including per-node output order).
        goto_: List[Dict[int, int]] = [{}]
        output: List[List[str]] = [[]]
        fail: List[int] = [0]
        for rule_id, pattern in sorted(patterns.items()):
            node = 0
            for byte in pattern:
                if byte not in goto_[node]:
                    goto_.append({})
                    output.append([])
                    fail.append(0)
                    goto_[node][byte] = len(goto_) - 1
                node = goto_[node][byte]
            output[node].append(rule_id)

        bfs_order: List[int] = [0]
        queue = deque()
        for byte, node in goto_[0].items():
            fail[node] = 0
            queue.append(node)
        while queue:
            current = queue.popleft()
            bfs_order.append(current)
            for byte, nxt in goto_[current].items():
                queue.append(nxt)
                fallback = fail[current]
                while fallback and byte not in goto_[fallback]:
                    fallback = fail[fallback]
                fail[nxt] = goto_[fallback].get(byte, 0)
                if fail[nxt] == nxt:
                    fail[nxt] = 0
                output[nxt].extend(output[fail[nxt]])
        # (bfs_order is missing the leaves' BFS tail only if the loop
        # above skipped them — it does not: every node enters `queue`
        # exactly once, so every non-root node lands in bfs_order.)

        n = len(goto_)
        if layout == "hot-first":
            # Hot rows first: breadth-first numbering packs the
            # shallow, frequently revisited states into the first
            # table pages, so a small LRU window of resident pages
            # covers most transitions.
            order = bfs_order
        else:
            order = list(range(n))
        remap = [0] * n
        for new, old in enumerate(order):
            remap[old] = new

        # Phase 2 — DFA-convert into dense rows.  Processing in BFS
        # order guarantees every state's failure row is already built
        # (failure links strictly decrease depth), so a row is its
        # failure row overwritten with the state's own transitions.
        nxt_table = array("i")
        nxt_table.frombytes(bytes(4 * ROW_SLOTS * n))
        for old in bfs_order:
            new = remap[old]
            base = new * ROW_SLOTS
            if old:
                fbase = remap[fail[old]] * ROW_SLOTS
                nxt_table[base : base + ROW_SLOTS] = nxt_table[
                    fbase : fbase + ROW_SLOTS
                ]
            for byte, target in goto_[old].items():
                nxt_table[base + byte] = remap[target]

        out_start = array("i", bytes(4 * n))
        out_count = array("i", bytes(4 * n))
        out_rules: List[str] = []
        fail_table = array("i", bytes(4 * n))
        for old in range(n):
            new = remap[old]
            fail_table[new] = remap[fail[old]]
        for new in range(n):
            old = order[new]
            out_start[new] = len(out_rules)
            out_count[new] = len(output[old])
            out_rules.extend(output[old])

        self._next = nxt_table
        self._fail = fail_table
        self._out_start = out_start
        self._out_count = out_count
        self._out_rules = out_rules
        self._n_states = n

        # Phase 3 — hydrate the linked-row accelerator.  Each hot row
        # holds 256 *row references* (row[byte] is the next row
        # object), its output tuple at ROW_SLOTS, and its own state id
        # at ROW_SLOTS + 1.  The scan loop then runs on object
        # identity alone: two list indexes per byte, zero arithmetic.
        out_tuples = [
            tuple(out_rules[out_start[s] : out_start[s] + out_count[s]])
            for s in range(n)
        ]
        hot: List[list] = [[] for _ in range(n)]
        for s in range(n):
            base = s * ROW_SLOTS
            row = hot[s]
            row.extend(hot[t] for t in nxt_table[base : base + ROW_SLOTS])
            row.append(out_tuples[s])
            row.append(s)
        self._hot_rows = hot

    @property
    def node_count(self) -> int:
        return self._n_states

    @property
    def table_pages(self) -> int:
        """EPC pages needed to hold the goto rows (incl. the aux rows
        riding in each state's slot — see DESIGN.md §12)."""
        return -(-self._n_states * ROW_BYTES // 4096)

    def table_bytes(self) -> bytes:
        """The packed goto rows, page-padded — what EPC residency backs."""
        raw = self._next.tobytes()
        pad = self.table_pages * 4096 - len(raw)
        return raw + bytes(pad)

    def search(
        self, data: bytes, state: int = 0
    ) -> Tuple[List[Tuple[int, str]], int]:
        """Scan ``data`` starting in ``state``.

        Returns (matches as (end_offset, rule_id), final state) — feed
        the final state back in to continue across chunk boundaries.
        """
        matches: List[Tuple[int, str]] = []
        append = matches.append
        row = self._hot_rows[state]
        for i, byte in enumerate(data):
            row = row[byte]
            out = row[ROW_SLOTS]
            if out:
                end = i + 1
                for rule_id in out:
                    append((end, rule_id))
        return matches, row[ROW_SLOTS + 1]

    # ``scan`` is the bulk-record spelling of the same operation.
    scan = search

    def search_paged(
        self, data: bytes, state: int, touched: List[int], seen: set
    ) -> Tuple[List[Tuple[int, str]], int]:
        """Like :meth:`search`, but records the table pages whose rows
        the walk reads (first-touch order) into ``touched``/``seen``.

        This is the EPC-resident path: the caller replays ``touched``
        against the page cache afterwards, which is what turns an
        oversized ruleset into EWB/ELDU charges.  It walks the packed
        ``array('i')`` tables directly — the bytes EPC actually backs.
        """
        matches: List[Tuple[int, str]] = []
        append = matches.append
        nxt = self._next
        counts = self._out_count
        starts = self._out_start
        rules = self._out_rules
        shift = _ROWS_PER_PAGE_SHIFT
        last_page = -1
        for i, byte in enumerate(data):
            page = state >> shift
            if page != last_page:
                last_page = page
                if page not in seen:
                    seen.add(page)
                    touched.append(page)
            state = nxt[(state << 8) | byte]
            c = counts[state]
            if c:
                end = i + 1
                k = starts[state]
                for rule_id in rules[k : k + c]:
                    append((end, rule_id))
        return matches, state


class DpiAction(enum.Enum):
    ALERT = "alert"   # log and forward
    BLOCK = "block"   # log and kill the flow


@dataclasses.dataclass(frozen=True)
class DpiRule:
    rule_id: str
    pattern: bytes
    action: DpiAction = DpiAction.ALERT


@dataclasses.dataclass
class DpiVerdict:
    """Outcome of inspecting one chunk."""

    alerts: List[str]
    block: bool

    @property
    def clean(self) -> bool:
        return not self.alerts


class EpcResidentTables:
    """Back an automaton's goto rows with real EnclavePageCache pages.

    The table bytes are written into freshly committed REG pages of
    the owning enclave; after each scan the pages the walk visited are
    read through the cache in first-touch order.  A ruleset whose row
    pages exceed free EPC therefore pays the modeled paging tax —
    EWB on eviction, ELDU on reload — plus one asynchronous exit per
    reload (a paged-out access #PFs out of the enclave).  This is also
    the ``paging_storm`` fault-injection site: a decided event force-
    evicts a burst of LRU pages before the touch replay, which must
    recover byte-identically (evicted rows reload bit-exact).
    """

    def __init__(self, automaton: AhoCorasick, ctx) -> None:
        self._automaton = automaton
        self._ctx = ctx
        table = automaton.table_bytes()
        n_pages = automaton.table_pages
        self._indices: List[int] = ctx.alloc_table_region(n_pages)
        for k in range(n_pages):
            ctx.write_table_page(
                self._indices[k], table[k * 4096 : (k + 1) * 4096]
            )
        self._touched: List[int] = []
        self._seen: set = set()
        #: Cumulative paging activity attributable to DPI scans.
        self.pages_touched = 0
        self.reloads = 0
        self.aex_events = 0

    @property
    def n_pages(self) -> int:
        return len(self._indices)

    def begin_scan(self) -> Tuple[List[int], set]:
        self._touched.clear()
        self._seen.clear()
        return self._touched, self._seen

    def commit_scan(self, site: str = "dpi:scan") -> None:
        """Replay the recorded touches against the page cache.

        Charges land on the ambient accountant via the cache's own
        EWB/ELDU hooks; reloads additionally pay one AEX each (SSA
        save + ERESUME), mirroring the enclave page-fault exit.
        """
        from repro import faults, obs

        epc = self._ctx.epc
        plan = faults.current_plan()
        if plan is not None:
            rule = plan.decide(faults.PAGING_STORM, site)
            if rule is not None:
                burst = int(rule.param) if rule.param is not None else 8
                epc.pressure_evict(burst)
        before = epc.reloads
        for page in self._touched:
            self._ctx.touch_table_page(self._indices[page])
        reloaded = epc.reloads - before
        self.pages_touched += len(self._touched)
        self.reloads += reloaded
        if reloaded:
            self.aex_events += reloaded
            model = cost_context.current_model()
            accountant = cost_context.current_accountant()
            if accountant is not None:
                accountant.charge_burst(
                    sgx=2 * reloaded,
                    normal=model.aex_ssa_normal * reloaded,
                )
            obs.instant(
                "aex", count=reloaded, cause="epc_paging", site=site
            )


class DpiEngine:
    """Streaming DPI over named flows (compiled fast path)."""

    def __init__(
        self,
        rules: Iterable[DpiRule],
        layout: str = "hot-first",
        max_flows: int = DEFAULT_MAX_FLOWS,
    ) -> None:
        rules = list(rules)
        if not rules:
            raise MiddleboxError("DPI engine needs rules")
        if max_flows < 1:
            raise MiddleboxError("max_flows must be positive")
        self._rules: Dict[str, DpiRule] = {}
        for rule in rules:
            if rule.rule_id in self._rules:
                raise MiddleboxError(f"duplicate rule id '{rule.rule_id}'")
            self._rules[rule.rule_id] = rule
        self._automaton = AhoCorasick(
            {rule.rule_id: rule.pattern for rule in rules}, layout=layout
        )
        # LRU flow table: (flow_id, direction) -> automaton state.
        # Bounded so long load runs cannot grow it without limit; an
        # evicted idle flow simply restarts at the root state.
        self._flow_state: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
        self._max_flows = max_flows
        self._epc_tables: Optional[EpcResidentTables] = None
        self.chunks_inspected = 0
        self.bytes_inspected = 0
        self.total_alerts = 0
        self.flows_evicted = 0

    @property
    def flow_count(self) -> int:
        """Live (flow, direction) entries in the streaming state table."""
        return len(self._flow_state)

    @property
    def max_flows(self) -> int:
        return self._max_flows

    @property
    def epc_tables(self) -> Optional[EpcResidentTables]:
        return self._epc_tables

    def attach_epc(self, ctx) -> EpcResidentTables:
        """Make the goto rows EPC-resident (see :class:`EpcResidentTables`)."""
        if self._epc_tables is None:
            self._epc_tables = EpcResidentTables(self._automaton, ctx)
        return self._epc_tables

    def inspect(self, flow_id: str, direction: str, data: bytes) -> DpiVerdict:
        """Scan one plaintext chunk of a flow direction."""
        key = (flow_id, direction)
        flow_state = self._flow_state
        state = flow_state.pop(key, 0)
        tables = self._epc_tables
        if tables is None:
            matches, state = self._automaton.search(data, state)
        else:
            touched, seen = tables.begin_scan()
            matches, state = self._automaton.search_paged(
                data, state, touched, seen
            )
            tables.commit_scan()
        flow_state[key] = state
        if len(flow_state) > self._max_flows:
            flow_state.popitem(last=False)
            self.flows_evicted += 1
        self.chunks_inspected += 1
        self.bytes_inspected += len(data)
        alerts = [rule_id for _, rule_id in matches]
        self.total_alerts += len(alerts)
        charge_scan(len(data), len(alerts))
        block = any(
            self._rules[rule_id].action is DpiAction.BLOCK for rule_id in alerts
        )
        return DpiVerdict(alerts=alerts, block=block)

    def end_flow(self, flow_id: str, direction: Optional[str] = None) -> None:
        """Drop a flow's streaming state (one direction, or both).

        Called on connection close so long runs cannot accumulate one
        automaton state per flow that ever existed; the LRU bound in
        :meth:`inspect` is the backstop for flows that never close.
        """
        directions = (direction,) if direction else ("c2s", "s2c")
        for d in directions:
            self._flow_state.pop((flow_id, d), None)
