"""Frozen reference DPI engine: the original per-node dict walker.

This is the Aho-Corasick engine exactly as it shipped before the
compiled flat-array rewrite in :mod:`repro.middlebox.dpi` — per-node
``{byte: next}`` dicts, an explicit failure-link loop in ``search``,
and the streaming ``DpiEngine`` wrapper.  It stays here verbatim as
the differential oracle: the conformance suite
(``tests/conformance/test_dpi_conformance.py``) holds the compiled
engine verdict- and cost-identical to this one on hypothesis-generated
rulesets and chunked streams, and the knob lattice swaps its walk into
``dpi.AhoCorasick``.  It is a test oracle only: nothing under ``src/``
imports it.

The only additions over the frozen original are the shared
:func:`repro.middlebox.dpi.charge_scan` call in ``inspect`` (so both
engines charge the *same* modeled scan cost and the conformance suite
can compare integer cost counters, not just verdicts) and importing
the rule/verdict dataclasses from the canonical module instead of
redeclaring them.  The walker itself — trie build, failure links,
``search`` — is untouched.

Do not optimize this module.  Its value is that it stays still.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Tuple

from repro.errors import MiddleboxError
from repro.middlebox.dpi import (
    DpiAction,
    DpiRule,
    DpiVerdict,
    charge_scan,
)

__all__ = ["ReferenceAhoCorasick", "ReferenceDpiEngine"]


class ReferenceAhoCorasick:
    """Multi-pattern matcher with failure links (frozen dict walker)."""

    def __init__(self, patterns: Dict[str, bytes]) -> None:
        if not patterns:
            raise MiddleboxError("need at least one pattern")
        for rule_id, pattern in patterns.items():
            if not pattern:
                raise MiddleboxError(f"rule '{rule_id}' has an empty pattern")
        # Trie: node 0 is the root; each node is {byte: next_node}.
        self._goto: List[Dict[int, int]] = [{}]
        self._output: List[List[str]] = [[]]
        self._fail: List[int] = [0]

        for rule_id, pattern in sorted(patterns.items()):
            node = 0
            for byte in pattern:
                if byte not in self._goto[node]:
                    self._goto.append({})
                    self._output.append([])
                    self._fail.append(0)
                    self._goto[node][byte] = len(self._goto) - 1
                node = self._goto[node][byte]
            self._output[node].append(rule_id)

        # BFS to build failure links.
        queue = deque()
        for byte, node in self._goto[0].items():
            self._fail[node] = 0
            queue.append(node)
        while queue:
            current = queue.popleft()
            for byte, nxt in self._goto[current].items():
                queue.append(nxt)
                fallback = self._fail[current]
                while fallback and byte not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[nxt] = self._goto[fallback].get(byte, 0)
                if self._fail[nxt] == nxt:
                    self._fail[nxt] = 0
                self._output[nxt].extend(self._output[self._fail[nxt]])

    @property
    def node_count(self) -> int:
        return len(self._goto)

    def search(
        self, data: bytes, state: int = 0
    ) -> Tuple[List[Tuple[int, str]], int]:
        """Scan ``data`` starting in ``state``.

        Returns (matches as (end_offset, rule_id), final state) — feed
        the final state back in to continue across chunk boundaries.
        """
        matches: List[Tuple[int, str]] = []
        for offset, byte in enumerate(data):
            while state and byte not in self._goto[state]:
                state = self._fail[state]
            state = self._goto[state].get(byte, 0)
            for rule_id in self._output[state]:
                matches.append((offset + 1, rule_id))
        return matches, state


class ReferenceDpiEngine:
    """Streaming DPI over named flows (frozen dict-walker wrapper)."""

    def __init__(self, rules: Iterable[DpiRule]) -> None:
        rules = list(rules)
        if not rules:
            raise MiddleboxError("DPI engine needs rules")
        self._rules: Dict[str, DpiRule] = {}
        for rule in rules:
            if rule.rule_id in self._rules:
                raise MiddleboxError(f"duplicate rule id '{rule.rule_id}'")
            self._rules[rule.rule_id] = rule
        self._automaton = ReferenceAhoCorasick(
            {rule.rule_id: rule.pattern for rule in rules}
        )
        self._flow_state: Dict[Tuple[str, str], int] = {}
        self.chunks_inspected = 0
        self.bytes_inspected = 0
        self.total_alerts = 0

    def inspect(self, flow_id: str, direction: str, data: bytes) -> DpiVerdict:
        """Scan one plaintext chunk of a flow direction."""
        key = (flow_id, direction)
        state = self._flow_state.get(key, 0)
        matches, state = self._automaton.search(data, state)
        self._flow_state[key] = state
        self.chunks_inspected += 1
        self.bytes_inspected += len(data)
        alerts = [rule_id for _, rule_id in matches]
        self.total_alerts += len(alerts)
        charge_scan(len(data), len(alerts))
        block = any(
            self._rules[rule_id].action is DpiAction.BLOCK for rule_id in alerts
        )
        return DpiVerdict(alerts=alerts, block=block)

    def end_flow(self, flow_id: str) -> None:
        for direction in ("c2s", "s2c"):
            self._flow_state.pop((flow_id, direction), None)
