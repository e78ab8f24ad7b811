"""DPI-conformance differential suite (the compiled-engine contract).

Hypothesis generates random rulesets over a deliberately tiny alphabet
(so patterns overlap, share prefixes, and nest — the shapes where
Aho-Corasick implementations disagree) plus chunked multi-flow record
streams, and runs each case through BOTH engines:

* the frozen dict walker (:mod:`tests.oracles.dpi_reference`) — the
  oracle, byte-for-byte the pre-rewrite implementation;
* the compiled flat-table engine (:mod:`repro.middlebox.dpi`) with
  both row layouts.

The contract asserted for every case:

1. **identical verdicts** — block flag and the alert list (same rules,
   same order) for every record of every flow;
2. **identical integer cost counters** — both engines run under their
   own ambient :class:`CostAccountant` in the same enclave domain, and
   the full counter dict must match integer-for-integer (the modeled
   scan charge is a pure function of the input, never of the engine);
3. **streaming equivalence** — the same bytes split differently across
   records at the automaton level must yield the same matches.

Budget: 25 cases under the default hypothesis profile, scaled by
``--hypothesis-profile`` (see tests/conformance/harness.py).  The knob
lattice (tests/conformance/) runs the reference walk inside whole
middlebox runs too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import DEFAULT_MODEL, CostAccountant
from repro.cost import context as cost_context
from repro.middlebox.dpi import AhoCorasick, DpiAction, DpiEngine, DpiRule
from tests.conformance.harness import examples
from tests.oracles.dpi_reference import (
    ReferenceAhoCorasick,
    ReferenceDpiEngine,
)

ENCLAVE_DOMAIN = "enclave:dpi-conformance"

# Tiny alphabet => dense overlaps, shared prefixes, nested patterns.
_pattern = st.binary(min_size=1, max_size=6).map(
    lambda b: bytes(x % 4 for x in b)
)
_ruleset = st.dictionaries(
    keys=st.sampled_from([f"r{i}" for i in range(8)]),
    values=st.tuples(_pattern, st.sampled_from(["alert", "block"])),
    min_size=1,
    max_size=6,
)
_record = st.binary(min_size=0, max_size=40).map(
    lambda b: bytes(x % 4 for x in b)
)
# A stream: (flow index, direction, record) triples.
_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["c2s", "s2c"]),
        _record,
    ),
    min_size=1,
    max_size=20,
)


def _rules(ruleset):
    return [
        DpiRule(rule_id, pattern, DpiAction(action))
        for rule_id, (pattern, action) in sorted(ruleset.items())
    ]


def _run_engine(engine_cls, ruleset, stream, **kwargs):
    """One arm: inspect the whole stream under a fresh accountant."""
    engine = engine_cls(_rules(ruleset), **kwargs)
    accountant = CostAccountant("dpi-conf")
    verdicts = []
    with cost_context.use_accountant(accountant, DEFAULT_MODEL):
        with accountant.attribute(ENCLAVE_DOMAIN):
            for flow, direction, record in stream:
                verdict = engine.inspect(f"flow-{flow}", direction, record)
                verdicts.append((verdict.block, tuple(verdict.alerts)))
    counters = {
        domain: counter.as_dict()
        for domain, counter in accountant.snapshot().items()
    }
    return verdicts, counters


def _check_conformance(ruleset, stream):
    ref_verdicts, ref_counters = _run_engine(
        ReferenceDpiEngine, ruleset, stream
    )
    for layout in ("hot-first", "insertion"):
        verdicts, counters = _run_engine(
            DpiEngine, ruleset, stream, layout=layout
        )
        assert verdicts == ref_verdicts, f"verdicts diverged ({layout})"
        assert counters == ref_counters, f"cost counters diverged ({layout})"


# ---------------------------------------------------------------------------
# The suites
# ---------------------------------------------------------------------------


@settings(max_examples=examples(25), deadline=None)
@given(ruleset=_ruleset, stream=_stream)
def test_conformance_random_streams(ruleset, stream):
    _check_conformance(ruleset, stream)


# ---------------------------------------------------------------------------
# Deterministic corners (no hypothesis — always run)
# ---------------------------------------------------------------------------


class TestKnownCases:
    def test_nested_and_overlapping(self):
        _check_conformance(
            {"r0": (b"\x00\x01", "alert"), "r1": (b"\x01", "alert"),
             "r2": (b"\x00\x01\x00", "block")},
            [(0, "c2s", b"\x00\x01\x00\x01\x00")],
        )

    def test_streaming_split_matches_whole(self):
        """Automaton level: arbitrary chunking never changes matches."""
        patterns = {"a": b"\x00\x01\x02", "b": b"\x01\x02", "c": b"\x02\x00"}
        data = bytes(x % 3 for x in range(64))
        whole_ref = ReferenceAhoCorasick(patterns)
        whole = AhoCorasick(patterns)
        expect_matches, _ = whole_ref.search(data)
        assert whole.search(data)[0] == expect_matches
        for split in (1, 3, 7, 63):
            ref_state = state = 0
            got_ref, got = [], []
            for at in range(0, len(data), split):
                chunk = data[at : at + split]
                matches, ref_state = whole_ref.search(chunk, ref_state)
                got_ref.extend(
                    (at + end, rid) for end, rid in matches
                )
                matches, state = whole.search(chunk, state)
                got.extend((at + end, rid) for end, rid in matches)
            assert got == got_ref == expect_matches

    def test_block_rule_same_record_index(self):
        stream = [(0, "c2s", b"\x00" * 5), (0, "c2s", b"\x03\x03"),
                  (1, "s2c", b"\x03\x03")]
        _check_conformance({"kill": (b"\x03\x03", "block")}, stream)

    def test_alert_order_is_rule_sorted_per_position(self):
        _check_conformance(
            {"r9": (b"\x01", "alert"), "r1": (b"\x00\x01", "alert")},
            [(0, "c2s", b"\x00\x01\x01")],
        )

    def test_cost_is_engine_independent_with_enclave_factor(self):
        """The enclave execution factor applies identically to both."""
        ruleset = {"r0": (b"\x00\x01", "alert")}
        stream = [(0, "c2s", bytes(x % 4 for x in range(100)))]
        _, ref_counters = _run_engine(ReferenceDpiEngine, ruleset, stream)
        _, counters = _run_engine(DpiEngine, ruleset, stream)
        assert counters == ref_counters
        assert any(
            domain.startswith("enclave:") for domain in counters
        )
