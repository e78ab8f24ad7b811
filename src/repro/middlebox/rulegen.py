"""Seeded Snort-like signature corpus + traffic synthesizer.

Real DPI deployments run 10⁴-scale rulesets (the Snort community set);
what matters for the EPC-pressure experiments is not the rules'
*meaning* but their *shape*: mostly short ASCII protocol tokens with
shared prefixes (so the automaton has realistic fan-out near the
root), a tail of opaque binary signatures, and a small fraction of
``block`` rules.  :func:`generate_ruleset` produces exactly that,
deterministically from a seed, via the repo's HMAC-DRBG
:class:`~repro.crypto.drbg.Rng` — the same corpus every run, every
platform, so reports built on it stay byte-stable.

Shared by the working-set stress harness (:mod:`repro.sgx.epcstress`)
and the tests.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.crypto.drbg import Rng
from repro.errors import MiddleboxError

__all__ = ["generate_ruleset", "rules_as_tuples", "synthesize_traffic"]

#: Protocol-ish stems real signature sets are full of.  Shared stems
#: give the trie realistic shared prefixes; the generated suffix makes
#: each pattern unique.
_STEMS = (
    b"GET /", b"POST /", b"HEAD /", b"Host: ", b"User-Agent: ",
    b"Content-Type: ", b"cmd.exe /c ", b"/bin/sh -c ", b"SELECT * FROM ",
    b"UNION SELECT ", b"<script>", b"eval(", b"powershell -enc ",
    b"\x7fELF", b"MZ\x90\x00", b"\x16\x03\x01", b"SSH-2.0-", b"PK\x03\x04",
)
_SUFFIX_ALPHABET = (
    b"abcdefghijklmnopqrstuvwxyz0123456789-._/%?=&"
)


def generate_ruleset(
    n_rules: int,
    seed: object = 0,
    block_fraction: float = 0.02,
) -> List[Tuple[str, bytes, str]]:
    """``n_rules`` unique ``(rule_id, pattern, action)`` signatures.

    Patterns are 6–28 bytes: ~80% token-style (stem + generated
    suffix), ~20% opaque binary blobs.  ``block_fraction`` of the
    rules get the ``block`` action (deterministically interleaved);
    the rest alert.  Rule ids are zero-padded so lexicographic rule
    order equals generation order (the automaton sorts by rule id).
    """
    if n_rules < 1:
        raise MiddleboxError("need at least one rule")
    rng = Rng(seed, "dpi-ruleset")
    rules: List[Tuple[str, bytes, str]] = []
    seen = set()
    width = max(6, len(str(n_rules)))
    block_every = int(1 / block_fraction) if block_fraction > 0 else 0
    k = 0
    while len(rules) < n_rules:
        if rng.random() < 0.8:
            stem = rng.choice(_STEMS)
            suffix_len = rng.randint(2, 14)
            suffix = bytes(
                rng.choice(_SUFFIX_ALPHABET) for _ in range(suffix_len)
            )
            pattern = stem + suffix
        else:
            pattern = rng.bytes(rng.randint(6, 20))
        if not pattern or pattern in seen:
            continue
        seen.add(pattern)
        action = (
            "block" if block_every and (len(rules) % block_every == block_every - 1)
            else "alert"
        )
        rules.append((f"sig-{len(rules):0{width}d}", pattern, action))
        k += 1
    return rules


def rules_as_tuples(rules) -> List[Tuple[str, bytes, str]]:
    """Normalize DpiRule objects to the (id, pattern, action) wire form."""
    return [
        (rule.rule_id, rule.pattern, rule.action.value) for rule in rules
    ]


def synthesize_traffic(
    ruleset: List[Tuple[str, bytes, str]],
    n_records: int,
    record_len: int = 512,
    hit_rate: float = 0.05,
    seed: object = 0,
) -> List[bytes]:
    """Deterministic record stream for scanning benchmarks.

    Records are printable-ish filler (so the root-skip optimization
    faces realistic, not degenerate, traffic); ``hit_rate`` of them
    get one signature from ``ruleset`` embedded at a seeded offset.
    """
    if n_records < 1:
        raise MiddleboxError("need at least one record")
    rng = Rng(seed, "dpi-traffic")
    filler = bytes(range(0x20, 0x7F))
    records: List[bytes] = []
    for i in range(n_records):
        record = bytearray(
            filler[rng.randint(0, len(filler) - 1)] for _ in range(record_len)
        )
        if rng.random() < hit_rate and ruleset:
            _, pattern, _ = ruleset[rng.randint(0, len(ruleset) - 1)]
            if len(pattern) < record_len:
                at = rng.randint(0, record_len - len(pattern))
                record[at : at + len(pattern)] = pattern
        records.append(bytes(record))
    return records
