"""Hashing with cost accounting.

:func:`sha256` is the library-wide entry point: it charges the modeled
instruction cost and uses the C implementation from :mod:`hashlib` for
speed.  A pure-Python SHA-256 (FIPS 180-4) is a test oracle in
``tests/oracles/sha256_reference.py``; the suite holds it, this
wrapper and the NIST vectors to each other.
"""

from __future__ import annotations

import hashlib

from repro.cost import context as cost_context

__all__ = ["sha256", "sha1"]


def sha256(data: bytes) -> bytes:
    """SHA-256 digest with cost accounting."""
    model = cost_context.current_model()
    cost_context.charge_normal(model.sha256_normal(len(data)))
    return hashlib.sha256(data).digest()


def sha1(data: bytes) -> bytes:
    """SHA-1 digest (used by the paper-era Tor cell digests)."""
    model = cost_context.current_model()
    cost_context.charge_normal(model.sha256_normal(len(data)) // 2)
    return hashlib.sha1(data).digest()
