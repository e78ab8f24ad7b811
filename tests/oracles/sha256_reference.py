"""A from-scratch pure-Python SHA-256 (FIPS 180-4), frozen as an oracle.

The package hashes through :mod:`hashlib` (:func:`repro.crypto.hashes.sha256`
adds only the modeled cost).  ``tests/crypto/test_hashes_macs_kdf.py``
holds this implementation and the wrapper to the NIST vectors and to
each other on random inputs.  It is a test oracle only: nothing under
``src/`` imports it.
"""

from __future__ import annotations

import struct
from typing import List


def _rotr(value: int, shift: int) -> int:
    return ((value >> shift) | (value << (32 - shift))) & 0xFFFFFFFF


def _initial_constants() -> List[int]:
    # First 32 bits of the fractional parts of the cube roots of the
    # first 64 primes, computed rather than pasted.
    primes = []
    candidate = 2
    while len(primes) < 64:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return [int(((p ** (1.0 / 3.0)) % 1) * (1 << 32)) & 0xFFFFFFFF for p in primes]


_K = _initial_constants()
_H0 = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]


class Sha256:
    """Pure-Python SHA-256."""

    digest_size = 32
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._h = list(_H0)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Sha256":
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & 0xFFFFFFFF)

        a, b, c, d, e, f, g, h = self._h
        for i in range(64):
            big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + big_s1 + ch + _K[i] + w[i]) & 0xFFFFFFFF
            big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (big_s0 + maj) & 0xFFFFFFFF
            h, g, f, e = g, f, e, (d + temp1) & 0xFFFFFFFF
            d, c, b, a = c, b, a, (temp1 + temp2) & 0xFFFFFFFF

        self._h = [
            (x + y) & 0xFFFFFFFF
            for x, y in zip(self._h, (a, b, c, d, e, f, g, h))
        ]

    def digest(self) -> bytes:
        clone = Sha256()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        padding = b"\x80" + b"\x00" * ((55 - clone._length) % 64)
        clone.update(padding + struct.pack(">Q", self._length * 8))
        # After padding the buffer is empty and _h holds the result.
        return struct.pack(">8I", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()
