"""Today's HMAC-DRBG and ``Rng``, frozen as the arrival stream's oracle.

Every seeded component in the package draws from
:class:`repro.crypto.drbg.HmacDrbg`, so a faster generator must be
bit-identical to this one.  This module keeps the implementation
verbatim so ``tests/crypto/test_drbg_oracle.py`` can demand equal
output from the shipped classes over random seeds, personalization
strings, reseeds, forks, ``randint`` ranges and ``generate(n)``
lengths.  It is a test oracle only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import List, MutableSequence, Sequence, TypeVar

from repro.errors import CryptoError

T = TypeVar("T")


class HmacDrbg:
    """HMAC-SHA256 deterministic random bit generator."""

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        if not isinstance(seed, (bytes, bytearray)):
            raise CryptoError("seed must be bytes")
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._keyed_for: bytes = b""
        self._keyed = hmac.new(b"", digestmod=hashlib.sha256)
        self._update(bytes(seed) + personalization)

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        # Each key is reused for several consecutive HMACs (the stream
        # step and the update rekey), so keying once and copying the
        # primed object skips the per-call key schedule — a pure
        # speedup, bit-identical output.  Million-event load streams
        # draw from here four times per event; this is their hot path.
        if key is not self._keyed_for:
            self._keyed = hmac.new(key, digestmod=hashlib.sha256)
            self._keyed_for = key
        h = self._keyed.copy()
        h.update(data)
        return h.digest()

    def _update(self, provided: bytes = b"") -> None:
        self._key = self._hmac(self._key, self._value + b"\x00" + provided)
        self._value = self._hmac(self._key, self._value)
        if provided:
            self._key = self._hmac(self._key, self._value + b"\x01" + provided)
            self._value = self._hmac(self._key, self._value)

    def generate(self, n_bytes: int) -> bytes:
        """Return ``n_bytes`` of deterministic pseudo-random output."""
        if n_bytes < 0:
            raise CryptoError("cannot generate a negative number of bytes")
        out = bytearray()
        while len(out) < n_bytes:
            self._value = self._hmac(self._key, self._value)
            out.extend(self._value)
        self._update()
        return bytes(out[:n_bytes])

    def reseed(self, seed: bytes) -> None:
        """Mix fresh entropy into the generator state."""
        self._update(bytes(seed))


class Rng:
    """Convenience random API (ints, choices, shuffles) over HMAC-DRBG.

    The interface mirrors the parts of :mod:`random` that the library
    uses, so call sites read naturally while remaining deterministic.
    """

    def __init__(self, seed: object, label: str = "") -> None:
        material = repr(seed).encode() if not isinstance(seed, bytes) else seed
        self._drbg = HmacDrbg(material, label.encode())

    def bytes(self, n: int) -> bytes:
        """``n`` pseudo-random bytes."""
        return self._drbg.generate(n)

    def randbits(self, bits: int) -> int:
        """Uniform integer in ``[0, 2**bits)``."""
        if bits <= 0:
            raise CryptoError("bits must be positive")
        n_bytes = (bits + 7) // 8
        value = int.from_bytes(self._drbg.generate(n_bytes), "big")
        return value >> (n_bytes * 8 - bits)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise CryptoError(f"empty range [{low}, {high}]")
        span = high - low + 1
        bits = span.bit_length()
        while True:  # rejection sampling for uniformity
            candidate = self.randbits(bits)
            if candidate < span:
                return low + candidate

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` (53 bits of precision)."""
        return self.randbits(53) / (1 << 53)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        if not seq:
            raise CryptoError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """``k`` distinct elements, order randomized."""
        if k > len(seq):
            raise CryptoError("sample larger than population")
        pool = list(seq)
        out: List[T] = []
        for _ in range(k):
            idx = self.randint(0, len(pool) - 1)
            out.append(pool.pop(idx))
        return out

    def shuffle(self, seq: MutableSequence[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]

    def fork(self, label: str) -> "Rng":
        """Derive an independent child generator (stable per label)."""
        return Rng(self._drbg.generate(32), label)
