"""Small shared helpers for the crypto package."""

from __future__ import annotations

import hmac as _hmac

from repro.errors import CryptoError


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise CryptoError(f"xor_bytes length mismatch: {len(a)} != {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (delegates to the stdlib primitive)."""
    return _hmac.compare_digest(a, b)


def int_to_bytes(value: int, length: int = 0) -> bytes:
    """Big-endian encoding; ``length`` 0 means minimal width (1 for zero)."""
    if value < 0:
        raise CryptoError("cannot encode negative integer")
    if length == 0:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Big-endian decoding."""
    return int.from_bytes(data, "big")


def pad_pkcs7(data: bytes, block_size: int = 16) -> bytes:
    """PKCS#7 padding to a whole number of blocks."""
    if not 1 <= block_size <= 255:
        raise CryptoError("block size must be in [1, 255]")
    pad = block_size - (len(data) % block_size)
    return data + bytes([pad]) * pad

def unpad_pkcs7(data: bytes, block_size: int = 16) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_size != 0:
        raise CryptoError("invalid padded length")
    pad = data[-1]
    if pad < 1 or pad > block_size or data[-pad:] != bytes([pad]) * pad:
        raise CryptoError("invalid PKCS#7 padding")
    return data[:-pad]
