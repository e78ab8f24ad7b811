"""Message authentication: HMAC-SHA256 and AES-CMAC.

SGX report MACs use 128-bit AES-CMAC keyed with the report key (as in
the real EREPORT/EGETKEY design); record channels use HMAC-SHA256.
Both are implemented from the primitives in this package.
"""

from __future__ import annotations

import hashlib

from repro.cost import context as cost_context
from repro.crypto import cache
from repro.crypto.aes import AES
from repro.crypto.hashes import sha256
from repro.crypto.util import constant_time_equal, xor_bytes
from repro.errors import CryptoError

__all__ = ["hmac_sha256", "hmac_verify", "aes_cmac", "cmac_verify"]

_BLOCK = 64  # SHA-256 block size

#: key -> (inner sha256 context over ipad, outer over opad, hashed key
#: length or None).  The pads are a pure function of the key; caching
#: the half-initialized hash contexts skips re-absorbing 64 pad bytes
#: per direction on every record.  Charges replayed on hits keep the
#: accountant integer-identical to the cold path.
_HMAC_PADS: dict = {}
_HMAC_STATS = cache.register(_HMAC_PADS, "hmac-pads")


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """RFC 2104 HMAC over SHA-256."""
    model = cost_context.current_model()
    cost_context.charge_normal(model.hmac_fixed_normal)
    if cache.enabled():
        entry = _HMAC_PADS.get(key)
        if entry is None:
            _HMAC_STATS.misses += 1
            hashed_len = len(key) if len(key) > _BLOCK else None
            material = sha256(key) if hashed_len is not None else key
            padded = material.ljust(_BLOCK, b"\x00")
            entry = (
                hashlib.sha256(xor_bytes(padded, b"\x36" * _BLOCK)),
                hashlib.sha256(xor_bytes(padded, b"\x5c" * _BLOCK)),
                hashed_len,
            )
            _HMAC_PADS[key] = entry
        else:
            _HMAC_STATS.hits += 1
            if entry[2] is not None:
                cost_context.charge_normal(model.sha256_normal(entry[2]))
        inner = entry[0].copy()
        inner.update(message)
        cost_context.charge_normal(model.sha256_normal(_BLOCK + len(message)))
        outer = entry[1].copy()
        outer.update(inner.digest())
        cost_context.charge_normal(model.sha256_normal(_BLOCK + 32))
        return outer.digest()
    if len(key) > _BLOCK:
        key = sha256(key)
    key = key.ljust(_BLOCK, b"\x00")
    ipad = xor_bytes(key, b"\x36" * _BLOCK)
    opad = xor_bytes(key, b"\x5c" * _BLOCK)
    return sha256(opad + sha256(ipad + message))


def hmac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time HMAC verification."""
    return constant_time_equal(hmac_sha256(key, message), tag)


def _shift_left(data: bytes) -> bytes:
    value = int.from_bytes(data, "big") << 1
    mask = (1 << (8 * len(data))) - 1
    return (value & mask).to_bytes(len(data), "big")


def _cmac_subkeys(cipher: AES) -> tuple:
    zero = cipher.encrypt_block(b"\x00" * 16)
    k1 = _shift_left(zero)
    if zero[0] & 0x80:
        k1 = xor_bytes(k1, b"\x00" * 15 + b"\x87")
    k2 = _shift_left(k1)
    if k1[0] & 0x80:
        k2 = xor_bytes(k2, b"\x00" * 15 + b"\x87")
    return k1, k2


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """NIST SP 800-38B AES-CMAC (128-bit tag)."""
    if len(key) not in (16, 24, 32):
        raise CryptoError("CMAC key must be a valid AES key")
    cipher = AES(key)
    k1, k2 = _cmac_subkeys(cipher)

    if message and len(message) % 16 == 0:
        blocks = [message[i : i + 16] for i in range(0, len(message), 16)]
        blocks[-1] = xor_bytes(blocks[-1], k1)
    else:
        padded = message + b"\x80" + b"\x00" * ((15 - len(message)) % 16)
        blocks = [padded[i : i + 16] for i in range(0, len(padded), 16)]
        blocks[-1] = xor_bytes(blocks[-1], k2)

    state = b"\x00" * 16
    for block in blocks:
        state = cipher.encrypt_block(xor_bytes(state, block))
    return state


def cmac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time CMAC verification."""
    return constant_time_equal(aes_cmac(key, message), tag)
