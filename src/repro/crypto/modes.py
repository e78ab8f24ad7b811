"""Block-cipher modes of operation: ECB, CBC and CTR.

The paper's prototype used AES-ECB with a 128-bit key for the
attestation-bootstrapped secure channel; we provide ECB for
cost-parity experiments, CBC with PKCS#7 padding, and CTR (the default
for record channels and Tor onion layers because it is a stream and
needs no padding).
"""

from __future__ import annotations

from repro.cost import context as cost_context
from repro.crypto.aes import AES
from repro.crypto.util import pad_pkcs7, unpad_pkcs7, xor_bytes
from repro.errors import CryptoError

__all__ = ["ecb_encrypt", "ecb_decrypt", "cbc_encrypt", "cbc_decrypt", "CtrStream"]


def ecb_encrypt(cipher: AES, plaintext: bytes) -> bytes:
    """ECB with PKCS#7 padding (matches the paper's channel cipher)."""
    padded = pad_pkcs7(plaintext, cipher.block_size)
    return cipher.encrypt_blocks(padded)


def ecb_decrypt(cipher: AES, ciphertext: bytes) -> bytes:
    """Inverse of :func:`ecb_encrypt`."""
    if len(ciphertext) % 16 != 0:
        raise CryptoError("ECB ciphertext not block aligned")
    return unpad_pkcs7(cipher.decrypt_blocks(ciphertext), cipher.block_size)


def cbc_encrypt(cipher: AES, iv: bytes, plaintext: bytes) -> bytes:
    """CBC with PKCS#7 padding."""
    if len(iv) != 16:
        raise CryptoError("CBC IV must be 16 bytes")
    padded = pad_pkcs7(plaintext, cipher.block_size)
    out = bytearray()
    previous = iv
    for i in range(0, len(padded), 16):
        block = cipher.encrypt_block(xor_bytes(padded[i : i + 16], previous))
        out.extend(block)
        previous = block
    return bytes(out)


def cbc_decrypt(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`cbc_encrypt`."""
    if len(iv) != 16:
        raise CryptoError("CBC IV must be 16 bytes")
    if not ciphertext or len(ciphertext) % 16 != 0:
        raise CryptoError("CBC ciphertext not block aligned")
    out = bytearray()
    previous = iv
    for i in range(0, len(ciphertext), 16):
        block = ciphertext[i : i + 16]
        out.extend(xor_bytes(cipher.decrypt_block(block), previous))
        previous = block
    return unpad_pkcs7(bytes(out), cipher.block_size)


class CtrStream:
    """AES-CTR keystream with a 128-bit counter block.

    CTR is symmetric: :meth:`process` both encrypts and decrypts.  The
    object is stateful (the counter advances across calls), which is
    exactly what Tor's per-hop onion layers need: each relay keeps a
    running AES-CTR context per direction.
    """

    def __init__(self, key: bytes, nonce: bytes = b"") -> None:
        if len(nonce) > 16:
            raise CryptoError("CTR nonce longer than a block")
        self._cipher = AES(key)
        self._counter = int.from_bytes(nonce.ljust(16, b"\x00"), "big")
        self._buffer = b""

    def keystream(self, n: int) -> bytes:
        """The next ``n`` keystream bytes."""
        need = n - len(self._buffer)
        if need > 0:
            # Bulk refill: one kernel call for all missing blocks, with
            # the same per-block model charge as block-at-a-time.
            n_blocks = -(-need // 16)
            self._buffer += self._cipher.ctr_keystream(self._counter, n_blocks)
            self._counter = (self._counter + n_blocks) % (1 << 128)
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def skip(self, n: int) -> None:
        """Discard the next ``n`` keystream bytes without charging.

        Leaves the stream exactly where ``keystream(n)`` would, but
        computes at most one block: the one the new leftover comes
        from.  A caller that skips owes the model the blocks
        ``keystream(n)`` would have charged (the cohort tier replays
        them in its captured burst).
        """
        if n <= len(self._buffer):
            self._buffer = self._buffer[n:]
            return
        whole, rest = divmod(n - len(self._buffer), 16)
        self._counter = (self._counter + whole) % (1 << 128)
        self._buffer = b""
        if rest:
            with cost_context.use_accountant(None):
                block = self._cipher.ctr_keystream(self._counter, 1)
            self._counter = (self._counter + 1) % (1 << 128)
            self._buffer = block[rest:]

    def process(self, data: bytes) -> bytes:
        """XOR ``data`` with the next keystream bytes."""
        return xor_bytes(data, self.keystream(len(data)))
