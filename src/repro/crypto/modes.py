"""Block-cipher modes of operation: ECB, CBC and CTR.

The paper's prototype used AES-ECB with a 128-bit key for the
attestation-bootstrapped secure channel; we provide ECB for
cost-parity experiments, CBC with PKCS#7 padding, and CTR (the default
for record channels and Tor onion layers because it is a stream and
needs no padding).
"""

from __future__ import annotations

from typing import Any, Optional

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

    The state is ``_counter`` (the next block to draw) and ``_buffer``
    (drawn, unconsumed keystream); the cohort memo reads the stream's
    byte position from them.  When the ``cryptography`` kernel is
    present and caches are on, a refill draws from a kernel CTR
    context, opened lazily at ``_counter`` on the first refill that
    finds none and advanced in step with it.  The context is only a
    cache of that position: :meth:`skip` drops it whenever it moves
    the counter and never opens one, since a skipped stream may not
    refill again.  Without the kernel, the counter blocks go through
    the T-table cipher.  Either way a refill charges
    ``aes_block_normal`` per block, so modeled numbers do not depend
    on the path.
    """

    def __init__(self, key: bytes, nonce: bytes = b"") -> None:
        if len(nonce) > 16:
            raise CryptoError("CTR nonce longer than a block")
        self._cipher = AES(key)
        self._counter = int.from_bytes(nonce.ljust(16, b"\x00"), "big")
        self._buffer = b""
        self._ctx: Optional[Any] = None

    def keystream(self, n: int) -> bytes:
        """The next ``n`` keystream bytes."""
        need = n - len(self._buffer)
        if need > 0:
            # Bulk refill: one call for all missing blocks, with the
            # same per-block model charge as block-at-a-time.
            n_blocks = -(-need // 16)
            ctx = self._ctx
            if ctx is None:
                ctx = self._ctx = self._cipher.ctr_context(self._counter)
            if ctx is None:
                counter = self._counter
                self._buffer += self._cipher.encrypt_blocks(
                    b"".join(
                        ((counter + i) % (1 << 128)).to_bytes(16, "big")
                        for i in range(n_blocks)
                    )
                )
            else:
                model = cost_context.current_model()
                cost_context.charge_normal_repeat(model.aes_block_normal, n_blocks)
                self._buffer += ctx.update(bytes(16 * n_blocks))
            self._counter = (self._counter + n_blocks) % (1 << 128)
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def skip(self, n: int) -> None:
        """Discard the next ``n`` keystream bytes without charging.

        Leaves the stream exactly where ``keystream(n)`` would, but
        computes at most one block: the one the new leftover comes
        from.  A caller that skips owes the model the blocks
        ``keystream(n)`` would have charged (the cohort memo replays
        them in its captured counter deltas).
        """
        if n <= len(self._buffer):
            self._buffer = self._buffer[n:]
            return
        whole, rest = divmod(n - len(self._buffer), 16)
        self._counter = (self._counter + whole) % (1 << 128)
        self._buffer = b""
        self._ctx = None
        if rest:
            with cost_context.use_accountant(None):
                block = self._cipher.encrypt_block(self._counter.to_bytes(16, "big"))
            self._counter = (self._counter + 1) % (1 << 128)
            self._buffer = block[rest:]

    def process(self, data: bytes) -> bytes:
        """XOR ``data`` with the next keystream bytes."""
        return xor_bytes(data, self.keystream(len(data)))
