"""AES (FIPS-197) implemented from scratch.

This replaces the polarssl AES the paper's prototype linked against.
The S-box is derived programmatically (GF(2^8) inversion followed by
the affine transform) rather than pasted as a literal, and encryption
uses precomputed T-tables for speed; decryption follows the textbook
inverse cipher.  Correctness is pinned to the FIPS-197 and NIST SP
800-38A vectors in the test suite.

Cost accounting: each block operation charges the calibrated
``aes_block_normal`` instruction cost, and each key schedule charges
``cipher_init_normal`` (see :mod:`repro.cost.model` for how these were
derived from the paper's Table 2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cost import context as cost_context
from repro.crypto import cache
from repro.errors import CryptoError

__all__ = ["AES", "SBOX", "INV_SBOX", "key_schedule_stats"]


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> Tuple[List[int], List[int]]:
    # Multiplicative inverses via exponentiation tables on generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6}
        # ^ b_{i+7} ^ c_i (indices mod 8, c = 0x63), equivalently
        # s = inv ^ rotl(inv,1) ^ rotl(inv,2) ^ rotl(inv,3) ^ rotl(inv,4) ^ c.
        s = inv
        for shift in (1, 2, 3, 4):
            s ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        s ^= 0x63
        sbox[value] = s
        inv_sbox[s] = value
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))


def _build_enc_tables() -> Tuple[List[int], ...]:
    te0 = [0] * 256
    for value in range(256):
        s = SBOX[value]
        s2 = _gf_mul(s, 2)
        s3 = s2 ^ s
        te0[value] = (s2 << 24) | (s << 16) | (s << 8) | s3
    te1 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in te0]
    te2 = [((w >> 16) | ((w & 0xFFFF) << 16)) & 0xFFFFFFFF for w in te0]
    te3 = [((w >> 24) | ((w & 0xFFFFFF) << 8)) & 0xFFFFFFFF for w in te0]
    return te0, te1, te2, te3


_TE0, _TE1, _TE2, _TE3 = _build_enc_tables()


#: key bytes -> (round keys, optional fast-kernel (enc, dec, CTR opener)).
#: The key schedule is a pure function of the key, so every cipher
#: instance for the same key shares one expansion; the modeled
#: ``cipher_init_normal`` charge is still paid per instance, exactly as
#: on the cold path — the cache is wall-clock only.
_SCHEDULES: Dict[bytes, Tuple[List[int], Optional[Tuple[Any, Any, Any]]]] = {}
_SCHEDULE_STATS = cache.register(_SCHEDULES, "aes-key-schedule")


def key_schedule_stats() -> Dict[str, int]:
    """Hit/miss counters for the key-schedule cache (regression tests)."""
    return _SCHEDULE_STATS.as_dict()


class AES:
    """AES block cipher with 128-, 192- or 256-bit keys."""

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"invalid AES key length {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._fast: Optional[Tuple[Any, Any, Any]] = None
        if cache.enabled():
            entry = _SCHEDULES.get(key)
            if entry is None:
                _SCHEDULE_STATS.misses += 1
                entry = (self._expand_key(key), cache.fast_aes_factory(key))
                _SCHEDULES[key] = entry
            else:
                _SCHEDULE_STATS.hits += 1
            self._round_keys, self._fast = entry
        else:
            self._round_keys = self._expand_key(key)
        model = cost_context.current_model()
        cost_context.charge_normal(model.cipher_init_normal)

    # -- key schedule --------------------------------------------------

    def _expand_key(self, key: bytes) -> List[int]:
        nk = len(key) // 4
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        total = 4 * (self.rounds + 1)
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    # -- block operations ----------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (T-table or C-kernel path)."""
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        cost_context.charge_normal(cost_context.current_model().aes_block_normal)
        if self._fast is not None:
            return self._fast[0].update(block)
        return self._encrypt_block_raw(block)

    def ctr_context(self, counter: int) -> Optional[Any]:
        """A kernel CTR encryptor positioned at ``counter``, or ``None``.

        ``None`` on the T-table path (no kernel, or a cipher built
        under ``cache.disabled()``).  Opening charges nothing: the
        caller charges each block it draws, as :meth:`encrypt_blocks`
        does.
        """
        if self._fast is None:
            return None
        return self._fast[2](counter)

    def encrypt_blocks(self, data: bytes) -> bytes:
        """ECB over ``data`` (block-aligned), one kernel call when fast."""
        if len(data) % 16 != 0:
            raise CryptoError("AES bulk input not block aligned")
        n_blocks = len(data) // 16
        model = cost_context.current_model()
        cost_context.charge_normal_repeat(model.aes_block_normal, n_blocks)
        if self._fast is not None:
            return self._fast[0].update(data)
        return b"".join(
            self._encrypt_block_raw(data[i : i + 16])
            for i in range(0, len(data), 16)
        )

    def _encrypt_block_raw(self, block: bytes) -> bytes:
        """The from-scratch T-table cipher (no charging, no kernel)."""
        rk = self._round_keys
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]

        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        k = 4
        for _ in range(self.rounds - 1):
            t0 = (
                te0[(s0 >> 24) & 0xFF]
                ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF]
                ^ te3[s3 & 0xFF]
                ^ rk[k]
            )
            t1 = (
                te0[(s1 >> 24) & 0xFF]
                ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF]
                ^ te3[s0 & 0xFF]
                ^ rk[k + 1]
            )
            t2 = (
                te0[(s2 >> 24) & 0xFF]
                ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF]
                ^ te3[s1 & 0xFF]
                ^ rk[k + 2]
            )
            t3 = (
                te0[(s3 >> 24) & 0xFF]
                ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF]
                ^ te3[s2 & 0xFF]
                ^ rk[k + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4

        sbox = SBOX
        out0 = (
            (sbox[(s0 >> 24) & 0xFF] << 24)
            | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8)
            | sbox[s3 & 0xFF]
        ) ^ rk[k]
        out1 = (
            (sbox[(s1 >> 24) & 0xFF] << 24)
            | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8)
            | sbox[s0 & 0xFF]
        ) ^ rk[k + 1]
        out2 = (
            (sbox[(s2 >> 24) & 0xFF] << 24)
            | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8)
            | sbox[s1 & 0xFF]
        ) ^ rk[k + 2]
        out3 = (
            (sbox[(s3 >> 24) & 0xFF] << 24)
            | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8)
            | sbox[s2 & 0xFF]
        ) ^ rk[k + 3]
        return b"".join(
            (w & 0xFFFFFFFF).to_bytes(4, "big") for w in (out0, out1, out2, out3)
        )

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Inverse of :meth:`encrypt_blocks` (block-aligned input)."""
        if len(data) % 16 != 0:
            raise CryptoError("AES bulk input not block aligned")
        n_blocks = len(data) // 16
        model = cost_context.current_model()
        cost_context.charge_normal_repeat(model.aes_block_normal, n_blocks)
        if self._fast is not None:
            return self._fast[1].update(data)
        return b"".join(
            self._decrypt_block_raw(data[i : i + 16])
            for i in range(0, len(data), 16)
        )

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block (textbook inverse cipher)."""
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        cost_context.charge_normal(cost_context.current_model().aes_block_normal)
        if self._fast is not None:
            return self._fast[1].update(block)
        return self._decrypt_block_raw(block)

    def _decrypt_block_raw(self, block: bytes) -> bytes:
        """The textbook inverse cipher (no charging, no kernel)."""
        # State is column-major: state[r][c] = block[4*c + r].
        state = [[block[4 * c + r] for c in range(4)] for r in range(4)]
        self._add_round_key(state, self.rounds)
        for round_index in range(self.rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, round_index)
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, 0)
        return bytes(state[r][c] for c in range(4) for r in range(4))

    # -- inverse-cipher helpers -----------------------------------------

    def _add_round_key(self, state: List[List[int]], round_index: int) -> None:
        for c in range(4):
            word = self._round_keys[4 * round_index + c]
            state[0][c] ^= (word >> 24) & 0xFF
            state[1][c] ^= (word >> 16) & 0xFF
            state[2][c] ^= (word >> 8) & 0xFF
            state[3][c] ^= word & 0xFF

    @staticmethod
    def _inv_sub_bytes(state: List[List[int]]) -> None:
        for r in range(4):
            for c in range(4):
                state[r][c] = INV_SBOX[state[r][c]]

    @staticmethod
    def _inv_shift_rows(state: List[List[int]]) -> None:
        for r in range(1, 4):
            state[r] = state[r][-r:] + state[r][:-r]

    @staticmethod
    def _inv_mix_columns(state: List[List[int]]) -> None:
        for c in range(4):
            a0, a1, a2, a3 = (state[r][c] for r in range(4))
            state[0][c] = (
                _gf_mul(a0, 14) ^ _gf_mul(a1, 11) ^ _gf_mul(a2, 13) ^ _gf_mul(a3, 9)
            )
            state[1][c] = (
                _gf_mul(a0, 9) ^ _gf_mul(a1, 14) ^ _gf_mul(a2, 11) ^ _gf_mul(a3, 13)
            )
            state[2][c] = (
                _gf_mul(a0, 13) ^ _gf_mul(a1, 9) ^ _gf_mul(a2, 14) ^ _gf_mul(a3, 11)
            )
            state[3][c] = (
                _gf_mul(a0, 11) ^ _gf_mul(a1, 13) ^ _gf_mul(a2, 9) ^ _gf_mul(a3, 14)
            )
