"""AES correctness: FIPS-197 / SP 800-38A vectors plus properties."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES, INV_SBOX, SBOX
from repro.crypto.modes import (
    CtrStream,
    cbc_decrypt,
    cbc_encrypt,
    ecb_decrypt,
    ecb_encrypt,
)
from repro.errors import CryptoError


class TestSboxConstruction:
    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_inverse_sbox_is_inverse(self):
        assert all(INV_SBOX[SBOX[i]] == i for i in range(256))

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))


class TestFips197Vectors:
    """Appendix C of FIPS-197."""

    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(self.PLAINTEXT) == expected

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(self.PLAINTEXT) == expected

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(self.PLAINTEXT) == expected

    def test_decrypt_inverts_each_key_size(self):
        for key_len in (16, 24, 32):
            key = bytes(range(key_len))
            cipher = AES(key)
            ct = cipher.encrypt_block(self.PLAINTEXT)
            assert cipher.decrypt_block(ct) == self.PLAINTEXT


class TestSp80038aVectors:
    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    BLOCK1 = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")

    def test_ecb_block(self):
        expected = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")
        assert AES(self.KEY).encrypt_block(self.BLOCK1) == expected

    def test_cbc_first_block(self):
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex("7649abac8119b246cee98e9b12e9197d")
        ct = cbc_encrypt(AES(self.KEY), iv, self.BLOCK1)
        assert ct[:16] == expected

    def test_ctr_first_block(self):
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        expected = bytes.fromhex("874d6191b620e3261bef6864990db6ce")
        stream = CtrStream(self.KEY, counter)
        assert stream.process(self.BLOCK1) == expected


class TestAesApi:
    def test_rejects_bad_key_length(self):
        with pytest.raises(CryptoError):
            AES(b"short")

    def test_rejects_bad_block_length(self):
        cipher = AES(b"\x00" * 16)
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"\x00" * 15)
        with pytest.raises(CryptoError):
            cipher.decrypt_block(b"\x00" * 17)


class TestModes:
    KEY = b"0123456789abcdef"

    def test_ecb_roundtrip_unaligned(self):
        cipher = AES(self.KEY)
        for size in (0, 1, 15, 16, 17, 100):
            data = bytes(range(size % 256))[:size].ljust(size, b"x")
            assert ecb_decrypt(cipher, ecb_encrypt(cipher, data)) == data

    def test_ecb_reveals_equal_blocks(self):
        # The classic ECB weakness -- the paper's channel used ECB; we
        # document the property.
        cipher = AES(self.KEY)
        ct = ecb_encrypt(cipher, b"A" * 16 + b"A" * 16)
        assert ct[:16] == ct[16:32]

    def test_cbc_roundtrip(self):
        cipher = AES(self.KEY)
        iv = b"\x01" * 16
        data = b"attack at dawn" * 5
        assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, data)) == data

    def test_cbc_hides_equal_blocks(self):
        cipher = AES(self.KEY)
        ct = cbc_encrypt(cipher, b"\x07" * 16, b"A" * 32)
        assert ct[:16] != ct[16:32]

    def test_cbc_rejects_bad_iv(self):
        with pytest.raises(CryptoError):
            cbc_encrypt(AES(self.KEY), b"short", b"data")

    def test_cbc_decrypt_rejects_corrupt_padding(self):
        cipher = AES(self.KEY)
        ct = bytearray(cbc_encrypt(cipher, b"\x00" * 16, b"hello"))
        ct[-1] ^= 0xFF
        with pytest.raises(CryptoError):
            cbc_decrypt(cipher, b"\x00" * 16, bytes(ct))

    def test_ctr_is_symmetric(self):
        data = b"stream cipher mode" * 3
        enc = CtrStream(self.KEY, b"\x00" * 8)
        dec = CtrStream(self.KEY, b"\x00" * 8)
        assert dec.process(enc.process(data)) == data

    def test_ctr_state_advances_across_calls(self):
        a = CtrStream(self.KEY)
        b = CtrStream(self.KEY)
        joined = a.process(b"x" * 40)
        split = b.process(b"x" * 13) + b.process(b"x" * 27)
        assert joined == split

    def test_ctr_counter_wraps(self):
        stream = CtrStream(self.KEY, b"\xff" * 16)
        stream.keystream(32)  # crossing the wrap must not raise

    def test_ctr_rejects_long_nonce(self):
        with pytest.raises(CryptoError):
            CtrStream(self.KEY, b"\x00" * 17)


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), data=st.binary(min_size=16, max_size=16))
def test_property_block_roundtrip(key, data):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(data)) == data


@settings(max_examples=20, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), data=st.binary(max_size=200))
def test_property_ctr_roundtrip(key, data):
    assert CtrStream(key).process(CtrStream(key).process(data)) == data


@settings(max_examples=20, deadline=None)
@given(data=st.binary(max_size=100))
def test_property_ecb_roundtrip(data):
    cipher = AES(b"k" * 16)
    assert ecb_decrypt(cipher, ecb_encrypt(cipher, data)) == data


@settings(max_examples=60, deadline=None)
@given(
    prefix=st.integers(min_value=0, max_value=40),
    n=st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=6).map(lambda k: 16 * k),
        st.integers(min_value=0, max_value=120),
    ),
    m=st.integers(min_value=0, max_value=80),
)
def test_property_ctr_skip_matches_keystream(prefix, n, m):
    """``skip(n)`` lands where ``keystream(n)`` does and charges nothing.

    ``prefix`` sets the leftover ``n`` starts from, so the draws cover
    ``n`` inside the leftover, ``n`` a whole number of blocks and
    ``n = 0``.
    """
    from repro.cost import context as cost_context
    from repro.cost.accountant import CostAccountant

    key = b"skip-test-key-16"
    skipped, drawn = CtrStream(key), CtrStream(key)
    skipped.keystream(prefix)
    drawn.keystream(prefix)
    acct = CostAccountant()
    with cost_context.use_accountant(acct):
        skipped.skip(n)
    assert not any(acct.total().as_dict().values())
    assert skipped.keystream(m) == drawn.keystream(n + m)[n:]
    assert skipped._counter == drawn._counter
    assert skipped._buffer == drawn._buffer
