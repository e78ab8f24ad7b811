"""SHA-256 / HMAC / CMAC / HKDF vectors and properties."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashes import sha1, sha256
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract
from repro.crypto.mac import aes_cmac, cmac_verify, hmac_sha256, hmac_verify

import pytest

from repro.errors import CryptoError
from tests.oracles.sha256_reference import Sha256


class TestSha256Reference:
    def test_empty(self):
        assert (
            Sha256().hexdigest()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert (
            Sha256(b"abc").hexdigest()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert (
            Sha256(msg).hexdigest()
            == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_incremental_update_equals_oneshot(self):
        h = Sha256()
        h.update(b"hello ").update(b"world")
        assert h.digest() == Sha256(b"hello world").digest()

    def test_digest_does_not_mutate_state(self):
        h = Sha256(b"abc")
        first = h.digest()
        assert h.digest() == first

    def test_boundary_lengths_match_hashlib(self):
        for size in (55, 56, 57, 63, 64, 65, 119, 120, 128):
            data = bytes(range(256))[:size] if size <= 256 else b"x" * size
            data = (b"0123456789" * 20)[:size]
            assert Sha256(data).digest() == hashlib.sha256(data).digest()


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=300))
def test_property_pure_sha256_matches_hashlib(data):
    assert Sha256(data).digest() == hashlib.sha256(data).digest()


class TestFastWrappers:
    def test_sha256_wrapper_matches_hashlib(self):
        assert sha256(b"abc") == hashlib.sha256(b"abc").digest()

    def test_sha1_wrapper_matches_hashlib(self):
        assert sha1(b"abc") == hashlib.sha1(b"abc").digest()


class TestHmac:
    def test_rfc4231_case1(self):
        tag = hmac_sha256(b"\x0b" * 20, b"Hi There")
        assert tag.hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_rfc4231_case2(self):
        tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert tag.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_long_key_is_hashed(self):
        # RFC 4231 test case 6: 131-byte key.
        tag = hmac_sha256(b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First")
        assert tag.hex() == (
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        )

    def test_verify_accepts_and_rejects(self):
        tag = hmac_sha256(b"key", b"msg")
        assert hmac_verify(b"key", b"msg", tag)
        assert not hmac_verify(b"key", b"msg2", tag)
        assert not hmac_verify(b"key2", b"msg", tag)


class TestCmac:
    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

    def test_rfc4493_empty(self):
        assert aes_cmac(self.KEY, b"").hex() == (
            "bb1d6929e95937287fa37d129b756746"
        )

    def test_rfc4493_one_block(self):
        msg = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert aes_cmac(self.KEY, msg).hex() == (
            "070a16b46b4d4144f79bdd9dd04a287c"
        )

    def test_rfc4493_40_bytes(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411"
        )
        assert aes_cmac(self.KEY, msg).hex() == (
            "dfa66747de9ae63030ca32611497c827"
        )

    def test_cmac_verify(self):
        tag = aes_cmac(self.KEY, b"report body")
        assert cmac_verify(self.KEY, b"report body", tag)
        assert not cmac_verify(self.KEY, b"forged body", tag)

    def test_rejects_bad_key(self):
        with pytest.raises(CryptoError):
            aes_cmac(b"short", b"msg")


class TestHkdf:
    def test_rfc5869_case1(self):
        ikm = b"\x0b" * 22
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_oneshot_matches_extract_expand(self):
        assert hkdf(b"secret", b"salt", b"info", 64) == hkdf_expand(
            hkdf_extract(b"salt", b"secret"), b"info", 64
        )

    def test_length_zero(self):
        assert hkdf(b"x", length=0) == b""

    def test_rejects_too_long(self):
        with pytest.raises(CryptoError):
            hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)

    def test_distinct_info_distinct_keys(self):
        assert hkdf(b"s", info=b"client") != hkdf(b"s", info=b"server")


@settings(max_examples=25, deadline=None)
@given(key=st.binary(max_size=80), msg=st.binary(max_size=200))
def test_property_hmac_matches_stdlib(key, msg):
    import hmac as stdlib_hmac

    assert hmac_sha256(key, msg) == stdlib_hmac.new(key, msg, hashlib.sha256).digest()
