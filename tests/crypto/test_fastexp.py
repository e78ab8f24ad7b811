"""Fixed-base exponentiation, the short-exponent Schnorr commitment and
the integer ``xor_bytes``: each is held to the plain formula it replaces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import cache, dh
from repro.crypto.drbg import Rng
from repro.crypto.schnorr import (
    SchnorrSignature,
    _commitment,
    _legendre,
    generate_schnorr_keypair,
    schnorr_sign,
)
from repro.crypto.util import xor_bytes
from repro.errors import CryptoError

SETTINGS = settings(max_examples=30, deadline=None)

#: A generated safe-prime group (p = 2q + 1, g = 4), built once.
SMALL = dh.generate_parameters(64, Rng(5))
GROUPS = [dh.MODP_1024, dh.MODP_2048, SMALL]


def edge_exponents(group):
    p = group.p
    q = (p - 1) // 2
    return [0, 1, q - 1, p - 2, 2**group.bits - 1]


def old_commitment(group, public, signature):
    """The two-``pow`` formula schnorr_verify used before."""
    q = (group.p - 1) // 2
    return (
        pow(group.g, signature.s, group.p) * pow(public, q - signature.e, group.p)
    ) % group.p


class TestGexp:
    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
    def test_edge_exponents_match_pow(self, group):
        for x in edge_exponents(group):
            assert dh.gexp(group, x) == pow(group.g, x, group.p)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
    @SETTINGS
    @given(data=st.data())
    def test_random_exponents_match_pow(self, group, data):
        x = data.draw(st.integers(min_value=0, max_value=2**group.bits - 1))
        assert dh.gexp(group, x) == pow(group.g, x, group.p)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
    def test_out_of_range_exponents_rejected(self, group):
        with pytest.raises(CryptoError):
            dh.gexp(group, -1)
        with pytest.raises(CryptoError):
            dh.gexp(group, 2**group.bits)

    def test_one_table_per_group_value(self):
        dh._generator_table.cache_clear()
        renamed = dh.DhGroup(
            p=dh.MODP_1024.p, g=dh.MODP_1024.g, bits=dh.MODP_1024.bits,
            name="custom",
        )
        assert dh.gexp(dh.MODP_1024, 12345) == dh.gexp(renamed, 12345)
        assert dh._generator_table.cache_info().currsize == 1
        # Public group constants, not a registered crypto cache.
        cache.clear_all()
        assert dh._generator_table.cache_info().currsize == 1


class TestShortExponentCommitment:
    def test_legendre_matches_euler_criterion(self):
        p = dh.MODP_1024.p
        q = (p - 1) // 2
        for y in (2, 3, 5, p - 1, p - 2, 12345678901234567890):
            euler = pow(y, q, p)
            assert _legendre(y, p) == (1 if euler == 1 else -1)

    @pytest.mark.parametrize("group", [dh.MODP_1024, SMALL], ids=lambda g: g.name)
    def test_matches_old_formula_for_residues_and_non_residues(self, group):
        p = group.p
        q = (p - 1) // 2
        key = generate_schnorr_keypair(Rng(b"commit"), group)
        signature = schnorr_sign(key, b"m")
        publics = [key.y, 2, 3, p - 2, p // 3]
        symbols = {_legendre(y, p) for y in publics}
        assert symbols == {1, -1}, "both residues and non-residues are covered"
        signatures = [
            signature,
            SchnorrSignature(e=0, s=1),
            SchnorrSignature(e=q - 1, s=q - 1),
        ]
        for public in publics:
            for sig in signatures:
                expected = old_commitment(group, public, sig)
                assert _commitment(group, public, sig) == expected

    @SETTINGS
    @given(
        public=st.integers(min_value=2, max_value=dh.MODP_1024.p - 2),
        e=st.integers(min_value=0, max_value=2**256 - 1),
        s=st.integers(min_value=1, max_value=(dh.MODP_1024.p - 1) // 2 - 1),
    )
    def test_random_publics_match_old_formula(self, public, e, s):
        sig = SchnorrSignature(e=e, s=s)
        assert _commitment(dh.MODP_1024, public, sig) == old_commitment(
            dh.MODP_1024, public, sig
        )


def xor_oracle(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


class TestXorBytes:
    @pytest.mark.parametrize("length", [0, 1, 16, 1500])
    def test_matches_bytewise_oracle(self, length):
        rng = Rng(length)
        a = rng.bytes(length)
        b = rng.bytes(length)
        assert xor_bytes(a, b) == xor_oracle(a, b)
        assert len(xor_bytes(a, b)) == length

    @SETTINGS
    @given(data=st.data())
    def test_random_inputs_match_oracle(self, data):
        a = data.draw(st.binary(max_size=256))
        b = data.draw(st.binary(min_size=len(a), max_size=len(a)))
        assert xor_bytes(a, b) == xor_oracle(a, b)

    def test_length_mismatch_raises(self):
        with pytest.raises(CryptoError):
            xor_bytes(b"ab", b"abc")
