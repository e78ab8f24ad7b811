"""Public-key material sized to the group's security strength.

DH private exponents are ``2 x strength`` bits (clamped below the
modulus on small generated groups), and ``generate_prime`` sieves its
candidates by gcd before the Miller-Rabin rounds sized for random
candidates of that width.  Each shortcut is held to the full-width
check it replaces.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dh
from repro.crypto.drbg import Rng
from repro.crypto.numtheory import _PRIMORIAL, generate_prime, is_probable_prime

SETTINGS = settings(max_examples=25, deadline=None)

GENERATED = [dh.generate_parameters(64, Rng(5)), dh.generate_parameters(80, Rng(7))]
SHORT_WIDTHS = [(dh.MODP_1024, 160), (dh.MODP_2048, 224)]


class TestShortExponents:
    @pytest.mark.parametrize("group,width", SHORT_WIDTHS, ids=lambda v: getattr(v, "name", v))
    def test_standard_groups_use_twice_the_strength(self, group, width):
        rng = Rng(b"short", group.name)
        privates = [dh.generate_keypair(group, rng).private for _ in range(50)]
        assert all(2 <= x < 2**width for x in privates)
        # The draw is uniform over [2, 2^w): the top bit shows up.
        assert max(privates).bit_length() == width

    @pytest.mark.parametrize("group", GENERATED, ids=lambda g: g.name)
    def test_generated_groups_stay_inside_the_group(self, group):
        rng = Rng(b"clamp", group.name)
        for _ in range(50):
            x = dh.generate_keypair(group, rng).private
            assert 2 <= x <= group.p - 2
            assert x.bit_length() <= group.p.bit_length() - 2

    @pytest.mark.parametrize(
        "group", [dh.MODP_1024, dh.MODP_2048] + GENERATED, ids=lambda g: g.name
    )
    @SETTINGS
    @given(seed=st.binary(min_size=1, max_size=16))
    def test_exchange_agrees(self, group, seed):
        rng = Rng(seed)
        alice = dh.generate_keypair(group, rng)
        bob = dh.generate_keypair(group, rng)
        assert alice.public == pow(group.g, alice.private, group.p)
        assert dh.shared_secret(alice, bob.public) == dh.shared_secret(
            bob, alice.public
        )

    @pytest.mark.parametrize("group,width", SHORT_WIDTHS, ids=lambda v: getattr(v, "name", v))
    @SETTINGS
    @given(data=st.data())
    def test_gexp_matches_pow_on_short_exponents(self, group, width, data):
        x = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        assert dh.gexp(group, x) == pow(group.g, x, group.p)


class TestSievedPrimes:
    @pytest.mark.parametrize(
        "bits", [8, 11, 12, 13, 16, 32, 64, 99, 100, 128, 250, 256, 300, 512]
    )
    def test_exact_width_and_prime_under_full_rounds(self, bits):
        rng = Rng(b"prime", str(bits))
        for _ in range(3):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p, Rng(b"check", str(p)))

    def test_primorial_covers_every_odd_prime_below_2048(self):
        rng = Rng(b"primorial")
        odd_primes = [n for n in range(3, 2048, 2) if is_probable_prime(n, rng)]
        assert math.prod(odd_primes) == _PRIMORIAL

    @SETTINGS
    @given(start=st.integers(min_value=2049, max_value=2**256))
    def test_sieve_never_rejects_a_prime_above_2048(self, start):
        rng = Rng(b"next-prime", str(start))
        p = start | 1
        while not is_probable_prime(p, rng):
            p += 2
        assert math.gcd(p, _PRIMORIAL) == 1
