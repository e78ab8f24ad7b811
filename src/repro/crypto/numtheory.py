"""Number-theoretic primitives for the public-key code.

Miller-Rabin primality testing, deterministic prime generation from a
DRBG, extended Euclid, and modular inverse.  Everything here is
deterministic given the caller's :class:`~repro.crypto.drbg.Rng`.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.crypto.drbg import Rng
from repro.errors import CryptoError

__all__ = ["is_probable_prime", "generate_prime", "egcd", "modinv"]

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]

# Product of the odd primes below 2048: one gcd against it rejects about
# 85% of random odd candidates before any Miller-Rabin round.
_SIEVE_LIMIT = 2048
_PRIMORIAL = math.prod(
    n for n in range(3, _SIEVE_LIMIT, 2)
    if all(n % d for d in range(3, math.isqrt(n) + 1, 2))
)

# Damgard-Landrock-Pomerance (HAC Table 4.4): Miller-Rabin rounds that
# keep the error on a *random* candidate of at least k bits below 2^-80.
# The bound does not hold for adversarial inputs, so values received
# from peers go through is_probable_prime's 40-round default instead.
_RANDOM_CANDIDATE_ROUNDS = (
    (1300, 2), (850, 3), (650, 4), (550, 5), (450, 6), (400, 7),
    (350, 8), (300, 9), (250, 12), (200, 15), (150, 18), (100, 27),
)


def is_probable_prime(n: int, rng: Rng, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: Rng) -> int:
    """A random probable prime of exactly ``bits`` bits.

    Candidates sharing a factor with an odd prime below 2048 are
    rejected by one gcd; survivors get the Miller-Rabin round count
    that bounds the error on a random ``bits``-bit candidate by 2^-80.
    """
    if bits < 8:
        raise CryptoError("prime size too small")
    # A narrower candidate could itself be one of the sieving primes.
    sieve = 1 << (bits - 1) >= _SIEVE_LIMIT
    rounds = next((t for k, t in _RANDOM_CANDIDATE_ROUNDS if bits >= k), 40)
    while True:
        candidate = rng.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # exact width, odd
        if sieve and math.gcd(candidate, _PRIMORIAL) != 1:
            continue
        if is_probable_prime(candidate, rng, rounds):
            return candidate


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m``."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise CryptoError("modular inverse does not exist")
    return x % m
