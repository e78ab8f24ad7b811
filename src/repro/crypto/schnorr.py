"""Schnorr signatures over a MODP group.

Key generation is a single random exponent, so simulated platforms can
mint device keys instantly — which is why the quoting infrastructure
(:mod:`repro.crypto.epid`) builds on Schnorr rather than RSA.  Nonces
are derived deterministically from the key and message (RFC 6979
spirit), keeping the whole library replayable.
"""

from __future__ import annotations

import dataclasses

from repro.cost import context as cost_context
from repro.crypto import cache
from repro.crypto.dh import MODP_1024, DhGroup, gexp
from repro.crypto.drbg import HmacDrbg, Rng
from repro.crypto.hashes import sha256
from repro.crypto.util import bytes_to_int, int_to_bytes
from repro.errors import CryptoError

__all__ = ["SchnorrKeyPair", "SchnorrSignature", "generate_schnorr_keypair", "schnorr_sign", "schnorr_verify"]


@dataclasses.dataclass(frozen=True)
class SchnorrKeyPair:
    """Private exponent x and public value y = g^x mod p."""

    group: DhGroup
    x: int
    y: int


@dataclasses.dataclass(frozen=True)
class SchnorrSignature:
    """(challenge, response) pair."""

    e: int
    s: int

    def encode(self) -> bytes:
        return int_to_bytes(self.e, 32) + int_to_bytes(self.s)

    @classmethod
    def decode(cls, data: bytes) -> "SchnorrSignature":
        if len(data) < 33:
            raise CryptoError("truncated Schnorr signature")
        return cls(e=bytes_to_int(data[:32]), s=bytes_to_int(data[32:]))


def generate_schnorr_keypair(rng: Rng, group: DhGroup = MODP_1024) -> SchnorrKeyPair:
    """Sample a key pair on ``group``."""
    q = (group.p - 1) // 2  # prime-order subgroup for safe primes
    x = rng.randint(2, q - 1)
    cost_context.charge_normal(cost_context.current_model().modexp_normal(group.bits))
    y = gexp(group, x)
    return SchnorrKeyPair(group=group, x=x, y=y)


def _challenge(group: DhGroup, commitment: int, public: int, message: bytes) -> int:
    data = (
        int_to_bytes(group.p)
        + int_to_bytes(commitment, (group.bits + 7) // 8)
        + int_to_bytes(public, (group.bits + 7) // 8)
        + message
    )
    return bytes_to_int(sha256(data))


def schnorr_sign(key: SchnorrKeyPair, message: bytes) -> SchnorrSignature:
    """Sign ``message`` with a deterministic nonce."""
    group = key.group
    q = (group.p - 1) // 2
    model = cost_context.current_model()
    cost_context.charge_normal(model.signature_sign_normal)

    nonce_drbg = HmacDrbg(int_to_bytes(key.x) + sha256(message), b"schnorr-nonce")
    k = (bytes_to_int(nonce_drbg.generate((group.bits + 7) // 8)) % (q - 2)) + 2
    r = gexp(group, k)
    e = _challenge(group, r, key.y, message) % q
    s = (k + key.x * e) % q
    return SchnorrSignature(e=e, s=s)


def _legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime ``p`` — binary Jacobi recurrence."""
    a %= p
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and p & 7 in (3, 5):
            result = -result
        if a & 3 == 3 and p & 3 == 3:
            result = -result
        a, p = p % a, a
    return result if p == 1 else 0


def _commitment(group: DhGroup, public: int, signature: SchnorrSignature) -> int:
    """r' = g^s * y^(q-e) mod p, for 1 < y < p-1 and prime p.

    This is g^(k + xe) * g^(-xe) = g^k when y is in the order-q
    subgroup.  Euler's criterion gives y^q = (y/p), so y^(q-e) =
    (y/p) * (y^e)^-1: the same integer for every y in range, residue or
    not, from a 256-bit exponent instead of a 1023-bit one.
    """
    p = group.p
    y_part = pow(pow(public, signature.e, p), -1, p)
    if _legendre(public, p) < 0:
        y_part = p - y_part
    return gexp(group, signature.s) * y_part % p


@cache.memoize_charged(name="schnorr-verify", maxsize=512)
def schnorr_verify(
    group: DhGroup, public: int, message: bytes, signature: SchnorrSignature
) -> bool:
    """Check a signature against a public value on ``group``."""
    model = cost_context.current_model()
    cost_context.charge_normal(model.signature_verify_normal)
    q = (group.p - 1) // 2
    if not (0 < signature.s < q and 0 <= signature.e < q):
        return False
    if not 1 < public < group.p - 1:
        return False
    r = _commitment(group, public, signature)
    return _challenge(group, r, public, message) % q == signature.e
