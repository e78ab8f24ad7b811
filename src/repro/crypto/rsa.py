"""RSA key generation and signatures (PKCS#1 v1.5 style, SHA-256).

Used for SIGSTRUCT signing (the enclave author's key, which defines
MRSIGNER) and for the software-identity certificates the Tor
foundation / inter-domain-routing federation publish in the paper's
Section 4 "shared code" model.
"""

from __future__ import annotations

import dataclasses

from repro.cost import context as cost_context
from repro.crypto.drbg import Rng
from repro.crypto.hashes import sha256
from repro.crypto.numtheory import generate_prime, modinv
from repro.crypto.util import bytes_to_int, int_to_bytes
from repro.errors import CryptoError

__all__ = ["RsaPublicKey", "RsaPrivateKey", "generate_rsa_keypair", "rsa_sign", "rsa_verify"]

# DigestInfo prefix for SHA-256 (RFC 8017, Appendix A.2.4).
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")


@dataclasses.dataclass(frozen=True)
class RsaPublicKey:
    """Modulus and public exponent."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> bytes:
        """SHA-256 over the encoded key; used as a signer identity."""
        return sha256(int_to_bytes(self.n) + int_to_bytes(self.e))


@dataclasses.dataclass(frozen=True)
class RsaPrivateKey:
    """Full private key.

    ``rsa_sign`` exponentiates by ``d`` modulo ``n``; ``p`` and ``q``
    are kept, but nothing uses them (there is no CRT path).
    """

    n: int
    e: int
    d: int
    p: int
    q: int

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)


def generate_rsa_keypair(bits: int, rng: Rng, e: int = 65537) -> RsaPrivateKey:
    """Generate an RSA key of ``bits`` modulus size.

    Both primes come from :func:`~repro.crypto.numtheory.generate_prime`:
    a gcd sieve against the odd primes below 2048, then the Miller-Rabin
    round count for random candidates of that width (12 rounds for the
    256-bit primes of the 512-bit keys every scenario uses).  Key
    generation is uncharged set-up work, so only wall-clock time depends
    on it.
    """
    if bits < 64 or bits % 2:
        raise CryptoError("RSA modulus size must be even and >= 64 bits")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if n.bit_length() != bits or phi % e == 0:
            continue
        try:
            d = modinv(e, phi)
        except CryptoError:
            continue
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)


def _emsa_encode(message: bytes, em_len: int) -> bytes:
    digest = sha256(message)
    t = _SHA256_PREFIX + digest
    if em_len < len(t) + 11:
        raise CryptoError("RSA modulus too small for SHA-256 signature")
    padding = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


def rsa_sign(key: RsaPrivateKey, message: bytes) -> bytes:
    """PKCS#1 v1.5 signature over SHA-256(message)."""
    model = cost_context.current_model()
    cost_context.charge_normal(model.signature_sign_normal)
    em = _emsa_encode(message, (key.n.bit_length() + 7) // 8)
    value = bytes_to_int(em)
    if value >= key.n:
        raise CryptoError("encoded message out of range")
    signature = pow(value, key.d, key.n)
    return int_to_bytes(signature, (key.n.bit_length() + 7) // 8)


def rsa_verify(key: RsaPublicKey, message: bytes, signature: bytes) -> bool:
    """Verify a PKCS#1 v1.5 SHA-256 signature."""
    model = cost_context.current_model()
    cost_context.charge_normal(model.signature_verify_normal)
    if len(signature) != key.byte_length:
        return False
    value = bytes_to_int(signature)
    if value >= key.n:
        return False
    recovered = int_to_bytes(pow(value, key.e, key.n), key.byte_length)
    try:
        expected = _emsa_encode(message, key.byte_length)
    except CryptoError:
        return False
    return recovered == expected
