"""Finite-field Diffie-Hellman, as used to bootstrap secure channels
during remote attestation (paper Section 2.2; 1024-bit parameters per
Section 5).

Well-known MODP groups are built in.  :func:`generate_parameters`
reproduces the expensive parameter-generation path the paper's
prototype executed (Table 1 attributes ~90% of attestation cycles to
DH): for production sizes it returns the standard group while charging
the calibrated safe-prime-generation cost — actually grinding a
1024-bit safe prime in pure Python would add minutes of wall-clock and
no information — and for small test sizes it really generates one.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Tuple

from repro.cost import context as cost_context
from repro.crypto.drbg import Rng
from repro.crypto.numtheory import generate_prime, is_probable_prime
from repro.crypto.util import int_to_bytes
from repro.errors import CryptoError

__all__ = [
    "DhGroup",
    "DhKeyPair",
    "MODP_1024",
    "MODP_2048",
    "generate_parameters",
    "generate_keypair",
    "gexp",
    "shared_secret",
]


@dataclasses.dataclass(frozen=True)
class DhGroup:
    """A prime-order-subgroup DH group (p prime, g a generator)."""

    p: int
    g: int
    bits: int
    name: str = "custom"


# RFC 2409 Second Oakley Group (1024-bit MODP) — the parameter size the
# paper's evaluation used.
MODP_1024 = DhGroup(
    p=int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
        16,
    ),
    g=2,
    bits=1024,
    name="modp1024",
)

# RFC 3526 Group 14 (2048-bit MODP).
MODP_2048 = DhGroup(
    p=int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
        "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
        "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
        "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
        16,
    ),
    g=2,
    bits=2048,
    name="modp2048",
)

_STANDARD_GROUPS = {1024: MODP_1024, 2048: MODP_2048}


@dataclasses.dataclass(frozen=True)
class DhKeyPair:
    """An ephemeral DH key pair on a given group."""

    group: DhGroup
    private: int
    public: int


def generate_parameters(bits: int, rng: Rng) -> DhGroup:
    """Produce DH parameters of the requested size.

    For standard sizes (1024/2048) this returns the fixed RFC group and
    charges the calibrated parameter-generation cost (the dominant term
    in the paper's Table 1 "w/ DH" target column).  For non-standard
    small sizes (tests), a real safe prime is generated.
    """
    model = cost_context.current_model()
    if bits in _STANDARD_GROUPS:
        scale = (bits / 1024.0) ** 4  # prime density x per-test cost
        cost_context.charge_normal(model.dh_param_gen_normal * scale)
        return _STANDARD_GROUPS[bits]
    if bits > 512:
        raise CryptoError(
            "only standard sizes (1024/2048) or small test sizes supported"
        )
    while True:  # safe prime: p = 2q + 1 with q prime
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if is_probable_prime(p, rng):
            # g = 4 is a quadratic residue, hence generates the prime-order
            # subgroup — required by the Schnorr code for custom groups.
            return DhGroup(p=p, g=4, bits=bits, name=f"generated{bits}")


def _charge_modexp(group: DhGroup) -> None:
    model = cost_context.current_model()
    cost_context.charge_normal(model.modexp_normal(group.bits))


@functools.lru_cache(maxsize=4)
def _generator_table(p: int, g: int) -> Tuple[int, ...]:
    """Fixed-base window table for ``g`` mod ``p``, flattened row-major.

    Entry ``16*i + j`` is ``g^(j * 16^i) mod p``: one row of 16 per
    4-bit digit of an exponent, enough rows for every exponent as wide
    as ``p`` rounded up to whole bytes.  The table is a function of
    public group constants only, so it is built once per (p, g) and
    kept — keyed on the integers, not the :class:`DhGroup`, so a group
    rebuilt from the wire under another name shares it.
    """
    table = []
    base = g % p
    for _ in range(2 * ((p.bit_length() + 7) // 8)):
        row = [1, base]
        for _ in range(14):
            row.append(row[-1] * base % p)
        table.extend(row)
        base = row[-1] * base % p
    return tuple(table)


def gexp(group: DhGroup, x: int) -> int:
    """``g^x mod p`` from the group's fixed-base table.

    Exact for every ``0 <= x`` no wider than ``p``; at most one table
    multiplication per 4-bit digit of ``x`` and no squarings.
    """
    p = group.p
    if x < 0 or x.bit_length() > p.bit_length():
        raise CryptoError("exponent out of range for the fixed-base table")
    table = _generator_table(p, group.g)
    acc = 1
    row = 0
    for byte in x.to_bytes((p.bit_length() + 7) // 8, "little"):
        if byte & 15:
            acc = acc * table[row + (byte & 15)] % p
        if byte >> 4:
            acc = acc * table[row + 16 + (byte >> 4)] % p
        row += 32
    return acc


def _exponent_bits(group: DhGroup) -> int:
    """Private-exponent width: twice the group's security strength.

    This is the short-exponent rule of RFC 7919 Section 5.2 and NIST SP
    800-56A for safe-prime groups -- 160 bits on MODP-1024, 224 on
    MODP-2048 -- clamped below the modulus for small generated groups
    so every exponent stays in ``[2, p-2]``.
    """
    # Security strength by modulus size, NIST SP 800-57 Part 1 Table 2.
    strength = 112 if group.bits >= 2048 else 80
    return min(2 * strength, group.p.bit_length() - 2)


def generate_keypair(group: DhGroup, rng: Rng) -> DhKeyPair:
    """Sample a short private exponent and compute the public value.

    The exponent is drawn from ``[2, 2^w)`` (see :func:`_exponent_bits`);
    the modeled charge is still one modexp at the group size.
    """
    private = rng.randint(2, (1 << _exponent_bits(group)) - 1)
    _charge_modexp(group)
    public = gexp(group, private)
    return DhKeyPair(group=group, private=private, public=public)


def shared_secret(keypair: DhKeyPair, peer_public: int) -> bytes:
    """Compute the shared secret, validating the peer's public value."""
    group = keypair.group
    if not 2 <= peer_public <= group.p - 2:
        raise CryptoError("peer DH public value out of range")
    _charge_modexp(group)
    secret = pow(peer_public, keypair.private, group.p)
    return int_to_bytes(secret, (group.bits + 7) // 8)
