"""From-scratch cryptography used across the reproduction.

This package stands in for the polarssl library the paper's prototype
linked against: AES (with ECB/CBC/CTR modes), SHA-256 (an accounting
wrapper over :mod:`hashlib`), HMAC and AES-CMAC, HKDF, finite-field
Diffie-Hellman with the 1024-bit MODP group from the paper's
evaluation, RSA, Schnorr, and a simplified EPID-style group signature
for quote signing.  All randomness flows through HMAC-DRBG
so experiments replay deterministically.
"""

from repro.crypto.aes import AES
from repro.crypto.dh import (
    MODP_1024,
    MODP_2048,
    DhGroup,
    DhKeyPair,
    generate_keypair,
    generate_parameters,
    shared_secret,
)
from repro.crypto.drbg import HmacDrbg, Rng
from repro.crypto.epid import (
    EpidGroupManager,
    EpidGroupPublicKey,
    EpidMemberKey,
    EpidSignature,
    epid_verify,
)
from repro.crypto.hashes import sha1, sha256
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract
from repro.crypto.mac import aes_cmac, cmac_verify, hmac_sha256, hmac_verify
from repro.crypto.modes import CtrStream, cbc_decrypt, cbc_encrypt, ecb_decrypt, ecb_encrypt
from repro.crypto.numtheory import generate_prime, is_probable_prime, modinv
from repro.crypto.rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    generate_rsa_keypair,
    rsa_sign,
    rsa_verify,
)
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    SchnorrSignature,
    generate_schnorr_keypair,
    schnorr_sign,
    schnorr_verify,
)
from repro.crypto.util import (
    bytes_to_int,
    constant_time_equal,
    int_to_bytes,
    pad_pkcs7,
    unpad_pkcs7,
    xor_bytes,
)

__all__ = [
    "AES",
    "CtrStream",
    "ecb_encrypt",
    "ecb_decrypt",
    "cbc_encrypt",
    "cbc_decrypt",
    "sha256",
    "sha1",
    "hmac_sha256",
    "hmac_verify",
    "aes_cmac",
    "cmac_verify",
    "hkdf",
    "hkdf_extract",
    "hkdf_expand",
    "HmacDrbg",
    "Rng",
    "DhGroup",
    "DhKeyPair",
    "MODP_1024",
    "MODP_2048",
    "generate_parameters",
    "generate_keypair",
    "shared_secret",
    "RsaPublicKey",
    "RsaPrivateKey",
    "generate_rsa_keypair",
    "rsa_sign",
    "rsa_verify",
    "SchnorrKeyPair",
    "SchnorrSignature",
    "generate_schnorr_keypair",
    "schnorr_sign",
    "schnorr_verify",
    "EpidGroupManager",
    "EpidGroupPublicKey",
    "EpidMemberKey",
    "EpidSignature",
    "epid_verify",
    "generate_prime",
    "is_probable_prime",
    "modinv",
    "xor_bytes",
    "constant_time_equal",
    "int_to_bytes",
    "bytes_to_int",
    "pad_pkcs7",
    "unpad_pkcs7",
]
