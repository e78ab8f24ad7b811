"""Trust roots a deployment provisions once and all of its nodes share."""

from repro.crypto.drbg import Rng
from repro.crypto.rsa import generate_rsa_keypair
from repro.sgx.quoting import AttestationAuthority
from repro.tls import CertificateAuthority


class World:
    """Intel's attestation authority, the enclave author's signing key
    and, with ``tls=True``, the certificate authority web servers use.
    Real SGX hosts fetch these once and cache them."""

    def __init__(
        self, seed: object, authority_label: str = "authority", tls: bool = False
    ) -> None:
        self.authority = AttestationAuthority(Rng(seed, authority_label))
        self.author = generate_rsa_keypair(512, Rng(seed, "author"))
        self.ca = CertificateAuthority(Rng(seed, "tls-ca")) if tls else None
