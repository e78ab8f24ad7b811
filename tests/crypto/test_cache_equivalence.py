"""Cache equivalence: the fast paths are invisible to the cost model.

The contract behind every cache in :mod:`repro.crypto.cache` is that
it may change *wall time only*.  For any input, running a primitive

* cold (caches disabled — the pure-Python oracle),
* on a cache **miss** (caches enabled, freshly cleared), and
* on a cache **hit** (caches enabled, warmed by a prior call)

must produce byte-identical output and *integer-equal* cost counters.
These hypothesis properties pin that contract for every cached kernel:
AES block ops, CTR keystreams, ECB/CBC, HMAC, CMAC, HKDF and Schnorr
verification.

``memoize_charged`` routes every call, cached or not, through the
charge recorder of ``burst_charged``, so the cold path above is not
independent of it.  :class:`TestMemoizedColdOracle` is the recorder's
oracle: the undecorated function (``__wrapped__``) under a plain
accountant, for every memoized function and for ``verify_quote``,
which keeps the one-burst grouping without a memo.

The record-channel regression at the bottom pins one key-schedule
expansion per distinct session key, while ``cipher_init_normal`` is
still charged once per cipher instance.
"""

import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cost import context as cost_context
from repro.cost.accountant import CostAccountant
from repro.crypto import cache
from repro.crypto.aes import AES, key_schedule_stats
from repro.crypto.drbg import Rng
from repro.crypto.hashes import sha256
from repro.crypto.kdf import hkdf
from repro.crypto.mac import aes_cmac, cmac_verify, hmac_sha256, hmac_verify
from repro.crypto.modes import CtrStream, cbc_encrypt, ecb_decrypt, ecb_encrypt
from repro.crypto.schnorr import generate_schnorr_keypair, schnorr_sign, schnorr_verify
from repro.errors import AttestationError
from repro.sgx.measurement import EnclaveIdentity
from repro.sgx.quoting import Quote, verify_quote
from tests.conformance.harness import Knobs, applied
from tests.fixtures import make_authority

KEYS = st.binary(min_size=16, max_size=16) | st.binary(min_size=32, max_size=32)
SETTINGS = settings(max_examples=25, deadline=None)
#: Includes the all-ones counter, whose next refill wraps all 128 bits.
CTR_NONCES = st.sampled_from(
    [b"nonce", b"\xff" * 16, b"\xff" * 15 + b"\xfe"]
) | st.binary(max_size=16)
CTR_OPS = st.lists(
    st.tuples(
        st.sampled_from(["keystream", "process", "skip"]),
        st.integers(min_value=0, max_value=100),
    ),
    max_size=8,
)


def _measure(op):
    """Run ``op`` under a fresh accountant; return (output, counters)."""
    acct = CostAccountant()
    with cost_context.use_accountant(acct):
        out = op()
    counters = {
        domain: counter.as_dict() for domain, counter in acct.snapshot().items()
    }
    return out, counters


def assert_equivalent(op):
    """Cold, cache-miss and cache-hit runs of ``op`` must agree exactly."""
    cache.clear_all()
    with cache.disabled():
        cold_out, cold_counters = _measure(op)
    cache.clear_all()
    miss_out, miss_counters = _measure(op)  # populates the caches
    hit_out, hit_counters = _measure(op)  # served from them
    assert miss_out == cold_out
    assert hit_out == cold_out
    assert miss_counters == cold_counters
    assert hit_counters == cold_counters


class TestCacheEquivalence:
    @SETTINGS
    @given(key=KEYS, block=st.binary(min_size=16, max_size=16))
    def test_aes_block(self, key, block):
        assert_equivalent(lambda: AES(key).encrypt_block(block))
        assert_equivalent(
            lambda: AES(key).decrypt_block(AES(key).encrypt_block(block))
        )

    @SETTINGS
    @given(key=KEYS, nonce=CTR_NONCES, ops=CTR_OPS)
    @example(
        key=b"\x2b" * 16,
        nonce=b"\xff" * 16,
        ops=[("keystream", 5), ("skip", 40), ("keystream", 30), ("skip", 3),
             ("process", 20), ("skip", 32), ("keystream", 17)],
    )
    def test_ctr_keystream(self, key, nonce, ops):
        """Kernel CTR contexts (cache on) against the T-table path
        (``cache.disabled()``) and against caches on with the kernel
        probe forced absent: output bytes, stream positions after each
        call and accountant totals all agree, across counter wrap and
        a refill straight after a ``skip``."""

        def op():
            stream = CtrStream(key, nonce)
            trace = []
            for name, n in ops:
                if name == "keystream":
                    out = stream.keystream(n)
                elif name == "process":
                    out = stream.process(bytes(i % 251 for i in range(n)))
                else:
                    out = stream.skip(n)
                trace.append((out, stream._counter, stream._buffer))
            return trace

        assert_equivalent(op)
        cache.clear_all()
        with cache.disabled():
            cold = _measure(op)
        try:
            cache.clear_all()
            with mock.patch.object(cache, "_probe_fast_aes", lambda: None):
                assert _measure(op) == cold
        finally:
            cache.clear_all()
        if cache._probe_fast_aes() is not None:
            stream = CtrStream(key, nonce)
            stream.keystream(1)
            assert stream._ctx is not None  # the kernel path engaged
            stream.skip(16)
            assert stream._ctx is None  # skip drops it, opens none

    @SETTINGS
    @given(key=KEYS, plaintext=st.binary(max_size=96))
    def test_ecb_cbc(self, key, plaintext):
        padded = plaintext + b"\x00" * (-len(plaintext) % 16)
        assert_equivalent(
            lambda: ecb_decrypt(AES(key), ecb_encrypt(AES(key), padded))
        )
        assert_equivalent(lambda: cbc_encrypt(AES(key), b"\x01" * 16, padded))

    @SETTINGS
    @given(key=st.binary(max_size=80), message=st.binary(max_size=200))
    def test_hmac(self, key, message):
        def op():
            tag = hmac_sha256(key, message)
            assert hmac_verify(key, message, tag)
            return tag

        assert_equivalent(op)

    @SETTINGS
    @given(key=st.binary(min_size=16, max_size=16), message=st.binary(max_size=100))
    def test_cmac(self, key, message):
        def op():
            tag = aes_cmac(key, message)
            assert cmac_verify(key, message, tag)
            return tag

        assert_equivalent(op)

    @SETTINGS
    @given(
        ikm=st.binary(min_size=1, max_size=64),
        salt=st.binary(max_size=32),
        info=st.binary(max_size=32),
        length=st.integers(min_value=1, max_value=128),
    )
    def test_hkdf(self, ikm, salt, info, length):
        assert_equivalent(lambda: hkdf(ikm, salt=salt, info=info, length=length))

    @settings(max_examples=5, deadline=None)
    @given(message=st.binary(max_size=64), tamper=st.booleans())
    def test_schnorr_verify(self, message, tamper):
        key = generate_schnorr_keypair(Rng(b"cache-equivalence"))
        signature = schnorr_sign(key, message)
        checked = message + b"!" if tamper else message

        def op():
            return schnorr_verify(key.group, key.y, checked, signature)

        assert_equivalent(op)
        assert op() is not tamper


MEMOIZED = [
    "hkdf", "schnorr-verify", "schnorr-verify-bad", "verify-quote",
    "verify-quote-forged", "every-field",
]


@cache.memoize_charged(name="every-field-probe")
def _every_field(work: int) -> int:
    """The package's memoized functions charge normal instructions only;
    this probe charges every counter field, enclave-inflated work too."""
    cost_context.charge_app_normal(work)
    cost_context.charge_sgx(2)
    cost_context.current_accountant().charge_crossing(3)
    cost_context.charge_allocation(4)
    cost_context.charge_switchless(5)
    cost_context.charge_fault(6)
    return work


def _memoized_calls():
    """name -> (decorated function, args) for every memoize_charged and
    burst_charged function in the package, with a failing call where
    the function can raise."""
    authority = make_authority(b"memo-oracle")
    member = authority.provision_member("memo-oracle")
    qe = EnclaveIdentity(mrenclave=b"\x09" * 32, mrsigner=b"\x0a" * 32)
    authority.register_qe_measurement(qe.mrenclave)
    unsigned = Quote(
        identity=EnclaveIdentity(mrenclave=b"\x01" * 32, mrsigner=b"\x02" * 32),
        report_data=b"\x03" * 64,
        qe_identity=qe,
        signature=None,
    )
    signed = Quote(
        unsigned.identity, unsigned.report_data, qe,
        member.sign(sha256(unsigned.signed_body())),
    )
    forged = Quote(unsigned.identity, b"\x04" * 64, qe, signed.signature)
    info = authority.verification_info()
    schnorr_key = generate_schnorr_keypair(Rng(b"memo-oracle"))
    signature = schnorr_sign(schnorr_key, b"message")
    return {
        "hkdf": (hkdf, (b"ikm", b"salt", b"info", 48)),
        "schnorr-verify": (
            schnorr_verify,
            (schnorr_key.group, schnorr_key.y, b"message", signature),
        ),
        "schnorr-verify-bad": (
            schnorr_verify,
            (schnorr_key.group, schnorr_key.y, b"other", signature),
        ),
        "verify-quote": (verify_quote, (signed.encode(), info)),
        "verify-quote-forged": (verify_quote, (forged.encode(), info)),
        "every-field": (_every_field, (1000,)),
    }


class TestMemoizedColdOracle:
    """Each memoized function, run with caches disabled, on a miss and
    on a hit, charges exactly what its undecorated body charges under a
    plain accountant: in untrusted code and inside an enclave, with the
    replay coalesced into one burst and charged field by field.
    ``verify_quote`` has no memo, so its "miss" and "hit" are two
    plain calls."""

    @pytest.fixture(scope="class")
    def calls(self):
        return _memoized_calls()

    @staticmethod
    def _run(call, domain):
        acct = CostAccountant()
        with cost_context.use_accountant(acct), acct.attribute(domain):
            try:
                out = call()
            except AttestationError as exc:
                out = type(exc).__name__
        return out, {d: c.as_dict() for d, c in acct.snapshot().items()}

    @pytest.mark.parametrize("burst", [True, False])
    @pytest.mark.parametrize("domain", ["untrusted", "enclave:oracle"])
    @pytest.mark.parametrize("name", MEMOIZED)
    def test_charges_equal_undecorated_body(self, calls, name, domain, burst):
        fn, args = calls[name]
        cache.clear_all()
        with applied(Knobs(burst=burst)), cache.disabled():
            oracle = self._run(lambda: fn.__wrapped__(*args), domain)
            assert self._run(lambda: fn(*args), domain) == oracle
        cache.clear_all()
        with applied(Knobs(burst=burst)):
            assert self._run(lambda: fn(*args), domain) == oracle  # miss
            hits = fn.stats.hits if hasattr(fn, "stats") else None
            assert self._run(lambda: fn(*args), domain) == oracle
        if not isinstance(oracle[0], str) and hits is not None:
            assert fn.stats.hits == hits + 1  # a raising call is not cached


class TestRecordChannelKeySchedule:
    """Satellite fix: one key-schedule expansion per session key."""

    def _channel_pair(self):
        from repro.net.channel import SecureRecordChannel
        from repro.sgx.attestation import SessionKeys

        keys = SessionKeys.derive(b"cache-regression", b"\x24" * 32)
        return (
            SecureRecordChannel(keys, "initiator"),
            SecureRecordChannel(keys, "responder"),
        )

    def test_one_expansion_per_session_key(self):
        cache.clear_all()
        base = key_schedule_stats()
        initiator, responder = self._channel_pair()
        for _ in range(20):
            assert responder.open(initiator.protect(b"payload")) == b"payload"
        after = key_schedule_stats()
        misses = after["misses"] - base["misses"]
        # A channel pair touches exactly two distinct AES session keys
        # (initiator-enc and responder-enc); every further cipher
        # construction and record must hit the schedule cache.
        assert misses == 2
        assert after["hits"] > base["hits"]

    def test_cipher_init_still_charged_per_instance(self):
        cache.clear_all()
        key = b"\x13" * 16
        model = cost_context.current_model()

        def build_twice():
            AES(key)
            AES(key)

        _, counters = _measure(build_twice)
        normal = counters["untrusted"]["normal_instructions"]
        assert normal == 2 * model.cipher_init_normal

    def test_channel_bytes_unchanged_by_cache_state(self):
        cache.clear_all()
        with cache.disabled():
            initiator, _ = self._channel_pair()
            cold = [initiator.protect(b"rec-%d" % i) for i in range(5)]
        cache.clear_all()
        initiator, _ = self._channel_pair()
        warm = [initiator.protect(b"rec-%d" % i) for i in range(5)]
        assert warm == cold


#: The package's registered caches, each kept on a measured verdict
#: (DESIGN.md §15, "Crypto cache verdicts").  Adding a cache means
#: measuring it end to end and adding its row to that table first.
PACKAGE_CACHES = {
    "aes-key-schedule", "hmac-pads", "hkdf", "schnorr-verify",
    "program-code-bytes",
}


class TestCachePlumbing:
    def test_registry_names_exactly_the_measured_caches(self):
        # A fresh interpreter: test modules register probes of their own.
        script = (
            "import importlib, pkgutil, repro\n"
            "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(m.name)\n"
            "from repro.crypto.cache import cache_stats\n"
            "print(' '.join(sorted(cache_stats())))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.split() == sorted(PACKAGE_CACHES)

    def test_disabled_context_restores(self):
        assert cache.enabled()
        with cache.disabled():
            assert not cache.enabled()
        assert cache.enabled()

    def test_memoize_replays_charges_on_raise(self):
        calls = []

        @cache.memoize_charged(name="raise-probe")
        def sometimes(fail):
            calls.append(fail)
            cost_context.charge_normal(7)
            if fail:
                raise ValueError("boom")
            return b"ok"

        cache.clear_all()
        _, counters = _measure(lambda: pytest.raises(ValueError, sometimes, True))
        assert counters["untrusted"]["normal_instructions"] == 7
        # Raising calls are never cached: the next call runs again.
        _, counters = _measure(lambda: pytest.raises(ValueError, sometimes, True))
        assert counters["untrusted"]["normal_instructions"] == 7
        assert calls == [True, True]

    @pytest.mark.parametrize("burst", [True, False])
    def test_burst_charged_lands_raising_call_as_one_burst(self, burst):
        """``burst_charged`` lands a raising call's partial totals the
        way ``memoize_charged`` does: as one ``charge_burst``, which the
        lattice's per-field reference expands field by field."""

        class CallLog(CostAccountant):
            def __init__(self):
                super().__init__()
                self.calls = []

            def charge_normal(self, count):
                self.calls.append(("normal", count))
                super().charge_normal(count)

            def charge_sgx(self, count=1):
                self.calls.append(("sgx", count))
                super().charge_sgx(count)

            def charge_burst(self, **fields):
                self.calls.append(("burst", fields["normal"], fields["sgx"]))
                super().charge_burst(**fields)

        def partial(fail):
            cost_context.charge_normal(7)
            cost_context.charge_sgx(2)
            cost_context.charge_normal(5)
            if fail:
                raise ValueError("boom")
            return b"ok"

        def calls_of(fn):
            acct = CallLog()
            with applied(Knobs(burst=burst)), cost_context.use_accountant(acct):
                pytest.raises(ValueError, fn, True)
            return acct.calls, acct.snapshot()["untrusted"].as_dict()

        cache.clear_all()
        burst_calls = calls_of(cache.burst_charged(partial))
        assert burst_calls == calls_of(
            cache.memoize_charged(name="burst-raise-probe")(partial)
        )
        calls, totals = burst_calls
        per_field = [] if burst else [("normal", 12), ("sgx", 2)]
        assert calls == [("burst", 12, 2)] + per_field
        assert (totals["normal_instructions"], totals["sgx_instructions"]) == (12, 2)
