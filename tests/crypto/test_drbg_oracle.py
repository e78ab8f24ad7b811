"""The shipped HMAC-DRBG and ``Rng`` against their frozen oracle.

``tests/oracles/drbg_reference.py`` keeps today's implementation.  A
faster generator (precomputed pad states, a single-block fast path)
must produce the same bytes for every seed, personalization string and
call sequence, so these properties drive random programs through both
and demand equal output at every step and after it.

``generate(0)`` is the sharp edge: it returns no bytes but still runs
the update step, so a fast path that steps ``V`` before checking for
zero bytes diverges on the *next* call.  Every program below is
followed by a fixed draw, and zero-length requests are drawn often.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg, Rng
from tests.oracles import drbg_reference as reference

SETTINGS = settings(max_examples=40, deadline=None)

#: 0, every length within one 32-byte HMAC output, and longer ones.
LENGTHS = (
    st.sampled_from([0, 0, 1, 31, 32, 33, 64, 65])
    | st.integers(0, 32)
    | st.integers(33, 200)
)

DRBG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("generate"), LENGTHS),
        st.tuples(st.just("reseed"), st.binary(max_size=48)),
    ),
    max_size=12,
)

RANGES = st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 2**70)).map(
    lambda pair: (pair[0], pair[0] + pair[1])
)

RNG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("bytes"), LENGTHS),
        st.tuples(st.just("randbits"), st.integers(1, 300)),
        st.tuples(st.just("randint"), RANGES),
        st.tuples(st.just("randint"), st.integers(0, 7).map(lambda n: (0, n))),
        st.tuples(st.just("random"), st.none()),
        st.tuples(st.just("choice"), st.integers(1, 9)),
        st.tuples(st.just("sample"), st.integers(0, 9)),
        st.tuples(st.just("shuffle"), st.integers(0, 9)),
        st.tuples(st.just("fork"), st.text(max_size=8)),
    ),
    max_size=12,
)


def _drbg_trace(cls, seed, personalization, ops):
    drbg = cls(seed, personalization)
    out = []
    for name, arg in ops:
        if name == "generate":
            out.append(drbg.generate(arg))
        else:
            drbg.reseed(arg)
    out.append(drbg.generate(48))
    return out


def _rng_trace(cls, seed, label, ops):
    rng = cls(seed, label)
    out = []
    for name, arg in ops:
        if name == "bytes":
            out.append(rng.bytes(arg))
        elif name == "randbits":
            out.append(rng.randbits(arg))
        elif name == "randint":
            out.append(rng.randint(*arg))
        elif name == "random":
            out.append(rng.random())
        elif name == "choice":
            out.append(rng.choice(list(range(arg))))
        elif name == "sample":
            out.append(rng.sample(list(range(9)), arg))
        elif name == "shuffle":
            items = list(range(arg))
            rng.shuffle(items)
            out.append(items)
        else:
            child = rng.fork(arg)
            out.append(child.bytes(40))
            rng = child if len(arg) % 2 else rng
    out.append(rng.bytes(48))
    return out


class TestDrbgMatchesOracle:
    @SETTINGS
    @given(
        seed=st.binary(max_size=64),
        personalization=st.binary(max_size=32),
        ops=DRBG_OPS,
    )
    @example(seed=b"s", personalization=b"", ops=[("generate", 0)])
    @example(seed=b"s", personalization=b"p", ops=[("generate", 0), ("generate", 1)])
    def test_generate_and_reseed(self, seed, personalization, ops):
        assert _drbg_trace(HmacDrbg, seed, personalization, ops) == _drbg_trace(
            reference.HmacDrbg, seed, personalization, ops
        )

    @SETTINGS
    @given(
        seed=st.binary(max_size=32) | st.integers() | st.text(max_size=16),
        label=st.text(max_size=16),
        ops=RNG_OPS,
    )
    @example(seed=0, label="", ops=[("bytes", 0), ("randint", (0, 0))])
    def test_rng_programs(self, seed, label, ops):
        assert _rng_trace(Rng, seed, label, ops) == _rng_trace(
            reference.Rng, seed, label, ops
        )

    def test_generate_zero_still_updates(self):
        drbg, oracle = HmacDrbg(b"zero"), reference.HmacDrbg(b"zero")
        fresh = reference.HmacDrbg(b"zero").generate(16)
        assert drbg.generate(0) == oracle.generate(0) == b""
        after = oracle.generate(16)
        assert drbg.generate(16) == after
        assert after != fresh  # generate(0) moved the state
