"""The crossing frame behind ``Enclave.ecall`` and ``Enclave.ecall_batch``.

Both public methods run one private frame that sets the ambient cost
context, pushes the enclave's domain and opens the ``ecall`` span
inline.  These tests pin that every exit path unwinds all of it, and
that each crossing enters exactly one public entry point (the traced
benchmark counts calls to both to report ``sgx.calls``).
"""

import dataclasses

import pytest

from tests.fixtures import make_author_key, make_authority, make_platform

from repro.cost import context as cost_context
from repro.cost.accountant import CostAccountant
from repro.cost.model import DEFAULT_MODEL
from repro.errors import SgxError
from repro.obs import Tracer
from repro.sgx import EnclaveProgram
from repro.sgx.enclave import Enclave


class FrameProgram(EnclaveProgram):
    """Exports a no-op, a raising handler and an ocall relay."""

    def noop(self):
        return None

    def fail(self):
        raise ValueError("handler failure")

    def call_out(self, fn):
        return self.ctx.ocall(fn)


class InnerProgram(EnclaveProgram):
    """The second enclave a nested crossing reaches."""

    def fail(self):
        raise KeyError("inner failure")


def _platform(tag):
    authority = make_authority(b"frame-auth:" + tag)
    return make_platform("frame-host", authority, seed=b"frame:" + tag)


def _enclave(platform, program=None, name=None):
    key = make_author_key(b"frame-author")
    return platform.load_enclave(
        program or FrameProgram(), author_key=key, name=name
    )


#: The ambient context a caller holds while it calls into an enclave:
#: an accountant and a model that are not the platform's.
OUTER_ACCOUNTANT = CostAccountant("outer")
OUTER_MODEL = dataclasses.replace(DEFAULT_MODEL, trampoline_normal=1)


def _ambient(platform):
    return (
        cost_context.current_accountant(),
        cost_context.current_model(),
        platform.accountant.current_domain,
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda e: e.ecall("fail"),
        lambda e: e.ecall_batch([("noop", (), {}), ("fail", (), {})]),
    ],
    ids=["ecall", "mid-batch"],
)
@pytest.mark.parametrize(
    "platform_model", [None, DEFAULT_MODEL], ids=["ambient-model", "own-model"]
)
def test_raising_handler_unwinds_the_frame(call, platform_model):
    platform = _platform(b"raise")
    platform.model = platform_model
    enclave = _enclave(platform)
    tracer = Tracer()
    tracer.attach(platform.accountant)
    with cost_context.use_accountant(OUTER_ACCOUNTANT, OUTER_MODEL):
        before_ambient = _ambient(platform)
        before = platform.accountant.snapshot()
        with pytest.raises(ValueError, match="handler failure"):
            call(enclave)
        assert _ambient(platform) == before_ambient
    assert before_ambient == (OUTER_ACCOUNTANT, OUTER_MODEL, "untrusted")
    (span,) = [s for s in tracer.spans if s.kind == "ecall"]
    assert span.closed and span.error
    assert span.domain == enclave.domain
    delta = platform.accountant.delta(before)[enclave.domain]
    assert delta.sgx_instructions == 2  # EENTER and EEXIT
    assert delta.enclave_crossings == 1
    assert OUTER_ACCOUNTANT.total().sgx_instructions == 0


def test_nested_crossing_unwinds_both_domains():
    platform = _platform(b"nested")
    outer = _enclave(platform)
    inner = _enclave(platform, InnerProgram())
    accountant = platform.accountant
    seen = []

    def untrusted():
        seen.append(accountant.current_domain)
        return inner.ecall("fail")

    before_ambient = _ambient(platform)
    before = accountant.snapshot()
    with pytest.raises(KeyError, match="inner failure"):
        outer.ecall("call_out", untrusted)
    assert seen == ["untrusted"]
    assert _ambient(platform) == before_ambient
    assert accountant.current_domain == "untrusted"
    delta = accountant.delta(before)
    # Both frames charged EEXIT on the way out; the ocall left and
    # never resumed (EEXIT only).
    assert delta[inner.domain].sgx_instructions == 2
    assert delta[outer.domain].sgx_instructions == 3


def test_destroyed_enclave_raises_before_any_charge():
    platform = _platform(b"destroyed")
    enclave = _enclave(platform)
    enclave.destroy()
    before = platform.accountant.snapshot()
    with pytest.raises(SgxError, match="destroyed"):
        enclave.ecall("noop")
    with pytest.raises(SgxError, match="destroyed"):
        enclave.ecall_batch([("noop", (), {})])
    assert platform.accountant.snapshot() == before


def test_each_crossing_enters_exactly_one_public_entry_point(monkeypatch):
    """Neither public method may delegate to the other: the traced
    benchmark wraps both and counts their calls as ``sgx.calls``."""
    enclave = _enclave(_platform(b"count"))
    calls = {"ecall": 0, "ecall_batch": 0}

    def counted(name):
        original = getattr(Enclave, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Enclave, name, wrapper)

    counted("ecall")
    counted("ecall_batch")

    enclave.ecall("noop")
    assert calls == {"ecall": 1, "ecall_batch": 0}
    enclave.ecall_batch([("noop", (), {})])
    assert calls == {"ecall": 1, "ecall_batch": 1}
