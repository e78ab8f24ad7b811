"""Property tests for EPC page swap round-trips and tamper detection.

The paging_storm fault class and the EPC-resident DPI tables both lean
on one invariant: an EWB/ELDB round-trip is *lossless* (the MEE blob
in main memory decrypts back to the exact plaintext) and *tamper-
evident* (any bit flipped in the evicted blob faults on reload).
Hypothesis sweeps page contents, offsets, and flip positions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EnclaveAccessError, SgxError
from repro.sgx.epc import PAGE_SIZE, EnclavePageCache, EpcPage, PageType
from tests.conformance.harness import examples

EXAMPLES = examples(25)

_key = st.binary(min_size=16, max_size=32)
_content = st.binary(min_size=0, max_size=200)
_offset = st.integers(min_value=0, max_value=PAGE_SIZE - 200)


@settings(max_examples=EXAMPLES, deadline=None)
@given(key=_key, content=_content, offset=_offset)
def test_swap_round_trip_is_byte_identical(key, content, offset):
    page = EpcPage(7, key)
    page.write(offset, content)
    full_before = page.read(0, PAGE_SIZE)
    blob = page.swap_out()
    assert not page.resident
    assert page.read(0, PAGE_SIZE) == bytes(PAGE_SIZE), (
        "swap_out must drop the in-EPC plaintext"
    )
    page.swap_in(blob)
    assert page.resident
    assert page.read(0, PAGE_SIZE) == full_before
    assert page.read(offset, len(content)) == content


@settings(max_examples=EXAMPLES, deadline=None)
@given(key=_key, content=_content, flip=st.integers(min_value=0))
def test_any_bit_flip_in_swapped_blob_is_detected(key, content, flip):
    page = EpcPage(3, key)
    page.write(0, content)
    blob = bytearray(page.swap_out())
    blob[flip % len(blob)] ^= 1 << (flip % 8)
    with pytest.raises(EnclaveAccessError):
        page.swap_in(bytes(blob))
    # A poisoned page keeps faulting — the enclave cannot read through
    # a failed integrity check.
    with pytest.raises(EnclaveAccessError):
        page.read(0, 1)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    key=_key,
    contents=st.lists(_content, min_size=3, max_size=8),
    frames=st.integers(min_value=2, max_value=4),
)
def test_cache_eviction_reload_preserves_every_page(key, contents, frames):
    """Thrash a tiny paging cache; every page must read back intact."""
    epc = EnclavePageCache(key, frames=frames, allow_paging=True)
    indices = []
    for content in contents:
        page = epc.allocate(enclave_id=1, page_type=PageType.REG)
        epc.write(1, page.index, content)
        indices.append((page.index, content))
    for index, content in indices:
        assert epc.read(1, index, 0, len(content)) == content
    if len(contents) > frames:
        assert epc.evictions > 0
        assert epc.reloads > 0


@settings(max_examples=EXAMPLES, deadline=None)
@given(key=_key, contents=st.lists(_content, min_size=4, max_size=8))
def test_corrupt_swapped_page_always_detected(key, contents):
    epc = EnclavePageCache(key, frames=2, allow_paging=True)
    indices = []
    for content in contents:
        page = epc.allocate(enclave_id=1, page_type=PageType.REG)
        epc.write(1, page.index, content)
        indices.append(page.index)
    # With 2 frames and >= 4 pages, the first page is swapped out.
    victim = indices[0]
    epc.corrupt_swapped(victim)
    with pytest.raises(EnclaveAccessError):
        epc.read(1, victim, 0, 1)


def test_pressure_evict_counts_and_recovers():
    epc = EnclavePageCache(b"k" * 16, frames=8, allow_paging=True)
    payloads = {}
    for i in range(6):
        page = epc.allocate(enclave_id=1, page_type=PageType.REG)
        payloads[page.index] = bytes([i]) * 32
        epc.write(1, page.index, payloads[page.index])
    evicted = epc.pressure_evict(4)
    assert evicted == 4
    assert epc.resident_count == 2
    # Byte-identical recovery on the next access.
    for index, payload in payloads.items():
        assert epc.read(1, index, 0, len(payload)) == payload
    assert epc.reloads == 4


def test_pressure_evict_never_victimizes_secs_or_tcs():
    epc = EnclavePageCache(b"k" * 16, frames=8, allow_paging=True)
    epc.allocate(enclave_id=1, page_type=PageType.SECS)
    epc.allocate(enclave_id=1, page_type=PageType.TCS)
    reg = epc.allocate(enclave_id=1, page_type=PageType.REG)
    assert epc.pressure_evict(10) == 1
    assert not epc._pages[reg.index].resident
    assert epc.resident_count == 2


def test_corrupt_swapped_requires_evicted_page():
    epc = EnclavePageCache(b"k" * 16, frames=4, allow_paging=True)
    page = epc.allocate(enclave_id=1, page_type=PageType.REG)
    with pytest.raises(SgxError):
        epc.corrupt_swapped(page.index)
