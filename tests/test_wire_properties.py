"""Property-based round-trip tests for the wire format.

Every protocol message in the library flows through
:class:`repro.wire.Writer` / :class:`repro.wire.Reader`, so the
properties here — encode/decode identity for random values, nested
structures, and a ProtocolError (never an IndexError or silent
garbage) on every truncation — underwrite all of them.

The suite-wide hypothesis profile (tests/conftest.py) is derandomized
so these stay deterministic, per the repo's reproducibility rule.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.wire import Reader, Writer

_UINTS = {
    "u8": 1 << 8,
    "u16": 1 << 16,
    "u32": 1 << 32,
    "u64": 1 << 64,
}


class TestScalarRoundTrips:
    @pytest.mark.parametrize("field", sorted(_UINTS))
    @given(data=st.data())
    def test_uint_round_trip(self, field, data):
        value = data.draw(st.integers(0, _UINTS[field] - 1))
        encoded = getattr(Writer(), field)(value).getvalue()
        reader = Reader(encoded)
        assert getattr(reader, field)() == value
        reader.expect_end()

    @pytest.mark.parametrize("field", sorted(_UINTS))
    @given(data=st.data())
    def test_uint_out_of_range_rejected(self, field, data):
        value = data.draw(
            st.one_of(
                st.integers(max_value=-1),
                st.integers(min_value=_UINTS[field]),
            )
        )
        with pytest.raises(ProtocolError):
            getattr(Writer(), field)(value)

    @given(st.binary(max_size=500))
    def test_varbytes_round_trip(self, payload):
        encoded = Writer().varbytes(payload).getvalue()
        assert Reader(encoded).varbytes() == payload

    @given(st.binary(max_size=500))
    def test_raw_round_trip(self, payload):
        encoded = Writer().raw(payload).getvalue()
        assert Reader(encoded).raw(len(payload)) == payload

    @given(st.text(max_size=200))
    def test_string_round_trip(self, text):
        encoded = Writer().string(text).getvalue()
        assert Reader(encoded).string() == text

    @given(st.integers(min_value=0, max_value=1 << 256))
    def test_varint_round_trip(self, value):
        encoded = Writer().varint(value).getvalue()
        assert Reader(encoded).varint() == value

    def test_varint_negative_rejected(self):
        with pytest.raises(ProtocolError):
            Writer().varint(-1)

    @given(st.lists(st.text(max_size=30), max_size=20))
    def test_strings_round_trip(self, items):
        encoded = Writer().strings(items).getvalue()
        assert Reader(encoded).strings() == items


class TestNestedStructures:
    @given(
        st.integers(0, 255),
        st.binary(max_size=100),
        st.lists(st.text(max_size=20), max_size=8),
        st.integers(0, (1 << 64) - 1),
        st.binary(min_size=16, max_size=16),
    )
    def test_mixed_message_round_trip(self, tag, blob, names, seq, digest):
        encoded = (
            Writer()
            .u8(tag)
            .varbytes(blob)
            .strings(names)
            .u64(seq)
            .raw(digest)
            .getvalue()
        )
        reader = Reader(encoded)
        assert reader.u8() == tag
        assert reader.varbytes() == blob
        assert reader.strings() == names
        assert reader.u64() == seq
        assert reader.raw(16) == digest
        reader.expect_end()

    @given(st.lists(st.binary(max_size=50), max_size=8))
    def test_nested_writers(self, chunks):
        # Inner messages embedded as varbytes of an outer message — the
        # shape every record/handshake frame in the repo uses.
        inner = [Writer().u32(len(c)).varbytes(c).getvalue() for c in chunks]
        outer = Writer().u32(len(inner))
        for blob in inner:
            outer.varbytes(blob)
        reader = Reader(outer.getvalue())
        count = reader.u32()
        assert count == len(chunks)
        for expected in chunks:
            inner_reader = Reader(reader.varbytes())
            assert inner_reader.u32() == len(expected)
            assert inner_reader.varbytes() == expected
            inner_reader.expect_end()
        reader.expect_end()


class TestTruncation:
    @given(
        st.integers(0, (1 << 32) - 1),
        st.binary(min_size=1, max_size=100),
        st.data(),
    )
    def test_every_strict_prefix_raises(self, value, payload, data):
        encoded = Writer().u32(value).varbytes(payload).getvalue()
        cut = data.draw(st.integers(0, len(encoded) - 1))
        reader = Reader(encoded[:cut])
        with pytest.raises(ProtocolError):
            reader.u32()
            reader.varbytes()
            reader.expect_end()

    @given(st.binary(max_size=20))
    def test_varbytes_length_overrun(self, payload):
        # A length prefix promising more bytes than the buffer holds.
        encoded = Writer().u32(len(payload) + 1).raw(payload).getvalue()
        with pytest.raises(ProtocolError):
            Reader(encoded).varbytes()

    def test_varbytes_over_cap(self):
        encoded = Writer().varbytes(b"x" * 10).getvalue()
        with pytest.raises(ProtocolError):
            Reader(encoded).varbytes(max_len=9)

    @given(st.binary(min_size=1, max_size=50))
    def test_trailing_bytes_detected(self, extra):
        encoded = Writer().u8(7).raw(extra).getvalue()
        reader = Reader(encoded)
        assert reader.u8() == 7
        with pytest.raises(ProtocolError):
            reader.expect_end()

    def test_empty_buffer(self):
        for field in ("u8", "u16", "u32", "u64", "varbytes", "string"):
            with pytest.raises(ProtocolError):
                getattr(Reader(b""), field)()
