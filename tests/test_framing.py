"""The shared length+CRC32 frame codec (:mod:`repro.util.framing`).

This is the one envelope under both the write-ahead journal and the wire
protocol, so it carries both decode disciplines' property suites:

* the **tolerant walk** (:func:`decode_frames`, journal recovery) must
  round-trip, survive truncation at *any* byte boundary losing at most
  the torn frame, and never raise on corruption;
* the **strict stream decoder** (:class:`FrameDecoder`, TCP) must
  reassemble frames from arbitrary chunkings and turn corruption into a
  typed :class:`~repro.errors.FramingError` — never a hang, never a bare
  ``struct.error``.
"""

import asyncio
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FramingError, InvalidParameterError
from repro.util.framing import (
    FRAME_HEADER_SIZE,
    FrameDecoder,
    FrameWriter,
    decode_frames,
    encode_frame,
)

payloads_st = st.lists(st.binary(max_size=64), max_size=10)


def encode_all(payloads):
    return b"".join(encode_frame(p) for p in payloads)


class TestTolerantWalk:
    @given(payloads_st)
    def test_round_trip(self, payloads):
        buf = encode_all(payloads)
        decoded, consumed, torn = decode_frames(buf)
        assert decoded == payloads
        assert consumed == len(buf)
        assert not torn

    @given(payloads_st, st.data())
    @settings(max_examples=200)
    def test_truncation_at_any_boundary_keeps_the_prefix(self, payloads, data):
        buf = encode_all(payloads)
        cut = data.draw(st.integers(min_value=0, max_value=len(buf)))
        decoded, consumed, torn = decode_frames(buf[:cut])
        assert decoded == payloads[: len(decoded)]
        assert consumed <= cut
        boundaries = {0}
        off = 0
        for p in payloads:
            off += FRAME_HEADER_SIZE + len(p)
            boundaries.add(off)
        assert torn == (cut not in boundaries)
        # Everything before the cut frame survived.
        assert len(decoded) >= sum(1 for b in sorted(boundaries) if b <= cut) - 1

    @given(payloads_st, st.data())
    @settings(max_examples=200)
    def test_single_byte_corruption_never_raises(self, payloads, data):
        buf = bytearray(encode_all(payloads))
        if not buf:
            return
        pos = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        buf[pos] ^= flip
        decoded, _consumed, _torn = decode_frames(bytes(buf))
        # Frames fully before the corrupted byte decode unchanged.
        intact = 0
        off = 0
        for p in payloads:
            end = off + FRAME_HEADER_SIZE + len(p)
            if end <= pos:
                intact += 1
                off = end
            else:
                break
        assert decoded[:intact] == payloads[:intact]

    def test_absurd_length_header_is_torn_not_a_huge_alloc(self):
        buf = struct.pack("!II", 2**31, 0) + b"xx"
        decoded, consumed, torn = decode_frames(buf)
        assert decoded == [] and consumed == 0 and torn

    def test_bounds_treat_out_of_range_length_as_torn(self):
        small = encode_frame(b"ab")
        decoded, consumed, torn = decode_frames(small, min_payload=3)
        assert decoded == [] and consumed == 0 and torn
        decoded, consumed, torn = decode_frames(small, max_payload=1)
        assert decoded == [] and consumed == 0 and torn
        # In-bounds decodes normally under the same limits.
        big = encode_frame(b"abcd")
        decoded, consumed, torn = decode_frames(
            small + big, min_payload=0, max_payload=4
        )
        assert decoded == [b"ab", b"abcd"] and not torn

    def test_oversized_encode_rejected(self):
        class FakeLen(bytes):
            def __len__(self):
                return 0x1_0000_0000

        with pytest.raises(InvalidParameterError):
            encode_frame(FakeLen())


class TestStrictStream:
    @given(payloads_st, st.data())
    @settings(max_examples=200)
    def test_reassembles_any_chunking(self, payloads, data):
        buf = encode_all(payloads)
        dec = FrameDecoder()
        out = []
        pos = 0
        while pos < len(buf):
            step = data.draw(
                st.integers(min_value=1, max_value=len(buf) - pos)
            )
            out.extend(dec.feed(buf[pos : pos + step]))
            pos += step
        out.extend(dec.feed(b""))
        assert out == payloads
        assert dec.at_boundary

    def test_partial_frame_is_not_at_boundary(self):
        dec = FrameDecoder()
        buf = encode_frame(b"hello")
        assert dec.feed(buf[:-2]) == []
        assert not dec.at_boundary
        assert dec.buffered == len(buf) - 2
        assert dec.feed(buf[-2:]) == [b"hello"]
        assert dec.at_boundary

    def test_crc_mismatch_raises_typed_error_and_poisons(self):
        buf = bytearray(encode_frame(b"payload"))
        buf[-1] ^= 0xFF
        dec = FrameDecoder()
        with pytest.raises(FramingError):
            dec.feed(bytes(buf))
        with pytest.raises(FramingError):
            dec.feed(b"")

    def test_oversized_length_raises_before_buffering(self):
        dec = FrameDecoder(max_payload=16)
        with pytest.raises(FramingError):
            dec.feed(struct.pack("!II", 17, 0))

    @given(st.binary(max_size=256))
    @settings(max_examples=200)
    def test_garbage_never_raises_anything_untyped(self, junk):
        """Arbitrary bytes either decode, buffer, or raise FramingError."""
        dec = FrameDecoder(max_payload=64)
        try:
            dec.feed(junk)
        except FramingError:
            pass

    def test_invalid_max_payload_rejected(self):
        with pytest.raises(InvalidParameterError):
            FrameDecoder(max_payload=0)


class TestFrameWriter:
    """One ``write()`` per event-loop turn, carrying the frames in send
    order; an explicit flush writes at once, a discard writes nothing."""

    @given(st.lists(payloads_st, min_size=1, max_size=4))
    def test_one_write_per_turn_in_send_order(self, turns):
        async def go():
            writes = []
            frames = FrameWriter(writes.append)
            for payloads in turns:
                for p in payloads:
                    frames.send(p)
                await asyncio.sleep(0)
            return writes

        writes = asyncio.run(go())
        assert writes == [encode_all(p) for p in turns if p]

    def test_flush_and_discard(self):
        async def go():
            writes = []
            frames = FrameWriter(writes.append)
            frames.send(b"a")
            frames.send(b"b")
            frames.flush()
            assert writes == [encode_all([b"a", b"b"])]
            frames.send(b"c")
            frames.discard()
            await asyncio.sleep(0)
            return writes

        assert asyncio.run(go()) == [encode_all([b"a", b"b"])]


class TestJournalReusesCodec:
    def test_journal_envelope_is_the_shared_frame(self):
        """No drift: a journal record *is* a frame around its body."""
        from repro.service.journal import JournalRecord, RecordType, encode_record

        rec = encode_record(JournalRecord(RecordType.ADVANCE, 7, (1, 2)))
        payloads, consumed, torn = decode_frames(rec)
        assert len(payloads) == 1 and consumed == len(rec) and not torn
        body = payloads[0]
        assert rec == encode_frame(body)
        assert zlib.crc32(body) == struct.unpack("!II", rec[:8])[1]
