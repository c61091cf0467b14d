"""Length + CRC32 frame codec shared by the journal and the wire protocol.

One frame is::

    +----------------------+----------------------+---------------------+
    | payload length (u32) | CRC32(payload) (u32) | payload             |
    +----------------------+----------------------+---------------------+

all big-endian (:data:`FRAME_HEADER`).  This is exactly the record
envelope the write-ahead journal has used since PR 5
(:mod:`repro.service.journal`) — extracted here so the network protocol
(:mod:`repro.net.protocol`) shares *one* codec and one test suite with
the journal instead of growing a divergent copy.

Two decode disciplines live on top of the same bytes, because the two
consumers fail differently:

* :func:`decode_frames` — the **tolerant walk** (journal recovery):
  decode every valid frame from the buffer's start and stop at the first
  short, oversized, or CRC-failing frame.  A torn tail (power loss
  mid-write) costs at most the frame being written, never the prefix, and
  decoding *never raises* on bad input.
* :class:`FrameDecoder` — the **strict stream decoder** (TCP): feed
  arbitrary byte chunks, get complete payloads out.  Corruption on a
  network stream is unrecoverable (the reader can never resynchronize),
  so a CRC mismatch or an absurd length header raises a typed
  :class:`~repro.errors.FramingError` instead of silently truncating —
  the connection must die loudly, not hang.

:class:`FrameWriter` is the stream's sending side: it batches the frames
queued in one event-loop turn into one ``write()``.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import Callable

from repro.errors import FramingError, InvalidParameterError

__all__ = [
    "FRAME_HEADER",
    "FRAME_HEADER_SIZE",
    "MAX_PAYLOAD",
    "encode_frame",
    "decode_frames",
    "FrameDecoder",
    "FrameWriter",
]

#: Frame envelope: payload length (u32), CRC32 of the payload (u32).
FRAME_HEADER = struct.Struct("!II")
FRAME_HEADER_SIZE = FRAME_HEADER.size

#: Default strict-mode payload bound.  Generous for both consumers (journal
#: records and protocol messages are tens to thousands of bytes), small
#: enough that a corrupt length header cannot make a reader buffer
#: gigabytes while "waiting for the rest of the frame".
MAX_PAYLOAD = 1 << 20


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length + CRC32 envelope."""
    if len(payload) > 0xFFFFFFFF:
        raise InvalidParameterError(
            f"frame payload of {len(payload)} bytes overflows the u32 length"
        )
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frames(
    buf: bytes | bytearray | memoryview,
    *,
    min_payload: int = 0,
    max_payload: int | None = None,
) -> tuple[list[bytes], int, bool]:
    """Tolerantly decode every valid frame from ``buf``'s start.

    Returns ``(payloads, consumed_bytes, torn)``: ``torn`` is True when
    trailing bytes remain that do not form a complete, CRC-valid frame —
    the signature of a write severed by a crash.  Never raises on bad
    input; a corrupt frame simply ends the valid prefix.

    ``min_payload``/``max_payload`` bound plausible payload sizes for the
    caller's record type; an out-of-bounds length header is treated as
    corruption (torn), exactly like a CRC failure.
    """
    payloads: list[bytes] = []
    off, n = 0, len(buf)
    while True:
        if off == n:
            return payloads, off, False
        if n - off < FRAME_HEADER_SIZE:
            return payloads, off, True
        length, crc = FRAME_HEADER.unpack_from(buf, off)
        if (
            length < min_payload
            or (max_payload is not None and length > max_payload)
            or length > n - off - FRAME_HEADER_SIZE
        ):
            return payloads, off, True
        payload = bytes(buf[off + FRAME_HEADER_SIZE : off + FRAME_HEADER_SIZE + length])
        if zlib.crc32(payload) != crc:
            return payloads, off, True
        payloads.append(payload)
        off += FRAME_HEADER_SIZE + length


class FrameDecoder:
    """Incremental strict decoder for a framed byte *stream*.

    Feed chunks as they arrive (``feed``); complete payloads come out in
    order.  Unlike :func:`decode_frames`, corruption is fatal: a CRC
    mismatch or a length header beyond ``max_payload`` raises
    :class:`~repro.errors.FramingError`, and the decoder refuses further
    input — on a TCP stream there is no way to find the next frame
    boundary after corruption, so the only safe move is to kill the
    connection.  :meth:`at_boundary` distinguishes a clean EOF (peer
    closed between frames) from a truncated one (mid-frame).
    """

    def __init__(self, *, max_payload: int = MAX_PAYLOAD) -> None:
        if max_payload <= 0:
            raise InvalidParameterError(
                f"max_payload must be > 0, got {max_payload}"
            )
        self.max_payload = max_payload
        self._buf = bytearray()
        self._dead = False

    @property
    def at_boundary(self) -> bool:
        """True when no partial frame is buffered (clean-EOF point)."""
        return not self._buf

    @property
    def buffered(self) -> int:
        """Bytes currently buffered (partial frame, if any)."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return every payload completed by it.

        Raises :class:`~repro.errors.FramingError` on corruption; after
        that every further call raises too (the stream is unusable).
        """
        if self._dead:
            raise FramingError("frame stream already failed; reconnect")
        self._buf += data
        payloads: list[bytes] = []
        while len(self._buf) >= FRAME_HEADER_SIZE:
            length, crc = FRAME_HEADER.unpack_from(self._buf)
            if length > self.max_payload:
                self._dead = True
                raise FramingError(
                    f"frame length {length} exceeds the {self.max_payload}-"
                    "byte bound (corrupt stream or hostile peer)"
                )
            end = FRAME_HEADER_SIZE + length
            if len(self._buf) < end:
                break
            payload = bytes(self._buf[FRAME_HEADER_SIZE:end])
            if zlib.crc32(payload) != crc:
                self._dead = True
                raise FramingError(
                    "frame CRC mismatch (corrupt stream); closing"
                )
            del self._buf[:end]
            payloads.append(payload)
        return payloads


class FrameWriter:
    """Coalescing frame writer for a byte *stream* (TCP).

    :meth:`send` frames a payload and queues it.  The first frame queued
    in an event-loop turn schedules one ``loop.call_soon`` :meth:`flush`,
    which hands every queued frame to ``write`` in a single call.  The
    bytes written are the frames in send order, whenever the flush runs:
    batching changes only the number of ``write()`` calls, which on a
    socket are one syscall each.  The owner flushes before it awaits a
    drain or closes the stream, and discards the queue (:meth:`discard`)
    when it aborts the stream.
    """

    __slots__ = ("_write", "_queue")

    def __init__(self, write: Callable[[bytes], object]) -> None:
        self._write = write
        self._queue: list[bytes] = []

    def send(self, payload: bytes) -> None:
        """Queue ``payload`` as one frame for this turn's write."""
        if not self._queue:
            asyncio.get_running_loop().call_soon(self.flush)
        self._queue.append(encode_frame(payload))

    def flush(self) -> None:
        """Write every queued frame now, in one call."""
        if self._queue:
            data = b"".join(self._queue)
            self._queue.clear()
            self._write(data)

    def discard(self) -> None:
        """Drop the queued frames unwritten."""
        self._queue.clear()
