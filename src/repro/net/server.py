"""The asyncio TCP front door for the scheduling service.

One :class:`NetServer` wraps any backend with the service surface
(``submit_nowait`` / ``tick`` / ``slot`` / ``n_fibers`` / ``scheme``) —
the in-process :class:`~repro.service.server.SchedulingService` or the
multi-process :class:`~repro.net.procservice.ProcessShardedService` —
and serves the wire protocol (:mod:`repro.net.protocol`) over length+CRC
frames (:mod:`repro.util.framing`).

Per-connection discipline:

* the first message must be HELLO; the server answers WELCOME with the
  negotiated version and the interconnect shape, or ERROR
  ``NO_COMMON_VERSION`` and closes;
* SUBMIT resolves asynchronously — the response (GRANT / REJECT /
  ERROR with the same ``seq``) is written when the service resolves the
  future, so responses may interleave with later requests;
* TICK_ADVANCE runs ticks under one server-wide lock (ticks are global,
  connections must not interleave halves of them) and answers TICK_DONE;
* PING (protocol ≥ 4) answers PONG carrying the current slot — the
  heartbeat that feeds the client-side liveness detector and resyncs a
  reconnecting client's logical clock;
* corrupt frames or protocol violations get a best-effort ERROR with
  ``seq == 0`` and the connection dies — a reader is never left hanging.

Liveness discipline (protocol v4, PR 10):

* ``handshake_timeout`` — a peer that connects and never completes the
  HELLO within the deadline is shed (best-effort ERROR
  ``HANDSHAKE_REQUIRED`` + close), so a half-open socket cannot pin a
  connection task forever;
* ``idle_timeout`` — a greeted connection that stays silent longer than
  the window is reaped (best-effort BYE + close).  v4 clients heartbeat
  (PING counts as traffic), so only dead or wedged peers are reaped.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.errors import (
    FramingError,
    InvalidParameterError,
    MigrationError,
    ProtocolError,
    SimulationError,
)
from repro.net import protocol as proto
from repro.service.server import Rejected, RejectReason, ServiceGrant
from repro.util.framing import FrameDecoder, FrameWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.protocol import Message

__all__ = ["NetServer"]

_READ_CHUNK = 65536


class _Conn:
    """Per-connection state: writer, negotiated version, watched futures,
    and the frames queued for the next write."""

    __slots__ = ("writer", "watched", "closed", "version", "frames")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.watched: "set[asyncio.Future]" = set()
        self.closed = False
        self.version = max(proto.PROTOCOL_VERSIONS)
        self.frames = FrameWriter(writer.write)

    def send(self, msg: "Message") -> None:
        """Queue one frame.  Frames queued in one event-loop turn (a
        tick's GRANT/REJECT callbacks all run in one) reach the transport
        in a single ``write()`` at the end of the turn, in send order."""
        if not self.closed:
            self.frames.send(proto.encode_message(msg))


class NetServer:
    """Serve a scheduling service over TCP (see module docstring).

    The server owns only the network edge; the backend service's
    lifecycle stays with the caller (``stop()`` closes sockets, not the
    service).  ``port=0`` binds an ephemeral port, readable from
    :attr:`port` after :meth:`start`.

    ``handshake_timeout`` (seconds) sheds peers that connect but never
    complete the HELLO; ``idle_timeout`` (seconds, default off) reaps
    greeted connections with no inbound traffic for that long — see the
    module docstring's liveness discipline.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        handshake_timeout: float | None = 10.0,
        idle_timeout: float | None = None,
    ) -> None:
        if handshake_timeout is not None and handshake_timeout <= 0:
            raise InvalidParameterError(
                f"handshake_timeout must be > 0, got {handshake_timeout}"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise InvalidParameterError(
                f"idle_timeout must be > 0, got {idle_timeout}"
            )
        self.service = service
        self.host = host
        self.handshake_timeout = handshake_timeout
        self.idle_timeout = idle_timeout
        self._requested_port = port
        self._server: asyncio.base_events.Server | None = None
        self._conns: set[_Conn] = set()
        self._handlers: "set[asyncio.Task]" = set()
        self._tick_lock = asyncio.Lock()

    @property
    def port(self) -> int:
        if self._server is None:
            raise SimulationError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise SimulationError("server already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )

    async def stop(self) -> None:
        """Close the listener and every connection; idempotent."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        conn = _Conn(writer)
        self._conns.add(conn)
        try:
            await self._serve_connection(conn, reader)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            self._teardown(conn)
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass
            if task is not None:
                self._handlers.discard(task)

    def _teardown(self, conn: _Conn) -> None:
        """Detach watched futures (they may resolve after close — the
        service still owns them; we just must not write) and close."""
        if conn.closed:
            return
        # A final ERROR/BYE still goes out before the close.
        conn.frames.flush()
        conn.closed = True
        self._conns.discard(conn)
        conn.watched.clear()
        if not conn.writer.is_closing():
            conn.writer.close()

    async def _serve_connection(
        self, conn: _Conn, reader: asyncio.StreamReader
    ) -> None:
        decoder = FrameDecoder(max_payload=proto.MAX_MESSAGE)
        greeted = False
        while True:
            read_timeout = (
                self.handshake_timeout if not greeted else self.idle_timeout
            )
            try:
                if read_timeout is None:
                    data = await reader.read(_READ_CHUNK)
                else:
                    data = await asyncio.wait_for(
                        reader.read(_READ_CHUNK), read_timeout
                    )
            except asyncio.TimeoutError:
                if not greeted:
                    # Half-open peer: never finished HELLO — shed it.
                    conn.send(
                        proto.ErrorMsg(
                            0,
                            proto.ErrorCode.HANDSHAKE_REQUIRED,
                            f"no HELLO within {self.handshake_timeout}s "
                            "handshake deadline",
                        )
                    )
                else:
                    # Idle reaping: a silent (non-heartbeating) peer.
                    conn.send(proto.Bye())
                await self._flush(conn)
                return
            if not data:
                return  # peer closed (mid-frame EOFs just die with it)
            try:
                payloads = decoder.feed(data)
            except FramingError as exc:
                conn.send(
                    proto.ErrorMsg(0, proto.ErrorCode.BAD_FRAME, str(exc))
                )
                break
            for payload in payloads:
                try:
                    msg = proto.decode_message(payload)
                except ProtocolError as exc:
                    conn.send(
                        proto.ErrorMsg(
                            0, proto.ErrorCode.BAD_REQUEST, str(exc)
                        )
                    )
                    await self._flush(conn)
                    return
                if isinstance(msg, proto.Bye):
                    return
                if not greeted:
                    if not await self._handshake(conn, msg):
                        return
                    greeted = True
                    continue
                if not await self._dispatch(conn, msg):
                    return
            await self._flush(conn)

    async def _flush(self, conn: _Conn) -> None:
        conn.frames.flush()
        if not conn.closed and not conn.writer.is_closing():
            try:
                await conn.writer.drain()
            except (ConnectionError, BrokenPipeError):
                conn.closed = True

    async def _handshake(self, conn: _Conn, msg: "Message") -> bool:
        if not isinstance(msg, proto.Hello):
            conn.send(
                proto.ErrorMsg(
                    0,
                    proto.ErrorCode.HANDSHAKE_REQUIRED,
                    f"expected HELLO first, got {type(msg).__name__}",
                )
            )
            await self._flush(conn)
            return False
        version = proto.negotiate_version(msg.versions)
        if version is None:
            conn.send(
                proto.ErrorMsg(
                    0,
                    proto.ErrorCode.NO_COMMON_VERSION,
                    f"server speaks {list(proto.PROTOCOL_VERSIONS)}, "
                    f"client offered {list(msg.versions)}",
                )
            )
            await self._flush(conn)
            return False
        conn.version = version
        conn.send(
            proto.Welcome(version, self.service.n_fibers, self.service.scheme.k)
        )
        await self._flush(conn)
        return True

    async def _dispatch(self, conn: _Conn, msg: "Message") -> bool:
        """Handle one post-handshake message; False closes the connection."""
        if isinstance(msg, proto.Submit):
            self._handle_submit(conn, msg)
            return True
        if isinstance(msg, proto.TickAdvance):
            async with self._tick_lock:
                granted = 0
                for _ in range(msg.count):
                    granted += await self.service.tick()
            conn.send(proto.TickDone(self.service.slot, granted))
            return True
        if isinstance(msg, proto.Migrate):
            await self._handle_migrate(conn, msg)
            return True
        if isinstance(msg, proto.Ping):
            if conn.version < 4:
                conn.send(
                    proto.ErrorMsg(
                        0,
                        proto.ErrorCode.BAD_REQUEST,
                        f"PING needs protocol >= 4, connection negotiated "
                        f"version {conn.version}",
                    )
                )
                await self._flush(conn)
                return False
            conn.send(proto.Pong(msg.token, self.service.slot))
            return True
        conn.send(
            proto.ErrorMsg(
                0,
                proto.ErrorCode.BAD_REQUEST,
                f"{type(msg).__name__} is not a client message",
            )
        )
        await self._flush(conn)
        return False

    async def _handle_migrate(self, conn: _Conn, msg: proto.Migrate) -> None:
        """Protocol ≥ 3 admin op: live-migrate one shard, reply MIGRATED.

        Runs under the tick lock — the migration engine's quiesce phase
        *is* the tick boundary, so no tick may interleave with it.
        """
        if conn.version < 3:
            conn.send(
                proto.ErrorMsg(
                    msg.seq,
                    proto.ErrorCode.BAD_REQUEST,
                    f"MIGRATE needs protocol >= 3, connection negotiated "
                    f"version {conn.version}",
                )
            )
            return
        migrate = getattr(self.service, "migrate_shard", None)
        if migrate is None:
            conn.send(
                proto.ErrorMsg(
                    msg.seq,
                    proto.ErrorCode.BAD_REQUEST,
                    "this server's backend does not support live migration",
                )
            )
            return
        try:
            async with self._tick_lock:
                report = migrate(msg.shard, msg.destination)
        except (InvalidParameterError, MigrationError) as exc:
            conn.send(
                proto.ErrorMsg(msg.seq, proto.ErrorCode.BAD_REQUEST, str(exc))
            )
            return
        conn.send(
            proto.Migrated(
                msg.seq,
                report.shard,
                report.source,
                report.destination,
                report.next_tick,
                report.payload_bytes,
                report.journal_records,
                report.resumed,
            )
        )

    def _handle_submit(self, conn: _Conn, msg: proto.Submit) -> None:
        if msg.tenant and conn.version < 2:
            # A v1 peer has no SUBMIT2 and should never have sent one.
            conn.send(
                proto.ErrorMsg(
                    msg.seq,
                    proto.ErrorCode.BAD_REQUEST,
                    f"tenant {msg.tenant} needs protocol >= 2, connection "
                    f"negotiated version {conn.version}",
                )
            )
            return
        # timeout_ticks is a deterministic slot deadline (submit slot +
        # timeout_ticks on the server's logical clock), not a wall-clock
        # conversion: the same schedule expires the same requests at the
        # same slots every run, partitions included.
        try:
            future = self.service.submit_nowait(
                msg.to_request(),
                timeout_ticks=(
                    None if msg.timeout_ticks < 0 else msg.timeout_ticks
                ),
                request_id=msg.request_id or None,
            )
        except (InvalidParameterError, SimulationError) as exc:
            conn.send(
                proto.ErrorMsg(msg.seq, proto.ErrorCode.BAD_REQUEST, str(exc))
            )
            return
        seq = msg.seq
        conn.watched.add(future)

        def _resolved(fut: "asyncio.Future") -> None:
            conn.watched.discard(fut)
            if conn.closed or fut.cancelled():
                return
            exc = fut.exception()
            if exc is not None:
                conn.send(
                    proto.ErrorMsg(seq, proto.ErrorCode.INTERNAL, str(exc))
                )
                return
            outcome = fut.result()
            if isinstance(outcome, ServiceGrant):
                conn.send(proto.Grant(seq, outcome.channel, outcome.slot))
            else:
                assert isinstance(outcome, Rejected)
                reason = outcome.reason
                if reason is RejectReason.ADMISSION_SHED and conn.version < 2:
                    # v1 peers predate the code; the closest v1 semantic
                    # is DROPPED (lost to queue pressure).
                    reason = RejectReason.DROPPED
                elif reason is RejectReason.RATE_LIMITED and conn.version < 3:
                    # Same downgrade for the v3 rate-limiter code: to a
                    # v<=2 peer it is a load-pressure drop.
                    reason = RejectReason.DROPPED
                elif reason is RejectReason.UNAVAILABLE and conn.version < 4:
                    # v<=3 peers predate the partition code; SHARD_DOWN is
                    # the closest older semantic (the owner of this output
                    # fiber cannot serve you right now).
                    reason = RejectReason.SHARD_DOWN
                conn.send(
                    proto.Reject(
                        seq,
                        reason,
                        -1 if outcome.slot is None else outcome.slot,
                    )
                )

        future.add_done_callback(_resolved)
