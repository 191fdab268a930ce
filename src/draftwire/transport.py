"""Server/worker runtime: framed wire protocol plus an in-process twin.

Frame layout (little-endian): u32 body length, u8 kind, u64 correlation id,
then the body. Max frame 64 MiB. Correlation ids strictly increase per
connection; replies echo the request id.

Conversation, orchestrator side:

    HELLO -> HELLO                 version check; a worker answers any
                                   other version with ERROR
    CONFIGURE -> CONFIGURE         vocab, k, gamma, seed; resets the
                                   worker's prefix mirror
    DRAFT_BROADCAST -> SCORES_UPLOAD
                                   prefix delta + draft tokens out;
                                   mirror checksum + gamma+1 encoded
                                   payloads back
    SHUTDOWN                       no reply, worker exits

A worker's prefix mirror grows only by the prefix delta: committed tokens,
the prompt first, ride on the next DRAFT_BROADCAST. Kind byte 5 is retired.
Reconstruction and aggregation happen on the orchestrator only, so a
worker is told neither its weight nor the strategy.

Closing the connection without SHUTDOWN ends the session only: the worker
goes back to accept and serves the next one.

Both modes share ``WorkerCore`` for scoring, so a loopback TCP run and an
in-process run execute identical arithmetic in identical order; payload
bytes pass through the same codec either way. Aggregation order is fixed by
worker index regardless of reply arrival order.
"""

from __future__ import annotations

import enum
import socket
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from .compression import TopKPayload, decode_payload, encode_payload, truncate_topk
from .dist import Distribution
from .seeding import stable_prefix_hash
from .specdec import ModelProvider

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

PROTOCOL_VERSION = 3
MAX_FRAME_BYTES = 64 * 1024 * 1024
FRAME_HEADER = struct.Struct("<IBQ")  # body length, kind, correlation id
CONFIGURE_BODY = struct.Struct("<IIIQ")  # vocab, k, gamma, seed
DEFAULT_TIMEOUT = 5.0


class Kind(enum.IntEnum):
    HELLO = 1
    CONFIGURE = 2
    DRAFT_BROADCAST = 3
    SCORES_UPLOAD = 4
    SHUTDOWN = 6
    ERROR = 7


class FramingError(ValueError):
    """A frame violates the wire format."""


class OversizeFrameError(FramingError):
    """Declared body length exceeds the 64 MiB frame bound."""


class UnknownKindError(FramingError):
    """Frame kind byte is not a known message kind."""


class TruncatedStreamError(FramingError):
    """The stream ended mid-frame."""


class ProtocolError(ValueError):
    """A peer sent a well-formed message at the wrong time."""


class WorkerFailureError(RuntimeError):
    """A decode step failed; the message names the worker."""


@dataclass(frozen=True)
class Message:
    kind: Kind
    corr_id: int
    body: bytes = b""


def frame_encode(m: Message) -> bytes:
    if len(m.body) > MAX_FRAME_BYTES - FRAME_HEADER.size:
        raise OversizeFrameError(f"body of {len(m.body)} bytes exceeds frame bound")
    return FRAME_HEADER.pack(len(m.body), int(m.kind), m.corr_id) + m.body


def frame_decode(read: Callable[[int], bytes]) -> Message:
    """Decode one frame from a blocking reader returning exactly n bytes."""
    header = read(FRAME_HEADER.size)
    if len(header) < FRAME_HEADER.size:
        raise TruncatedStreamError("stream ended inside a frame header")
    body_len, kind_byte, corr_id = FRAME_HEADER.unpack(header)
    if body_len > MAX_FRAME_BYTES - FRAME_HEADER.size:
        raise OversizeFrameError(f"frame declares {body_len}-byte body")
    try:
        kind = Kind(kind_byte)
    except ValueError:
        raise UnknownKindError(f"unknown message kind {kind_byte}") from None
    body = read(body_len) if body_len else b""
    if len(body) < body_len:
        raise TruncatedStreamError("stream ended inside a frame body")
    return Message(kind=kind, corr_id=corr_id, body=body)


# ---------------------------------------------------------------------------
# Body packers


def pack_hello() -> bytes:
    return struct.pack("<H", PROTOCOL_VERSION)


def unpack_hello(body: bytes) -> int:
    if len(body) != 2:
        raise FramingError("HELLO body must be 2 bytes")
    return struct.unpack("<H", body)[0]


@dataclass(frozen=True)
class WorkerConfig:
    vocab_size: int
    k: int
    gamma: int
    seed_material: int


def pack_configure(cfg: WorkerConfig) -> bytes:
    return CONFIGURE_BODY.pack(cfg.vocab_size, cfg.k, cfg.gamma, cfg.seed_material)


def unpack_configure(body: bytes) -> WorkerConfig:
    if len(body) != CONFIGURE_BODY.size:
        raise FramingError(f"CONFIGURE body must be {CONFIGURE_BODY.size} bytes")
    return WorkerConfig(*CONFIGURE_BODY.unpack(body))


def _pack_tokens(tokens: Sequence[int]) -> bytes:
    arr = np.asarray(tokens, dtype="<u4")
    return struct.pack("<I", arr.size) + arr.tobytes()


def _unpack_tokens(body: bytes, offset: int) -> tuple[tuple[int, ...], int]:
    if len(body) < offset + 4:
        raise FramingError("token list header truncated")
    (count,) = struct.unpack_from("<I", body, offset)
    end = offset + 4 + 4 * count
    if len(body) < end:
        raise FramingError("token list truncated")
    toks = np.frombuffer(body, dtype="<u4", count=count, offset=offset + 4)
    return tuple(int(t) for t in toks), end


def pack_draft_broadcast(delta: Sequence[int], draft: Sequence[int]) -> bytes:
    return _pack_tokens(delta) + _pack_tokens(draft)


def unpack_draft_broadcast(body: bytes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    delta, off = _unpack_tokens(body, 0)
    draft, off = _unpack_tokens(body, off)
    if off != len(body):
        raise FramingError("trailing bytes after DRAFT_BROADCAST body")
    return delta, draft


def pack_scores(checksum: int, payload_bodies: Sequence[bytes]) -> bytes:
    parts = [struct.pack("<QI", checksum, len(payload_bodies))]
    for b in payload_bodies:
        parts.append(struct.pack("<I", len(b)))
        parts.append(b)
    return b"".join(parts)


def unpack_scores(body: bytes) -> tuple[int, list[bytes]]:
    if len(body) < 12:
        raise FramingError("SCORES_UPLOAD body truncated")
    checksum, count = struct.unpack_from("<QI", body, 0)
    off = 12
    bodies: list[bytes] = []
    for _ in range(count):
        if len(body) < off + 4:
            raise FramingError("payload length header truncated")
        (n,) = struct.unpack_from("<I", body, off)
        off += 4
        if len(body) < off + n:
            raise FramingError("payload bytes truncated")
        bodies.append(body[off:off + n])
        off += n
    if off != len(body):
        raise FramingError("trailing bytes after SCORES_UPLOAD body")
    return checksum, bodies


def expected_upload_bytes(gamma: int, k: int) -> int:
    """Wire bytes of one SCORES_UPLOAD frame: header + checksum + payloads."""
    payload = 8 + 8 * k
    return FRAME_HEADER.size + 12 + (gamma + 1) * (4 + payload)


# ---------------------------------------------------------------------------
# Worker side

ModelFactory = Callable[[int, int, int], ModelProvider]
"""(vocab_size, seed_material, worker_index) -> provider."""


class WorkerCore:
    """Scoring state machine shared by the TCP worker and in-process mode.

    Holds the prefix mirror and the configured model; scores gamma+1
    positions per draft block and encodes each to payload bytes. Exposes
    the pre-truncation distributions only when asked (instrumented runs).
    """

    def __init__(self, index: int, factory: ModelFactory, *, expose_shadows: bool = False) -> None:
        self.index = index
        self._factory = factory
        self._expose_shadows = expose_shadows
        self._config: WorkerConfig | None = None
        self._model: ModelProvider | None = None
        self._mirror: list[int] = []

    def configure(self, cfg: WorkerConfig) -> None:
        if not 1 <= cfg.k <= cfg.vocab_size:
            raise ProtocolError(f"k={cfg.k} out of range [1, {cfg.vocab_size}]")
        if cfg.gamma < 1:
            raise ProtocolError("gamma must be >= 1")
        self._model = self._factory(cfg.vocab_size, cfg.seed_material, self.index)
        self._config = cfg
        self._mirror = []

    def handle_draft(
        self, delta: Sequence[int], draft: Sequence[int]
    ) -> tuple[bytes, list[Distribution] | None]:
        """Extend the mirror by ``delta``; return the SCORES_UPLOAD body and
        the shadows, when exposed."""
        if self._config is None or self._model is None:
            raise ProtocolError("not configured")
        cfg = self._config
        if len(draft) != cfg.gamma:
            raise ProtocolError(f"expected {cfg.gamma} draft tokens, got {len(draft)}")
        self._mirror.extend(int(t) for t in delta)
        checksum = stable_prefix_hash(self._mirror)
        bodies: list[bytes] = []
        shadows: list[Distribution] | None = [] if self._expose_shadows else None
        context = list(self._mirror)
        for t in range(cfg.gamma + 1):
            d = self._model.distribution(tuple(context + [int(x) for x in draft[:t]]))
            if d.vocab_size != cfg.vocab_size:
                raise ProtocolError(
                    f"model vocabulary {d.vocab_size} != configured {cfg.vocab_size}"
                )
            bodies.append(encode_payload(truncate_topk(d, cfg.k)))
            if shadows is not None:
                shadows.append(d)
        return pack_scores(checksum, bodies), shadows


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def worker_serve(
    host: str,
    port: int,
    factory: ModelFactory,
    *,
    worker_index: int = 0,
    ready: Callable[[int], None] | None = None,
) -> None:
    """Serve score requests until a SHUTDOWN frame arrives.

    One session at a time; a closed or dropped connection returns to
    accept, so one worker serves any number of runs in turn. The
    bound port (useful with port 0) is reported through ``ready``.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(1)
        if ready is not None:
            ready(listener.getsockname()[1])
        while True:
            conn, _ = listener.accept()
            with conn:
                # frames are tiny and strictly request/response; Nagle plus
                # delayed ACK would stall every exchange
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if _serve_session(conn, factory, worker_index):
                    return


class _PeerGone(Exception):
    """A socket call failed mid-session: the peer reset or closed."""


def _serve_session(conn: socket.socket, factory: ModelFactory, worker_index: int) -> bool:
    """Handle one connection; True means SHUTDOWN was received.

    Any socket error (reset, broken pipe) ends the session, never the
    worker: the caller goes back to accept.
    """
    core = WorkerCore(worker_index, factory)
    greeted = False
    last_corr = -1

    def reply(kind: Kind, corr_id: int, body: bytes = b"") -> None:
        try:
            conn.sendall(frame_encode(Message(kind, corr_id, body)))
        except OSError as exc:
            raise _PeerGone from exc

    try:
        while True:
            try:
                msg = frame_decode(lambda n: _read_exact(conn, n))
            except (TruncatedStreamError, OSError):
                return False  # peer went away; back to accept
            except FramingError as exc:
                reply(Kind.ERROR, 0, str(exc).encode())
                return False
            if msg.corr_id <= last_corr:
                reply(Kind.ERROR, msg.corr_id, b"correlation id did not increase")
                return False
            last_corr = msg.corr_id
            try:
                if msg.kind == Kind.SHUTDOWN:
                    return True
                if msg.kind == Kind.HELLO:
                    version = unpack_hello(msg.body)
                    if version != PROTOCOL_VERSION:
                        raise ProtocolError(f"protocol version {version}, "
                                            f"worker speaks {PROTOCOL_VERSION}")
                    greeted = True
                    reply(Kind.HELLO, msg.corr_id, pack_hello())
                elif not greeted:
                    raise ProtocolError("expected HELLO first")
                elif msg.kind == Kind.CONFIGURE:
                    core.configure(unpack_configure(msg.body))
                    reply(Kind.CONFIGURE, msg.corr_id)
                elif msg.kind == Kind.DRAFT_BROADCAST:
                    body, _ = core.handle_draft(*unpack_draft_broadcast(msg.body))
                    reply(Kind.SCORES_UPLOAD, msg.corr_id, body)
                else:
                    raise ProtocolError(f"unexpected {msg.kind.name}")
            except (ProtocolError, FramingError, ValueError) as exc:
                reply(Kind.ERROR, msg.corr_id, str(exc).encode())
                return False
    except _PeerGone:
        return False


# ---------------------------------------------------------------------------
# Orchestrator side


@dataclass(frozen=True)
class ScoreResult:
    """Decoded uploads for one draft block, ordered by worker index."""

    payloads: list[list[TopKPayload]]  # M x (gamma + 1)
    uplink_bytes: list[int]
    shadows: list[list[Distribution]] | None = None


class WorkerPool(Protocol):
    """What the decode engine needs from a set of workers.

    ``commit`` only queues tokens: they go out as the prefix delta of the
    next ``score_block``, and ``configure`` empties the queue and the
    mirrors. ``score_block`` checks every upload's mirror checksum against
    ``prefix_hash`` and names the lowest worker that diverged.
    """

    def configure(self, configs: Sequence[WorkerConfig]) -> None: ...

    def score_block(self, prefix_hash: int, draft: Sequence[int]) -> ScoreResult: ...

    def commit(self, tokens: Sequence[int]) -> None: ...

    def close(self) -> None: ...


def _read_uploads(
    uploads: Sequence[bytes],
    prefix_hash: int,
    uplink_totals: list[int],
    shadows: list[list[Distribution]] | None = None,
) -> ScoreResult:
    """Check and decode every worker's SCORES_UPLOAD body, in worker-index
    order, and add each one's frame bytes to its entry of ``uplink_totals``."""
    payloads: list[list[TopKPayload]] = []
    uplink: list[int] = []
    for i, upload in enumerate(uploads):
        try:
            checksum, bodies = unpack_scores(upload)
            payloads.append([decode_payload(b) for b in bodies])
        except (FramingError, ValueError) as exc:
            raise WorkerFailureError(f"worker {i}: bad upload ({exc})") from exc
        if checksum != prefix_hash:
            raise WorkerFailureError(f"worker {i}: prefix mirror diverged")
        uplink.append(FRAME_HEADER.size + len(upload))
        uplink_totals[i] += uplink[-1]
    return ScoreResult(payloads=payloads, uplink_bytes=uplink, shadows=shadows)


class InProcessPool:
    """Worker pool living in the orchestrator process.

    Payload bytes still pass through encode/decode, so results are
    bit-identical to the TCP pool; uplink accounting mirrors the frames
    that would have crossed the wire.

    Workers score a block concurrently, as they do over TCP: worker 0 on
    the calling thread, each other worker on a helper thread of its own
    (M - 1 of them, none at M = 1), started with the first block and
    joined by ``close``. Results are gathered in worker-index order. When
    workers fail, the lowest index is reported, once every helper has
    returned.
    """

    def __init__(self, m: int, factory: ModelFactory, *, instrumented: bool = False) -> None:
        self._cores = [WorkerCore(i, factory, expose_shadows=instrumented) for i in range(m)]
        self._helpers: list[ThreadPoolExecutor] = []
        self._pending: list[int] = []
        self.uplink_totals = [0] * m

    def configure(self, configs: Sequence[WorkerConfig]) -> None:
        if len(configs) != len(self._cores):
            raise ValueError("one config per worker required")
        self._pending = []
        for i, (core, cfg) in enumerate(zip(self._cores, configs)):
            try:
                core.configure(cfg)
            except (ProtocolError, ValueError) as exc:
                raise WorkerFailureError(f"worker {i}: {exc}") from exc

    def _score(
        self, i: int, delta: Sequence[int], draft: Sequence[int]
    ) -> tuple[bytes, list[Distribution] | None]:
        try:
            return self._cores[i].handle_draft(delta, draft)
        except (ProtocolError, ValueError) as exc:
            raise WorkerFailureError(f"worker {i}: {exc}") from exc

    def score_block(self, prefix_hash: int, draft: Sequence[int]) -> ScoreResult:
        # concurrent.futures (and the logging it imports) loads when an
        # in-process pool first scores, not in every draftwire command
        from concurrent.futures import ThreadPoolExecutor, wait

        delta, self._pending = tuple(self._pending), []
        if not self._helpers:
            # one single-thread executor per helper worker: a shared one
            # would let one idle helper take two workers' jobs in turn
            self._helpers = [ThreadPoolExecutor(1, thread_name_prefix=f"draftwire-worker-{i}")
                             for i in range(1, len(self._cores))]
        futures = [helper.submit(self._score, i, delta, draft)
                   for i, helper in enumerate(self._helpers, start=1)]
        try:
            replies = [self._score(0, delta, draft)]
        finally:
            wait(futures)
        replies += [f.result() for f in futures]
        uploads, shadows = zip(*replies)
        # every core exposes its shadows, or none does
        return _read_uploads(uploads, prefix_hash, self.uplink_totals,
                             None if shadows[0] is None else list(shadows))

    def commit(self, tokens: Sequence[int]) -> None:
        self._pending.extend(tokens)

    def close(self) -> None:
        """Join the helper threads; a later block starts new ones."""
        for helper in self._helpers:
            helper.shutdown()
        self._helpers = []


class TcpPool:
    """Worker pool over framed TCP connections.

    Broadcasts are written to every worker before any reply is read, so
    workers score concurrently; replies are read in worker-index order,
    which also fixes aggregation order. Any timeout, ERROR reply, or
    malformed response fails the decode step naming the worker.
    """

    def __init__(self, endpoints: Sequence[tuple[str, int]], *, timeout: float = DEFAULT_TIMEOUT) -> None:
        self._socks: list[socket.socket] = []
        self._corr = 0
        self._pending: list[int] = []
        self.uplink_totals = [0] * len(endpoints)
        try:
            for host, port in endpoints:
                sock = socket.create_connection((host, port), timeout=timeout)
                sock.settimeout(timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._socks.append(sock)
            for i in range(len(self._socks)):
                reply = self._request(i, Kind.HELLO, pack_hello())
                if unpack_hello(reply.body) != PROTOCOL_VERSION:
                    raise WorkerFailureError(f"worker {i}: protocol version mismatch")
        except Exception:
            self.close()
            raise

    def _next_corr(self) -> int:
        self._corr += 1
        return self._corr

    def _send(self, i: int, kind: Kind, body: bytes, corr_id: int) -> None:
        try:
            self._socks[i].sendall(frame_encode(Message(kind, corr_id, body)))
        except OSError as exc:
            raise WorkerFailureError(f"worker {i}: send failed ({exc})") from exc

    def _recv(self, i: int, expect: Kind, corr_id: int) -> Message:
        try:
            msg = frame_decode(lambda n: _read_exact(self._socks[i], n))
        except socket.timeout as exc:
            raise WorkerFailureError(f"worker {i}: timed out waiting for {expect.name}") from exc
        except (FramingError, OSError) as exc:
            raise WorkerFailureError(f"worker {i}: {exc}") from exc
        if msg.kind == Kind.ERROR:
            raise WorkerFailureError(f"worker {i}: remote error: {msg.body.decode(errors='replace')}")
        if msg.kind != expect:
            raise WorkerFailureError(f"worker {i}: expected {expect.name}, got {msg.kind.name}")
        if msg.corr_id != corr_id:
            raise WorkerFailureError(f"worker {i}: correlation id mismatch")
        return msg

    def _request(self, i: int, kind: Kind, body: bytes) -> Message:
        corr = self._next_corr()
        self._send(i, kind, body, corr)
        return self._recv(i, kind, corr)

    def configure(self, configs: Sequence[WorkerConfig]) -> None:
        if len(configs) != len(self._socks):
            raise ValueError("one config per worker required")
        self._pending = []
        corrs = []
        for i, cfg in enumerate(configs):
            corr = self._next_corr()
            self._send(i, Kind.CONFIGURE, pack_configure(cfg), corr)
            corrs.append(corr)
        for i, corr in enumerate(corrs):
            self._recv(i, Kind.CONFIGURE, corr)

    def score_block(self, prefix_hash: int, draft: Sequence[int]) -> ScoreResult:
        body = pack_draft_broadcast(self._pending, draft)
        self._pending = []
        corrs = []
        for i in range(len(self._socks)):
            corr = self._next_corr()
            self._send(i, Kind.DRAFT_BROADCAST, body, corr)
            corrs.append(corr)
        uploads = [self._recv(i, Kind.SCORES_UPLOAD, corr).body for i, corr in enumerate(corrs)]
        return _read_uploads(uploads, prefix_hash, self.uplink_totals)

    def commit(self, tokens: Sequence[int]) -> None:
        self._pending.extend(tokens)

    def close(self) -> None:
        """Disconnect; each worker goes back to accept its next session."""
        for sock in self._socks:
            try:
                sock.close()
            except OSError:
                pass

    def shutdown(self) -> None:
        """Ask every worker process to exit, then disconnect."""
        for i, sock in enumerate(self._socks):
            try:
                sock.sendall(frame_encode(Message(Kind.SHUTDOWN, self._corr + 1 + i)))
            except OSError:
                pass
        self._corr += len(self._socks)
        self.close()
