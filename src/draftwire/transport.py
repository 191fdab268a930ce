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

The orchestrator sends each request kind in one round: to every worker
before it reads any reply, then the replies in worker-index order, each
against one deadline for the whole frame.

Both modes share ``WorkerCore`` for scoring, so a loopback TCP run and an
in-process run execute identical arithmetic in identical order; payload
bytes pass through the same codec either way. Both pools share
``WorkerPool``, which keeps the configs and the queued prefix delta and
checks every upload; a pool supplies only ``_configure`` and
``_exchange``, how configs and drafts reach its workers. Aggregation order
is fixed by worker index regardless of reply arrival order.
"""

from __future__ import annotations

import enum
import struct
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .compression import TopKPayload, decode_payload, encode_payload, truncate_topk
from .dist import Distribution
from .models import TraceError
from .seeding import Prefix
from .seeding import stable_prefix_hash  # noqa: F401  perfbench/tracing.py wraps it here
from .specdec import ModelProvider, scored_prefixes

if TYPE_CHECKING:
    import socket
    from concurrent.futures import ThreadPoolExecutor

PROTOCOL_VERSION = 3
MAX_FRAME_BYTES = 64 * 1024 * 1024
# The most bytes one block may take as float64 rows (gamma draft rows and
# M (gamma + 1) worker rows of |V| floats), and again as scored prefixes
# (gamma + 1 for each worker and the orchestrator, of up to |prompt| +
# max_tokens + gamma 8-byte slots). ``config`` refuses a run past either
# before anything is built; a worker refuses a peer that would take its own
# share past either, which no valid run does.
MAX_BLOCK_BYTES = 256 * 2**20
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


def _check_share(cfg: WorkerConfig, mirror: int) -> None:
    """Refuse a block whose gamma + 1 float64 rows, or gamma + 1 scored
    prefixes after a ``mirror``-token prefix, take more than the budget."""
    gamma = cfg.gamma
    rows, prefixes = (gamma + 1) * cfg.vocab_size * 8, (gamma + 1) * (mirror + gamma) * 8
    if max(rows, prefixes) > MAX_BLOCK_BYTES:
        raise ProtocolError(f"at gamma = {gamma}, the rows of vocab_size {cfg.vocab_size} "
                            f"take {rows} B and the scored prefixes after a {mirror}-token "
                            f"mirror {prefixes} B: more than the {MAX_BLOCK_BYTES} B budget")


class WorkerCore:
    """Scoring state machine shared by the TCP worker and in-process mode.

    Holds the prefix mirror, a ``Prefix`` whose hash is the checksum, and
    the configured model; scores gamma+1 positions per draft block and
    encodes each to payload bytes. Exposes the pre-truncation
    distributions only when asked (instrumented runs).
    """

    def __init__(self, index: int, factory: ModelFactory, *, expose_shadows: bool = False) -> None:
        self.index = index
        self._factory = factory
        self._expose_shadows = expose_shadows
        self._config: WorkerConfig | None = None
        self._model: ModelProvider | None = None
        self._mirror = Prefix.of(())

    def configure(self, cfg: WorkerConfig) -> None:
        if not 1 <= cfg.k <= cfg.vocab_size:
            raise ProtocolError(f"k={cfg.k} out of range [1, {cfg.vocab_size}]")
        if cfg.gamma < 1:
            raise ProtocolError("gamma must be >= 1")
        _check_share(cfg, 0)
        self._model = self._factory(cfg.vocab_size, cfg.seed_material, self.index)
        self._config = cfg
        self._mirror = Prefix.of(())

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
        _check_share(cfg, len(self._mirror) + len(delta))
        self._mirror = self._mirror.extend(delta)
        bodies: list[bytes] = []
        shadows: list[Distribution] | None = [] if self._expose_shadows else None
        for prefix in scored_prefixes(self._mirror, draft):
            d = self._model.distribution(prefix)
            if d.vocab_size != cfg.vocab_size:
                raise ProtocolError(
                    f"model vocabulary {d.vocab_size} != configured {cfg.vocab_size}"
                )
            bodies.append(encode_payload(truncate_topk(d, cfg.k)))
            if shadows is not None:
                shadows.append(d)
        return pack_scores(self._mirror.hash, bodies), shadows


def _read_exact(sock: socket.socket, n: int, deadline: float | None = None) -> bytes:
    """Read n bytes, fewer if the stream ends; past a ``time.monotonic()``
    ``deadline``, raise ``TimeoutError``."""
    chunks = []
    remaining = n
    while remaining > 0:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0.0:
                raise TimeoutError("reply deadline passed")
            sock.settimeout(left)
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
    import socket  # in-process runs never load it

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


# Every worker's SCORES_UPLOAD body, in worker-index order, and the shadows
# when the workers expose them.
Replies = tuple[Sequence[bytes], list[list[Distribution]] | None]


class WorkerPool:
    """What the decode engine needs from a set of workers.

    ``commit`` only queues tokens: they go out as the prefix delta of the
    next ``score_block``, and ``configure`` empties the queue and the
    mirrors. ``score_block`` checks every upload, in worker-index order,
    against the worker's config (gamma + 1 payloads, each of the
    configured vocabulary and k) and its mirror checksum against
    ``prefix_hash``, names the lowest worker that failed, and adds each
    upload's frame bytes to its worker's entry of ``uplink_totals``.

    A pool supplies how its workers are reached: ``_configure(configs)``
    hands worker i ``configs[i]``, and ``_exchange(delta, draft)`` has
    every worker score the block and returns their ``Replies``.
    """

    def __init__(self, m: int) -> None:
        self._pending: list[int] = []
        self._configs: Sequence[WorkerConfig] = ()
        self.uplink_totals = [0] * m

    def configure(self, configs: Sequence[WorkerConfig]) -> None:
        if len(configs) != len(self.uplink_totals):
            raise ValueError("one config per worker required")
        self._pending = []
        self._configure(configs)
        self._configs = tuple(configs)

    def commit(self, tokens: Sequence[int]) -> None:
        self._pending.extend(tokens)

    def score_block(self, prefix_hash: int, draft: Sequence[int]) -> ScoreResult:
        delta, self._pending = tuple(self._pending), []
        uploads, shadows = self._exchange(delta, draft)
        payloads: list[list[TopKPayload]] = []
        uplink: list[int] = []
        for i, (upload, cfg) in enumerate(zip(uploads, self._configs, strict=True)):
            try:
                checksum, bodies = unpack_scores(upload)
                received = [decode_payload(b) for b in bodies]
            except (FramingError, ValueError) as exc:
                raise WorkerFailureError(f"worker {i}: bad upload ({exc})") from exc
            if len(received) != cfg.gamma + 1:
                raise WorkerFailureError(f"worker {i}: sent {len(received)} payloads, "
                                         f"configured gamma + 1 = {cfg.gamma + 1}")
            for t, p in enumerate(received):
                if p.vocab_size != cfg.vocab_size:
                    raise WorkerFailureError(f"worker {i}: payload {t} has vocab_size "
                                             f"{p.vocab_size}, configured {cfg.vocab_size}")
                if p.k != cfg.k:
                    raise WorkerFailureError(
                        f"worker {i}: payload {t} has k = {p.k}, configured {cfg.k}")
            payloads.append(received)
            if checksum != prefix_hash:
                raise WorkerFailureError(f"worker {i}: prefix mirror diverged")
            uplink.append(FRAME_HEADER.size + len(upload))
            self.uplink_totals[i] += uplink[-1]
        return ScoreResult(payloads=payloads, uplink_bytes=uplink, shadows=shadows)

    def close(self) -> None:
        raise NotImplementedError

    def _configure(self, configs: Sequence[WorkerConfig]) -> None:
        raise NotImplementedError

    def _exchange(self, delta: Sequence[int], draft: Sequence[int]) -> Replies:
        raise NotImplementedError


class InProcessPool(WorkerPool):
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
        super().__init__(m)
        self._cores = [WorkerCore(i, factory, expose_shadows=instrumented) for i in range(m)]
        self._helpers: list[ThreadPoolExecutor] = []

    def _configure(self, configs: Sequence[WorkerConfig]) -> None:
        for i, (core, cfg) in enumerate(zip(self._cores, configs)):
            self._call(i, core.configure, cfg)

    @staticmethod
    def _call(i: int, method: Callable[..., Any], *args: object) -> Any:
        """``method(*args)`` of worker i's core. A ValueError becomes a
        ``WorkerFailureError`` naming the worker; a ``TraceError`` names its
        file already and passes through, as the draft model's does."""
        try:
            return method(*args)
        except TraceError:
            raise
        except ValueError as exc:
            raise WorkerFailureError(f"worker {i}: {exc}") from exc

    def _exchange(self, delta: Sequence[int], draft: Sequence[int]) -> Replies:
        # concurrent.futures (and the logging it imports) loads when an
        # in-process pool first scores, not in every draftwire command
        from concurrent.futures import ThreadPoolExecutor, wait

        if not self._helpers:
            # one single-thread executor per helper worker: a shared one
            # would let one idle helper take two workers' jobs in turn
            self._helpers = [ThreadPoolExecutor(1, thread_name_prefix=f"draftwire-worker-{i}")
                             for i in range(1, len(self._cores))]
        score = [core.handle_draft for core in self._cores]
        futures = [helper.submit(self._call, i, score[i], delta, draft)
                   for i, helper in enumerate(self._helpers, start=1)]
        try:
            replies = [self._call(0, score[0], delta, draft)]
        finally:
            wait(futures)
        replies += [f.result() for f in futures]
        uploads, shadows = zip(*replies)
        # every core exposes its shadows, or none does
        return uploads, None if shadows[0] is None else list(shadows)

    def close(self) -> None:
        """Join the helper threads; a later block starts new ones."""
        for helper in self._helpers:
            helper.shutdown()
        self._helpers = []


class TcpPool(WorkerPool):
    """Worker pool over framed TCP connections.

    Every request kind goes out in one round: it is written to every
    worker before any reply is read, so workers are greeted, configured
    and score concurrently; replies are read in worker-index order, which
    also fixes aggregation order. Each reply must arrive whole within
    ``timeout`` seconds of the start of its read; sends keep ``timeout``
    as the socket timeout. Any timeout, ERROR reply, or malformed response
    fails the decode step naming the worker; an endpoint that cannot be
    connected to fails the pool's construction naming the worker and its
    endpoint, after closing the connections already opened.
    """

    def __init__(self, endpoints: Sequence[tuple[str, int]], *, timeout: float = DEFAULT_TIMEOUT) -> None:
        import socket  # in-process runs never load it

        super().__init__(len(endpoints))
        self._socks: list[socket.socket] = []
        self._timeout = timeout
        self._corr = 0
        try:
            for i, (host, port) in enumerate(endpoints):
                try:
                    sock = socket.create_connection((host, port), timeout=timeout)
                except OSError as exc:
                    raise WorkerFailureError(
                        f"worker {i} ({host}:{port}): cannot connect ({exc})") from exc
                self._socks.append(sock)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            replies = self._round(Kind.HELLO, [pack_hello()] * len(self._socks), Kind.HELLO)
            for i, body in enumerate(replies):
                try:
                    version = unpack_hello(body)
                except FramingError as exc:
                    raise WorkerFailureError(f"worker {i}: {exc}") from exc
                if version != PROTOCOL_VERSION:
                    raise WorkerFailureError(f"worker {i}: protocol version mismatch")
        except Exception:
            self.close()
            raise

    def _recv(self, i: int, expect: Kind, corr_id: int) -> Message:
        """Worker i's reply, read whole within ``timeout`` seconds."""
        sock = self._socks[i]
        deadline = time.monotonic() + self._timeout
        try:
            msg = frame_decode(lambda n: _read_exact(sock, n, deadline))
        except TimeoutError as exc:
            raise WorkerFailureError(f"worker {i}: timed out waiting for {expect.name}") from exc
        except (FramingError, OSError) as exc:
            raise WorkerFailureError(f"worker {i}: {exc}") from exc
        finally:
            sock.settimeout(self._timeout)
        if msg.kind == Kind.ERROR:
            raise WorkerFailureError(f"worker {i}: remote error: {msg.body.decode(errors='replace')}")
        if msg.kind != expect:
            raise WorkerFailureError(f"worker {i}: expected {expect.name}, got {msg.kind.name}")
        if msg.corr_id != corr_id:
            raise WorkerFailureError(f"worker {i}: correlation id mismatch")
        return msg

    def _round(self, kind: Kind, bodies: Sequence[bytes], reply_kind: Kind) -> list[bytes]:
        """Send ``bodies[i]`` to worker i, for every worker, then read each
        reply in worker-index order; return the reply bodies."""
        first = self._corr + 1
        self._corr += len(bodies)
        for i, body in enumerate(bodies):
            try:
                self._socks[i].sendall(frame_encode(Message(kind, first + i, body)))
            except OSError as exc:
                raise WorkerFailureError(f"worker {i}: send failed ({exc})") from exc
        return [self._recv(i, reply_kind, first + i).body for i in range(len(bodies))]

    def _configure(self, configs: Sequence[WorkerConfig]) -> None:
        replies = self._round(Kind.CONFIGURE, [pack_configure(cfg) for cfg in configs],
                              Kind.CONFIGURE)
        for i, body in enumerate(replies):
            if body:  # the protocol defines this reply as empty
                raise WorkerFailureError(f"worker {i}: CONFIGURE reply carries "
                                         f"{len(body)} unexpected bytes")

    def _exchange(self, delta: Sequence[int], draft: Sequence[int]) -> Replies:
        body = pack_draft_broadcast(delta, draft)
        return self._round(Kind.DRAFT_BROADCAST, [body] * len(self._socks),
                           Kind.SCORES_UPLOAD), None

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
