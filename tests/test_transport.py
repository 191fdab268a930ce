import gc
import io
import queue
import random
import socket
import struct
import threading
import time

import numpy as np
import pytest

from draftwire import transport
from draftwire.aggregation import TopKProfile, WeightVector
from draftwire.compression import Strategy, decode_payload
from draftwire.config import RunConfig, merge_config, synthetic_worker_factory
from draftwire.dist import Distribution
from draftwire.engine import SessionSettings, run_sample, sample_seed_for
from draftwire.models import SyntheticModel
from draftwire.seeding import ROLE_DRAFT_MODEL, derive_seed, stable_prefix_hash
from draftwire.transport import (
    CONFIGURE_BODY,
    FRAME_HEADER,
    InProcessPool,
    Kind,
    MAX_FRAME_BYTES,
    Message,
    OversizeFrameError,
    PROTOCOL_VERSION,
    ProtocolError,
    ScoreResult,
    TcpPool,
    TruncatedStreamError,
    UnknownKindError,
    WorkerConfig,
    WorkerCore,
    WorkerFailureError,
    _read_exact,
    expected_upload_bytes,
    frame_decode,
    frame_encode,
    pack_configure,
    pack_draft_broadcast,
    pack_hello,
    pack_scores,
    unpack_configure,
    unpack_draft_broadcast,
    unpack_hello,
    unpack_scores,
    worker_serve,
)

FACTORY = synthetic_worker_factory(concentration=3.0, temperature=1.0, correlation=0.9)


def decode_bytes(data: bytes) -> Message:
    return frame_decode(io.BytesIO(data).read)


class TestFraming:
    def test_round_trip_property(self):
        rng = np.random.default_rng(80)
        kinds = list(Kind)
        for _ in range(300):
            kind = kinds[int(rng.integers(len(kinds)))]
            corr = int(rng.integers(0, 2**63))
            body = rng.integers(0, 256, size=int(rng.integers(0, 128)),
                                dtype=np.uint8).tobytes()
            msg = Message(kind, corr, body)
            back = decode_bytes(frame_encode(msg))
            assert back == msg

    def test_shutdown_is_thirteen_bytes(self):
        data = frame_encode(Message(Kind.SHUTDOWN, 1))
        assert len(data) == 13 == FRAME_HEADER.size

    def test_oversize_encode_rejected(self):
        with pytest.raises(OversizeFrameError):
            frame_encode(Message(Kind.HELLO, 1, b"\x00" * MAX_FRAME_BYTES))

    def test_oversize_decode_rejected(self):
        header = FRAME_HEADER.pack(MAX_FRAME_BYTES, int(Kind.HELLO), 1)
        with pytest.raises(OversizeFrameError):
            decode_bytes(header)

    def test_unknown_kind(self):
        header = FRAME_HEADER.pack(0, 99, 1)
        with pytest.raises(UnknownKindError):
            decode_bytes(header)

    def test_truncated_header(self):
        with pytest.raises(TruncatedStreamError):
            decode_bytes(b"\x00\x01")

    def test_truncated_body(self):
        data = frame_encode(Message(Kind.HELLO, 1, b"abcdef"))
        with pytest.raises(TruncatedStreamError):
            decode_bytes(data[:-2])


class TestBodyPackers:
    def test_hello(self):
        assert unpack_hello(pack_hello()) == PROTOCOL_VERSION == 3
        with pytest.raises(ValueError):
            unpack_hello(b"\x01")

    def test_configure_is_20_bytes(self):
        cfg = WorkerConfig(vocab_size=512, k=64, gamma=4, seed_material=42)
        body = pack_configure(cfg)
        assert len(body) == 20 == CONFIGURE_BODY.size
        assert unpack_configure(body) == cfg

    def test_draft_broadcast(self):
        delta, draft = (1, 2, 3), (4, 5)
        body = pack_draft_broadcast(delta, draft)
        assert unpack_draft_broadcast(body) == (delta, draft)
        assert unpack_draft_broadcast(pack_draft_broadcast((), (9,))) == ((), (9,))
        with pytest.raises(ValueError):
            unpack_draft_broadcast(body + b"\x00")

    def test_scores(self):
        bodies = [b"aaaa", b"bb", b""]
        packed = pack_scores(0xDEADBEEF, bodies)
        checksum, back = unpack_scores(packed)
        assert checksum == 0xDEADBEEF
        assert back == bodies
        with pytest.raises(ValueError):
            unpack_scores(packed[:-1])
        with pytest.raises(ValueError):
            unpack_scores(packed + b"\x00")

    def test_expected_upload_bytes_formula(self):
        assert expected_upload_bytes(4, 2) == 13 + 12 + 5 * (4 + 8 + 16) == 165
        # cross-check against an actual packed frame of the same shape
        payload_body = b"\x00" * (8 + 8 * 2)
        frame = frame_encode(
            Message(Kind.SCORES_UPLOAD, 1, pack_scores(0, [payload_body] * 5)))
        assert len(frame) == expected_upload_bytes(4, 2)


class TestWorkerCore:
    CFG = WorkerConfig(vocab_size=8, k=3, gamma=2, seed_material=5)

    def test_draft_before_configure(self):
        core = WorkerCore(0, FACTORY)
        with pytest.raises(ProtocolError, match="not configured"):
            core.handle_draft((0,), (1, 2))

    def test_configure_validation(self):
        core = WorkerCore(0, FACTORY)
        with pytest.raises(ProtocolError):
            core.configure(WorkerConfig(8, 0, 2, 5))
        with pytest.raises(ProtocolError):
            core.configure(WorkerConfig(8, 9, 2, 5))
        with pytest.raises(ProtocolError):
            core.configure(WorkerConfig(8, 3, 0, 5))

    def test_draft_length_enforced(self):
        core = WorkerCore(0, FACTORY)
        core.configure(self.CFG)
        with pytest.raises(ProtocolError):
            core.handle_draft((0,), (1, 2, 3))

    def test_mirror_checksum_evolution(self):
        core = WorkerCore(0, FACTORY)
        core.configure(self.CFG)
        body, shadows = core.handle_draft((0, 4), (1, 2))
        checksum, bodies = unpack_scores(body)
        assert checksum == stable_prefix_hash((0, 4))
        assert len(bodies) == 3  # gamma + 1 scored positions
        assert shadows is None
        for b in bodies:
            payload = decode_payload(b)
            assert payload.k == 3 and payload.vocab_size == 8

        body2, _ = core.handle_draft((1, 6), (5, 5))
        assert unpack_scores(body2)[0] == stable_prefix_hash((0, 4, 1, 6))

    def test_configure_resets_mirror(self):
        core = WorkerCore(0, FACTORY)
        core.configure(self.CFG)
        core.handle_draft((0, 4), (1, 2))
        core.configure(self.CFG)
        body, _ = core.handle_draft((7,), (1, 2))
        assert unpack_scores(body)[0] == stable_prefix_hash((7,))

    def test_shadow_exposure(self):
        core = WorkerCore(0, FACTORY, expose_shadows=True)
        core.configure(self.CFG)
        body, shadows = core.handle_draft((0,), (1, 2))
        _, bodies = unpack_scores(body)
        assert shadows is not None and len(shadows) == 3
        for d, b in zip(shadows, bodies):
            assert isinstance(d, Distribution)
            # shadow is the exact f64 source of the encoded payload
            payload = decode_payload(b)
            top = np.argsort(-d.probs, kind="stable")[:3]
            assert set(payload.ids) == set(int(t) for t in top)

    def test_model_vocab_mismatch(self):
        core = WorkerCore(0, lambda v, s, i: SyntheticModel(vocab_size=4, seed=1))
        core.configure(self.CFG)  # configured vocab 8, model yields 4
        with pytest.raises(ProtocolError, match="vocabulary"):
            core.handle_draft((0,), (1, 2))


def worker_configs(m=2, gamma=2, k=3):
    return [WorkerConfig(vocab_size=8, k=k, gamma=gamma, seed_material=5) for _ in range(m)]


class SequentialPool:
    """The oracle: the in-process pool as it was before its workers
    overlapped, scoring one worker after the other on the calling thread."""

    def __init__(self, m, factory):
        self.cores = [WorkerCore(i, factory, expose_shadows=True) for i in range(m)]
        self.pending = []
        self.uplink_totals = [0] * m

    def configure(self, configs):
        self.pending = []
        for core, cfg in zip(self.cores, configs):
            core.configure(cfg)

    def score_block(self, prefix_hash, draft):
        delta, self.pending = tuple(self.pending), []
        replies = [core.handle_draft(delta, draft) for core in self.cores]
        uploads = [unpack_scores(body) for body, _ in replies]
        for i, (checksum, _) in enumerate(uploads):
            if checksum != prefix_hash:
                raise WorkerFailureError(f"worker {i}: prefix mirror diverged")
        uplink = [FRAME_HEADER.size + len(pack_scores(checksum, bodies))
                  for checksum, bodies in uploads]
        for i, n in enumerate(uplink):
            self.uplink_totals[i] += n
        return ScoreResult(
            payloads=[[decode_payload(b) for b in bodies] for _, bodies in uploads],
            uplink_bytes=uplink,
            shadows=[shadows for _, shadows in replies],
        )

    def commit(self, tokens):
        self.pending.extend(tokens)

    def close(self):
        pass


class SleepyModel:
    """Sleeps a seeded random time before each answer, so the workers
    finish in a different order from one block to the next."""

    def __init__(self, inner, rng):
        self.inner = inner
        self.rng = rng
        self.vocab_size = inner.vocab_size

    def distribution(self, prefix):
        time.sleep(self.rng.uniform(0.0, 0.002))
        return self.inner.distribution(prefix)


class FailingModel:
    """Raises when its worker index is in ``failing``. Every worker but the
    lowest failing one (worker 0 when none fails) is slow, and
    ``in_flight`` holds the index of each call still running."""

    def __init__(self, inner, index, failing, in_flight):
        self.inner = inner
        self.index = index
        self.failing = failing
        self.in_flight = in_flight
        self.vocab_size = inner.vocab_size

    def distribution(self, prefix):
        self.in_flight.append(self.index)
        try:
            if self.index != min(self.failing, default=0):
                time.sleep(0.05)
            if self.index in self.failing:
                raise ValueError(f"model {self.index} broke")
            return self.inner.distribution(prefix)
        finally:
            self.in_flight.remove(self.index)


def record_bytes(res):
    return [(rec.draft_tokens, [d.probs.tobytes() for d in rec.q_dists],
             [[d.probs.tobytes() for d in dists] for dists in rec.worker_dists])
            for rec in res.records]


class TestInProcessPoolConcurrency:
    def scored_pool(self, m):
        """A pool that has scored one block, and the threads it started."""
        before = set(threading.enumerate())
        pool = InProcessPool(m, FACTORY)
        pool.configure(worker_configs(m))
        pool.commit((0,))
        pool.score_block(stable_prefix_hash((0,)), (1, 2))
        return pool, set(threading.enumerate()) - before

    @pytest.mark.parametrize("m, failing", [(2, {1}), (3, {1, 2}), (3, {0, 2})])
    def test_lowest_failing_worker_is_reported_after_every_helper_returns(self, m, failing):
        in_flight = []
        pool = InProcessPool(
            m, lambda v, s, i: FailingModel(FACTORY(v, s, i), i, failing, in_flight))
        pool.configure(worker_configs(m))
        pool.commit((0,))
        low = min(failing)
        try:
            with pytest.raises(WorkerFailureError, match=rf"^worker {low}: model {low} broke$"):
                pool.score_block(stable_prefix_hash((0,)), (1, 2))
            assert in_flight == []
        finally:
            pool.close()

    def test_one_worker_starts_no_thread(self):
        pool, started = self.scored_pool(1)
        pool.close()
        assert started == set()

    def test_close_joins_the_helpers_and_can_be_repeated(self):
        pool, helpers = self.scored_pool(3)
        assert len(helpers) == 2
        pool.close()
        assert not any(t.is_alive() for t in helpers)
        pool.close()

    def test_unclosed_pool_leaves_no_thread_behind(self):
        pool, helpers = self.scored_pool(2)
        assert len(helpers) == 1
        del pool
        gc.collect()
        for t in helpers:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in helpers)

    def test_overlapping_workers_reproduce_the_sequential_run(self):
        cfg = RunConfig.from_mapping(merge_config({
            "vocab_size": "64", "workers": "3", "k": "8", "gamma": "4", "max_tokens": "24",
            "correlation": "0.9", "mode": "instrumented", "seed": "3"}))
        settings = cfg.settings()
        factory = cfg.worker_factory()  # shares the draft model's noise memo
        ss = sample_seed_for(cfg.seed, 0)
        oracle = SequentialPool(cfg.workers, factory)
        want = run_sample(cfg.draft_model(ss), oracle, settings, ss, instrumented=True)
        assert want.blocks > 2
        rng = random.Random(99)
        for _ in range(20):
            pool = InProcessPool(cfg.workers, lambda v, s, i: SleepyModel(
                factory(v, s, i), random.Random(rng.random())), instrumented=True)
            try:
                got = run_sample(cfg.draft_model(ss), pool, settings, ss, instrumented=True)
            finally:
                pool.close()
            assert (got.tokens, got.blocks, got.accepted) == (want.tokens, want.blocks,
                                                              want.accepted)
            assert pool.uplink_totals == oracle.uplink_totals
            assert record_bytes(got) == record_bytes(want)


def start_worker(factory, index=0):
    ready: queue.Queue = queue.Queue()
    thread = threading.Thread(
        target=worker_serve, args=("127.0.0.1", 0, factory),
        kwargs={"worker_index": index, "ready": ready.put}, daemon=True)
    thread.start()
    port = ready.get(timeout=5)
    return thread, port


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    sock.settimeout(5)
    return sock


def send(sock, kind, corr, body=b""):
    sock.sendall(frame_encode(Message(kind, corr, body)))


def recv(sock):
    return frame_decode(lambda n: _read_exact(sock, n))


def shutdown_worker(thread, port):
    try:
        with connect(port) as sock:
            send(sock, Kind.SHUTDOWN, 10**9)
    except OSError:
        pass
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestWorkerServer:
    CFG = WorkerConfig(vocab_size=8, k=3, gamma=2, seed_material=5)

    def test_full_conversation(self):
        thread, port = start_worker(FACTORY)
        try:
            with connect(port) as sock:
                send(sock, Kind.HELLO, 1, pack_hello())
                reply = recv(sock)
                assert reply.kind == Kind.HELLO and reply.corr_id == 1
                assert unpack_hello(reply.body) == PROTOCOL_VERSION

                send(sock, Kind.CONFIGURE, 2, pack_configure(self.CFG))
                reply = recv(sock)
                assert reply.kind == Kind.CONFIGURE and reply.corr_id == 2

                send(sock, Kind.DRAFT_BROADCAST, 3, pack_draft_broadcast((0,), (1, 2)))
                reply = recv(sock)
                assert reply.kind == Kind.SCORES_UPLOAD and reply.corr_id == 3
                checksum, bodies = unpack_scores(reply.body)
                assert checksum == stable_prefix_hash((0,))
                assert len(bodies) == 3
                assert len(reply.body) + FRAME_HEADER.size == expected_upload_bytes(2, 3)

                # the committed tokens ride on the next broadcast's delta
                send(sock, Kind.DRAFT_BROADCAST, 4, pack_draft_broadcast((1, 7), (3, 4)))
                reply = recv(sock)
                assert reply.kind == Kind.SCORES_UPLOAD and reply.corr_id == 4
                checksum, _ = unpack_scores(reply.body)
                assert checksum == stable_prefix_hash((0, 1, 7))
        finally:
            shutdown_worker(thread, port)

    def test_hello_required_first(self):
        thread, port = start_worker(FACTORY)
        try:
            with connect(port) as sock:
                send(sock, Kind.CONFIGURE, 1, pack_configure(self.CFG))
                reply = recv(sock)
                assert reply.kind == Kind.ERROR
                assert b"expected HELLO first" in reply.body
        finally:
            shutdown_worker(thread, port)

    def test_draft_before_configure(self):
        thread, port = start_worker(FACTORY)
        try:
            with connect(port) as sock:
                send(sock, Kind.HELLO, 1, pack_hello())
                recv(sock)
                send(sock, Kind.DRAFT_BROADCAST, 2, pack_draft_broadcast((0,), (1, 2)))
                reply = recv(sock)
                assert reply.kind == Kind.ERROR
                assert b"not configured" in reply.body
        finally:
            shutdown_worker(thread, port)

    def test_correlation_id_must_increase(self):
        thread, port = start_worker(FACTORY)
        try:
            with connect(port) as sock:
                send(sock, Kind.HELLO, 5, pack_hello())
                recv(sock)
                send(sock, Kind.CONFIGURE, 5, pack_configure(self.CFG))
                reply = recv(sock)
                assert reply.kind == Kind.ERROR
                assert b"correlation id" in reply.body
        finally:
            shutdown_worker(thread, port)

    def test_server_survives_dropped_session(self):
        thread, port = start_worker(FACTORY)
        try:
            with connect(port) as sock:
                send(sock, Kind.HELLO, 1, pack_hello())
                recv(sock)
            # session dropped without SHUTDOWN: server must accept again
            with connect(port) as sock:
                send(sock, Kind.HELLO, 1, pack_hello())
                assert recv(sock).kind == Kind.HELLO
        finally:
            shutdown_worker(thread, port)

    def test_other_version_is_refused_at_hello_and_next_session_is_served(self):
        thread, port = start_worker(FACTORY)
        try:
            with connect(port) as sock:
                send(sock, Kind.HELLO, 1, struct.pack("<H", 2))  # a version-2 peer
                reply = recv(sock)
                assert reply.kind == Kind.ERROR and reply.corr_id == 1
                assert b"protocol version 2, worker speaks 3" in reply.body
            with connect(port) as sock:
                send(sock, Kind.HELLO, 1, pack_hello())
                reply = recv(sock)
                assert reply.kind == Kind.HELLO
                assert unpack_hello(reply.body) == PROTOCOL_VERSION
        finally:
            shutdown_worker(thread, port)

    def test_retired_commit_kind_is_an_error_and_next_session_is_served(self):
        thread, port = start_worker(FACTORY)
        try:
            with connect(port) as sock:
                send(sock, Kind.HELLO, 1, pack_hello())
                assert recv(sock).kind == Kind.HELLO
                send(sock, Kind.CONFIGURE, 2, pack_configure(self.CFG))
                assert recv(sock).kind == Kind.CONFIGURE
                # version 1's COMMIT_NOTICE: kind byte 5, one committed token
                body = struct.pack("<II", 1, 7)
                sock.sendall(FRAME_HEADER.pack(len(body), 5, 3) + body)
                reply = recv(sock)
                assert reply.kind == Kind.ERROR
                assert b"unknown message kind 5" in reply.body
            with connect(port) as sock:
                send(sock, Kind.HELLO, 1, pack_hello())
                reply = recv(sock)
                assert reply.kind == Kind.HELLO
                assert unpack_hello(reply.body) == PROTOCOL_VERSION
        finally:
            shutdown_worker(thread, port)

    def test_server_survives_peer_reset(self):
        thread, port = start_worker(FACTORY)
        try:
            sock = connect(port)
            send(sock, Kind.HELLO, 1, pack_hello())
            recv(sock)
            send(sock, Kind.CONFIGURE, 2, pack_configure(self.CFG))
            recv(sock)
            send(sock, Kind.DRAFT_BROADCAST, 3, pack_draft_broadcast((0,), (1, 2)))
            # linger 0: close sends RST, so the worker's next read or its
            # reply fails with a socket error
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            with connect(port) as sock:
                send(sock, Kind.HELLO, 1, pack_hello())
                assert recv(sock).kind == Kind.HELLO
        finally:
            shutdown_worker(thread, port)


class TestTcpPool:
    def test_score_and_accounting(self):
        workers = [start_worker(FACTORY, index=i) for i in range(2)]
        pool = None
        try:
            pool = TcpPool([("127.0.0.1", port) for _, port in workers])
            pool.configure(worker_configs())
            pool.commit((0,))
            # score_block raises unless every mirror checksum equals the hash
            result = pool.score_block(stable_prefix_hash((0,)), (1, 2))
            assert len(result.payloads) == 2
            assert all(len(row) == 3 for row in result.payloads)
            assert result.uplink_bytes == [expected_upload_bytes(2, 3)] * 2
            assert result.shadows is None

            pool.commit((1, 6))
            pool.score_block(stable_prefix_hash((0, 1, 6)), (4, 4))
            assert pool.uplink_totals == [2 * expected_upload_bytes(2, 3)] * 2
        finally:
            if pool is not None:
                pool.shutdown()
            for thread, port in workers:
                thread.join(timeout=5)
                assert not thread.is_alive()

    def test_pool_matches_in_process_bitwise(self):
        workers = [start_worker(FACTORY, index=i) for i in range(2)]
        pool = None
        try:
            pool = TcpPool([("127.0.0.1", port) for _, port in workers])
            local = InProcessPool(2, FACTORY)
            cfgs = worker_configs()
            pool.configure(cfgs)
            local.configure(cfgs)
            pool.commit((0, 3))
            local.commit((0, 3))
            # both check every mirror checksum against the same hash
            remote = pool.score_block(stable_prefix_hash((0, 3)), (1, 2))
            inproc = local.score_block(stable_prefix_hash((0, 3)), (1, 2))
            assert remote.uplink_bytes == inproc.uplink_bytes
            for a_row, b_row in zip(remote.payloads, inproc.payloads):
                for a, b in zip(a_row, b_row):
                    assert list(a.ids) == list(b.ids)
                    assert list(a.probs) == list(b.probs)
        finally:
            if pool is not None:
                pool.shutdown()
            for thread, port in workers:
                thread.join(timeout=5)

    def test_worker_abrupt_close_names_worker(self):
        # scripted peer: greets, accepts CONFIGURE, dies on the first draft
        ready: queue.Queue = queue.Queue()

        def fake_worker():
            with socket.socket() as listener:
                listener.bind(("127.0.0.1", 0))
                listener.listen(1)
                ready.put(listener.getsockname()[1])
                conn, _ = listener.accept()
                with conn:
                    for _ in range(2):  # HELLO, CONFIGURE
                        msg = frame_decode(lambda n: _read_exact(conn, n))
                        body = pack_hello() if msg.kind == Kind.HELLO else b""
                        conn.sendall(frame_encode(Message(msg.kind, msg.corr_id, body)))
                    frame_decode(lambda n: _read_exact(conn, n))  # the draft
                    # close without replying

        thread = threading.Thread(target=fake_worker, daemon=True)
        thread.start()
        port = ready.get(timeout=5)
        pool = TcpPool([("127.0.0.1", port)], timeout=2.0)
        try:
            pool.configure(worker_configs(m=1))
            pool.commit((0,))
            with pytest.raises(WorkerFailureError, match="worker 0"):
                pool.score_block(stable_prefix_hash((0,)), (1, 2))
        finally:
            pool.close()
            thread.join(timeout=5)

    def test_silent_worker_times_out(self):
        ready: queue.Queue = queue.Queue()
        release = threading.Event()

        def mute_worker():
            with socket.socket() as listener:
                listener.bind(("127.0.0.1", 0))
                listener.listen(1)
                ready.put(listener.getsockname()[1])
                conn, _ = listener.accept()
                with conn:
                    msg = frame_decode(lambda n: _read_exact(conn, n))
                    conn.sendall(frame_encode(Message(Kind.HELLO, msg.corr_id, pack_hello())))
                    release.wait(timeout=10)  # never answer the next request

        thread = threading.Thread(target=mute_worker, daemon=True)
        thread.start()
        port = ready.get(timeout=5)
        pool = TcpPool([("127.0.0.1", port)], timeout=0.5)
        try:
            with pytest.raises(WorkerFailureError, match="timed out"):
                pool.configure(worker_configs(m=1))
        finally:
            release.set()
            pool.close()
            thread.join(timeout=5)

    def test_close_disconnects_and_shutdown_stops_worker(self):
        settings = SessionSettings(
            vocab_size=8, gamma=2, strategy=Strategy.RENORMALIZED,
            weights=WeightVector.uniform(1),
            k_profile=TopKProfile.homogeneous(3, 1, 8),
            max_tokens=12, prompt=(0,))
        draft = SyntheticModel(vocab_size=8, seed=derive_seed(23, ROLE_DRAFT_MODEL),
                               concentration=3.0)
        thread, port = start_worker(FACTORY)
        first = TcpPool([("127.0.0.1", port)])
        try:
            a = run_sample(draft, first, settings, 23)
        finally:
            first.close()
        thread.join(timeout=0.5)
        assert thread.is_alive()  # close() only ends the session

        second = TcpPool([("127.0.0.1", port)])
        try:
            b = run_sample(draft, second, settings, 23)
        finally:
            second.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert (a.tokens, a.blocks, a.accepted, a.uplink_bytes) == (
            b.tokens, b.blocks, b.accepted, b.uplink_bytes)

    def test_version_mismatch_closes_the_sockets(self):
        # scripted version-1 peer: answers HELLO, then waits for the close
        ready: queue.Queue = queue.Queue()
        closed = threading.Event()

        def old_worker():
            with socket.socket() as listener:
                listener.bind(("127.0.0.1", 0))
                listener.listen(1)
                ready.put(listener.getsockname()[1])
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5)
                    msg = frame_decode(lambda n: _read_exact(conn, n))
                    conn.sendall(frame_encode(
                        Message(Kind.HELLO, msg.corr_id, struct.pack("<H", 1))))
                    if conn.recv(1) == b"":
                        closed.set()

        thread = threading.Thread(target=old_worker, daemon=True)
        thread.start()
        port = ready.get(timeout=5)
        with pytest.raises(WorkerFailureError,
                           match=r"^worker 0: protocol version mismatch$") as failure:
            TcpPool([("127.0.0.1", port)], timeout=2.0)
        # the traceback still holds the pool, so only close() can have
        # ended the connection
        assert closed.wait(timeout=5)
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_connection_refused(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(OSError):
            TcpPool([("127.0.0.1", free_port)], timeout=0.5)


def truncate_uploads(monkeypatch):
    """Every payload a worker encodes loses its last byte."""
    encode = transport.encode_payload
    monkeypatch.setattr(transport, "encode_payload", lambda payload: encode(payload)[:-1])


class TestUploadChecks:
    """Both pools read each upload through one check: framing and payloads,
    then the mirror checksum against the orchestrator's prefix hash."""

    def test_in_process_diverged_mirror_is_reported_after_every_helper_returns(self):
        in_flight = []
        pool = InProcessPool(
            3, lambda v, s, i: FailingModel(FACTORY(v, s, i), i, set(), in_flight))
        pool.configure(worker_configs(3))
        pool.commit((0,))
        try:
            with pytest.raises(WorkerFailureError, match=r"^worker 0: prefix mirror diverged$"):
                pool.score_block(stable_prefix_hash((0, 1)), (1, 2))
            assert in_flight == []
        finally:
            pool.close()

    def test_tcp_diverged_mirror(self):
        workers = [start_worker(FACTORY, index=i) for i in range(2)]
        pool = None
        try:
            pool = TcpPool([("127.0.0.1", port) for _, port in workers])
            pool.configure(worker_configs())
            pool.commit((0,))
            with pytest.raises(WorkerFailureError, match=r"^worker 0: prefix mirror diverged$"):
                pool.score_block(stable_prefix_hash((0, 1)), (1, 2))
        finally:
            if pool is not None:
                pool.shutdown()
            for thread, _ in workers:
                thread.join(timeout=5)
                assert not thread.is_alive()

    def test_in_process_bad_upload(self, monkeypatch):
        truncate_uploads(monkeypatch)
        pool = InProcessPool(2, FACTORY)
        pool.configure(worker_configs())
        pool.commit((0,))
        try:
            with pytest.raises(WorkerFailureError, match=r"^worker 0: bad upload \(.+\)$"):
                pool.score_block(stable_prefix_hash((0,)), (1, 2))
        finally:
            pool.close()

    def test_tcp_bad_upload(self, monkeypatch):
        truncate_uploads(monkeypatch)  # the worker thread shares the module
        thread, port = start_worker(FACTORY)
        pool = None
        try:
            pool = TcpPool([("127.0.0.1", port)])
            pool.configure(worker_configs(m=1))
            pool.commit((0,))
            with pytest.raises(WorkerFailureError, match=r"^worker 0: bad upload \(.+\)$"):
                pool.score_block(stable_prefix_hash((0,)), (1, 2))
        finally:
            if pool is not None:
                pool.shutdown()
            thread.join(timeout=5)
            assert not thread.is_alive()


class TestCrossModeDeterminism:
    def test_tcp_and_in_process_transcripts_identical(self):
        settings = SessionSettings(
            vocab_size=8, gamma=2, strategy=Strategy.RENORMALIZED,
            weights=WeightVector.uniform(2),
            k_profile=TopKProfile.homogeneous(3, 2, 8),
            max_tokens=12, prompt=(0,))
        for sample_seed in (21, 22):
            draft = SyntheticModel(
                vocab_size=8, seed=derive_seed(sample_seed, ROLE_DRAFT_MODEL),
                concentration=3.0)
            local = run_sample(draft, InProcessPool(2, FACTORY), settings, sample_seed)

            workers = [start_worker(FACTORY, index=i) for i in range(2)]
            pool = None
            try:
                pool = TcpPool([("127.0.0.1", port) for _, port in workers])
                remote = run_sample(draft, pool, settings, sample_seed)
            finally:
                if pool is not None:
                    pool.shutdown()
                for thread, port in workers:
                    thread.join(timeout=5)
                    assert not thread.is_alive()

            assert remote.tokens == local.tokens
            assert remote.blocks == local.blocks
            assert remote.accepted == local.accepted
            assert remote.uplink_bytes == local.uplink_bytes
