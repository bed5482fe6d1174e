"""End-to-end tests for the TCP service: verbs, backpressure, deadlines.

A real :class:`~repro.service.server.ServiceServer` runs on an asyncio
loop in a background thread; tests talk to it over real sockets through
the blocking :class:`~repro.service.client.ServiceClient`.  Slow-path
behaviour (BUSY, DEADLINE) is driven by a fake engine whose searches
block for a configurable time, so the tests stay fast and deterministic.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time

import pytest

from repro.cloud.codec import encode_ciphertext, encode_token
from repro.cloud.messages import UploadDataset, UploadRecord
from repro.cloud.server import SearchStats
from repro.core.crse2 import CRSE2Scheme
from repro.core.geometry import Circle, DataSpace
from repro.core.provision import group_for_crse2
from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ServiceBusyError,
    ServiceConnectionError,
    WireFormatError,
)
from repro.service import protocol
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.engine import EngineSearchResult, SearchEngine
from repro.service.server import ServiceConfig, ServiceServer


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
class ServerHandle:
    """Run a ServiceServer on its own loop in a daemon thread."""

    def __init__(self, scheme, config=None, engine=None):
        self.server = ServiceServer(scheme, config=config, engine=engine)
        self.port: int | None = None
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._main())
        self._loop.close()

    async def _main(self) -> None:
        self.port = await self.server.start()
        self._started.set()
        await self.server.serve_forever()

    def start(self) -> int:
        self._thread.start()
        assert self._started.wait(10), "server did not start"
        assert self.port is not None
        return self.port

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=True), self._loop
        )
        future.result(timeout=15)
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


class SlowEngine:
    """Engine stand-in whose searches block for a fixed time."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.searches = 0
        self.workers = 1
        self.record_count = 0

    def load(self, records) -> int:
        self.record_count += len(list(records))
        return self.record_count

    def delete(self, identifiers) -> int:
        return 0

    def search(self, token_payload: bytes) -> EngineSearchResult:
        self.searches += 1
        time.sleep(self.delay_s)
        stats = SearchStats()
        stats.partitions = (self.delay_s * 1000.0,)
        stats.elapsed_ms = self.delay_s * 1000.0
        return EngineSearchResult(identifiers=(), stats=stats)

    def warm_up(self) -> None:
        """No processes to warm."""

    def close(self, wait: bool = True) -> None:
        """Nothing to close."""


@pytest.fixture(scope="module")
def env():
    rng = random.Random(0x5E4)
    space = DataSpace(2, 32)
    scheme = CRSE2Scheme(space, group_for_crse2(space, "fast", rng))
    key = scheme.gen_key(rng)
    points = [(16, 16), (17, 17), (30, 2), (2, 30), (10, 10), (16, 18)]
    dataset = UploadDataset(
        records=tuple(
            UploadRecord(
                identifier=i,
                payload=encode_ciphertext(
                    scheme, scheme.encrypt(key, point, rng)
                ),
                content=f"record-{i}".encode(),
            )
            for i, point in enumerate(points)
        )
    )
    token = encode_token(
        scheme, scheme.gen_token(key, Circle.from_radius((16, 16), 3), rng)
    )
    return scheme, dataset, token


@pytest.fixture(scope="module")
def live_server(env):
    scheme, _, _ = env
    handle = ServerHandle(
        scheme,
        config=ServiceConfig(workers=2),
        engine=SearchEngine(scheme, workers=2),
    )
    handle.start()
    yield handle
    handle.stop()


def _client(handle: ServerHandle, **kwargs) -> ServiceClient:
    kwargs.setdefault("timeout_s", 30.0)
    kwargs.setdefault("rng", random.Random(7))
    return ServiceClient("127.0.0.1", handle.port, **kwargs)


# ----------------------------------------------------------------------
# Happy path
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_full_round(self, env, live_server):
        _, dataset, token = env
        client = _client(live_server)

        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2

        stored = client.upload(dataset)
        assert stored == len(dataset.records)

        response, stats = client.search(token)
        assert (0, 1, 5) == response.identifiers
        assert stats["records_scanned"] == len(dataset.records)
        assert stats["matches"] == 3
        assert len(stats["partitions"]) == 2

        contents = client.fetch(response.identifiers)
        assert contents == {0: b"record-0", 1: b"record-1", 5: b"record-5"}

        removed = client.delete((5, 999))
        assert removed == 1
        response, _ = client.search(token)
        assert (0, 1) == response.identifiers

        snapshot = client.stats()
        verbs = snapshot["verbs"]
        assert verbs["search"]["requests"] >= 2
        assert verbs["upload"]["requests"] >= 1
        assert snapshot["records"] == len(dataset.records) - 1
        assert snapshot["queue"]["limit"] == 32

    def test_internal_error_is_typed_not_fatal(self, env, live_server):
        _, dataset, _ = env
        client = _client(live_server)
        # Re-uploading the same identifiers violates the store's
        # uniqueness rule: the server must answer INTERNAL, not die.
        with pytest.raises(Exception) as excinfo:
            client.upload(dataset)
        assert "INTERNAL" in str(excinfo.value) or "duplicate" in str(
            excinfo.value
        ).lower()
        assert client.health()["status"] == "ok"


# ----------------------------------------------------------------------
# Hostile bytes on the wire
# ----------------------------------------------------------------------
class TestWireFaults:
    def test_hostile_length_prefix_closes_connection(self, live_server):
        with socket.create_connection(
            ("127.0.0.1", live_server.port), timeout=10
        ) as sock:
            sock.settimeout(10)
            sock.sendall(b"\xff\xff\xff\xff")
            reply = protocol.decode_reply(protocol.recv_frame(sock))
            assert not reply.ok
            assert reply.error_code == protocol.ERR_PROTOCOL
            assert reply.request_id == 0
            # Stream alignment is unrecoverable: server hangs up.
            with pytest.raises(WireFormatError):
                protocol.recv_frame(sock)
        # ... and keeps serving everyone else.
        assert _client(live_server).health()["status"] == "ok"

    def test_junk_envelope_keeps_connection(self, live_server):
        with socket.create_connection(
            ("127.0.0.1", live_server.port), timeout=10
        ) as sock:
            sock.settimeout(10)
            protocol.send_frame(sock, b"this is not json")
            reply = protocol.decode_reply(protocol.recv_frame(sock))
            assert not reply.ok
            assert reply.error_code == protocol.ERR_PROTOCOL
            # Framing survived, so the same connection still works.
            protocol.send_frame(sock, protocol.encode_request("health", 3))
            reply = protocol.decode_reply(protocol.recv_frame(sock))
            assert reply.ok and reply.request_id == 3

    def test_malformed_token_rejected_as_protocol_error(self, live_server):
        client = _client(live_server)
        with pytest.raises(ProtocolError):
            client.search(b"\x00\x01not-a-token")
        assert client.health()["status"] == "ok"

    def test_untyped_failure_still_gets_a_redacted_reply(self, env):
        scheme, dataset, _ = env
        server = ServiceServer(scheme, engine=SlowEngine(delay_s=0.0))

        def broken_ingest(message):
            raise FileNotFoundError("/data/MANIFEST.json.tmp record-0")

        server.ingest = broken_ingest
        reply = protocol.decode_reply(
            asyncio.run(
                server._handle_request(
                    protocol.Request(
                        verb="upload",
                        request_id=5,
                        deadline_ms=None,
                        fields=protocol.upload_fields(dataset),
                    )
                )
            )
        )
        assert reply.request_id == 5 and not reply.ok
        assert reply.error_code == protocol.ERR_INTERNAL
        assert reply.error_message == "internal error (FileNotFoundError)"


# ----------------------------------------------------------------------
# Deadlines (acceptance: typed timeout, server keeps serving)
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_exceeded_is_typed_and_server_survives(self, env):
        scheme, _, token = env
        handle = ServerHandle(scheme, engine=SlowEngine(delay_s=1.5))
        handle.start()
        try:
            client = _client(handle)
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                client.search(token, deadline_ms=150.0)
            # The reply must arrive at the deadline, not after the full
            # 1.5 s scan the worker is still burning through.
            assert time.monotonic() - started < 1.2
            # The server is still alive and still answering.
            assert client.health()["status"] == "ok"
            snapshot = client.stats()
            assert snapshot["deadline_exceeded"] == 1
        finally:
            handle.stop()

    def test_fast_request_beats_its_deadline(self, env, live_server):
        client = _client(live_server)
        assert client._request("health", deadline_ms=5_000.0)["status"] == "ok"


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_busy_rejection_is_typed_and_retryable(self, env):
        scheme, _, token = env
        handle = ServerHandle(
            scheme,
            config=ServiceConfig(max_pending=1),
            engine=SlowEngine(delay_s=1.0),
        )
        handle.start()
        try:
            slow_error: list = []

            def occupy() -> None:
                try:
                    _client(handle).search(token)
                except Exception as exc:  # pragma: no cover - diagnostics
                    slow_error.append(exc)

            occupier = threading.Thread(target=occupy)
            occupier.start()
            time.sleep(0.3)  # let the slow search take the only slot

            # No retries: the BUSY rejection surfaces immediately.
            with pytest.raises(ServiceBusyError):
                _client(handle, retry=RetryPolicy(attempts=1)).health()

            # With retries, the same call rides out the backpressure.
            patient = _client(
                handle,
                retry=RetryPolicy(attempts=8, base_delay_s=0.2, jitter=0.0),
            )
            assert patient.health()["status"] == "ok"

            occupier.join(timeout=10)
            assert not slow_error, f"slow search failed: {slow_error}"
            assert handle.server.metrics.snapshot()["rejected_busy"] >= 1
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Client retry + shutdown
# ----------------------------------------------------------------------
class TestClientRetry:
    def test_unreachable_server_raises_connection_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = ServiceClient(
            "127.0.0.1",
            dead_port,
            timeout_s=1.0,
            retry=RetryPolicy(attempts=2, base_delay_s=0.01),
            rng=random.Random(1),
        )
        with pytest.raises(ServiceConnectionError):
            client.health()

    def test_retry_policy_backoff_shape(self):
        policy = RetryPolicy(
            attempts=4, base_delay_s=0.1, max_delay_s=0.5, jitter=0.0
        )
        rng = random.Random(0)
        assert policy.delay_s(0, rng) == pytest.approx(0.1)
        assert policy.delay_s(1, rng) == pytest.approx(0.2)
        assert policy.delay_s(3, rng) == pytest.approx(0.5)  # capped
        jittered = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        for i in range(4):
            delay = jittered.delay_s(0, rng)
            assert 0.05 <= delay <= 0.1


class TestShutdown:
    def test_drain_completes_inflight_then_refuses(self, env):
        scheme, _, token = env
        handle = ServerHandle(scheme, engine=SlowEngine(delay_s=0.6))
        port = handle.start()
        results: list = []

        def slow_search() -> None:
            try:
                results.append(_client(handle).search(token))
            except Exception as exc:  # pragma: no cover - diagnostics
                results.append(exc)

        searcher = threading.Thread(target=slow_search)
        searcher.start()
        time.sleep(0.2)  # the search is now in flight
        handle.stop()  # graceful drain
        searcher.join(timeout=10)
        assert len(results) == 1
        assert not isinstance(results[0], Exception), results[0]
        # After drain the listener is gone.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)


class TestRequestIdCheck:
    """Regression: a success reply must echo the request id.

    The id-0 placeholder exists for servers that could not even parse the
    request id out of a malformed frame — which can only ever be an
    *error* reply.  A success reply carrying id 0 (or any other mismatch)
    means the client would be accepting some other request's answer, so
    it must be rejected as a protocol violation.
    """

    @staticmethod
    def _one_shot_server(reply_builder):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def serve() -> None:
            conn, _ = listener.accept()
            with conn:
                body = protocol.recv_frame(conn)
                request = protocol.decode_request(body)
                protocol.send_frame(conn, reply_builder(request))
            listener.close()

        threading.Thread(target=serve, daemon=True).start()
        return port

    def _client(self, port) -> ServiceClient:
        return ServiceClient(
            "127.0.0.1", port, timeout_s=10.0,
            retry=RetryPolicy(attempts=1),
        )

    def test_success_reply_with_zero_id_rejected(self):
        port = self._one_shot_server(
            lambda request: protocol.encode_ok(0, {"status": "ok"})
        )
        with pytest.raises(ProtocolError, match="reply for request 0"):
            self._client(port).health()

    def test_success_reply_with_wrong_id_rejected(self):
        port = self._one_shot_server(
            lambda request: protocol.encode_ok(
                request.request_id + 1, {"status": "ok"}
            )
        )
        with pytest.raises(ProtocolError, match="expected"):
            self._client(port).health()

    def test_error_reply_with_zero_id_accepted_as_typed_error(self):
        port = self._one_shot_server(
            lambda request: protocol.encode_error(
                0, protocol.ERR_PROTOCOL, "could not parse your id"
            )
        )
        with pytest.raises(ProtocolError, match="could not parse your id"):
            self._client(port).health()

    def test_error_reply_with_wrong_nonzero_id_rejected(self):
        port = self._one_shot_server(
            lambda request: protocol.encode_error(
                request.request_id + 7, protocol.ERR_INTERNAL, "boom"
            )
        )
        with pytest.raises(ProtocolError, match="reply for request"):
            self._client(port).health()

    def test_matching_id_still_accepted(self, live_server):
        health = ServiceClient("127.0.0.1", live_server.port).health()
        assert health["status"] == "ok"
