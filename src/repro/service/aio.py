"""Asynchronous multiplexing client for the CRSE query service.

The blocking :class:`~repro.service.client.ServiceClient` holds strict
request→reply discipline: one outstanding request per connection.  That
caps a single client's throughput at ``1 / round_trip`` even when the
server — which pipelines requests per connection and fans work across
worker processes — has capacity to spare.  :class:`AsyncServiceClient`
removes the cap by multiplexing: many requests are written to **one
persistent connection** without waiting, and a background reader task
matches each arriving reply to its request by the envelope ``id`` the
protocol already carries.  Replies may arrive in any order; the id is
the pairing, not the position.

Concurrency discipline:

* **bounded in-flight** — an ``asyncio.Semaphore`` caps how many requests
  may be outstanding at once, so a burst degrades into queueing at the
  client instead of a BUSY storm at the server;
* **per-request deadlines** — each request carries its ``deadline_ms``
  budget to the server and additionally arms a local timer (budget plus a
  small grace for the reply to travel); expiry abandons *that* future
  only — the connection is not poisoned, and a late reply is silently
  discarded by the reader;
* **typed retries** — the same narrow policy as the blocking client:
  ``BUSY`` and connection failures back off and retry, everything else
  surfaces typed.  One deliberate difference: a connection lost
  *mid-flight* fails every pending request with a retryable
  :class:`~repro.errors.ServiceConnectionError`, because the query path
  is idempotent (re-searching a token returns the same identifiers) and
  the one non-idempotent verb, ``upload``, is guarded server-side by
  duplicate-identifier rejection — a replayed upload that already
  applied fails loudly rather than double-applying;
* **connection supervision** — the reader task owns failure detection:
  EOF, truncation, or an unattributable reply tears the connection down
  and fails all pending futures; the next request transparently redials.
"""

from __future__ import annotations

import asyncio
import random

from repro.cloud.messages import (
    DeleteRequest,
    FetchRequest,
    SearchRequest,
    SearchResponse,
    UploadDataset,
)
from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ServiceBusyError,
    ServiceConnectionError,
    WireFormatError,
)
from repro.service import protocol
from repro.service.client import (
    RetryPolicy,
    _error_from_reply,
    _parse_batch_reply,
    _parse_cluster_reply,
    _parse_count,
    _parse_fetch_reply,
    _parse_search_reply,
    _parse_verified_reply,
)

__all__ = ["AsyncServiceClient"]


class AsyncServiceClient:
    """Asyncio client multiplexing many requests over one connection."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
        rng: random.Random | None = None,
        max_in_flight: int = 64,
        grace_s: float = 5.0,
    ):
        """Point the client at ``host:port``.

        Args:
            host: Server host.
            port: Server port.
            timeout_s: Connect timeout, and the local reply timeout for
                requests that carry no ``deadline_ms``.
            retry: Backoff schedule; defaults to 4 attempts.
            rng: Jitter randomness (injectable for deterministic tests).
            max_in_flight: Cap on concurrently outstanding requests; the
                excess queues locally on the semaphore.
            grace_s: Extra local wait beyond a request's ``deadline_ms``
                before the client gives up on the reply — covers the
                server's own deadline error travelling back.
        """
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.grace_s = grace_s
        self._rng = rng or random.Random()
        self._gate = asyncio.Semaphore(max_in_flight)
        self._send_lock = asyncio.Lock()
        self._conn_lock = asyncio.Lock()
        self._pending: dict[int, asyncio.Future] = {}
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._next_request_id = 1
        self._connections_opened = 0
        self._closed = False

    @property
    def connections_opened(self) -> int:
        """How many connections this client has dialed (ever)."""
        return self._connections_opened

    @property
    def in_flight(self) -> int:
        """How many requests are currently awaiting replies."""
        return len(self._pending)

    async def __aenter__(self) -> AsyncServiceClient:
        """Enter an ``async with`` block; the client needs no setup."""
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Close the connection on block exit."""
        await self.close()

    async def close(self) -> None:
        """Tear down the connection and fail anything still pending."""
        self._closed = True
        task = self._reader_task
        writer = self._writer
        self._reader = None
        self._writer = None
        self._reader_task = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if writer is not None:
            await self._close_writer(writer)
        self._fail_pending(ServiceConnectionError("client closed"))

    # ------------------------------------------------------------------
    # Connection supervision
    # ------------------------------------------------------------------
    async def _ensure_connection(self) -> asyncio.StreamWriter:
        async with self._conn_lock:
            if self._closed:
                raise ServiceConnectionError("client is closed")
            if self._writer is not None:
                return self._writer
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    self.timeout_s,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                raise ServiceConnectionError(
                    f"cannot connect to {self.host}:{self.port}: {exc}"
                ) from exc
            self._reader = reader
            self._writer = writer
            self._connections_opened += 1
            self._reader_task = asyncio.ensure_future(
                self._read_loop(reader, writer)
            )
            return writer

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Dispatch every arriving reply to its pending future.

        Runs until the connection dies; whatever ends the loop becomes
        the exception failing all still-pending futures, so callers see
        *why* their request has no answer.
        """
        error: Exception | None = None
        try:
            while True:
                body = await protocol.read_frame(reader)
                if body is None:
                    error = ServiceConnectionError(
                        f"{self.host}:{self.port} closed the connection"
                    )
                    break
                reply = protocol.decode_reply(body)
                future = self._pending.pop(reply.request_id, None)
                if future is not None:
                    if not future.done():
                        future.set_result(reply)
                    continue
                if reply.request_id == 0 and not reply.ok:
                    # The server could not even attribute a request id —
                    # framing on this connection is suspect, and there is
                    # no telling whose request died.  Fail everything.
                    error = ProtocolError(
                        "server rejected an unattributable frame: "
                        f"{reply.error_message}"
                    )
                    break
                # A reply for a request we abandoned (deadline expiry):
                # drop it and keep the connection healthy.
        except WireFormatError as exc:
            error = exc
        except OSError as exc:
            error = ServiceConnectionError(
                f"connection to {self.host}:{self.port} lost: {exc}"
            )
        except asyncio.CancelledError:
            error = ServiceConnectionError("client closed")
        finally:
            await self._lose_connection(
                writer,
                error
                or ServiceConnectionError(
                    f"connection to {self.host}:{self.port} lost"
                ),
            )

    async def _lose_connection(
        self, writer: asyncio.StreamWriter, exc: Exception
    ) -> None:
        """Drop *writer* (if still current) and fail all pending futures."""
        if self._writer is writer:
            self._reader = None
            self._writer = None
            self._reader_task = None
        await self._close_writer(writer)
        self._fail_pending(exc)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    async def _roundtrip_once(
        self,
        request_id: int,
        body: bytes,
        deadline_ms: float | None,
    ) -> protocol.Reply:
        writer = await self._ensure_connection()
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._send_lock:
                if self._writer is not writer:
                    raise ServiceConnectionError(
                        "connection lost before the request was sent"
                    )
                await protocol.write_frame(writer, body)
        except OSError as exc:
            self._pending.pop(request_id, None)
            await self._lose_connection(
                writer,
                ServiceConnectionError(
                    f"send to {self.host}:{self.port} failed: {exc}"
                ),
            )
            raise ServiceConnectionError(
                f"send to {self.host}:{self.port} failed: {exc}"
            ) from exc
        except ServiceConnectionError:
            self._pending.pop(request_id, None)
            raise
        wait_s = (
            self.timeout_s
            if deadline_ms is None
            else deadline_ms / 1000.0 + self.grace_s
        )
        try:
            return await asyncio.wait_for(future, wait_s)
        except asyncio.TimeoutError as exc:
            # Abandon only this request: pop it so the reader discards
            # the late reply instead of poisoning the connection.
            self._pending.pop(request_id, None)
            raise DeadlineExceededError(
                f"no reply to request {request_id} within {wait_s:.3f} s"
            ) from exc

    async def _request(
        self,
        verb: str,
        fields: dict | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        request_id = self._next_request_id
        self._next_request_id += 1
        body = protocol.encode_request(
            verb, request_id, fields=fields, deadline_ms=deadline_ms
        )
        retries_left = self.retry.attempts - 1
        retry_index = 0
        async with self._gate:
            while True:
                try:
                    reply = await self._roundtrip_once(
                        request_id, body, deadline_ms
                    )
                except ServiceConnectionError:
                    if retries_left <= 0:
                        raise
                    retries_left -= 1
                    await asyncio.sleep(
                        self.retry.delay_s(retry_index, self._rng)
                    )
                    retry_index += 1
                    continue
                # The pending map is keyed by request id, so a reply can
                # only reach this coroutine if its id matched ours —
                # no positional-pairing check is needed here.
                if reply.ok:
                    return reply.fields
                if reply.error_code == protocol.ERR_BUSY:
                    if retries_left <= 0:
                        raise ServiceBusyError(reply.error_message)
                    retries_left -= 1
                    await asyncio.sleep(
                        self.retry.delay_s(retry_index, self._rng)
                    )
                    retry_index += 1
                    continue
                raise _error_from_reply(reply)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    async def upload(
        self, dataset: UploadDataset, deadline_ms: float | None = None
    ) -> int:
        """Upload an encrypted dataset; returns the server's record count."""
        fields = await self._request(
            "upload", protocol.upload_fields(dataset), deadline_ms=deadline_ms
        )
        return _parse_count(fields, "stored", "upload")

    async def search(
        self,
        token_payload: bytes,
        deadline_ms: float | None = None,
    ) -> tuple[SearchResponse, dict]:
        """Run one search; returns the response and the server's stats."""
        fields = await self._request(
            "search",
            protocol.search_fields(SearchRequest(payload=token_payload)),
            deadline_ms=deadline_ms,
        )
        return _parse_search_reply(fields)

    async def search_verified(
        self,
        token_payload: bytes,
        deadline_ms: float | None = None,
    ) -> tuple[SearchResponse, dict, dict]:
        """Run one search with a completeness proof attached.

        Raises:
            IntegrityError: If the server answered without the requested
                integrity section.
        """
        fields = await self._request(
            "search",
            protocol.search_fields(
                SearchRequest(payload=token_payload), verify=True
            ),
            deadline_ms=deadline_ms,
        )
        return _parse_verified_reply(fields)

    async def search_batch(
        self,
        token_payloads: tuple[bytes, ...],
        deadline_ms: float | None = None,
    ) -> tuple[tuple[SearchResponse, dict], ...]:
        """Run several searches in one round trip (request-order results)."""
        payloads = tuple(token_payloads)
        fields = await self._request(
            "search_batch",
            protocol.search_batch_fields(payloads),
            deadline_ms=deadline_ms,
        )
        return _parse_batch_reply(fields, len(payloads))

    async def fetch(
        self,
        identifiers: tuple[int, ...],
        deadline_ms: float | None = None,
    ) -> dict[int, bytes]:
        """Fetch encrypted record contents for *identifiers*."""
        fields = await self._request(
            "fetch",
            protocol.fetch_fields(FetchRequest(identifiers=identifiers)),
            deadline_ms=deadline_ms,
        )
        return _parse_fetch_reply(fields)

    async def delete(
        self,
        identifiers: tuple[int, ...],
        deadline_ms: float | None = None,
    ) -> int:
        """Delete records by identifier; returns how many were removed."""
        fields = await self._request(
            "delete",
            protocol.delete_fields(DeleteRequest(identifiers=identifiers)),
            deadline_ms=deadline_ms,
        )
        return _parse_count(fields, "removed", "delete")

    async def health(self, deadline_ms: float | None = None) -> dict:
        """Liveness probe: status, record count, worker count."""
        return await self._request("health", deadline_ms=deadline_ms)

    async def stats(self, deadline_ms: float | None = None) -> dict:
        """The server's metrics snapshot (counters, latency histograms)."""
        return await self._request("stats", deadline_ms=deadline_ms)

    async def cluster(self, deadline_ms: float | None = None) -> dict:
        """The coordinator's topology report (replication, replica
        liveness, resync debt); plain shards answer ``PROTOCOL``."""
        return _parse_cluster_reply(
            await self._request("cluster", deadline_ms=deadline_ms)
        )
