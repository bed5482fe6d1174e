"""The asyncio TCP servers fronting the CRSE cloud.

Two servers speak the framed protocol of :mod:`repro.service.protocol`:
the single-host :class:`ServiceServer` defined here, and the distributed
:class:`~repro.service.coordinator.Coordinator` that fans out to several
of them.  Everything they share — accepting connections, framing, the
bounded request queue, deadline enforcement, graceful drain, per-verb
metrics — lives in :class:`FramedServer`; subclasses contribute only
their verb handlers and the resources to close on shutdown.

One :class:`ServiceServer` owns three things: a
:class:`~repro.cloud.server.CloudServer` (record/content store and the
paper's leakage log), a :class:`~repro.service.engine.SearchEngine` (the
multi-core scan), and a :class:`~repro.service.metrics.ServiceMetrics`
registry.  Requests on one connection are *pipelined*: every decoded
request is dispatched as its own task and replies go out (under a
per-connection write lock) as each completes, possibly out of request
order.  A client that sends one request and waits observes exactly the
old in-order behaviour; a multiplexing client
(:class:`~repro.service.aio.AsyncServiceClient`) keeps many requests in
flight on one connection and pairs replies by request id.

Robustness semantics:

* **Backpressure** — at most ``max_pending`` requests may be in flight
  across all connections; excess requests are rejected immediately with a
  typed, retryable ``BUSY`` error instead of queueing unboundedly.
* **Deadlines** — a request may carry ``deadline_ms`` (bounded by the
  server's ``max_deadline_ms``); when it trips, the client gets a typed
  ``DEADLINE`` error and the server moves on.  The abandoned computation
  finishes (and is discarded) in its worker — a deliberate trade: portable
  preemption of a running scan is not worth the complexity here.
* **Graceful drain** — ``shutdown(drain=True)`` (wired to SIGTERM/SIGINT
  by :meth:`FramedServer.run`) stops accepting connections, lets in-flight
  requests finish up to ``drain_timeout_s``, then closes the engine.
* **Framing faults** — a malformed envelope gets a ``PROTOCOL`` error
  reply and the connection lives on; a broken *frame* (truncated or
  oversized) poisons the stream's alignment, so the connection is closed.
  Either way the server keeps serving other connections.
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
import time
from dataclasses import dataclass

from repro.cloud.codec import decode_token
from repro.cloud.messages import SearchRequest, UploadDataset, UploadRecord
from repro.cloud.server import CloudServer, PreparedUpload
from repro.core.base import CRSEScheme
from repro.errors import (
    IntegrityError,
    ProtocolError,
    ReproError,
    ShardUnavailableError,
    StorageError,
    WireFormatError,
)
from repro.integrity import ShardIntegrity
from repro.service import protocol
from repro.service.engine import SearchEngine
from repro.service.metrics import ServiceMetrics
from repro.service.schemeio import scheme_header
from repro.storage import RecordStore

__all__ = ["FramedServer", "ServiceConfig", "ServiceServer"]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    max_pending: int = 32
    default_deadline_ms: float | None = None
    max_deadline_ms: float = 60_000.0
    drain_timeout_s: float = 10.0


# Server-socket hygiene across fork().  The search engine forks worker
# processes, and tests/benchmarks run several servers in one process —
# so a fork taken by server B copies server A's listener and accepted
# connections into a long-lived child.  Killing A then leaves its port
# bound (connects hang in a zombie backlog) and its connections open (no
# FIN, peers block in recv) until that unrelated child exits.  Every
# FramedServer registers its socket fds here; forked children close
# their inherited copies immediately, restoring normal dead-peer
# semantics (ECONNREFUSED / EOF) no matter who forked when.
_server_fds: set[int] = set()
_server_fds_lock = threading.Lock()


def _track_fd(fd: int) -> None:
    with _server_fds_lock:
        _server_fds.add(fd)


def _untrack_fd(fd: int) -> None:
    with _server_fds_lock:
        _server_fds.discard(fd)


def _close_server_fds_in_child() -> None:
    # Runs in the forked child, which inherits the lock in the acquired
    # state (taken by the before-fork hook so the set is not copied
    # mid-mutation).
    _server_fds_lock.release()
    for fd in list(_server_fds):
        try:
            os.close(fd)
        except OSError:
            pass
    _server_fds.clear()


os.register_at_fork(
    before=_server_fds_lock.acquire,
    after_in_parent=_server_fds_lock.release,
    after_in_child=_close_server_fds_in_child,
)


class FramedServer:
    """Shared machinery for servers speaking the framed wire protocol.

    Owns the listener lifecycle (bind, serve, signal-driven drain), the
    per-connection read/decode/dispatch/reply loop, the bounded in-flight
    queue with typed ``BUSY`` rejections, deadline enforcement, and the
    translation of library exceptions into typed error replies.

    Subclasses implement :meth:`_handlers` (verb → async handler) and may
    override :meth:`_close_resources` to release what they own on
    shutdown.  The ``config`` object must carry ``host``, ``port``,
    ``max_pending``, ``default_deadline_ms``, ``max_deadline_ms``, and
    ``drain_timeout_s``.
    """

    def __init__(self, config):
        """Wire up lifecycle state (the port is bound later, in start())."""
        self.config = config
        self.metrics = ServiceMetrics()
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._in_flight = 0
        self._peak_in_flight = 0
        self._connections_open = 0
        self._connections_total = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------
    def _handlers(self) -> dict:
        """Verb → async handler map; subclasses must provide it."""
        raise NotImplementedError

    def _close_resources(self, drain: bool) -> None:
        """Release subclass-owned resources during shutdown (hook)."""

    async def _prepare(self) -> None:
        """Allocate subclass resources before the listener binds (hook).

        Anything that forks worker processes must happen here: a child
        forked after the listening socket exists inherits it, and an
        orphaned child then holds the port open after a SIGKILL of the
        server — connects hang instead of being refused.
        """

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind and start accepting connections.

        Returns:
            The bound port (useful with ``port=0``).
        """
        await self._prepare()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        for sock in self._server.sockets:
            _track_fd(sock.fileno())
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def run(self) -> None:
        """Start, install SIGTERM/SIGINT graceful-drain handlers, serve.

        This is the CLI entry point's body: returns only after a signal
        (or external :meth:`shutdown`) has drained the server.  Calling
        :meth:`start` first (e.g. to learn the bound port) is fine — the
        port is only bound once.
        """
        import signal

        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()

        def _request_shutdown() -> None:
            asyncio.ensure_future(self.shutdown(drain=True))

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, _request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        await self.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight requests, close up."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            for sock in self._server.sockets:
                _untrack_fd(sock.fileno())
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout_s
            while self._in_flight and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._close_resources(drain)
        self._stopped.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        sock = writer.get_extra_info("socket")
        conn_fd = sock.fileno() if sock is not None else -1
        if conn_fd >= 0:
            _track_fd(conn_fd)
        try:
            await self._connection_loop(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            if conn_fd >= 0:
                _untrack_fd(conn_fd)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Requests are pipelined: each decoded request runs as its own
        # task, and replies are written (lock-serialized) as they finish,
        # possibly out of request order.  The request id in the envelope
        # is what lets a multiplexing client pair them up again.
        self._connections_open += 1
        self._connections_total += 1
        write_lock = asyncio.Lock()
        request_tasks: set[asyncio.Task] = set()
        try:
            while True:
                body = None
                try:
                    body = await protocol.read_frame(reader)
                    if body is None:
                        return
                    request = protocol.decode_request(body)
                except WireFormatError as exc:
                    self.metrics.count_protocol_error()
                    await self._locked_reply(
                        writer,
                        write_lock,
                        protocol.encode_error(0, protocol.ERR_PROTOCOL, str(exc)),
                    )
                    # A bad envelope in a well-formed frame is recoverable;
                    # a broken frame lost the stream's alignment: hang up.
                    if body is None:
                        return
                    continue
                task = asyncio.ensure_future(
                    self._serve_request(request, writer, write_lock)
                )
                request_tasks.add(task)
                task.add_done_callback(request_tasks.discard)
                # Shutdown must be able to cancel requests that outlive
                # their connection loop, so they register globally too.
                self._conn_tasks.add(task)
                task.add_done_callback(self._conn_tasks.discard)
        finally:
            self._connections_open -= 1
            if request_tasks:
                # Let in-flight requests finish (their replies may still
                # be writable); shutdown cancels them via _conn_tasks.
                await asyncio.gather(*request_tasks, return_exceptions=True)

    async def _serve_request(
        self,
        request: protocol.Request,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        reply = await self._handle_request(request)
        await self._locked_reply(writer, write_lock, reply)

    async def _locked_reply(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, body: bytes
    ) -> None:
        async with lock:
            await self._safe_reply(writer, body)

    async def _safe_reply(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            await protocol.write_frame(writer, body)
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def _handle_request(self, request: protocol.Request) -> bytes:
        if self._draining:
            self.metrics.count_busy()
            return protocol.encode_error(
                request.request_id,
                protocol.ERR_BUSY,
                "server is draining",
                retryable=True,
            )
        if self._in_flight >= self.config.max_pending:
            self.metrics.count_busy()
            return protocol.encode_error(
                request.request_id,
                protocol.ERR_BUSY,
                f"request queue full ({self.config.max_pending} in flight)",
                retryable=True,
            )
        self._in_flight += 1
        self._peak_in_flight = max(self._peak_in_flight, self._in_flight)
        started = time.perf_counter()
        ok = False
        try:
            fields = await self._dispatch(request)
            ok = True
            return protocol.encode_ok(request.request_id, fields)
        except asyncio.TimeoutError:
            self.metrics.count_deadline()
            return protocol.encode_error(
                request.request_id,
                protocol.ERR_DEADLINE,
                f"deadline of {self._effective_deadline(request)} ms exceeded",
            )
        except ShardUnavailableError as exc:
            # A coordinator fan-out lost a shard: the typed error carries
            # the partial results the reachable shards attested to.
            return protocol.encode_error(
                request.request_id,
                protocol.ERR_SHARD_UNAVAILABLE,
                str(exc),
                fields={
                    "identifiers": list(exc.partial_identifiers),
                    **protocol.shard_reports_fields(exc.shards),
                },
            )
        except (WireFormatError, ProtocolError) as exc:
            return protocol.encode_error(
                request.request_id, protocol.ERR_PROTOCOL, str(exc)
            )
        except ReproError as exc:
            return protocol.encode_error(
                request.request_id, protocol.ERR_INTERNAL, str(exc)
            )
        except Exception as exc:
            # A bug, not a typed failure: log the traceback here, and
            # still answer the client, naming only the exception type.
            _log.exception("internal error serving %r", request.verb)
            return protocol.encode_error(
                request.request_id,
                protocol.ERR_INTERNAL,
                f"internal error ({type(exc).__name__})",
            )
        finally:
            self._in_flight -= 1
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self.metrics.observe(request.verb, elapsed_ms, ok)

    def _effective_deadline(self, request: protocol.Request) -> float | None:
        deadline = request.deadline_ms
        if deadline is None:
            deadline = self.config.default_deadline_ms
        if deadline is None:
            return None
        return min(deadline, self.config.max_deadline_ms)

    async def _dispatch(self, request: protocol.Request) -> dict:
        handler = self._handlers().get(request.verb)
        if handler is None:
            # The verb is valid on the wire but not on this endpoint
            # (e.g. ``cluster`` against a plain shard): a typed error,
            # not a hung connection.
            raise ProtocolError(
                f"verb {request.verb!r} is not served by this endpoint"
            )
        deadline_ms = self._effective_deadline(request)
        work = handler(request)
        if deadline_ms is None:
            return await work
        return await asyncio.wait_for(work, timeout=deadline_ms / 1000.0)

    @staticmethod
    async def _offload(func, *args):
        """Run CPU-bound *func* on the default executor, keeping the loop live."""
        return await asyncio.get_running_loop().run_in_executor(
            None, func, *args
        )

    def _saturation_fields(self) -> dict:
        """The ``queue``/``connections`` sections of a ``stats`` reply.

        Saturation gauges for load tests: current and peak in-flight
        depth against the BUSY limit, plus how many connections are open
        now and were ever accepted (a persistent-connection client shows
        up here as one connection however many requests it sends).
        """
        return {
            "queue": {
                "in_flight": self._in_flight,
                "peak_in_flight": self._peak_in_flight,
                "limit": self.config.max_pending,
            },
            "connections": {
                "open": self._connections_open,
                "total": self._connections_total,
            },
        }


class ServiceServer(FramedServer):
    """A networked CRSE query service around one scheme instance."""

    def __init__(
        self,
        scheme: CRSEScheme,
        config: ServiceConfig | None = None,
        engine: SearchEngine | None = None,
        store: RecordStore | None = None,
    ):
        """Assemble the service (does not bind the port yet — see start()).

        Args:
            scheme: Public scheme parameters (the server never sees keys).
            config: Service tunables; defaults are test-friendly.
            engine: An externally built engine (tests inject fakes here);
                by default one is created with ``config.workers`` shards.
            store: An open :class:`~repro.storage.RecordStore`.  When
                given, every upload/delete is durably logged *before* the
                client is acked, and the store's live records are replayed
                into the cloud state and engine shards right here — so a
                server restarted on the same data directory comes back
                with the dataset (and upload/delete leakage counters) it
                had when it died.

        Raises:
            StorageError: If *store* was created for a different scheme
                than the one this server is being built around.
        """
        super().__init__(config or ServiceConfig())
        self.cloud = CloudServer(scheme)
        self.engine = (
            engine
            if engine is not None
            else SearchEngine(scheme, workers=self.config.workers)
        )
        self.store = store
        # Keyless per-shard integrity registry: opaque owner-minted tags
        # plus the membership accumulator (see repro.integrity.shard).
        self.integrity = ShardIntegrity()
        self._last_proof = "never"
        # Uploads and deletes run on executor threads; they mutate the
        # store (and its MANIFEST checkpoint) one at a time.
        self._write_lock = threading.Lock()
        if store is not None:
            self._replay_store(store)

    def _replay_store(self, store: RecordStore) -> None:
        """Load the store's live records into the cloud state and engine.

        After replay the leakage log's ``uploads`` counter is reset to the
        store's *logical* upload count: the replay itself arrives as one
        big batch, but the history a curious server observed was N client
        uploads, and that history — not the restart artifact — is what the
        log must preserve.
        """
        ours = scheme_header(self.cloud.scheme)
        if store.scheme_header != ours:
            raise StorageError(
                "store was created for a different scheme than this server "
                "(public header mismatch)"
            )
        records = tuple(UploadRecord(*row) for row in store.scan_tagged())
        if records:
            self._apply(
                self.cloud.prepare_upload(UploadDataset(records=records))
            )
        self.cloud.log.uploads = store.uploads

    async def _prepare(self) -> None:
        """Fork every engine worker before the listening socket exists.

        Workers forked lazily (on the first upload) would inherit the
        bound listener; after a SIGKILL of this process the orphaned
        workers would then keep the port accepting-but-unserved, turning
        a fast connection-refused into a full client timeout.
        """
        await self._offload(self.engine.warm_up)

    def ingest(self, message: UploadDataset) -> int:
        """Validate, durably log (if durable), and apply one upload batch.

        The ordering is the durability contract: the batch reaches the
        disk log *before* any in-memory state changes, so an ack implies
        the records survive a crash, and a crash before the ack leaves no
        partial state (recovery truncates the uncommitted batch).

        Returns:
            Total records stored after the batch.
        """
        with self._write_lock:
            prepared = self.cloud.prepare_upload(message)
            if self.store is not None:
                self.store.append(
                    (
                        record.identifier,
                        record.payload,
                        record.content,
                        record.tag,
                        record.mtag,
                    )
                    for record in message.records
                )
            self._apply(prepared)
            self._checkpoint_integrity()
            return self.cloud.record_count

    def _apply(self, prepared: PreparedUpload) -> None:
        """Apply a validated batch to the cloud state, the engine shards
        and the integrity registry."""
        records = prepared.message.records
        self.cloud.commit_upload(prepared)
        self.engine.load((record.identifier, record.payload) for record in records)
        for record in records:
            self.integrity.add(
                record.identifier, record.payload, record.tag, record.mtag
            )

    def _checkpoint_integrity(self) -> None:
        """Checkpoint the accumulator into the manifest (durable stores).

        Runs on the caller's (executor) thread — both mutation paths are
        already off the event loop when they land here.
        """
        if self.store is not None:
            self.store.checkpoint_integrity(self.integrity.checkpoint())

    def _close_resources(self, drain: bool) -> None:
        self.engine.close(wait=drain)
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # Verb handlers
    # ------------------------------------------------------------------
    def _handlers(self) -> dict:
        return {
            "upload": self._do_upload,
            "search": self._do_search,
            "search_batch": self._do_search_batch,
            "fetch": self._do_fetch,
            "delete": self._do_delete,
            "health": self._do_health,
            "stats": self._do_stats,
        }

    async def _do_upload(self, request: protocol.Request) -> dict:
        message = protocol.upload_from_fields(request.fields)
        # ingest() orders validate → disk log → commit, so the ack below
        # is a durability promise when a store is attached.
        return {"stored": await self._offload(self.ingest, message)}

    async def _do_search(self, request: protocol.Request) -> dict:
        message = protocol.search_from_fields(request.fields)
        verify = protocol.search_wants_verify(request.fields)
        (fields,) = await self._admitted(
            (message.payload,),
            lambda payloads: [self.engine.search(payloads[0])],
            verify,
        )
        return fields

    async def _do_search_batch(self, request: protocol.Request) -> dict:
        payloads = protocol.search_batch_from_fields(request.fields)
        # One dispatch per shard for the whole vector — the per-task pool
        # overhead that dominates small-dataset searches is paid once for
        # the batch.
        results = await self._admitted(payloads, self.engine.search_batch)
        return protocol.batch_results_fields(
            (fields["identifiers"], fields["stats"]) for fields in results
        )

    async def _admitted(self, payloads, search, verify=False) -> list[dict]:
        """Search *payloads* on the executor while the tokens are admitted.

        Admission decodes every token in this process and logs it as its
        own query, so a batch observes exactly N independent searches and
        the leakage log records what handle_search would record; a
        malformed token fails the request with PROTOCOL.  It runs alongside
        the scan rather than before it: every engine worker runs the same
        full decode (subgroup checks included) before any pairing, so
        admission adds no latency on a multi-core host.
        """
        fields, _ = await asyncio.gather(
            self._offload(self._searched, payloads, search, verify),
            self._offload(self._admit_tokens, payloads),
        )
        return fields

    def _admit_tokens(self, payloads) -> None:
        for payload in payloads:
            token = decode_token(self.cloud.scheme, payload)
            self.cloud._record_query_leakage(SearchRequest(payload=payload), token)

    def _searched(self, payloads, search, verify: bool) -> list[dict]:
        """Reply fields for each token of ``search(payloads)`` (executor
        thread): matches and scan stats, plus the integrity section when
        a single search asked for verification."""
        replies = []
        for payload, result in zip(payloads, search(payloads)):
            self.cloud.log.access_pattern.append(result.identifiers)
            self.cloud.last_search_stats = result.stats
            fields = {
                "identifiers": list(result.identifiers),
                "stats": protocol.search_stats_fields(result.stats),
            }
            if verify:
                # Per-match tags and the completeness proof.  A shard
                # holding untagged records cannot attest, which is the
                # requester's problem statement — a PROTOCOL error, not an
                # internal one.
                try:
                    fields.update(
                        protocol.integrity_section_fields(
                            self.integrity.matches_section(result.identifiers),
                            [self.integrity.proof_for(result.identifiers, payload)],
                        )
                    )
                except IntegrityError as exc:
                    self._last_proof = "failed"
                    raise ProtocolError(f"verification unavailable: {exc}") from exc
                self._last_proof = "served"
            replies.append(fields)
        return replies

    async def _do_fetch(self, request: protocol.Request) -> dict:
        message = protocol.fetch_from_fields(request.fields)
        if protocol.fetch_wants_payloads(request.fields):
            rows = await self._offload(self._export_rows, message.identifiers)
            return protocol.export_rows_fields(rows)
        response = await self._offload(self.cloud.handle_fetch, message)
        return protocol.fetch_response_fields(response)

    def _export_rows(self, identifiers) -> list[tuple]:
        """Export rows with their integrity tags merged back in.

        Tags ride along on migration so a record moved to another shard
        stays verifiable there.
        """
        rows = []
        for identifier, payload, content in self.cloud.export_records(
            identifiers
        ):
            tag, mtag = self.integrity.tags_for(identifier)
            rows.append((identifier, payload, content, tag, mtag))
        return rows

    async def _do_delete(self, request: protocol.Request) -> dict:
        message = protocol.delete_from_fields(request.fields)

        def work() -> int:
            # Tombstone first: if we crash after the disk write the
            # replayed state matches what the client was (about to be)
            # told; crashing before it just loses an unacked request.
            with self._write_lock:
                if self.store is not None:
                    self.store.delete(message.identifiers)
                removed = self.cloud.handle_delete(message)
                self.engine.delete(message.identifiers)
                for identifier in message.identifiers:
                    self.integrity.remove(identifier)
                self._checkpoint_integrity()
                return removed

        return {"removed": await self._offload(work)}

    async def _do_health(self, request: protocol.Request) -> dict:
        return {
            "status": "ok",
            "records": self.cloud.record_count,
            "workers": self.engine.workers,
            "durable": self.store is not None,
        }

    async def _do_stats(self, request: protocol.Request) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["records"] = self.cloud.record_count
        snapshot.update(self._saturation_fields())
        snapshot["engine"] = {
            "record_count": self.engine.record_count,
            "workers": self.engine.workers,
        }
        snapshot["integrity"] = self.integrity_stats()
        if self.store is not None:
            snapshot["store"] = self.store.snapshot().to_dict()
        return snapshot

    def integrity_stats(self) -> dict:
        """The ``integrity`` section of the ``stats`` reply.

        ``tags`` counts records carrying integrity tags (``complete``
        is true when that covers every record), ``root``/``version``
        checkpoint the accumulator, and ``last_proof`` reports the
        outcome of the most recent verified search (``never``/``served``/
        ``failed``).
        """
        tagged = sum(1 for _, _, tag, mtag in self.integrity.entries() if tag and mtag)
        return {
            "tags": tagged,
            "records": self.integrity.count,
            "complete": self.integrity.complete,
            "root": self.integrity.root.hex(),
            "version": self.integrity.version,
            "last_proof": self._last_proof,
        }
