"""Blocking client for the CRSE query service.

The client keeps **one persistent connection** and reuses it across
requests: strict request→reply on a single socket, so a retried request
can never collide with a half-read reply from an earlier attempt.  Dialing
per request (the original design) costs a TCP handshake on every query,
which at sustained load dominates small-search latency.

Reuse needs one new failure case handled: the server (or a proxy between)
may close an *idle* connection between our requests, which we only notice
when the next send or reply read fails.  That race is recovered
transparently — redial and resend once — but **only** when the failed
request went out on a *reused* connection and no reply byte arrived: a
clean EOF there means the peer hung up before reading us, or at worst the
idle-close crossed our send on the wire.  The same EOF on a *fresh*
connection is a real mid-request failure (the server accepted, may have
executed, and dropped the reply), so it raises instead of replaying —
blind replay could double-apply an upload.

Retry policy is exponential backoff with jitter, and it is deliberately
narrow about what it retries:

* **retryable** — connection failures (the server is not up yet, or its
  listen queue overflowed) and typed ``BUSY`` rejections (the server's
  bounded queue was full; it did *not* execute the request);
* **not retryable** — ``PROTOCOL`` errors (retrying malformed bytes cannot
  help), ``DEADLINE`` (the time budget is spent — the caller decides),
  ``INTERNAL`` errors, and mid-request timeouts (the server may have
  executed the request, so blind replay could double-apply an upload).
"""

from __future__ import annotations

import base64
import random
import socket
import time

from repro.cloud.messages import (
    DeleteRequest,
    FetchRequest,
    SearchRequest,
    SearchResponse,
    UploadDataset,
)
from repro.errors import (
    ConnectionClosedError,
    DeadlineExceededError,
    IntegrityError,
    ProtocolError,
    ServiceBusyError,
    ServiceConnectionError,
    ServiceError,
    ShardUnavailableError,
    WireFormatError,
)
from repro.service import protocol

__all__ = ["DEADLINE_GRACE_MS", "RetryPolicy", "ServiceClient"]

#: Slack added on top of a request's remaining deadline when deriving
#: the per-request socket timeout: the server enforces the deadline and
#: replies with a typed ``DEADLINE`` error, so the socket should stay
#: open just long enough to receive it — but no longer, or a stalled
#: (not dead) server would pin the caller past its budget and eat a
#: failover sibling's chance to answer in time.
DEADLINE_GRACE_MS = 250.0


def _partial_identifiers(fields: dict) -> tuple[int, ...]:
    """Partial match ids riding on a SHARD_UNAVAILABLE error reply.

    Raises:
        WireFormatError: If the field is present but malformed.
    """
    identifiers = fields.get("identifiers")
    if identifiers is None:
        return ()
    if not isinstance(identifiers, list) or not all(
        isinstance(i, int) for i in identifiers
    ):
        raise WireFormatError("partial identifiers must be a list of ints")
    return tuple(identifiers)


def _parse_search_reply(fields: dict) -> tuple[SearchResponse, dict]:
    """Extract ``(response, stats)`` from a search reply's fields.

    Shared by the blocking and async clients — the wire shape is the
    same regardless of transport.

    Raises:
        WireFormatError: On a missing or malformed identifier list.
    """
    identifiers = fields.get("identifiers")
    if not isinstance(identifiers, list) or not all(
        isinstance(i, int) for i in identifiers
    ):
        raise WireFormatError("search reply missing identifier list")
    stats = fields.get("stats")
    return (
        SearchResponse(identifiers=tuple(identifiers)),
        stats if isinstance(stats, dict) else {},
    )


def _parse_batch_reply(
    fields: dict, expected: int
) -> tuple[tuple[SearchResponse, dict], ...]:
    """Extract per-token ``(response, stats)`` pairs from a batch reply.

    Raises:
        WireFormatError: If the reply does not carry exactly *expected*
            results (position is the only token↔result pairing).
    """
    results = protocol.batch_results_from_fields(fields)
    if len(results) != expected:
        raise WireFormatError(
            f"batch reply has {len(results)} results for {expected} tokens"
        )
    return tuple(
        (SearchResponse(identifiers=identifiers), stats)
        for identifiers, stats in results
    )


def _parse_verified_reply(fields: dict) -> tuple[SearchResponse, dict, dict]:
    """Extract ``(response, stats, section)`` from a verified search reply.

    Raises:
        IntegrityError: If the reply carries no integrity section (a
            proof-stripping server is treated exactly like a tampering
            one).
    """
    response, stats = _parse_search_reply(fields)
    section = protocol.integrity_section_from_fields(fields)
    if section is None:
        raise IntegrityError(
            "verification requested but the reply carries no "
            "integrity section"
        )
    return response, stats, section


def _parse_count(fields: dict, key: str, verb: str) -> int:
    """The record count an upload (``stored``) or delete (``removed``)
    reply carries.

    Raises:
        WireFormatError: If the count is missing or not an int.
    """
    count = fields.get(key)
    if not isinstance(count, int):
        raise WireFormatError(f"{verb} reply missing {key!r} count")
    return count


def _parse_fetch_reply(fields: dict) -> dict[int, bytes]:
    """Extract ``{identifier: content}`` from a fetch reply.

    Raises:
        WireFormatError: On a missing or malformed contents list.
    """
    contents = fields.get("contents")
    if not isinstance(contents, list):
        raise WireFormatError("fetch reply missing contents")
    out: dict[int, bytes] = {}
    for entry in contents:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], int)
            or not isinstance(entry[1], str)
        ):
            raise WireFormatError("malformed fetch reply entry")
        out[entry[0]] = base64.b64decode(entry[1].encode("ascii"))
    return out


def _parse_cluster_reply(fields: dict) -> dict:
    """Shape-check a coordinator's topology reply.

    Raises:
        WireFormatError: If the reply carries no partition list.
    """
    if not isinstance(fields.get("partitions"), list):
        raise WireFormatError("cluster reply missing 'partitions'")
    return fields


def _error_from_reply(reply: protocol.Reply) -> Exception:
    """Map a non-BUSY typed error reply onto the exception hierarchy.

    BUSY is excluded because it is the one code the retry loops handle
    in place (it changes control flow, not just the raised type).
    """
    if reply.error_code == protocol.ERR_DEADLINE:
        return DeadlineExceededError(reply.error_message)
    if reply.error_code == protocol.ERR_PROTOCOL:
        return ProtocolError(reply.error_message)
    if reply.error_code == protocol.ERR_SHARD_UNAVAILABLE:
        return ShardUnavailableError(
            reply.error_message,
            partial_identifiers=_partial_identifiers(reply.fields),
            shards=protocol.shard_reports_from_fields(reply.fields),
        )
    return ServiceError(f"{reply.error_code}: {reply.error_message}")


class RetryPolicy:
    """Exponential backoff with jitter for retryable failures."""

    def __init__(
        self,
        attempts: int = 4,
        base_delay_s: float = 0.05,
        max_delay_s: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
    ):
        """Configure the schedule.

        Args:
            attempts: Total tries (first attempt included); minimum 1.
            base_delay_s: Delay before the first retry.
            max_delay_s: Ceiling on any single delay.
            multiplier: Growth factor per retry.
            jitter: Fraction of each delay randomized away (0 disables;
                0.5 means a delay lands uniformly in [0.5·d, d]), so
                synchronized clients do not retry in lockstep.
        """
        if attempts < 1:
            raise ValueError("attempts must be at least 1")
        self.attempts = attempts
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.multiplier = multiplier
        self.jitter = jitter

    def delay_s(self, retry_index: int, rng: random.Random) -> float:
        """Jittered delay before retry number *retry_index* (0-based)."""
        delay = min(
            self.max_delay_s,
            self.base_delay_s * self.multiplier**retry_index,
        )
        if self.jitter > 0:
            delay *= 1.0 - self.jitter * rng.random()
        return delay


class ServiceClient:
    """Blocking, retrying client for one service endpoint."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
        rng: random.Random | None = None,
    ):
        """Point the client at ``host:port``.

        Args:
            host: Server host.
            port: Server port.
            timeout_s: Socket timeout for connect and for each reply.
            retry: Backoff schedule; defaults to 4 attempts.
            rng: Jitter randomness (not security-relevant; injectable for
                deterministic tests).
        """
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self._rng = rng or random.Random()
        self._next_request_id = 1
        self._sock: socket.socket | None = None
        self._connections_opened = 0

    @property
    def connections_opened(self) -> int:
        """How many TCP connections this client has dialed (ever).

        A persistent client serving N healthy sequential requests reports
        1 here; tests use the counter to pin the reuse behaviour down.
        """
        return self._connections_opened

    def close(self) -> None:
        """Close the cached connection (safe to call repeatedly)."""
        self._drop_socket()

    def __enter__(self) -> ServiceClient:
        """Enter a ``with`` block; the client needs no setup."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the cached connection on block exit."""
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _ensure_socket(self, timeout_s: float) -> tuple[socket.socket, bool]:
        """Return ``(socket, fresh)``, dialing only if none is cached."""
        if self._sock is not None:
            self._sock.settimeout(timeout_s)
            return self._sock, False
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=timeout_s
            )
        except OSError as exc:
            raise ServiceConnectionError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        sock.settimeout(timeout_s)
        self._sock = sock
        self._connections_opened += 1
        return sock, True

    def _drop_socket(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None

    def _roundtrip_once(
        self, body: bytes, timeout_s: float
    ) -> protocol.Reply:
        # A clean EOF (or send failure) on a REUSED connection is the
        # idle-close race: the server hung up between our requests, and
        # our send crossed the close on the wire.  Redial and resend once.
        # The same failure on a FRESH connection means the server accepted
        # this very request and dropped the reply — it may have executed,
        # so replaying could double-apply; raise instead.
        resent = False
        while True:
            sock, fresh = self._ensure_socket(timeout_s)
            try:
                protocol.send_frame(sock, body)
                reply_body = protocol.recv_frame(sock)
            except socket.timeout as exc:
                self._drop_socket()
                raise ServiceError(
                    f"no reply within {timeout_s:.3f} s (request may "
                    "still have executed server-side; not retrying)"
                ) from exc
            except ConnectionClosedError as exc:
                self._drop_socket()
                if not fresh and not resent:
                    resent = True
                    continue
                raise ServiceError(
                    f"connection to {self.host}:{self.port} closed before "
                    "a reply (request may still have executed server-side; "
                    "not retrying)"
                ) from exc
            except WireFormatError:
                # Mid-frame truncation or junk bytes: the reply started
                # arriving, so the request definitely executed.  Never
                # resend; surface the typed wire error.
                self._drop_socket()
                raise
            except OSError as exc:
                self._drop_socket()
                if not fresh and not resent:
                    resent = True
                    continue
                raise ServiceError(
                    f"connection to {self.host}:{self.port} failed "
                    f"mid-request: {exc}"
                ) from exc
            return protocol.decode_reply(reply_body)

    def _request(
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
        # With a deadline, both the socket timeout and the retry budget
        # derive from it: a stalled-but-alive server is abandoned when
        # the budget (plus grace for the server's own DEADLINE reply)
        # runs out, and backoff sleeps never outlive it.  A coordinator
        # failing over between replicas relies on this to fit a sibling
        # attempt inside the caller's original deadline.
        deadline_at = (
            None
            if deadline_ms is None
            else time.perf_counter() + deadline_ms / 1000.0
        )
        retries_left = self.retry.attempts - 1
        retry_index = 0
        while True:
            timeout_s = self.timeout_s
            if deadline_at is not None:
                remaining_s = deadline_at - time.perf_counter()
                if remaining_s <= 0:
                    raise DeadlineExceededError(
                        f"deadline of {deadline_ms} ms spent client-side "
                        "before a reply"
                    )
                timeout_s = min(
                    timeout_s, remaining_s + DEADLINE_GRACE_MS / 1000.0
                )
            try:
                reply = self._roundtrip_once(body, timeout_s)
            except ServiceConnectionError:
                if retries_left <= 0 or self._deadline_spent(
                    deadline_at, retry_index
                ):
                    raise
                retries_left -= 1
                time.sleep(self.retry.delay_s(retry_index, self._rng))
                retry_index += 1
                continue
            # Id 0 is the server's "I could not even parse your request
            # id" placeholder — legitimate only on *error* replies (the
            # framing/envelope failed before the id was read).  A success
            # reply must always echo our id; accepting 0 there would let
            # a confused server hand us another request's answer.
            if reply.request_id != request_id and not (
                reply.request_id == 0 and not reply.ok
            ):
                raise ProtocolError(
                    f"reply for request {reply.request_id}, "
                    f"expected {request_id}"
                )
            if reply.ok:
                return reply.fields
            if reply.error_code == protocol.ERR_BUSY:
                if retries_left <= 0 or self._deadline_spent(
                    deadline_at, retry_index
                ):
                    raise ServiceBusyError(reply.error_message)
                retries_left -= 1
                time.sleep(self.retry.delay_s(retry_index, self._rng))
                retry_index += 1
                continue
            raise _error_from_reply(reply)

    def _deadline_spent(
        self, deadline_at: float | None, retry_index: int
    ) -> bool:
        """Whether the next backoff sleep would outlive the deadline."""
        if deadline_at is None:
            return False
        # Compare against the schedule's full (pre-jitter) delay so the
        # decision does not depend on the jitter draw.
        next_delay_s = min(
            self.retry.base_delay_s * (self.retry.multiplier**retry_index),
            self.retry.max_delay_s,
        )
        return time.perf_counter() + next_delay_s >= deadline_at

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def upload(
        self, dataset: UploadDataset, deadline_ms: float | None = None
    ) -> int:
        """Upload an encrypted dataset; returns the server's record count.

        Raises:
            ServiceConnectionError: If the server stays unreachable.
            ServiceBusyError: If backpressure persists through all retries.
            ProtocolError: On malformed payloads (non-retryable).
        """
        fields = self._request(
            "upload", protocol.upload_fields(dataset), deadline_ms=deadline_ms
        )
        return _parse_count(fields, "stored", "upload")

    def search(
        self,
        token_payload: bytes,
        deadline_ms: float | None = None,
    ) -> tuple[SearchResponse, dict]:
        """Run one search; returns the response and the server's scan stats.

        Args:
            token_payload: The encoded search token (message 4).
            deadline_ms: Server-enforced time budget for this query.

        Raises:
            DeadlineExceededError: If the server's deadline tripped.
            ServiceBusyError: If backpressure persists through all retries.
        """
        fields = self._request(
            "search",
            protocol.search_fields(SearchRequest(payload=token_payload)),
            deadline_ms=deadline_ms,
        )
        return _parse_search_reply(fields)

    def search_verified(
        self,
        token_payload: bytes,
        deadline_ms: float | None = None,
    ) -> tuple[SearchResponse, dict, dict]:
        """Run one search with a completeness proof attached.

        Like :meth:`search`, but the request asks the server to attest
        its answer: the reply must carry an integrity section (per-match
        tags plus a per-shard completeness proof) that the caller feeds
        to :class:`repro.integrity.ResultVerifier`.

        Returns:
            ``(response, stats, section)`` where *section* is the raw
            integrity section dict from the wire.

        Raises:
            IntegrityError: If the server answered without the requested
                integrity section (a proof-stripping server is treated
                exactly like a tampering one).
            ProtocolError: If the server cannot build a proof (e.g. it
                holds untagged records).
        """
        fields = self._request(
            "search",
            protocol.search_fields(
                SearchRequest(payload=token_payload), verify=True
            ),
            deadline_ms=deadline_ms,
        )
        return _parse_verified_reply(fields)

    def search_batch(
        self,
        token_payloads: tuple[bytes, ...],
        deadline_ms: float | None = None,
    ) -> tuple[tuple[SearchResponse, dict], ...]:
        """Run several searches in one round trip.

        The server answers position-for-position: result *i* belongs to
        token *i*.  One frame each way amortizes framing and dispatch
        overhead; leakage-wise the batch is exactly ``len(token_payloads)``
        independent searches.

        Raises:
            WireFormatError: If the batch is empty or the reply does not
                carry one result per token.
        """
        payloads = tuple(token_payloads)
        fields = self._request(
            "search_batch",
            protocol.search_batch_fields(payloads),
            deadline_ms=deadline_ms,
        )
        return _parse_batch_reply(fields, len(payloads))

    def fetch(
        self,
        identifiers: tuple[int, ...],
        deadline_ms: float | None = None,
    ) -> dict[int, bytes]:
        """Fetch encrypted record contents for *identifiers*."""
        fields = self._request(
            "fetch",
            protocol.fetch_fields(FetchRequest(identifiers=identifiers)),
            deadline_ms=deadline_ms,
        )
        return _parse_fetch_reply(fields)

    def export(
        self,
        identifiers: tuple[int, ...],
        deadline_ms: float | None = None,
    ) -> tuple[tuple[int, bytes, bytes, bytes, bytes], ...]:
        """Fetch records *with* their searchable payload bytes.

        Used by the coordinator to migrate records between shards on a
        membership change: the returned ``(identifier, payload, content,
        tag, mtag)`` rows are exactly what an upload to another shard
        needs.  The tag fields are empty for records stored before the
        integrity subsystem existed.
        """
        fields = self._request(
            "fetch",
            {
                **protocol.fetch_fields(FetchRequest(identifiers=identifiers)),
                "payloads": True,
            },
            deadline_ms=deadline_ms,
        )
        return protocol.export_rows_from_fields(fields)

    def delete(
        self,
        identifiers: tuple[int, ...],
        deadline_ms: float | None = None,
    ) -> int:
        """Delete records by identifier; returns how many were removed."""
        fields = self._request(
            "delete",
            protocol.delete_fields(DeleteRequest(identifiers=identifiers)),
            deadline_ms=deadline_ms,
        )
        return _parse_count(fields, "removed", "delete")

    def health(self, deadline_ms: float | None = None) -> dict:
        """Liveness probe: status, record count, worker count."""
        return self._request("health", deadline_ms=deadline_ms)

    def stats(self, deadline_ms: float | None = None) -> dict:
        """The server's metrics snapshot (counters, latency histograms)."""
        return self._request("stats", deadline_ms=deadline_ms)

    def cluster(self, deadline_ms: float | None = None) -> dict:
        """The coordinator's topology report: replication factor plus
        per-partition replica liveness and resync debt.

        Only coordinators serve this verb; a plain shard answers with a
        typed ``PROTOCOL`` error.
        """
        return _parse_cluster_reply(
            self._request("cluster", deadline_ms=deadline_ms)
        )
