"""The framed wire protocol spoken between service client and server.

Framing is deliberately minimal: every frame is a 4-byte big-endian body
length followed by exactly that many bytes of UTF-8 JSON.  The JSON
envelope names a verb (requests) or a status (replies); binary payloads —
the ciphertexts and tokens produced by :mod:`repro.cloud.codec` — travel
base64-encoded inside the envelope, so the crypto wire format is byte-for-
byte the one the simulated :mod:`repro.cloud` stack already uses.

Everything arriving off the wire is untrusted: oversized frames, truncated
streams, junk bytes, and malformed envelopes all raise
:class:`repro.errors.WireFormatError` (a ``ProtocolError``), never a bare
``ValueError`` or a hang.  The frame-length prefix is checked *before* the
body is read, so an attacker cannot make the server buffer an arbitrarily
large frame.

Request verbs map one-to-one onto the paper's message flows plus two
operational verbs::

    upload        — message 1, the encrypted dataset        (UploadDataset)
    search        — messages 4 → 5, one range query          (SearchRequest)
    search_batch  — a vector of range queries in one frame   (token list)
    fetch         — follow-up content retrieval              (FetchRequest)
    delete        — dynamic record removal                   (DeleteRequest)
    health        — liveness + record/worker counts          (operational)
    stats         — per-verb counters + latency histograms   (operational)

``search_batch`` exists for sustained traffic: a batch amortizes framing,
envelope decode, and engine dispatch across many tokens, and its reply
carries one ``{identifiers, stats}`` entry per token *in request order* —
leakage-wise it is exactly N independent searches (each token is recorded
in the leakage log individually).

The **shards capability** extends the same envelopes for distributed
search: coordinator replies may carry a ``shards`` list (one validated
report per backend, see :func:`shard_reports_fields`), error replies may
carry partial-result fields beside the typed error object (how
``SHARD_UNAVAILABLE`` ships the matches reachable shards attested to),
and a ``fetch`` request may set ``"payloads": true`` to retrieve codec
ciphertext bytes for shard-to-shard record migration.  A plain server
never emits these fields, so old clients and new servers interoperate
unchanged.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import socket
from dataclasses import dataclass, field
from typing import Any

from repro.cloud.messages import (
    DeleteRequest,
    FetchRequest,
    FetchResponse,
    SearchRequest,
    UploadDataset,
    UploadRecord,
)
from repro.cloud.server import SearchStats
from repro.errors import ConnectionClosedError, WireFormatError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "VERBS",
    "ERR_BUSY",
    "ERR_DEADLINE",
    "ERR_PROTOCOL",
    "ERR_INTERNAL",
    "ERR_SHARD_UNAVAILABLE",
    "Request",
    "Reply",
    "encode_frame",
    "read_frame",
    "write_frame",
    "recv_frame",
    "send_frame",
    "encode_request",
    "decode_request",
    "encode_ok",
    "encode_error",
    "decode_reply",
    "upload_fields",
    "upload_from_fields",
    "search_fields",
    "search_from_fields",
    "search_wants_verify",
    "search_batch_fields",
    "search_batch_from_fields",
    "search_stats_fields",
    "search_stats_from_fields",
    "batch_results_fields",
    "batch_results_from_fields",
    "integrity_section_fields",
    "integrity_section_from_fields",
    "fetch_fields",
    "fetch_from_fields",
    "fetch_response_fields",
    "fetch_wants_payloads",
    "export_rows_fields",
    "export_rows_from_fields",
    "shard_reports_fields",
    "shard_reports_from_fields",
    "delete_fields",
    "delete_from_fields",
]

PROTOCOL_VERSION = 1

#: Hard ceiling on one frame body.  Large enough for a multi-thousand-record
#: upload at paper-scale element sizes, small enough that a hostile length
#: prefix cannot exhaust server memory.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH_PREFIX = 4

VERBS = (
    "upload",
    "search",
    "search_batch",
    "fetch",
    "delete",
    "health",
    "stats",
    "cluster",
)

# Typed error codes carried in error replies.  BUSY is the only retryable
# server-originated code: the bounded queue rejected the request.
# SHARD_UNAVAILABLE is coordinator-originated: a backend shard died
# mid-fan-out, and the error envelope carries the partial results the
# reachable shards attested to.
ERR_BUSY = "BUSY"
ERR_DEADLINE = "DEADLINE"
ERR_PROTOCOL = "PROTOCOL"
ERR_INTERNAL = "INTERNAL"
ERR_SHARD_UNAVAILABLE = "SHARD_UNAVAILABLE"


@dataclass(frozen=True)
class Request:
    """One decoded request envelope."""

    verb: str
    request_id: int
    deadline_ms: float | None
    fields: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Reply:
    """One decoded reply envelope (success or typed error)."""

    request_id: int
    ok: bool
    fields: dict = field(default_factory=dict)
    error_code: str | None = None
    error_message: str = ""
    retryable: bool = False


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(body: bytes) -> bytes:
    """Prefix *body* with its 4-byte big-endian length.

    Raises:
        WireFormatError: If *body* is empty or exceeds the frame ceiling.
    """
    if not body:
        raise WireFormatError("refusing to send an empty frame")
    if len(body) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame of {len(body)} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    return len(body).to_bytes(_LENGTH_PREFIX, "big") + body


def _check_length(header: bytes) -> int:
    length = int.from_bytes(header, "big")
    if length == 0:
        raise WireFormatError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"declared frame of {length} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    return length


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame body from *reader*.

    Returns:
        The frame body, or ``None`` on a clean EOF at a frame boundary
        (the peer closed the connection between requests).

    Raises:
        WireFormatError: On a truncated frame or an oversized length prefix.
    """
    try:
        header = await reader.readexactly(_LENGTH_PREFIX)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireFormatError("truncated frame header") from exc
    length = _check_length(header)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireFormatError(
            f"truncated frame: expected {length} bytes, got {len(exc.partial)}"
        ) from exc


async def write_frame(writer: asyncio.StreamWriter, body: bytes) -> None:
    """Write one framed *body* to *writer* and drain."""
    writer.write(encode_frame(body))
    await writer.drain()


def recv_frame(sock: socket.socket) -> bytes:
    """Blocking counterpart of :func:`read_frame` for the client side.

    Raises:
        ConnectionClosedError: On a clean EOF at a frame boundary (the
            peer hung up before sending any reply byte).
        WireFormatError: On EOF mid-frame or an oversized length prefix.
    """
    header = _recv_exactly(sock, _LENGTH_PREFIX, "frame header")
    length = _check_length(header)
    return _recv_exactly(sock, length, "frame body")


def _recv_exactly(sock: socket.socket, count: int, what: str) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count and what == "frame header":
                raise ConnectionClosedError(
                    "connection closed at a frame boundary"
                )
            raise WireFormatError(
                f"connection closed mid-{what} "
                f"({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, body: bytes) -> None:
    """Blocking counterpart of :func:`write_frame`."""
    sock.sendall(encode_frame(body))


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def _decode_envelope(body: bytes) -> dict:
    try:
        envelope = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(envelope, dict):
        raise WireFormatError("envelope must be a JSON object")
    if envelope.get("v") != PROTOCOL_VERSION:
        raise WireFormatError(
            f"unsupported protocol version {envelope.get('v')!r}"
        )
    return envelope


def encode_request(
    verb: str,
    request_id: int,
    fields: dict | None = None,
    deadline_ms: float | None = None,
) -> bytes:
    """Build a request frame body."""
    envelope: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "verb": verb,
        "id": request_id,
    }
    if deadline_ms is not None:
        envelope["deadline_ms"] = deadline_ms
    if fields:
        envelope.update(fields)
    return json.dumps(envelope, separators=(",", ":")).encode()


def decode_request(body: bytes) -> Request:
    """Parse and validate a request frame body.

    Raises:
        WireFormatError: On junk bytes, an unknown verb, or malformed
            envelope fields.
    """
    envelope = _decode_envelope(body)
    verb = envelope.pop("verb", None)
    if verb not in VERBS:
        raise WireFormatError(f"unknown verb {verb!r}")
    request_id = envelope.pop("id", None)
    if not isinstance(request_id, int):
        raise WireFormatError("request id must be an integer")
    deadline = envelope.pop("deadline_ms", None)
    if deadline is not None and (
        not isinstance(deadline, (int, float)) or deadline <= 0
    ):
        raise WireFormatError("deadline_ms must be a positive number")
    envelope.pop("v")
    return Request(
        verb=verb,
        request_id=request_id,
        deadline_ms=None if deadline is None else float(deadline),
        fields=envelope,
    )


def encode_ok(request_id: int, fields: dict | None = None) -> bytes:
    """Build a success reply frame body."""
    envelope: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
    }
    if fields:
        envelope.update(fields)
    return json.dumps(envelope, separators=(",", ":")).encode()


def encode_error(
    request_id: int,
    code: str,
    message: str,
    retryable: bool = False,
    fields: dict | None = None,
) -> bytes:
    """Build a typed error reply frame body.

    Args:
        request_id: The request being answered (0 when the id was not
            parseable from the request).
        code: One of the ``ERR_*`` codes.
        message: Human-readable detail.
        retryable: Whether a blind client retry can help.
        fields: Extra envelope fields carried *beside* the error object —
            the coordinator uses this to attach partial results (the
            ``identifiers``/``shards`` a ``SHARD_UNAVAILABLE`` reply can
            still attest to).
    """
    envelope: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {
            "code": code,
            "message": message,
            "retryable": retryable,
        },
    }
    if fields:
        for key, value in fields.items():
            if key not in envelope:
                envelope[key] = value
    return json.dumps(envelope, separators=(",", ":")).encode()


def decode_reply(body: bytes) -> Reply:
    """Parse and validate a reply frame body.

    Raises:
        WireFormatError: On junk bytes or a malformed envelope.
    """
    envelope = _decode_envelope(body)
    request_id = envelope.pop("id", None)
    if not isinstance(request_id, int):
        raise WireFormatError("reply id must be an integer")
    ok = envelope.pop("ok", None)
    if not isinstance(ok, bool):
        raise WireFormatError("reply must carry a boolean 'ok'")
    envelope.pop("v")
    if ok:
        return Reply(request_id=request_id, ok=True, fields=envelope)
    error = envelope.pop("error", None)
    if not isinstance(error, dict) or not isinstance(error.get("code"), str):
        raise WireFormatError("error reply must carry a typed error object")
    return Reply(
        request_id=request_id,
        ok=False,
        fields=envelope,
        error_code=error["code"],
        error_message=str(error.get("message", "")),
        retryable=bool(error.get("retryable", False)),
    )


# ----------------------------------------------------------------------
# Payload field conversions (cloud.messages <-> envelope fields)
# ----------------------------------------------------------------------
def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(value, what: str) -> bytes:
    if not isinstance(value, str):
        raise WireFormatError(f"{what} must be a base64 string")
    try:
        return base64.b64decode(value.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError, ValueError) as exc:
        raise WireFormatError(f"{what} is not valid base64: {exc}") from exc


def _identifier_list(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(item, int) for item in value
    ):
        raise WireFormatError(f"{what} must be a list of integers")
    return tuple(value)


def upload_fields(message: UploadDataset) -> dict:
    """Envelope fields for an ``upload`` request.

    Integrity tags travel as optional per-record keys, emitted only when
    present — an upload from a pre-integrity owner encodes byte-for-byte
    as before.
    """
    entries = []
    for record in message.records:
        entry = {
            "id": record.identifier,
            "payload": _b64(record.payload),
            "content": _b64(record.content),
        }
        if record.tag:
            entry["tag"] = _b64(record.tag)
        if record.mtag:
            entry["mtag"] = _b64(record.mtag)
        entries.append(entry)
    return {"records": entries}


def upload_from_fields(fields: dict) -> UploadDataset:
    """Rebuild the :class:`UploadDataset` from ``upload`` request fields.

    Raises:
        WireFormatError: On malformed record entries.
    """
    entries = fields.get("records")
    if not isinstance(entries, list):
        raise WireFormatError("upload must carry a list of records")
    records = []
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), int):
            raise WireFormatError("each record needs an integer id")
        records.append(
            UploadRecord(
                identifier=entry["id"],
                payload=_unb64(entry.get("payload"), "record payload"),
                content=_unb64(entry.get("content", ""), "record content"),
                tag=_unb64(entry.get("tag", ""), "record tag"),
                mtag=_unb64(entry.get("mtag", ""), "record mtag"),
            )
        )
    return UploadDataset(records=tuple(records))


def search_fields(message: SearchRequest, verify: bool = False) -> dict:
    """Envelope fields for a ``search`` request.

    With *verify* set, the request asks the server to attach per-match
    authenticity tags and a completeness proof to the reply
    (:mod:`repro.integrity`).  The flag is omitted when false, so
    unverified searches encode exactly as before.
    """
    fields: dict[str, Any] = {"token": _b64(message.payload)}
    if verify:
        fields["verify"] = True
    return fields


def search_from_fields(fields: dict) -> SearchRequest:
    """Rebuild the :class:`SearchRequest` from ``search`` request fields.

    Raises:
        WireFormatError: On a missing or malformed token field.
    """
    return SearchRequest(payload=_unb64(fields.get("token"), "search token"))


def search_wants_verify(fields: dict) -> bool:
    """Whether a ``search`` request asks for an integrity section.

    Raises:
        WireFormatError: If the flag is present but not a boolean.
    """
    flag = fields.get("verify", False)
    if not isinstance(flag, bool):
        raise WireFormatError("'verify' must be a boolean")
    return flag


def search_batch_fields(token_payloads) -> dict:
    """Envelope fields for a ``search_batch`` request.

    Raises:
        WireFormatError: On an empty batch (a zero-token batch has no
            defined reply shape; send nothing instead).
    """
    payloads = list(token_payloads)
    if not payloads:
        raise WireFormatError("search_batch needs at least one token")
    return {"tokens": [_b64(payload) for payload in payloads]}


def search_batch_from_fields(fields: dict) -> tuple[bytes, ...]:
    """Rebuild the token payload vector from ``search_batch`` fields.

    Raises:
        WireFormatError: On a missing, empty, or malformed token list.
    """
    tokens = fields.get("tokens")
    if not isinstance(tokens, list) or not tokens:
        raise WireFormatError(
            "search_batch must carry a non-empty list of tokens"
        )
    return tuple(
        _unb64(token, f"batch token {index}")
        for index, token in enumerate(tokens)
    )


def search_stats_fields(stats: SearchStats) -> dict:
    """The ``stats`` object of a search reply (times rounded to 1 µs)."""
    return {
        "records_scanned": stats.records_scanned,
        "matches": stats.matches,
        "sub_token_evaluations": stats.sub_token_evaluations,
        "elapsed_ms": round(stats.elapsed_ms, 3),
        "partitions": [round(ms, 3) for ms in stats.partitions],
    }


def search_stats_from_fields(fields: dict) -> SearchStats:
    """Rebuild :class:`SearchStats` from a reply's ``stats`` object;
    absent or non-list entries read as zero work."""
    partitions = fields.get("partitions")
    return SearchStats(
        records_scanned=int(fields.get("records_scanned", 0)),
        matches=int(fields.get("matches", 0)),
        sub_token_evaluations=int(fields.get("sub_token_evaluations", 0)),
        elapsed_ms=float(fields.get("elapsed_ms", 0.0)),
        partitions=(
            tuple(float(ms) for ms in partitions)
            if isinstance(partitions, list)
            else ()
        ),
    )


def batch_results_fields(results) -> dict:
    """Envelope fields for a ``search_batch`` success reply.

    Each result is ``(identifiers, stats_dict)``; entries are emitted in
    request order, which is the only pairing the client has.
    """
    return {
        "results": [
            {"identifiers": list(identifiers), "stats": dict(stats)}
            for identifiers, stats in results
        ]
    }


def batch_results_from_fields(
    fields: dict,
) -> tuple[tuple[tuple[int, ...], dict], ...]:
    """Rebuild ``(identifiers, stats)`` pairs from a batch reply.

    Raises:
        WireFormatError: On malformed result entries.
    """
    entries = fields.get("results")
    if not isinstance(entries, list):
        raise WireFormatError("search_batch reply must carry 'results'")
    results = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise WireFormatError("each batch result must be an object")
        identifiers = entry.get("identifiers")
        if not isinstance(identifiers, list) or not all(
            isinstance(i, int) for i in identifiers
        ):
            raise WireFormatError(
                "batch result must carry an identifier list"
            )
        stats = entry.get("stats")
        results.append(
            (
                tuple(identifiers),
                stats if isinstance(stats, dict) else {},
            )
        )
    return tuple(results)


def integrity_section_fields(matches, shards) -> dict:
    """Envelope ``integrity`` field for a verifiable search reply.

    *matches* is a list of ``[identifier, digest_hex, tag_hex]`` entries
    (a coordinator appends a fourth element, the shard index); *shards*
    is a list of completeness-proof dicts
    (:meth:`repro.integrity.ShardIntegrity.proof_for` output, to which a
    coordinator adds the shard's ``addr``).
    """
    return {
        "integrity": {
            "matches": [list(entry) for entry in matches],
            "shards": [dict(proof) for proof in shards],
        }
    }


def integrity_section_from_fields(fields: dict) -> dict | None:
    """Extract and shape-check a reply's ``integrity`` section.

    Returns ``None`` when the reply carries no section (the search did
    not ask for verification).  Only the envelope *shape* is checked
    here — the cryptographic checks belong to
    :class:`repro.integrity.ResultVerifier`, which re-validates every
    byte anyway because the section itself is the attack surface.

    Raises:
        WireFormatError: On a structurally malformed section.
    """
    section = fields.get("integrity")
    if section is None:
        return None
    if (
        not isinstance(section, dict)
        or not isinstance(section.get("matches"), list)
        or not isinstance(section.get("shards"), list)
    ):
        raise WireFormatError(
            "'integrity' must carry 'matches' and 'shards' lists"
        )
    return section


def fetch_fields(message: FetchRequest) -> dict:
    """Envelope fields for a ``fetch`` request."""
    return {"ids": list(message.identifiers)}


def fetch_from_fields(fields: dict) -> FetchRequest:
    """Rebuild the :class:`FetchRequest` from ``fetch`` request fields.

    Raises:
        WireFormatError: On a malformed id list.
    """
    return FetchRequest(identifiers=_identifier_list(fields.get("ids"), "ids"))


def fetch_response_fields(response: FetchResponse) -> dict:
    """Envelope fields for a ``fetch`` success reply."""
    return {
        "contents": [
            [identifier, _b64(body)] for identifier, body in response.contents
        ]
    }


def fetch_wants_payloads(fields: dict) -> bool:
    """Whether a ``fetch`` request asks for searchable payload bytes too.

    A plain fetch returns only record *contents* (the traditionally
    encrypted bodies).  A fetch with ``"payloads": true`` additionally
    returns the codec ciphertext bytes — the coordinator uses this to
    migrate records between shards during a rebalance.  Nothing new is
    exposed: both byte strings are exactly what the honest-but-curious
    server already stores.

    Raises:
        WireFormatError: If the flag is present but not a boolean.
    """
    flag = fields.get("payloads", False)
    if not isinstance(flag, bool):
        raise WireFormatError("'payloads' must be a boolean")
    return flag


def export_rows_fields(rows) -> dict:
    """Envelope fields for a payload-bearing ``fetch`` success reply.

    Each row is ``(identifier, payload_bytes, content_bytes)`` or the
    tag-bearing ``(identifier, payload, content, tag, mtag)`` — tags ride
    along so record migration between shards preserves verifiability.
    """
    encoded = []
    for row in rows:
        entry = [row[0], _b64(row[1]), _b64(row[2])]
        if len(row) >= 5 and (row[3] or row[4]):
            entry.extend((_b64(row[3]), _b64(row[4])))
        encoded.append(entry)
    return {"records": encoded}


def export_rows_from_fields(
    fields: dict,
) -> tuple[tuple[int, bytes, bytes, bytes, bytes], ...]:
    """Rebuild ``(identifier, payload, content, tag, mtag)`` export rows.

    Rows from a pre-integrity server have three elements; their tags
    come back empty.

    Raises:
        WireFormatError: On malformed row entries.
    """
    entries = fields.get("records")
    if not isinstance(entries, list):
        raise WireFormatError("export reply must carry a list of records")
    rows = []
    for entry in entries:
        if (
            not isinstance(entry, list)
            or len(entry) not in (3, 5)
            or not isinstance(entry[0], int)
        ):
            raise WireFormatError(
                "each export row must be [id, payload, content] or "
                "[id, payload, content, tag, mtag]"
            )
        tag = _unb64(entry[3], "export tag") if len(entry) == 5 else b""
        mtag = _unb64(entry[4], "export mtag") if len(entry) == 5 else b""
        rows.append(
            (
                entry[0],
                _unb64(entry[1], "export payload"),
                _unb64(entry[2], "export content"),
                tag,
                mtag,
            )
        )
    return tuple(rows)


#: Keys a shard report may carry beyond the required ``addr``/``ok`` pair.
_SHARD_REPORT_OPTIONAL = {
    "records": int,
    "stored": int,
    "removed": int,
    "error": str,
    "status": str,
    "stats": dict,
    "integrity": dict,
    # Replicated-coordinator reports: which partition the replica
    # serves, and the explicit couldn't-scrape marker stats degrades to
    # instead of failing the whole aggregate.
    "partition": str,
    "unreachable": bool,
}


def shard_reports_fields(reports) -> dict:
    """Envelope ``shards`` field for a coordinator reply.

    Each report is a dict with at least ``addr`` (``host:port``) and
    ``ok``; optional detail keys (``records``, ``stored``, ``removed``,
    ``error``, ``status``, ``stats``) describe what that shard answered.
    """
    return {"shards": [dict(report) for report in reports]}


def shard_reports_from_fields(fields: dict) -> tuple[dict, ...]:
    """Validate and return the ``shards`` reports of a coordinator reply.

    Returns an empty tuple when the field is absent (the reply came from a
    plain single server, which never emits it).

    Raises:
        WireFormatError: On a malformed ``shards`` field.
    """
    entries = fields.get("shards")
    if entries is None:
        return ()
    if not isinstance(entries, list):
        raise WireFormatError("'shards' must be a list of shard reports")
    reports = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise WireFormatError("each shard report must be an object")
        if not isinstance(entry.get("addr"), str):
            raise WireFormatError("shard report needs a string 'addr'")
        if not isinstance(entry.get("ok"), bool):
            raise WireFormatError("shard report needs a boolean 'ok'")
        for key, expected in _SHARD_REPORT_OPTIONAL.items():
            if key not in entry:
                continue
            value = entry[key]
            if not isinstance(value, expected) or (
                expected is int and isinstance(value, bool)
            ):
                raise WireFormatError(
                    f"shard report field {key!r} must be "
                    f"{expected.__name__}"
                )
        reports.append(dict(entry))
    return tuple(reports)


def delete_fields(message: DeleteRequest) -> dict:
    """Envelope fields for a ``delete`` request."""
    return {"ids": list(message.identifiers)}


def delete_from_fields(fields: dict) -> DeleteRequest:
    """Rebuild the :class:`DeleteRequest` from ``delete`` request fields.

    Raises:
        WireFormatError: On a malformed id list.
    """
    return DeleteRequest(identifiers=_identifier_list(fields.get("ids"), "ids"))
