"""The semi-honest cloud server.

Stores the encrypted dataset and answers search tokens by the paper's
linear scan (Sec. VI-D discusses why linear is the honest baseline for a
first construction).  The server holds only **public** material: the scheme
object (public parameters: data space, group, split form) — never the
secret key.  Consequently everything it can compute is exactly the paper's
leakage function: Boolean match results (access pattern), repeated token
bytes (search pattern), record and query counts (size pattern), and the
sub-token count of CRSE-II tokens (radius pattern).

``parallel_search`` models the paper's closing remark that "the performance
… can be further improved by using parallel computing with multiple
instances of Amazon EC2": records are partitioned across *k* simulated
instances; the reported wall-clock is the slowest partition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.cloud.codec import decode_ciphertext, decode_token, encode_ciphertext
from repro.cloud.messages import (
    DeleteRequest,
    FetchRequest,
    FetchResponse,
    SearchRequest,
    SearchResponse,
    UploadDataset,
)
from repro.core.base import CRSEScheme, EncryptedRecord
from repro.errors import ProtocolError

__all__ = ["SearchStats", "CloudServer", "PreparedUpload", "merge_scans", "scan"]


@dataclass(frozen=True)
class PreparedUpload:
    """A validated, decoded upload batch awaiting commit.

    Produced by :meth:`CloudServer.prepare_upload`; holding one of these
    means every record decoded and no identifier collides, so
    :meth:`CloudServer.commit_upload` cannot fail.  The durable server
    persists the original message bytes between the two steps.
    """

    message: UploadDataset
    decoded: tuple[tuple[EncryptedRecord, bytes], ...]


@dataclass
class SearchStats:
    """Observable work done for one search request.

    ``partitions`` holds the per-partition scan times in milliseconds — one
    entry per simulated instance for :meth:`CloudServer.parallel_search`
    (so benchmarks can report load-balance skew), a single entry for the
    serial path.  ``elapsed_ms`` is the wall-clock of the slowest partition,
    since partitions run independently.
    """

    records_scanned: int = 0
    matches: int = 0
    sub_token_evaluations: int = 0
    elapsed_ms: float = 0.0
    partitions: tuple[float, ...] = ()


def scan(
    scheme: CRSEScheme,
    token,
    records: Iterable[EncryptedRecord],
    started: float | None = None,
) -> tuple[list[int], SearchStats]:
    """The paper's linear scan: one ``Search(TK, C)`` test per record.

    Every search path (the in-process server, the engine's shard workers,
    ``repro search``) scans through here.  Returns the matching
    identifiers in record order and the scan's :class:`SearchStats`, a
    single partition timed from *started* (a ``perf_counter`` instant;
    default now) — a caller that decodes the token first passes the
    instant before the decode so the partition time includes it.
    """
    if started is None:
        started = time.perf_counter()
    stats = SearchStats()
    identifiers = []
    for record in records:
        matched, evaluated = scheme.matches_with_stats(token, record.ciphertext)
        stats.records_scanned += 1
        stats.sub_token_evaluations += evaluated
        if matched:
            identifiers.append(record.identifier)
    stats.matches = len(identifiers)
    stats.elapsed_ms = (time.perf_counter() - started) * 1000.0
    stats.partitions = (stats.elapsed_ms,)
    return identifiers, stats


def merge_scans(scans) -> tuple[tuple[int, ...], SearchStats]:
    """Combine the partition scans of one token into one result.

    *scans* holds ``(identifiers, stats)`` per partition.  Identifiers
    are unioned and sorted, scan counts sum, ``partitions`` concatenates
    every partition's times, and ``elapsed_ms`` is the slowest partition,
    since partitions run independently.
    """
    identifiers = tuple(sorted({i for ids, _ in scans for i in ids}))
    stats = SearchStats(
        records_scanned=sum(s.records_scanned for _, s in scans),
        matches=len(identifiers),
        sub_token_evaluations=sum(s.sub_token_evaluations for _, s in scans),
        elapsed_ms=max((s.elapsed_ms for _, s in scans), default=0.0),
        partitions=tuple(ms for _, s in scans for ms in s.partitions),
    )
    return identifiers, stats


@dataclass
class _ServerLog:
    """What a curious server could write down (the leakage function)."""

    uploads: int = 0
    records_stored: int = 0
    queries_served: int = 0
    token_sizes: list[int] = field(default_factory=list)
    sub_token_counts: list[int] = field(default_factory=list)
    access_pattern: list[tuple[int, ...]] = field(default_factory=list)


class CloudServer:
    """Honest-but-curious storage and search service."""

    def __init__(self, scheme: CRSEScheme):
        """Create a server knowing only public scheme parameters."""
        self.scheme = scheme
        self._records: list[EncryptedRecord] = []
        self._contents: dict[int, bytes] = {}
        self.log = _ServerLog()
        self.last_search_stats = SearchStats()

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        """Number of stored encrypted records (the size pattern)."""
        return len(self._records)

    def prepare_upload(self, message: UploadDataset) -> PreparedUpload:
        """Validate and decode an upload without mutating any state.

        Splitting validation from mutation lets a durable server order the
        steps safely: validate, *then* log to disk, *then*
        :meth:`commit_upload` — so a batch that would be rejected never
        reaches the log, and a batch that reached the log is guaranteed to
        commit.

        Raises:
            ProtocolError: On duplicate identifiers (within the batch or
                against stored records).
            WireFormatError: If a payload does not decode.
        """
        seen = {record.identifier for record in self._records}
        decoded: list[tuple[EncryptedRecord, bytes]] = []
        for upload in message.records:
            if upload.identifier in seen:
                raise ProtocolError(
                    f"duplicate record identifier {upload.identifier}"
                )
            seen.add(upload.identifier)
            ciphertext = decode_ciphertext(self.scheme, upload.payload)
            decoded.append(
                (EncryptedRecord(upload.identifier, ciphertext), upload.content)
            )
        return PreparedUpload(message=message, decoded=tuple(decoded))

    def commit_upload(self, prepared: PreparedUpload) -> None:
        """Apply a validated upload batch to the in-memory state."""
        for record, content in prepared.decoded:
            self._records.append(record)
            if content:
                self._contents[record.identifier] = content
        self.log.uploads += 1
        self.log.records_stored = len(self._records)

    def handle_upload(self, message: UploadDataset) -> None:
        """Store an encrypted dataset (message 1).

        Raises:
            ProtocolError: On duplicate identifiers.
        """
        self.commit_upload(self.prepare_upload(message))

    def handle_fetch(self, message: FetchRequest) -> FetchResponse:
        """Return the encrypted contents of previously matched records.

        Raises:
            ProtocolError: For an unknown identifier.
        """
        contents = []
        for identifier in message.identifiers:
            if identifier not in self._contents:
                raise ProtocolError(
                    f"no stored content for identifier {identifier}"
                )
            contents.append((identifier, self._contents[identifier]))
        return FetchResponse(contents=tuple(contents))

    def export_records(
        self, identifiers: tuple[int, ...]
    ) -> tuple[tuple[int, bytes, bytes], ...]:
        """Re-encode stored records for migration to another shard.

        Returns ``(identifier, payload_bytes, content_bytes)`` rows — the
        codec ciphertext plus the (possibly empty) encrypted content.
        Nothing beyond the paper's leakage is revealed: both byte strings
        are exactly what this honest-but-curious server already holds.

        Raises:
            ProtocolError: For an unknown identifier.
        """
        by_id = {record.identifier: record for record in self._records}
        rows = []
        for identifier in identifiers:
            record = by_id.get(identifier)
            if record is None:
                raise ProtocolError(
                    f"no stored record for identifier {identifier}"
                )
            rows.append(
                (
                    identifier,
                    encode_ciphertext(self.scheme, record.ciphertext),
                    self._contents.get(identifier, b""),
                )
            )
        return tuple(rows)

    def handle_delete(self, message: DeleteRequest) -> int:
        """Remove records (the trivially-dynamic upside of linear search).

        Returns:
            How many records were actually removed.
        """
        doomed = set(message.identifiers)
        before = len(self._records)
        self._records = [
            record for record in self._records if record.identifier not in doomed
        ]
        for identifier in doomed:
            self._contents.pop(identifier, None)
        removed = before - len(self._records)
        self.log.records_stored = len(self._records)
        return removed

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _record_query_leakage(self, message: SearchRequest, token) -> None:
        """Append the per-query leakage every search path must expose."""
        self.log.queries_served += 1
        self.log.token_sizes.append(message.size_bytes)
        if hasattr(token, "num_sub_tokens"):
            self.log.sub_token_counts.append(token.num_sub_tokens)

    def handle_search(self, message: SearchRequest) -> SearchResponse:
        """Linear-scan search (messages 4 → 5): :meth:`parallel_search`
        on a single instance."""
        response, _ = self.parallel_search(message, 1)
        return response

    def parallel_search(
        self, message: SearchRequest, instances: int
    ) -> tuple[SearchResponse, SearchStats]:
        """Search with the dataset partitioned over *instances* simulated VMs.

        The recorded leakage (token size, sub-token count, access pattern)
        is identical to :meth:`handle_search` — the partitioning is a
        server-side implementation detail a curious server learns nothing
        extra from.

        Returns:
            The combined response and a :class:`SearchStats` whose
            ``partitions`` field holds each partition's scan time (ms) and
            whose ``elapsed_ms`` is the slowest partition — the simulated
            wall-clock, since partitions run independently on separate
            instances.

        Raises:
            ProtocolError: If *instances* is not positive.
        """
        if instances < 1:
            raise ProtocolError("need at least one instance")
        token = decode_token(self.scheme, message.payload)
        self._record_query_leakage(message, token)
        identifiers, stats = merge_scans(
            [
                scan(self.scheme, token, self._records[i::instances])
                for i in range(instances)
            ]
        )
        self.last_search_stats = stats
        self.log.access_pattern.append(identifiers)
        return SearchResponse(identifiers=identifiers), stats
