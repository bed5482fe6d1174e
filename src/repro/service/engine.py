"""Multi-core search engine: the encrypted dataset sharded across processes.

The paper closes by noting that each encrypted record "can be evaluated
independently with a given search token, [so] performance can be further
improved by using parallel computing with multiple instances of Amazon
EC2".  :class:`repro.cloud.server.CloudServer.parallel_search` *models*
that claim; this engine *implements* it on one host: the dataset is
round-robin sharded across ``workers`` single-process pools, each worker
holds its shard's decoded ciphertexts resident, and a search broadcasts the
token to every shard and merges the matches.  Speedup is measured, not
simulated — on a multi-core host the wall-clock is the slowest shard.

Each shard is its own single-worker :class:`~concurrent.futures.\
ProcessPoolExecutor` rather than one big pool, because shard residency
matters: a pool routes tasks to any idle worker, but a record decoded into
worker 3 is only searchable by worker 3.  Workers rebuild the scheme from
its public header (:mod:`repro.service.schemeio`) — the secret key never
crosses the process boundary, and everything a worker sees (ciphertext
bytes, token bytes, match results) is already in the paper's leakage
function.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cloud.codec import decode_ciphertext, decode_token
from repro.cloud.server import SearchStats, merge_scans, scan
from repro.core.base import CRSEScheme, EncryptedRecord
from repro.errors import ParameterError, ServiceError
from repro.service.schemeio import restore_scheme, scheme_header

__all__ = ["EngineSearchResult", "SearchEngine"]


# Worker-process state: the rebuilt scheme and this shard's resident
# records, populated by the pool initializer and the load task.
_worker_scheme: CRSEScheme | None = None
_worker_records: list[EncryptedRecord] = []

#: How often a worker checks that the server that forked it is alive.
_PARENT_POLL_S = 0.5


def _worker_init(header_json: str) -> None:
    global _worker_scheme, _worker_records
    # A terminal ^C delivers SIGINT to the whole foreground process group;
    # shard shutdown is the parent's job (close()), so workers must not
    # die mid-drain with KeyboardInterrupt tracebacks of their own.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A SIGKILLed server cannot shut its pool down, and an orphaned worker
    # would otherwise sleep on its call queue forever.  PR_SET_PDEATHSIG
    # does not cover this: it fires when the forking *thread* exits, and
    # the pool may fork from an executor thread.
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()
    _worker_scheme = restore_scheme(json.loads(header_json))
    # Fixed-base tables are per-group (hence per-process) state: pay the
    # generator table build once at shard startup, so every generator
    # exponentiation over the worker's lifetime hits the cache and the
    # first search is not slower than steady state.
    _worker_scheme.group.precompute_generators()
    _worker_records = []


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(0)


def _require_worker_scheme() -> CRSEScheme:
    if _worker_scheme is None:
        raise ServiceError("worker process was not initialized")
    return _worker_scheme


def _worker_load(records: Sequence[tuple[int, bytes]]) -> int:
    scheme = _require_worker_scheme()
    for identifier, payload in records:
        _worker_records.append(
            EncryptedRecord(identifier, decode_ciphertext(scheme, payload))
        )
    return len(_worker_records)


def _worker_delete(identifiers: frozenset) -> int:
    global _worker_records
    before = len(_worker_records)
    _worker_records = [
        record for record in _worker_records if record.identifier not in identifiers
    ]
    return before - len(_worker_records)


def _worker_search(
    token_payloads: Sequence[bytes],
) -> list[tuple[list[int], SearchStats]]:
    # One pool task scans the shard once per token; the per-task pickle
    # and dispatch cost — which dominates small-dataset searches — is
    # paid once for the whole vector instead of once per token.
    scheme = _require_worker_scheme()
    results = []
    for payload in token_payloads:
        # The shard's partition time includes its token decode.
        started = time.perf_counter()
        token = decode_token(scheme, payload)
        results.append(scan(scheme, token, _worker_records, started))
    return results


@dataclass(frozen=True)
class EngineSearchResult:
    """Merged outcome of one sharded search."""

    identifiers: tuple[int, ...]
    stats: SearchStats


class SearchEngine:
    """Shards the encrypted dataset across process workers and searches it."""

    def __init__(self, scheme: CRSEScheme, workers: int = 1):
        """Spin up *workers* shard processes for *scheme*.

        Args:
            scheme: The CRSE construction (public parameters only are
                shipped to workers).
            workers: Number of shard processes; each holds ``~n/workers``
                records resident.

        Raises:
            ParameterError: If *workers* is not positive.
        """
        if workers < 1:
            raise ParameterError("need at least one search worker")
        header = json.dumps(scheme_header(scheme))
        self._shards = [
            ProcessPoolExecutor(
                max_workers=1,
                initializer=_worker_init,
                initargs=(header,),
            )
            for _ in range(workers)
        ]
        self._next_shard = 0
        self._record_count = 0
        self._closed = False

    @property
    def workers(self) -> int:
        """Number of shard processes."""
        return len(self._shards)

    @property
    def record_count(self) -> int:
        """Total records resident across all shards."""
        return self._record_count

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("search engine is closed")

    def load(self, records: Iterable[tuple[int, bytes]]) -> int:
        """Decode *records* ``(identifier, payload)`` into the shards.

        Records are dealt round-robin (continuing from previous loads), so
        incremental uploads keep the shards balanced.

        Returns:
            The total record count after loading.
        """
        self._require_open()
        per_shard: list[list[tuple[int, bytes]]] = [
            [] for _ in self._shards
        ]
        for identifier, payload in records:
            per_shard[self._next_shard].append((identifier, payload))
            self._next_shard = (self._next_shard + 1) % len(self._shards)
        futures = [
            shard.submit(_worker_load, batch)
            for shard, batch in zip(self._shards, per_shard)
            if batch
        ]
        loaded = sum(len(batch) for batch in per_shard)
        for future in futures:
            future.result()
        self._record_count += loaded
        return self._record_count

    def delete(self, identifiers: Iterable[int]) -> int:
        """Remove records by identifier from every shard.

        Returns:
            How many records were actually removed.
        """
        self._require_open()
        doomed = frozenset(identifiers)
        if not doomed:
            return 0
        removed = sum(
            future.result()
            for future in [
                shard.submit(_worker_delete, doomed)
                for shard in self._shards
            ]
        )
        self._record_count -= removed
        return removed

    def search(self, token_payload: bytes) -> EngineSearchResult:
        """Broadcast *token_payload* to all shards and merge the matches.

        A batch of one: see :meth:`search_batch`.  Worker-side decode
        failures (malformed token bytes) propagate as the codec's
        :class:`~repro.errors.WireFormatError`.

        Returns:
            The merged identifiers (sorted) and a
            :class:`~repro.cloud.server.SearchStats` whose ``partitions``
            holds each shard's scan time.
        """
        return self.search_batch((token_payload,))[0]

    def search_batch(
        self, token_payloads: Sequence[bytes]
    ) -> list[EngineSearchResult]:
        """Search every token in one dispatch per shard, in token order.

        Each shard receives the whole vector as a single pool task, so
        the per-task process-pool overhead amortizes across the batch —
        that overhead, not scanning, dominates small-dataset searches.
        Blocks until the slowest shard finishes.

        Raises:
            ParameterError: On an empty batch.
        """
        self._require_open()
        payloads = list(token_payloads)
        if not payloads:
            raise ParameterError("search batch needs at least one token")
        futures = [
            shard.submit(_worker_search, payloads) for shard in self._shards
        ]
        per_shard = [future.result() for future in futures]
        return [EngineSearchResult(*merge_scans(scans)) for scans in zip(*per_shard)]

    def warm_up(self) -> None:
        """Force every worker process to start and build its scheme.

        Useful before measuring throughput, so the first query does not pay
        worker spawn + scheme construction.
        """
        self._require_open()
        for future in [
            shard.submit(_worker_load, []) for shard in self._shards
        ]:
            future.result()

    def close(self, wait: bool = True) -> None:
        """Shut the shard processes down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "SearchEngine":
        """Context-manager entry: the engine itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the shards."""
        self.close()
