"""Distributed search: a coordinator fanning out to replicated shards.

The :class:`Coordinator` is a front-end speaking the same framed wire
protocol as :class:`~repro.service.server.ServiceServer` — clients cannot
tell the difference on the happy path — but it stores no records itself.
It owns only the :class:`PartitionMap` (which record identifier lives in
which partition, and which R backend replicas serve that partition) and
routes every verb:

* **upload** — new records are assigned to the least-loaded partition and
  the per-partition sub-batches fan out to *every* live replica of that
  partition concurrently, with per-replica ack tracking: a replica that
  misses the write (down, or still resyncing) is marked *dirty* in the
  map so :meth:`Coordinator.repair` can copy the rows from a clean
  sibling later.  The partition map is persisted (atomic tmp+rename,
  same discipline as the storage manifest) recording exactly the
  assignments at least one replica acked.
* **search** — the token is fanned out to every partition concurrently
  (the dataset is partitioned, so each partition scans only its slice);
  within a partition the least-loaded live replica serves, and if it
  dies or stalls mid-query the coordinator fails over to a sibling
  replica *within the original deadline* (the remaining budget is split
  across the untried replicas).  Matched identifiers are merged and the
  per-shard :class:`~repro.cloud.server.SearchStats` are aggregated:
  scan counts sum, wall-clock is the slowest partition — the paper's
  multi-instance parallel-search model, now over real processes with no
  load-bearing single server.
* **fetch / delete** — routed to the owning partition(s) via the map;
  reads fail over like searches, deletes fan out like uploads.

Failure semantics are explicit rather than optimistic.  A typed
``SHARD_UNAVAILABLE`` error is raised only when *every* replica of a
partition is gone; it still carries the partial results the reachable
partitions attested to, plus one report per attempted replica saying who
answered.  A ``BUSY`` replica is retried by that replica's own client
(independent backoff) without re-querying replicas that already
answered.  Deadlines propagate: each replica receives the budget that
remains after coordinator-side elapsed time, divided across the
failover candidates still untried.

The coordinator never holds key material and never decodes tokens or
ciphertexts — it routes opaque bytes.  Replication does not change the
paper's leakage function: each query is served by exactly one replica
per partition, so the union of what the replicas observe equals what
the unreplicated shard set already observed.

Membership changes are handled offline (before serving) by
:meth:`Coordinator.reconcile_membership` and :meth:`Coordinator.rebalance`;
divergent replicas are re-replicated by :meth:`Coordinator.repair` (and
detected by :meth:`Coordinator.audit_replicas`) using the existing
payload-bearing export verb — records move shard-to-shard and the map is
rewritten only after the receiving replica acked.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.cloud.messages import FetchResponse, UploadDataset, UploadRecord
from repro.cloud.server import merge_scans
from repro.errors import (
    DeadlineExceededError,
    ParameterError,
    ProtocolError,
    ReproError,
    ServiceConnectionError,
    ShardUnavailableError,
    StorageError,
)
from repro.integrity import EMPTY_ROOT, xor_fold
from repro.service import protocol
from repro.service.client import DEADLINE_GRACE_MS, ServiceClient
from repro.service.server import FramedServer
from repro.storage.manifest import fsync_directory

__all__ = [
    "PARTITION_FILENAME",
    "ShardSpec",
    "PartitionMap",
    "CoordinatorConfig",
    "Coordinator",
]

#: On-disk name of the persisted partition map inside the coordinator's
#: data directory.
PARTITION_FILENAME = "PARTITION.json"


@dataclass(frozen=True)
class ShardSpec:
    """Network address of one backend shard."""

    host: str
    port: int

    @property
    def addr(self) -> str:
        """The canonical ``host:port`` string used in maps and reports."""
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse a ``host:port`` string (as given to ``--shard``).

        Raises:
            ParameterError: If *text* is not ``host:port`` with a valid
                port number.
        """
        host, sep, port_text = text.rpartition(":")
        if not sep or not host:
            raise ParameterError(f"shard address {text!r} is not host:port")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise ParameterError(
                f"shard address {text!r} has a non-numeric port"
            ) from exc
        if not 0 < port < 65536:
            raise ParameterError(f"shard port {port} out of range")
        return cls(host=host, port=port)


class PartitionMap:
    """Which record lives in which partition, served by which replicas.

    This is the only state the coordinator owns.  It is deliberately tiny
    (ints and address strings — no ciphertext bytes) and is persisted with
    the same atomic tmp+rename+fsync discipline as the storage layer's
    manifest, so a crashed coordinator restarts with a map describing a
    set of assignments at least one replica of each partition actually
    acked — including the per-replica *stale* marks that record which
    replicas still owe a resync.

    Invariants (checked by :meth:`validate`): every partition has at
    least one replica, all replicas are distinct, no replica serves two
    partitions, every assignment names an existing partition, and stale
    marks only name known replicas.
    """

    VERSION = 2

    def __init__(self, partitions=None, assignments=None, stale=None):
        """Create a map of ``{partition_id: [replica addrs]}`` with
        ``{record_id: partition_id}`` *assignments* and per-replica
        *stale* (addr → dirty record ids) resync obligations."""
        self.partitions: dict[str, list[str]] = {
            pid: list(replicas)
            for pid, replicas in dict(partitions or {}).items()
        }
        self.assignments: dict[int, str] = dict(assignments or {})
        self.stale: dict[str, set[int]] = {
            addr: set(ids) for addr, ids in dict(stale or {}).items() if ids
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def replicas(self, pid: str) -> tuple[str, ...]:
        """The replica addrs serving partition *pid* (empty if unknown)."""
        return tuple(self.partitions.get(pid, ()))

    def partition_of(self, addr: str) -> str | None:
        """The partition id replica *addr* serves, or ``None``."""
        for pid, replicas in self.partitions.items():
            if addr in replicas:
                return pid
        return None

    def owner(self, identifier: int) -> str | None:
        """The partition id storing *identifier*, or ``None`` if unknown."""
        return self.assignments.get(identifier)

    def ids_in(self, pid: str) -> tuple[int, ...]:
        """All identifiers assigned to partition *pid*, sorted."""
        return tuple(
            sorted(i for i, p in self.assignments.items() if p == pid)
        )

    def ids_on(self, addr: str) -> tuple[int, ...]:
        """All identifiers the replica at *addr* should hold, sorted."""
        pid = self.partition_of(addr)
        return () if pid is None else self.ids_in(pid)

    def dirty_on(self, addr: str) -> frozenset[int]:
        """The record ids replica *addr* owes a resync for."""
        return frozenset(self.stale.get(addr, ()))

    def counts(self) -> dict[str, int]:
        """Record count per replica addr (zero entries included).

        Every replica reports its partition's full count — replicas of
        one partition hold identical data by design.
        """
        per_partition = self.partition_counts()
        return {
            addr: per_partition[pid]
            for pid, replicas in self.partitions.items()
            for addr in replicas
        }

    def partition_counts(self) -> dict[str, int]:
        """Record count per partition id (zero entries included)."""
        counts = {pid: 0 for pid in self.partitions}
        for pid in self.assignments.values():
            counts[pid] = counts.get(pid, 0) + 1
        return counts

    def addrs(self) -> tuple[str, ...]:
        """Every replica addr across all partitions, sorted."""
        return tuple(
            sorted(a for replicas in self.partitions.values() for a in replicas)
        )

    @property
    def record_count(self) -> int:
        """Total records assigned across all partitions."""
        return len(self.assignments)

    # ------------------------------------------------------------------
    # Mutation (membership surgery and resync bookkeeping)
    # ------------------------------------------------------------------
    def validate(self, replication: int | None = None) -> None:
        """Check the structural invariants; raise :class:`StorageError`.

        With *replication* given, additionally requires every partition
        to have exactly that many replicas.
        """
        serving: dict[str, str] = {}
        for pid, replicas in self.partitions.items():
            if not replicas:
                raise StorageError(
                    f"partition map: partition {pid} has no replicas"
                )
            if len(set(replicas)) != len(replicas):
                raise StorageError(
                    f"partition map: partition {pid} repeats a replica"
                )
            if replication is not None and len(replicas) != replication:
                raise StorageError(
                    f"partition map: partition {pid} has {len(replicas)} "
                    f"replica(s), expected {replication}"
                )
            for addr in replicas:
                if addr in serving:
                    raise StorageError(
                        f"partition map: replica {addr} serves partitions "
                        f"{serving[addr]} and {pid}"
                    )
                serving[addr] = pid
        for identifier, pid in self.assignments.items():
            if pid not in self.partitions:
                raise StorageError(
                    f"partition map: record {identifier} assigned to "
                    f"unknown partition {pid}"
                )
        for addr in self.stale:
            if addr not in serving:
                raise StorageError(
                    f"partition map: stale mark for unknown replica {addr}"
                )

    def mark_dirty(self, addr: str, identifiers) -> None:
        """Record that replica *addr* missed writes for *identifiers*.

        Raises:
            ParameterError: If *addr* serves no partition.
        """
        if self.partition_of(addr) is None:
            raise ParameterError(f"unknown replica {addr}")
        ids = set(identifiers)
        if ids:
            self.stale.setdefault(addr, set()).update(ids)

    def clear_dirty(self, addr: str, identifiers=None) -> None:
        """Drop resync obligations for *addr* (all, or just *identifiers*)."""
        if identifiers is None:
            self.stale.pop(addr, None)
            return
        remaining = self.stale.get(addr)
        if remaining is None:
            return
        remaining -= set(identifiers)
        if not remaining:
            self.stale.pop(addr, None)

    def add_partition(self, pid: str, replicas) -> None:
        """Add an empty partition *pid* served by *replicas*.

        Raises:
            ParameterError: On a duplicate pid, an empty or repeated
                replica list, or a replica already serving elsewhere.
        """
        if pid in self.partitions:
            raise ParameterError(f"partition {pid} already exists")
        replicas = list(replicas)
        if not replicas or len(set(replicas)) != len(replicas):
            raise ParameterError(
                f"partition {pid} needs a non-empty, distinct replica list"
            )
        taken = {a for group in self.partitions.values() for a in group}
        clash = taken & set(replicas)
        if clash:
            raise ParameterError(
                f"replica(s) {', '.join(sorted(clash))} already serve "
                "another partition"
            )
        self.partitions[pid] = replicas

    def remove_partition(self, pid: str) -> None:
        """Remove partition *pid*; it must hold no records.

        Raises:
            ParameterError: If *pid* is unknown or still has assignments.
        """
        if pid not in self.partitions:
            raise ParameterError(f"unknown partition {pid}")
        if any(p == pid for p in self.assignments.values()):
            raise ParameterError(f"partition {pid} still holds records")
        for addr in self.partitions.pop(pid):
            self.stale.pop(addr, None)

    def replace_replica(self, pid: str, old: str, new: str) -> None:
        """Swap replica *old* of partition *pid* for *new*.

        The replacement starts empty, so it is marked dirty with the
        partition's full canonical id set — it must not serve reads
        until :meth:`Coordinator.repair` has copied the rows over.

        Raises:
            ParameterError: If *old* does not serve *pid* or *new*
                already serves another partition.
        """
        replicas = self.partitions.get(pid)
        if replicas is None or old not in replicas:
            raise ParameterError(f"replica {old} does not serve {pid}")
        elsewhere = {
            a for group in self.partitions.values() for a in group
        } - {old}
        if new in elsewhere:
            raise ParameterError(f"replica {new} already serves a partition")
        replicas[replicas.index(old)] = new
        self.stale.pop(old, None)
        self.stale.pop(new, None)
        ids = self.ids_in(pid)
        if ids:
            self.mark_dirty(new, ids)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form (sorted for deterministic bytes)."""
        return {
            "version": self.VERSION,
            "partitions": [
                [pid, list(replicas)]
                for pid, replicas in sorted(self.partitions.items())
            ],
            "assignments": [
                [identifier, pid]
                for identifier, pid in sorted(self.assignments.items())
            ],
            "stale": [
                [addr, sorted(ids)]
                for addr, ids in sorted(self.stale.items())
                if ids
            ],
        }

    @classmethod
    def from_dict(cls, raw) -> "PartitionMap":
        """Rebuild a map from :meth:`to_dict` output.

        Version-1 documents (one replica per partition, keyed by addr)
        are migrated transparently: each shard becomes a single-replica
        partition whose id is its addr.

        Raises:
            StorageError: On a malformed or wrong-version document.
        """
        if not isinstance(raw, dict):
            raise StorageError("partition map: unsupported document")
        version = raw.get("version")
        if version == 1:
            return cls._from_dict_v1(raw)
        if version != cls.VERSION:
            raise StorageError("partition map: unsupported document")
        entries = raw.get("partitions")
        if not isinstance(entries, list):
            raise StorageError("partition map: partitions must be a list")
        partitions: dict[str, list[str]] = {}
        for entry in entries:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], list)
                or not all(isinstance(a, str) for a in entry[1])
            ):
                raise StorageError(
                    "partition map: each partition must be [pid, [addrs]]"
                )
            if entry[0] in partitions:
                raise StorageError(
                    f"partition map: partition {entry[0]} listed twice"
                )
            partitions[entry[0]] = list(entry[1])
        assignments = cls._assignments_from(raw.get("assignments"))
        for identifier, pid in assignments.items():
            if pid not in partitions:
                raise StorageError(
                    f"partition map: record {identifier} assigned to "
                    f"unknown partition {pid}"
                )
        stale_entries = raw.get("stale", [])
        if not isinstance(stale_entries, list):
            raise StorageError("partition map: stale must be a list")
        stale: dict[str, set[int]] = {}
        for entry in stale_entries:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], list)
                or not all(
                    isinstance(i, int) and not isinstance(i, bool)
                    for i in entry[1]
                )
            ):
                raise StorageError(
                    "partition map: each stale entry must be [addr, [ids]]"
                )
            stale[entry[0]] = set(entry[1])
        return cls(partitions=partitions, assignments=assignments, stale=stale)

    @classmethod
    def _from_dict_v1(cls, raw) -> "PartitionMap":
        shards = raw.get("shards")
        if not isinstance(shards, list) or not all(
            isinstance(a, str) for a in shards
        ):
            raise StorageError("partition map: shards must be addr strings")
        assignments = cls._assignments_from(raw.get("assignments"))
        partitions = {addr: [addr] for addr in shards}
        for pid in assignments.values():
            partitions.setdefault(pid, [pid])
        return cls(partitions=partitions, assignments=assignments)

    @staticmethod
    def _assignments_from(entries) -> dict[int, str]:
        if not isinstance(entries, list):
            raise StorageError("partition map: assignments must be a list")
        assignments: dict[int, str] = {}
        for entry in entries:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], int)
                or isinstance(entry[0], bool)
                or not isinstance(entry[1], str)
            ):
                raise StorageError(
                    "partition map: each assignment must be [id, partition]"
                )
            if entry[0] in assignments:
                raise StorageError(
                    f"partition map: identifier {entry[0]} assigned twice"
                )
            assignments[entry[0]] = entry[1]
        return assignments

    @classmethod
    def load(cls, directory: Path) -> "PartitionMap | None":
        """Load the persisted map from *directory*, or ``None`` if absent.

        Raises:
            StorageError: If the file exists but is malformed.
        """
        path = Path(directory) / PARTITION_FILENAME
        if not path.exists():
            return None
        try:
            raw = json.loads(path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"partition map unreadable: {exc}") from exc
        return cls.from_dict(raw)

    def save(self, directory: Path) -> None:
        """Atomically persist the map into *directory*.

        Same crash discipline as the storage manifest: write a temp file,
        fsync it, rename over the target, fsync the directory — a crash
        at any point leaves either the old map or the new one, never a
        torn file.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / PARTITION_FILENAME
        tmp = directory / (PARTITION_FILENAME + ".tmp")
        data = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(target)
        fsync_directory(directory)


@dataclass(frozen=True)
class CoordinatorConfig:
    """Tunables for one coordinator instance."""

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 32
    default_deadline_ms: float | None = None
    max_deadline_ms: float = 60_000.0
    drain_timeout_s: float = 10.0
    #: Socket timeout for each backend call (connect + reply).
    shard_timeout_s: float = 30.0
    #: Budget for health/stats probes when the caller sent no deadline:
    #: a stalled replica must degrade into an ``unreachable`` marker,
    #: not stall the whole scrape for ``shard_timeout_s``.
    probe_timeout_s: float = 5.0
    #: Copies of every partition.  The configured shard list is split
    #: into consecutive groups of this size, so it must divide evenly.
    replication: int = 1
    #: When set, a background task re-replicates dirty replicas every
    #: this many seconds while serving.  ``None`` (the default) leaves
    #: repair to explicit :meth:`Coordinator.repair` calls.
    repair_interval_s: float | None = None


def _default_client_factory(spec: ShardSpec, timeout_s: float) -> ServiceClient:
    return ServiceClient(spec.host, spec.port, timeout_s=timeout_s)


class Coordinator(FramedServer):
    """Front-end server routing every verb across replicated shards."""

    def __init__(
        self,
        shards,
        config: CoordinatorConfig | None = None,
        data_dir: Path | str | None = None,
        client_factory=None,
    ):
        """Assemble the coordinator (does not bind the port yet).

        Args:
            shards: The configured backend :class:`ShardSpec` list (or
                ``host:port`` strings); must be non-empty, unique, and a
                multiple of ``config.replication`` long.  Consecutive
                groups of R shards form one partition's replica set.
            config: Coordinator tunables (including the replication
                factor).
            data_dir: Directory for the persisted partition map.  When
                given, an existing map is loaded (so a restarted
                coordinator knows where every record lives) and every
                successful mutation rewrites it atomically.  ``None``
                keeps the map in memory only — fine for tests.
            client_factory: ``(ShardSpec, timeout_s) -> ServiceClient``
                hook for tests that need to interpose on shard traffic.

        A persisted map whose partitions no longer match the configured
        replica groups is *adopted*: partitions sharing at least one
        replica with a configured group are renamed onto it, and every
        replica that joined or left such a group is marked dirty so
        :meth:`repair` re-replicates exactly the divergence.  Partitions
        with no surviving replica are kept aside, and the coordinator
        refuses to *serve* until :meth:`reconcile_membership` has
        migrated their records — silently orphaning data is not an
        option.

        Raises:
            ParameterError: On an empty or duplicated shard list, or one
                that does not divide into replication-factor groups.
        """
        super().__init__(config or CoordinatorConfig())
        specs = [
            s if isinstance(s, ShardSpec) else ShardSpec.parse(s)
            for s in shards
        ]
        if not specs:
            raise ParameterError("coordinator needs at least one shard")
        if len({s.addr for s in specs}) != len(specs):
            raise ParameterError("duplicate shard addresses")
        replication = int(self.config.replication)
        if replication < 1:
            raise ParameterError("replication factor must be >= 1")
        if len(specs) % replication:
            raise ParameterError(
                f"{len(specs)} shard(s) cannot host replication factor "
                f"{replication}: the shard count must be a multiple of it"
            )
        self.replication = replication
        self.shards: tuple[ShardSpec, ...] = tuple(specs)
        self._by_addr = {s.addr: s for s in self.shards}
        self._configured: dict[str, tuple[str, ...]] = {
            f"p{index}": tuple(
                s.addr
                for s in specs[index * replication : (index + 1) * replication]
            )
            for index in range(len(specs) // replication)
        }
        self.data_dir = None if data_dir is None else Path(data_dir)
        self._client_factory = client_factory or _default_client_factory
        # Shard clients keep persistent connections and are not
        # thread-safe, so each fan-out pool thread caches its own client
        # per shard (thread-local).  The flat registry exists only so
        # shutdown can close every cached socket.
        self._local = threading.local()
        self._clients_lock = threading.Lock()
        self._all_clients: list[ServiceClient] = []
        # Liveness and load tracking shared between the event loop and
        # the fan-out pool threads; _state_lock also guards the map's
        # stale marks against concurrent repair.
        self._state_lock = threading.Lock()
        self._down: set[str] = set()
        self._loads: dict[str, int] = {s.addr: 0 for s in self.shards}
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self.shards)),
            thread_name_prefix="coord",
        )
        loaded = (
            PartitionMap.load(self.data_dir)
            if self.data_dir is not None
            else None
        )
        if loaded is None:
            self.partition_map = PartitionMap(partitions=self._configured)
        else:
            self.partition_map = self._adopt(loaded)
        self._persist_map()

    def _adopt(self, loaded: PartitionMap) -> PartitionMap:
        """Fit a persisted map onto the configured replica groups.

        A loaded partition sharing at least one replica with a
        configured group is renamed onto that group; the symmetric
        difference of the two replica sets is marked dirty with the
        partition's ids (joining replicas owe a copy, replicas moved to
        a different partition owe a purge — :meth:`repair` handles
        both).  A loaded partition with records but no surviving replica
        is kept under its own id for :meth:`reconcile_membership`.
        """
        adopted = PartitionMap(partitions=self._configured)
        configured_addrs = {
            addr for group in self._configured.values() for addr in group
        }
        for addr, ids in loaded.stale.items():
            if addr in configured_addrs:
                adopted.stale.setdefault(addr, set()).update(ids)
        rename: dict[str, str] = {}
        for pid in sorted(loaded.partitions):
            old_replicas = set(loaded.partitions[pid])
            ids = loaded.ids_in(pid)
            best, best_overlap = None, 0
            for cid in sorted(self._configured):
                overlap = len(old_replicas & set(self._configured[cid]))
                if overlap > best_overlap:
                    best, best_overlap = cid, overlap
            if best is None:
                if not ids:
                    continue
                departed = pid
                while departed in adopted.partitions:
                    departed += "@departed"
                adopted.partitions[departed] = list(loaded.partitions[pid])
                rename[pid] = departed
                continue
            rename[pid] = best
            if ids:
                new_replicas = set(self._configured[best])
                changed = (old_replicas | new_replicas) - (
                    old_replicas & new_replicas
                )
                for addr in changed & configured_addrs:
                    adopted.stale.setdefault(addr, set()).update(ids)
        for identifier, pid in loaded.assignments.items():
            target = rename.get(pid)
            if target is not None:
                adopted.assignments[identifier] = target
        return adopted

    @property
    def needs_reconcile(self) -> bool:
        """Whether the map holds partitions outside the configured set."""
        return any(
            pid not in self._configured
            for pid in self.partition_map.partitions
        )

    async def start(self) -> int:
        """Bind and start accepting connections (see ``FramedServer``).

        Raises:
            StorageError: If the partition map still holds records on
                partitions outside the configured replica groups — run
                :meth:`reconcile_membership` first.
        """
        if self.needs_reconcile:
            raise StorageError(
                "partition map assigns records to unconfigured shards; "
                "run membership reconciliation before serving"
            )
        port = await super().start()
        if self.config.repair_interval_s:
            task = asyncio.get_running_loop().create_task(self._repair_loop())
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        return port

    async def _repair_loop(self) -> None:
        """Periodically re-replicate dirty replicas while serving."""
        while not self._draining:
            await asyncio.sleep(self.config.repair_interval_s)
            if self._draining:
                return
            try:
                await self._offload(self.repair)
            except ReproError:
                # Repair is best-effort while serving: an unreachable
                # sibling leaves the marks in place for the next tick.
                pass

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _persist_map(self) -> None:
        if self.data_dir is not None:
            self.partition_map.save(self.data_dir)

    def _client(self, spec: ShardSpec) -> ServiceClient:
        cache = getattr(self._local, "clients", None)
        if cache is None:
            cache = self._local.clients = {}
        client = cache.get(spec.addr)
        if client is None:
            client = self._client_factory(spec, self.config.shard_timeout_s)
            cache[spec.addr] = client
            with self._clients_lock:
                self._all_clients.append(client)
        return client

    def _close_resources(self, drain: bool) -> None:
        self._pool.shutdown(wait=drain)
        with self._clients_lock:
            clients, self._all_clients = self._all_clients, []
        for client in clients:
            close = getattr(client, "close", None)
            if close is not None:
                close()

    async def _fan_out(self, items, call):
        """Run blocking *call(item)* for every item concurrently.

        Returns ``[(item, outcome), ...]`` in *items* order, where each
        outcome is either the call's return value or the exception it
        raised (shard failures must not cancel sibling calls — partial
        results are the whole point).
        """
        loop = asyncio.get_running_loop()
        futures = [
            loop.run_in_executor(self._pool, call, item) for item in items
        ]
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        return list(zip(items, outcomes))

    def _remaining_ms(self, request: protocol.Request) -> float | None:
        """The deadline budget for backend calls, if any."""
        deadline = self._effective_deadline(request)
        # Never send a non-positive deadline: 1 ms keeps the wire valid.
        return None if deadline is None else max(deadline, 1.0)

    def _write_budget_ms(self, request: protocol.Request) -> float | None:
        """Deadline for each write fan-out call, if the caller set one.

        Reserves headroom under the coordinator's own deadline: the
        slowest replica's client-side timeout (budget plus grace) must
        fire *before* the handler's ``wait_for`` cancels it, or a
        replica that swallowed the write would never be marked dirty
        and the acked sub-batches would never reach the map.
        """
        remaining = self._remaining_ms(request)
        if remaining is None:
            return None
        return max(remaining - 2 * DEADLINE_GRACE_MS, 1.0)

    def _probe_budget_ms(self, request: protocol.Request) -> float:
        """Deadline for one health/stats probe.

        The caller's remaining budget when it sent one; otherwise the
        configured probe timeout, so a stalled replica degrades into a
        per-shard failure marker instead of holding the whole scrape
        hostage for the full shard socket timeout.
        """
        remaining = self._remaining_ms(request)
        if remaining is not None:
            return remaining
        return self.config.probe_timeout_s * 1000.0

    def _least_loaded(self, records, pids=None) -> dict[str, list[UploadRecord]]:
        """Place each record on the then least-loaded partition (of *pids*,
        default all), counting the batch's own placements so one big
        upload spreads evenly."""
        counts = {
            pid: count
            for pid, count in self.partition_map.partition_counts().items()
            if pids is None or pid in pids
        }
        per_partition: dict[str, list[UploadRecord]] = {}
        for record in records:
            pid = min(counts, key=lambda p: (counts[p], p))
            counts[pid] += 1
            per_partition.setdefault(pid, []).append(record)
        return per_partition

    @staticmethod
    def _group_by_owner(identifiers, partition_map) -> dict[str, list[int]]:
        grouped: dict[str, list[int]] = {}
        for identifier in identifiers:
            pid = partition_map.owner(identifier)
            if pid is None:
                continue
            grouped.setdefault(pid, []).append(identifier)
        return grouped

    # ------------------------------------------------------------------
    # Replica liveness, load, and failover
    # ------------------------------------------------------------------
    def _mark_up(self, addr: str) -> None:
        with self._state_lock:
            self._down.discard(addr)

    def _note_failure(self, addr: str, exc: BaseException) -> None:
        """Downgrade a replica after a transport-level failure.

        Protocol-level errors (a malformed token fails the same way
        everywhere) leave liveness alone.
        """
        if isinstance(exc, (ServiceConnectionError, DeadlineExceededError)):
            with self._state_lock:
                self._down.add(addr)

    def _replica_order(self, pid: str) -> list[str]:
        """Replicas of *pid* able to serve a read, best first.

        Dirty replicas (mid-resync) never serve; live replicas come
        before down-marked ones (kept as a last resort — the mark may be
        stale), least in-flight load first.
        """
        with self._state_lock:
            down = set(self._down)
            loads = dict(self._loads)
            clean = [
                addr
                for addr in self.partition_map.replicas(pid)
                if not self.partition_map.stale.get(addr)
            ]
        return sorted(clean, key=lambda a: (a in down, loads.get(a, 0), a))

    @staticmethod
    def _failure_report(addr: str, pid: str, exc) -> dict:
        """The shard report for a replica that failed or was skipped."""
        return {"addr": addr, "partition": pid, "ok": False, "error": str(exc)}

    def _with_failover(self, pid: str, attempt, deadline_at):
        """Try *attempt* on each serviceable replica of *pid* in turn.

        Runs in a fan-out pool thread.  ``attempt(client, pid,
        budget_ms)`` is called with the remaining deadline split across
        the untried replicas, so a stalled first replica cannot eat a
        sibling's chance to answer inside the caller's original budget.
        Never raises shard errors: returns ``(addr, result, reports)``
        where ``addr`` and ``result`` are ``None`` if every replica
        failed, and *reports* lists one entry per failed or skipped
        attempt.
        """
        order = self._replica_order(pid)
        if not order:
            return None, None, [
                self._failure_report(addr, pid, "replica awaiting re-replication")
                for addr in self.partition_map.replicas(pid)
            ]
        reports: list[dict] = []
        for index, addr in enumerate(order):
            budget = None
            if deadline_at is not None:
                remaining = (deadline_at - time.perf_counter()) * 1000.0
                budget = max(remaining / (len(order) - index), 1.0)
            with self._state_lock:
                self._loads[addr] = self._loads.get(addr, 0) + 1
            try:
                result = attempt(self._client(self._by_addr[addr]), pid, budget)
            except ReproError as exc:
                reports.append(self._failure_report(addr, pid, exc))
                self._note_failure(addr, exc)
                continue
            finally:
                with self._state_lock:
                    self._loads[addr] -= 1
            self._mark_up(addr)
            return addr, result, reports
        return None, None, reports

    async def _read_partitions(self, pids, attempt, request: protocol.Request):
        """Failover read of every partition in *pids*, concurrently.

        ``attempt(client, pid, budget_ms)`` runs on a fan-out pool thread
        against one replica at a time (see :meth:`_with_failover`).
        Returns ``(served, reports, lost)``: *served* lists ``(report,
        result)`` for each partition a replica answered, in *pids* order,
        where *report* is that partition's ``ok`` entry of *reports*
        (callers add detail keys to it); *lost* lists the partitions no
        replica answered.
        """
        deadline = self._effective_deadline(request)
        deadline_at = (
            None if deadline is None else time.perf_counter() + deadline / 1000.0
        )
        outcomes = await self._fan_out(
            pids, lambda pid: self._with_failover(pid, attempt, deadline_at)
        )
        served: list[tuple[dict, object]] = []
        reports: list[dict] = []
        lost: list[str] = []
        for pid, outcome in outcomes:
            if isinstance(outcome, BaseException):
                reports.extend(
                    self._failure_report(addr, pid, outcome)
                    for addr in self.partition_map.replicas(pid)
                )
                lost.append(pid)
                continue
            addr, result, attempt_reports = outcome
            reports.extend(attempt_reports)
            if addr is None:
                lost.append(pid)
                continue
            report = {"addr": addr, "partition": pid, "ok": True}
            reports.append(report)
            served.append((report, result))
        return served, reports, lost

    def _merged_searches(self, verb: str, replies, reports, lost):
        """Merge per-partition search replies token by token.

        *replies* holds, per answering partition, one ``(response,
        stats)`` pair per token; a single search is token 0 of a batch of
        one.  Returns one ``(identifiers, stats_fields)`` per token.

        Raises:
            ShardUnavailableError: If a partition is *lost*, carrying the
                union of every token's matches from the partitions that
                answered.
        """
        results = [
            merge_scans(
                [
                    (response.identifiers, protocol.search_stats_from_fields(stats))
                    for response, stats in token_replies
                ]
            )
            for token_replies in zip(*replies)
        ]
        if lost:
            raise self._lost_shards_error(
                verb,
                lost,
                reports,
                partial_identifiers=sorted(
                    {i for identifiers, _ in results for i in identifiers}
                ),
                suffix=(
                    f"; partial results cover {len(replies)} of "
                    f"{len(replies) + len(lost)} shards"
                ),
            )
        return [
            (list(identifiers), protocol.search_stats_fields(stats))
            for identifiers, stats in results
        ]

    async def _write_partitions(self, ids_by_pid, send, apply):
        """Replicated write of each partition's ids to its live replicas.

        ``send(client, pid)`` runs on a fan-out pool thread per replica
        and returns the detail keys of that replica's ``ok`` report.
        Down or dirty replicas are skipped.  Under ``_state_lock``, every
        partition at least one replica acked gets ``apply(pid, ids)`` (its
        map change), and each replica that failed or was skipped is marked
        dirty for those ids so :meth:`repair` copies the write before it
        serves reads again; a partition no replica acked is *lost* and its
        map entries stay as they were.

        The map is persisted before this returns, recording exactly what
        was acked: a crash right after leaves a map describing records at
        least one replica really holds (including which siblings still
        owe the copy).  The fsync must not stall concurrent searches, so
        it runs off-loop.

        Returns:
            ``(acked, reports, lost)`` where *acked* maps each acked
            partition to the detail dicts of its acking replicas.
        """
        targets: list[tuple[str, str]] = []
        skipped: dict[str, list[str]] = {}
        with self._state_lock:
            down = set(self._down)
        for pid in sorted(ids_by_pid):
            for addr in self.partition_map.replicas(pid):
                if addr in down or self.partition_map.stale.get(addr):
                    skipped.setdefault(pid, []).append(addr)
                else:
                    targets.append((pid, addr))

        def push(target):
            pid, addr = target
            return send(self._client(self._by_addr[addr]), pid)

        outcomes = await self._fan_out(targets, push)
        acked: dict[str, list[dict]] = {}
        failed: dict[str, list[str]] = {}
        reports: list[dict] = []
        for (pid, addr), outcome in outcomes:
            if isinstance(outcome, BaseException):
                reports.append(self._failure_report(addr, pid, outcome))
                failed.setdefault(pid, []).append(addr)
                self._note_failure(addr, outcome)
                continue
            reports.append({"addr": addr, "partition": pid, "ok": True, **outcome})
            acked.setdefault(pid, []).append(outcome)
        lost: list[str] = []
        with self._state_lock:
            for pid, ids in sorted(ids_by_pid.items()):
                if pid not in acked:
                    lost.append(pid)
                    reports.extend(
                        self._failure_report(
                            addr, pid, "replica down or awaiting re-replication"
                        )
                        for addr in skipped.get(pid, [])
                    )
                    continue
                apply(pid, ids)
                for addr in failed.get(pid, []) + skipped.get(pid, []):
                    self.partition_map.mark_dirty(addr, ids)
        await self._offload(self._persist_map)
        return acked, reports, lost

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
            "cluster": self._do_cluster,
        }

    def _partition_ids(self) -> list[str]:
        return sorted(self.partition_map.partitions)

    def _lost_shards_error(
        self, verb: str, lost, reports, partial_identifiers=(), suffix=""
    ) -> ShardUnavailableError:
        """The typed partial-failure error for partitions with no usable
        replica left — the only case that still surfaces
        ``SHARD_UNAVAILABLE`` under replication."""
        addrs = sorted(
            {
                addr
                for pid in lost
                for addr in self.partition_map.replicas(pid)
            }
        )
        return ShardUnavailableError(
            f"{verb} lost shard(s) {', '.join(addrs)}{suffix}",
            partial_identifiers=tuple(partial_identifiers),
            shards=tuple(reports),
        )

    async def _do_search(self, request: protocol.Request) -> dict:
        message = protocol.search_from_fields(request.fields)
        verify = protocol.search_wants_verify(request.fields)

        def attempt(client, pid, budget_ms):
            if verify:
                return client.search_verified(
                    message.payload, deadline_ms=budget_ms
                )
            return client.search(message.payload, deadline_ms=budget_ms)

        served, reports, lost = await self._read_partitions(
            self._partition_ids(), attempt, request
        )
        for report, (response, stats, *_) in served:
            report.update(records=len(response.identifiers), stats=stats)
        ((identifiers, stats),) = self._merged_searches(
            "search", [[result[:2]] for _, result in served], reports, lost
        )
        fields = {
            "identifiers": identifiers,
            "stats": stats,
            **protocol.shard_reports_fields(reports),
        }
        if verify:
            # Matches gain a fourth element — an index into the merged
            # shard-proof list — so the verifier can pair each match with
            # the replica that attested it.
            matches: list[list] = []
            proofs: list[dict] = []
            for report, (_, _, section) in served:
                matches.extend(
                    [*entry[:3], len(proofs)] for entry in section["matches"]
                )
                proofs.append({**section["shards"][0], "addr": report["addr"]})
            fields.update(protocol.integrity_section_fields(matches, proofs))
        return fields

    async def _do_search_batch(self, request: protocol.Request) -> dict:
        payloads = protocol.search_batch_from_fields(request.fields)

        def attempt(client, pid, budget_ms):
            return client.search_batch(payloads, deadline_ms=budget_ms)

        served, reports, lost = await self._read_partitions(
            self._partition_ids(), attempt, request
        )
        for report, replies in served:
            report["records"] = sum(
                len(response.identifiers) for response, _ in replies
            )
        results = self._merged_searches(
            "batch search", [replies for _, replies in served], reports, lost
        )
        return {
            **protocol.batch_results_fields(results),
            **protocol.shard_reports_fields(reports),
        }

    async def _do_upload(self, request: protocol.Request) -> dict:
        message = protocol.upload_from_fields(request.fields)
        budget = self._write_budget_ms(request)
        # Duplicate checks mirror the single server: within the batch and
        # against everything already assigned anywhere in the cluster.
        seen = set(self.partition_map.assignments)
        for record in message.records:
            if record.identifier in seen:
                raise ProtocolError(
                    f"duplicate record identifier {record.identifier}"
                )
            seen.add(record.identifier)
        # Each sub-batch fans out to every live replica of its partition.
        per_partition = self._least_loaded(message.records)

        def send(client, pid):
            batch = per_partition[pid]
            client.upload(UploadDataset(records=tuple(batch)), deadline_ms=budget)
            return {"stored": len(batch)}

        def assign(pid, ids):
            for identifier in ids:
                self.partition_map.assignments[identifier] = pid

        acked, reports, lost = await self._write_partitions(
            {
                pid: [record.identifier for record in batch]
                for pid, batch in per_partition.items()
            },
            send,
            assign,
        )
        if lost:
            stored_ids = sorted(
                record.identifier
                for pid in acked
                for record in per_partition[pid]
            )
            raise self._lost_shards_error(
                "upload",
                lost,
                reports,
                partial_identifiers=stored_ids,
                suffix=(
                    f"; {len(stored_ids)} of {len(message.records)} "
                    "records were stored"
                ),
            )
        return {
            "stored": self.partition_map.record_count,
            **protocol.shard_reports_fields(reports),
        }

    async def _do_delete(self, request: protocol.Request) -> dict:
        message = protocol.delete_from_fields(request.fields)
        budget = self._write_budget_ms(request)
        grouped = self._group_by_owner(message.identifiers, self.partition_map)

        def send(client, pid):
            removed = client.delete(tuple(grouped[pid]), deadline_ms=budget)
            return {"removed": removed}

        def unassign(pid, ids):
            for identifier in ids:
                self.partition_map.assignments.pop(identifier, None)

        acked, reports, lost = await self._write_partitions(
            grouped, send, unassign
        )
        if lost:
            raise self._lost_shards_error("delete", lost, reports)
        return {
            "removed": sum(
                max(ack["removed"] for ack in acks) for acks in acked.values()
            ),
            **protocol.shard_reports_fields(reports),
        }

    async def _do_fetch(self, request: protocol.Request) -> dict:
        message = protocol.fetch_from_fields(request.fields)
        wants_payloads = protocol.fetch_wants_payloads(request.fields)
        for identifier in message.identifiers:
            if self.partition_map.owner(identifier) is None:
                raise ProtocolError(
                    f"no stored content for identifier {identifier}"
                )
        grouped = self._group_by_owner(message.identifiers, self.partition_map)

        def attempt(client, pid, budget_ms):
            wanted = tuple(grouped[pid])
            if wants_payloads:
                return client.export(wanted, deadline_ms=budget_ms)
            return client.fetch(wanted, deadline_ms=budget_ms)

        served, reports, lost = await self._read_partitions(
            sorted(grouped), attempt, request
        )
        if lost:
            raise self._lost_shards_error("fetch", lost, reports)
        if wants_payloads:
            by_id = {row[0]: row for _, rows in served for row in rows}
            return protocol.export_rows_fields(
                [by_id[i] for i in message.identifiers]
            )
        contents: dict[int, bytes] = {}
        for _, result in served:
            contents.update(result)
        return protocol.fetch_response_fields(
            FetchResponse(
                contents=tuple(
                    (i, contents[i]) for i in message.identifiers
                )
            )
        )

    async def _probe_replicas(self, probe):
        """Run ``probe(client)`` on every replica concurrently.

        Returns ``(report, outcome)`` per replica in configured order:
        a replica that failed is noted down and gets a failure report;
        the others get an ``ok`` report their caller adds detail keys to.
        """
        outcomes = await self._fan_out(
            self.shards, lambda spec: probe(self._client(spec))
        )
        probed = []
        for spec, outcome in outcomes:
            pid = self.partition_map.partition_of(spec.addr) or ""
            if isinstance(outcome, BaseException):
                self._note_failure(spec.addr, outcome)
                report = self._failure_report(spec.addr, pid, outcome)
            else:
                report = {"addr": spec.addr, "partition": pid, "ok": True}
            probed.append((report, outcome))
        return probed

    async def _do_health(self, request: protocol.Request) -> dict:
        budget = self._probe_budget_ms(request)
        probed = await self._probe_replicas(
            lambda client: client.health(deadline_ms=budget)
        )
        healthy = 0
        healthy_pids: set[str] = set()
        for report, outcome in probed:
            if not report["ok"]:
                continue
            self._mark_up(report["addr"])
            healthy += 1
            if not self.partition_map.stale.get(report["addr"]):
                healthy_pids.add(report["partition"])
            report["status"] = str(outcome.get("status", ""))
            report["records"] = int(outcome.get("records", 0))
        return {
            "status": "ok" if healthy == len(self.shards) else "degraded",
            "coordinator": True,
            "records": self.partition_map.record_count,
            "shards_healthy": healthy,
            "shards_total": len(self.shards),
            "replication": self.replication,
            "partitions_available": len(healthy_pids),
            "partitions_total": len(self.partition_map.partitions),
            **protocol.shard_reports_fields(report for report, _ in probed),
        }

    async def _do_stats(self, request: protocol.Request) -> dict:
        budget = self._probe_budget_ms(request)
        probed = await self._probe_replicas(
            lambda client: client.stats(deadline_ms=budget)
        )
        reports = [report for report, _ in probed]
        for report, outcome in probed:
            # Degrade, never raise: a shard dying mid-scrape turns into an
            # explicit per-shard marker, and the aggregate below covers
            # whoever still answered.
            if report["ok"]:
                report["stats"] = outcome
            else:
                report["unreachable"] = True
        snapshot = self.metrics.snapshot()
        snapshot["records"] = self.partition_map.record_count
        snapshot.update(self._saturation_fields())
        down, stale = self._resync_debt()
        snapshot["partition"] = {
            "counts": self.partition_map.counts(),
            "partitions": self.partition_map.partition_counts(),
        }
        snapshot["replication"] = {
            "factor": self.replication,
            "down": down,
            "stale": stale,
        }
        # Cluster-wide saturation: sum the reachable shards' own queue
        # gauges so one stats call shows where the fleet is loaded.
        cluster = {
            "in_flight": 0,
            "peak_in_flight": 0,
            "rejected_busy": 0,
            "shards_reporting": 0,
        }
        for report in reports:
            stats = report.get("stats")
            if not report.get("ok") or not isinstance(stats, dict):
                continue
            queue = stats.get("queue")
            if isinstance(queue, dict):
                cluster["in_flight"] += int(queue.get("in_flight", 0))
                cluster["peak_in_flight"] += int(
                    queue.get("peak_in_flight", 0)
                )
            cluster["rejected_busy"] += int(stats.get("rejected_busy", 0))
            cluster["shards_reporting"] += 1
        snapshot["cluster"] = cluster
        integrity = self._aggregate_integrity(reports)
        if integrity is not None:
            snapshot["integrity"] = integrity
        snapshot.update(protocol.shard_reports_fields(reports))
        return snapshot

    async def _do_cluster(self, request: protocol.Request) -> dict:
        """Topology report: partitions, replicas, liveness, resync debt."""
        down, stale = self._resync_debt()
        counts = self.partition_map.partition_counts()
        partitions = []
        for pid in self._partition_ids():
            partitions.append(
                {
                    "id": pid,
                    "records": counts.get(pid, 0),
                    "replicas": [
                        {
                            "addr": addr,
                            "down": addr in down,
                            "stale": stale.get(addr, 0),
                        }
                        for addr in self.partition_map.replicas(pid)
                    ],
                }
            )
        return {
            "replication": self.replication,
            "records": self.partition_map.record_count,
            "shards_total": len(self.shards),
            "partitions": partitions,
        }

    def _resync_debt(self) -> tuple[list[str], dict[str, int]]:
        """Down-marked replicas, and the record count each dirty one owes."""
        with self._state_lock:
            return sorted(self._down), {
                addr: len(ids)
                for addr, ids in sorted(self.partition_map.stale.items())
                if ids
            }

    def _aggregate_integrity(self, reports) -> dict | None:
        """Fold per-shard integrity stats into one cluster-wide view.

        Exactly one replica represents each partition (replicas hold
        identical accumulators, and XOR-folding a root twice would
        cancel it); clean replicas are preferred over dirty ones.  Tag
        and record counts sum across partitions, accumulator roots XOR
        together (the same aggregation the client's verifier applies to
        per-shard proofs), and the cluster is *complete* only if every
        partition reported and every section is complete.  Returns
        ``None`` when no reachable shard reported integrity state
        (pre-integrity shards, or every probe failed).
        """
        candidates = []
        for report in reports:
            if (
                not report.get("ok")
                or not isinstance(report.get("stats"), dict)
                or not isinstance(report["stats"].get("integrity"), dict)
            ):
                continue
            addr = report.get("addr", "")
            dirty = bool(self.partition_map.stale.get(addr))
            pid = report.get("partition") or addr
            candidates.append((dirty, pid, report["stats"]["integrity"]))
        if not candidates:
            return None
        chosen: dict[str, dict] = {}
        for dirty, pid, section in sorted(
            candidates, key=lambda entry: entry[0]
        ):
            if pid not in chosen:
                chosen[pid] = section
        sections = list(chosen.values())
        root = EMPTY_ROOT
        for section in sections:
            try:
                shard_root = bytes.fromhex(str(section.get("root", "")))
            except ValueError:
                shard_root = b""
            if len(shard_root) == len(EMPTY_ROOT):
                root = xor_fold([root, shard_root])
        proofs = [str(section.get("last_proof", "never")) for section in sections]
        if "failed" in proofs:
            last_proof = "failed"
        elif "served" in proofs:
            last_proof = "served"
        else:
            last_proof = "never"
        return {
            "tags": sum(int(section.get("tags", 0)) for section in sections),
            "records": sum(
                int(section.get("records", 0)) for section in sections
            ),
            "complete": all(
                bool(section.get("complete")) for section in sections
            )
            and len(sections) == len(self.partition_map.partitions),
            "root": root.hex(),
            "version": sum(
                int(section.get("version", 0)) for section in sections
            ),
            "last_proof": last_proof,
            "shards_reporting": len(sections),
        }

    # ------------------------------------------------------------------
    # Re-replication (repair) and divergence detection
    # ------------------------------------------------------------------
    def repair(self) -> dict[str, int]:
        """Re-replicate: bring every dirty replica back in sync.

        For each replica owing a resync, the dirty rows still assigned
        to its partition are exported from a clean sibling (the
        payload-bearing fetch), the replica's stale copies are deleted
        (covering both missed deletes and superseded writes), the fresh
        rows are uploaded, and only then is the mark cleared and the map
        persisted.  An unreachable replica or sibling leaves the marks
        in place — repair is idempotent and retried by the background
        loop or the next explicit call.

        Returns:
            ``{addr: records_resynced}`` for each replica healed.
        """
        with self._state_lock:
            todo = {
                addr: set(ids)
                for addr, ids in self.partition_map.stale.items()
                if ids
            }
        healed: dict[str, int] = {}
        for addr in sorted(todo):
            pid = self.partition_map.partition_of(addr)
            if pid is None:
                with self._state_lock:
                    self.partition_map.clear_dirty(addr, todo[addr])
                continue
            dirty = todo[addr]
            canonical = sorted(
                i
                for i in dirty
                if self.partition_map.assignments.get(i) == pid
            )
            rows = ()
            if canonical:
                siblings = [s for s in self._replica_order(pid) if s != addr]
                try:
                    rows = self._export_from_any(siblings, canonical)
                except ShardUnavailableError:
                    continue
            records = [UploadRecord(*row) for row in rows]
            if self._overwrite(addr, sorted(dirty), records) is not None:
                continue
            with self._state_lock:
                self.partition_map.clear_dirty(addr, dirty)
            self._mark_up(addr)
            self._persist_map()
            healed[addr] = len(dirty)
        return healed

    def audit_replicas(self) -> dict[str, int]:
        """Cross-check replica record counts against the map.

        A replica that acked a write and then lost it (killed before its
        commit reached disk, restarted from an older store) diverges
        silently — the map says it holds rows it does not.  Probing each
        replica's health ``records`` count against the partition's
        canonical count catches that restart-level divergence; a
        mismatched replica is marked dirty with the full canonical id
        set so :meth:`repair` rebuilds it from a clean sibling.  (Rows a
        replica holds that the map never knew about are outside the
        audit's reach — it compares counts, not contents.)

        Returns:
            ``{addr: count_delta}`` for each replica flagged.
        """
        flagged: dict[str, int] = {}
        for pid in self._partition_ids():
            canonical = self.partition_map.ids_in(pid)
            for addr in self.partition_map.replicas(pid):
                with self._state_lock:
                    already_dirty = bool(self.partition_map.stale.get(addr))
                if already_dirty:
                    continue
                try:
                    reply = self._client(self._by_addr[addr]).health()
                except ReproError as exc:
                    self._note_failure(addr, exc)
                    continue
                held = int(reply.get("records", 0))
                if held != len(canonical):
                    with self._state_lock:
                        self.partition_map.mark_dirty(addr, canonical)
                        if not canonical:
                            # Nothing canonical to copy, but the replica
                            # holds rows the map does not know: it still
                            # must not serve until an operator resolves
                            # the divergence.
                            self._down.add(addr)
                    flagged[addr] = held - len(canonical)
        if flagged:
            self._persist_map()
        return flagged

    # ------------------------------------------------------------------
    # Membership (offline — run before serving)
    # ------------------------------------------------------------------
    def reconcile_membership(self) -> dict[str, int]:
        """Migrate records off partitions that left the configured set.

        Called offline (the CLI runs it before binding the listen port)
        when the persisted map holds partitions with no surviving
        replica in the configured groups.  Every record on a departed
        partition is exported from the first reachable replica
        (payload-bearing fetch), re-uploaded to the least-loaded
        configured partition (all replicas), deleted from the donors,
        and the map is persisted after each partition — so a crash
        mid-migration loses nothing: the record is either still on the
        donor (map unchanged) or acked by a receiving replica (map
        updated).

        Returns:
            ``{donor_partition: records_moved}`` for each departed
            partition.

        Raises:
            ShardUnavailableError: If every replica of a departed
                partition is unreachable (its records cannot be
                recovered by the coordinator alone).
        """
        departed = sorted(
            pid
            for pid in self.partition_map.partitions
            if pid not in self._configured
        )
        moved: dict[str, int] = {}
        for pid in departed:
            doomed = self.partition_map.ids_in(pid)
            replicas = self.partition_map.replicas(pid)
            self._migrate_rows(self._export_from_any(replicas, doomed))
            for addr in replicas:
                # The receivers acked and the map is persisted; a stale
                # copy left on a shard that is leaving the cluster is
                # garbage, not a correctness problem.
                self._overwrite(addr, doomed)
            self.partition_map.remove_partition(pid)
            self._persist_map()
            moved[pid] = len(doomed)
        return moved

    def rebalance(self, batch_size: int = 64) -> int:
        """Even out record counts after partitions were added.

        Moves records from the most- to the least-loaded partition in
        batches (export → replicated upload → delete → persist map)
        until no partition is more than one record above the mean.  Each
        batch is crash-safe in the same way as
        :meth:`reconcile_membership`.

        Returns:
            Total records moved.
        """
        moved = 0
        while True:
            counts = self.partition_map.partition_counts()
            donor = max(counts, key=lambda p: (counts[p], p))
            receiver = min(counts, key=lambda p: (counts[p], p))
            if counts[donor] - counts[receiver] <= 1:
                return moved
            surplus = counts[donor] - (
                self.partition_map.record_count
                // len(self.partition_map.partitions)
            )
            chunk = self.partition_map.ids_in(donor)[
                : max(1, min(batch_size, surplus))
            ]
            self._migrate_rows(
                self._export_from_any(self._replica_order(donor), chunk),
                to_pid=receiver,
            )
            for addr in self.partition_map.replicas(donor):
                if self._overwrite(addr, chunk) is not None:
                    with self._state_lock:
                        self.partition_map.mark_dirty(addr, chunk)
            self._persist_map()
            moved += len(chunk)

    def _spec(self, addr: str) -> ShardSpec:
        # Replicas of a departed partition are not in the configured set.
        return self._by_addr.get(addr) or ShardSpec.parse(addr)

    def _export_from_any(self, addrs, identifiers):
        """Export *identifiers* (payload-bearing fetch) from the first of
        *addrs* that answers.

        Raises:
            ShardUnavailableError: If none of *addrs* answers.
        """
        last_error: ReproError | None = None
        for addr in addrs:
            try:
                return self._client(self._spec(addr)).export(tuple(identifiers))
            except ReproError as exc:
                last_error = exc
                self._note_failure(addr, exc)
        raise ShardUnavailableError(
            f"no replica of {', '.join(addrs) or 'the partition'} could "
            f"export {len(identifiers)} records: {last_error}"
        )

    def _overwrite(self, addr: str, doomed, records=()) -> ReproError | None:
        """Delete *doomed* from replica *addr*, then upload *records*.

        Returns the error that stopped it (the replica is noted down), or
        ``None`` once both steps were acked.
        """
        client = self._client(self._spec(addr))
        try:
            client.delete(tuple(doomed))
            if records:
                client.upload(UploadDataset(records=tuple(records)))
        except ReproError as exc:
            self._note_failure(addr, exc)
            return exc
        return None

    def _migrate_rows(self, rows, to_pid: str | None = None) -> None:
        """Upload exported *rows* to configured partitions, all replicas.

        Each receiving replica gets a delete-before-upload so a crashed
        and re-run migration never trips the duplicate-identifier check;
        a replica that misses the copy is marked dirty.  The map is
        persisted once every batch found at least one ack.
        """
        records = [UploadRecord(*row) for row in rows]
        per_partition = (
            {to_pid: records}
            if to_pid is not None
            else self._least_loaded(records, self._configured)
        )
        for pid, batch in sorted(per_partition.items()):
            ids = [record.identifier for record in batch]
            acked = []
            last_error: ReproError | None = None
            for addr in self.partition_map.replicas(pid):
                error = self._overwrite(addr, ids, batch)
                if error is None:
                    acked.append(addr)
                else:
                    last_error = error
            if not acked:
                raise ShardUnavailableError(
                    f"partition {pid} unreachable during migration: "
                    f"{last_error}"
                )
            with self._state_lock:
                for record in batch:
                    self.partition_map.assignments[record.identifier] = pid
                for addr in self.partition_map.replicas(pid):
                    if addr not in acked:
                        self.partition_map.mark_dirty(addr, ids)
        self._persist_map()
