"""Run a framed-protocol server on a background thread.

Both the single-host :class:`~repro.service.server.ServiceServer` and the
distributed :class:`~repro.service.coordinator.Coordinator` are asyncio
servers; tests and benchmarks usually want them *alongside* blocking
client code in the same process.  :class:`ServerThread` owns a private
event loop on a daemon thread, starts the server there, and exposes the
bound port — so a test can stand up a whole multi-shard cluster (several
``ServiceServer`` threads plus a ``Coordinator`` thread) in-process,
where every shard's leakage log remains directly inspectable.

This is deliberately a library module, not test scaffolding: the
distributed benchmark and the parity/fault suites all build clusters from
it, and keeping one implementation avoids three slightly-different
copies of the start/stop dance.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
from dataclasses import replace as dataclass_replace
from pathlib import Path

__all__ = ["ReplicatedCluster", "ServerThread"]


class ServerThread:
    """Run any ``FramedServer`` on its own event loop in a daemon thread."""

    def __init__(self, server):
        """Wrap *server* (not yet started; call :meth:`start`)."""
        self.server = server
        self.port: int | None = None
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            try:
                # Transport.close() only takes effect on a later loop
                # iteration; without this flush an ungraceful stop
                # leaves accepted sockets open in this process, and
                # peers block in recv until their own timeout instead
                # of seeing EOF.
                self._loop.run_until_complete(asyncio.sleep(0))
            except BaseException:
                pass
            self._loop.close()

    async def _main(self) -> None:
        try:
            self.port = await self.server.start()
        except BaseException as exc:  # startup failures surface in start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.serve_forever()

    def start(self, timeout_s: float = 10.0) -> int:
        """Start the thread; block until the port is bound; return it.

        Raises:
            TimeoutError: If the server fails to come up in time.
            Exception: Whatever ``server.start()`` raised on its loop.
        """
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise TimeoutError("server did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        assert self.port is not None
        return self.port

    def stop(self, drain: bool = True, timeout_s: float = 15.0) -> None:
        """Shut the server down and join the thread."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain), self._loop
        )
        future.result(timeout=timeout_s)
        self._thread.join(timeout=timeout_s)

    def __enter__(self) -> "ServerThread":
        """Context-manager entry: start and return self."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: stop with drain."""
        self.stop()


class ReplicatedCluster:
    """An in-process replicated cluster: P partitions × R replicas behind
    one coordinator.

    The chaos suites and the kill-a-replica benchmark all need the same
    dance: stand up ``partitions * replication`` backend servers, wire a
    replication-aware :class:`~repro.service.coordinator.Coordinator`
    over them, and later kill a replica mid-run or swap a dead one for a
    fresh empty server and watch re-replication converge.  The map is
    persisted into a (temporary, unless given) data directory so a
    rebuilt coordinator adopts the surviving topology instead of
    starting blank.

    Args:
        backend_factory: Zero-argument callable returning a fresh, not
            yet started backend ``FramedServer`` (usually a
            ``ServiceServer`` over the test's scheme) — called once per
            replica, and again by :meth:`replace`.
        partitions: Number of partitions.
        replication: Replicas per partition.
        coordinator_config: Base coordinator tunables; the replication
            factor is always overridden with *replication*.
        data_dir: Partition-map directory; a private temporary directory
            is used (and cleaned up by :meth:`stop`) when omitted.
    """

    def __init__(
        self,
        backend_factory,
        partitions: int = 2,
        replication: int = 2,
        coordinator_config=None,
        data_dir=None,
    ):
        # Imported here, not at module top: the service package imports
        # this module early, before the coordinator exists.
        from repro.service.coordinator import Coordinator, CoordinatorConfig

        self._coordinator_cls = Coordinator
        base = coordinator_config or CoordinatorConfig()
        self._coord_config = dataclass_replace(base, replication=replication)
        self._backend_factory = backend_factory
        self.partitions = partitions
        self.replication = replication
        self._tmp = None
        if data_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            data_dir = self._tmp.name
        self.data_dir = Path(data_dir)
        self._order: list[str] = []
        self._threads: dict[str, ServerThread] = {}
        self._coord_thread: ServerThread | None = None
        self.coordinator_port: int | None = None

    @property
    def coordinator(self):
        """The live ``Coordinator`` instance (after :meth:`start`)."""
        assert self._coord_thread is not None
        return self._coord_thread.server

    @property
    def addrs(self) -> tuple[str, ...]:
        """Replica addrs in partition-group order (R consecutive addrs
        per partition)."""
        return tuple(self._order)

    def backend(self, addr: str):
        """The in-process backend server at *addr* (its logs and record
        store stay directly inspectable)."""
        return self._threads[addr].server

    def start(self) -> int:
        """Start every backend plus the coordinator; return its port."""
        for _ in range(self.partitions * self.replication):
            self._order.append(self._start_backend())
        return self._start_coordinator()

    def _start_backend(self) -> str:
        thread = ServerThread(self._backend_factory())
        addr = f"127.0.0.1:{thread.start()}"
        self._threads[addr] = thread
        return addr

    def _start_coordinator(self) -> int:
        coordinator = self._coordinator_cls(
            self._order, config=self._coord_config, data_dir=self.data_dir
        )
        if coordinator.needs_reconcile:
            coordinator.reconcile_membership()
        coordinator.repair()
        self._coord_thread = ServerThread(coordinator)
        self.coordinator_port = self._coord_thread.start()
        return self.coordinator_port

    def kill(self, addr: str) -> None:
        """Take the backend at *addr* down ungracefully (no drain)."""
        self._threads[addr].stop(drain=False)

    def replace(self, addr: str) -> str:
        """Swap the replica at *addr* for a fresh empty backend.

        Kills the old backend if it is still up, starts a new one on a
        new port, and rebuilds the coordinator over the updated shard
        list: the persisted map is adopted, the newcomer is marked dirty
        with the partition's canonical ids, and repair copies the rows
        from a surviving sibling before the coordinator serves.  Returns
        the new replica's addr.  The coordinator's port changes — dial
        :attr:`coordinator_port` again.
        """
        self._threads.pop(addr).stop(drain=False)
        new_addr = self._start_backend()
        self._order[self._order.index(addr)] = new_addr
        if self._coord_thread is not None:
            self._coord_thread.stop(drain=False)
        self._start_coordinator()
        return new_addr

    def stop(self) -> None:
        """Stop the coordinator, every backend, and the temp map dir."""
        if self._coord_thread is not None:
            self._coord_thread.stop()
            self._coord_thread = None
        for thread in self._threads.values():
            thread.stop()
        self._threads.clear()
        self._order.clear()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "ReplicatedCluster":
        """Context-manager entry: start and return self."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: stop everything."""
        self.stop()
