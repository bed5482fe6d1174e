"""The service under test as separate OS processes.

One :class:`Deployment` owns the data directories of one run and launches
``python -m repro serve`` (and, for clustered workloads, ``python -m repro
coordinate`` over ``partitions x replication`` backends).  Backends of a
cluster keep fixed ports across restarts because the coordinator's
persisted partition map names them by address.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.service import AsyncServiceClient, RetryPolicy

from perfbench.workloads import WORKERS, Inputs, Workload

#: Seconds a process may take to bind, or to drain after SIGTERM.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def no_retry() -> RetryPolicy:
    """A policy that never retries, so BUSY surfaces as a failure."""
    return RetryPolicy(attempts=1)


def backend_ports(workload: Workload) -> list[int]:
    """Ports for the backends: fixed ones for a cluster, whose persisted
    partition map names backends by address, else ``[0]`` (any)."""
    if not workload.clustered:
        return [0]
    count = workload.partitions * workload.replication
    rng = random.Random()
    ports: list[int] = []
    # Every probe stays bound until all ports are chosen, so no port is
    # chosen twice.  The range lies below the usual ephemeral one, so
    # client sockets of this run cannot take a backend's port while the
    # backend is restarting.
    with contextlib.ExitStack() as probes:
        for _ in range(200):
            port = rng.randrange(20000, 30000)
            probe = probes.enter_context(socket.socket())
            try:
                probe.bind(("127.0.0.1", port))
            except OSError:
                continue
            ports.append(port)
            if len(ports) == count:
                return ports
    raise RuntimeError("no free ports for the backends")


class Deployment:
    """The server processes of one run and their data directories."""

    def __init__(self, inputs: Inputs, work: Path, src: Path):
        self.inputs = inputs
        self.work = work
        self.key = work / "owner.key"
        self.key.write_bytes(inputs.key_bytes)
        # Bytecode lives under the run's own directory, written by the
        # untimed seeding start: ``setup_s`` never includes compiling
        # ``src/`` and does not depend on stale ``__pycache__``
        # directories or on PYTHONDONTWRITEBYTECODE in the environment.
        self.env = dict(os.environ, PYTHONPATH=str(src),
                        PYTHONPYCACHEPREFIX=str(work / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.backend_ports = backend_ports(inputs.workload)
        self.procs: list[subprocess.Popen] = []
        self.port: int | None = None

    @property
    def pids(self) -> list[int]:
        """Pids of the launched roots (server or backends + coordinator)."""
        return [proc.pid for proc in self.procs]

    def _launch(self, name: str, args: list[str]) -> Path:
        port_file = self.work / f"{name}.port"
        port_file.unlink(missing_ok=True)
        log = open(self.work / f"{name}.log", "ab")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args,
                 "--port-file", str(port_file)],
                cwd=self.work,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                start_new_session=True,
            )
        finally:
            log.close()
        self.procs.append(proc)
        return port_file

    def _wait_port(self, port_file: Path, proc: subprocess.Popen) -> int:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if port_file.exists():
                text = port_file.read_text().strip()
                if text:
                    return int(text)
            if proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {proc.returncode}; see "
                    f"{port_file.with_suffix('.log').name}"
                )
            time.sleep(0.002)
        raise RuntimeError(f"server did not bind within {START_TIMEOUT_S} s")

    def start(self) -> int:
        """Launch every process; return the client-facing port once all
        of them listen."""
        workload = self.inputs.workload
        common = ["--workers", str(WORKERS), "--key", str(self.key)]
        files = []
        for index, port in enumerate(self.backend_ports):
            files.append(
                self._launch(
                    f"backend{index}",
                    ["serve", *common, "--port", str(port),
                     "--data-dir", str(self.work / f"store{index}")],
                )
            )
        if workload.clustered:
            shards = []
            for port in self.backend_ports:
                shards += ["--shard", f"127.0.0.1:{port}"]
            files.append(
                self._launch(
                    "coordinator",
                    ["coordinate", *shards,
                     "--replication", str(workload.replication),
                     "--repair-interval-s", "0",
                     "--data-dir", str(self.work / "coordinator")],
                )
            )
        ports = [
            self._wait_port(path, proc)
            for path, proc in zip(files, self.procs)
        ]
        self.port = ports[-1]
        return self.port

    def stop(self) -> None:
        """SIGTERM every process, wait for the drain, then make sure no
        process of their groups (engine workers included) is left."""
        procs, self.procs = self.procs, []
        for proc in reversed(procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in reversed(procs):
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        self.port = None

    def seed(self) -> None:
        """Load the seed dataset into empty data directories (untimed)."""
        try:
            asyncio.run(self._upload_seed(self.start()))
        finally:
            self.stop()

    async def _upload_seed(self, port: int) -> None:
        async with AsyncServiceClient(
            "127.0.0.1", port, retry=no_retry(), max_in_flight=1
        ) as client:
            stored = 0
            for batch in self.inputs.seed_batches:
                stored = await client.upload(batch)
        if stored != self.inputs.workload.records:
            raise RuntimeError(
                f"seeding stored {stored} records, expected "
                f"{self.inputs.workload.records}"
            )
