"""Fault injection for the distributed coordinator.

Three failure families, each asserted to produce *typed* degradation
rather than hangs, crashes, or silent data loss:

* **process death** — a real ``repro serve`` backend is SIGKILLed while a
  search is in flight; the coordinator answers with
  ``SHARD_UNAVAILABLE`` carrying the partial matches the surviving shard
  attested to, and keeps serving afterwards;
* **wire corruption** — a TCP proxy shim truncates a shard's reply frame
  mid-body; the coordinator converts the shard's framing failure into
  the same typed error instead of propagating junk;
* **backpressure storms** — the proxy answers ``BUSY`` N times before
  letting a request through; the per-shard client retries (without
  re-querying shards that already answered — each shard has its own
  client), and an upload whose ack is dropped is *not* blindly retried,
  so it can never double-apply.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cloud.codec import encode_ciphertext, encode_token
from repro.cloud.messages import UploadDataset, UploadRecord
from repro.core.crse2 import CRSE2Scheme
from repro.core.geometry import Circle, DataSpace
from repro.core.provision import group_for_crse2
from repro.errors import ShardUnavailableError
from repro.service import (
    Coordinator,
    CoordinatorConfig,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    protocol,
)


# ----------------------------------------------------------------------
# Fault-injecting TCP proxy
# ----------------------------------------------------------------------
class FaultProxy:
    """A one-request-per-connection TCP shim in front of a backend.

    Modes:
      * ``"pass"``       — relay request and reply untouched;
      * ``"busy"``       — answer the next ``busy_budget`` requests with a
        retryable BUSY error (without contacting the backend), then pass;
      * ``"truncate"``   — relay the request, then forward only half of
        the backend's reply frame and close the connection;
      * ``"drop_reply"`` — relay the request, let the backend execute it,
        read the reply, and close without forwarding it;
      * ``"stall"``      — read the request and sit on it silently (the
        connection stays open) for ``stall_s`` seconds: a replica that
        is alive but too slow to answer inside any reasonable deadline;
      * ``"partial_write"`` — forge a success ack echoing the request id
        without ever contacting the backend: a replica that acks a
        write and is killed before its commit lands.
    """

    def __init__(
        self,
        backend_port: int,
        mode: str = "pass",
        busy_budget: int = 0,
        stall_s: float = 30.0,
    ):
        self.backend_port = backend_port
        self.mode = mode
        self.busy_budget = busy_budget
        self.stall_s = stall_s
        self.connections = 0
        self.forwarded = 0
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._closing = False
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_one, args=(conn,), daemon=True
            ).start()

    def _read_frame(self, sock: socket.socket) -> bytes | None:
        chunks = b""
        while len(chunks) < 4:
            data = sock.recv(4 - len(chunks))
            if not data:
                return None
            chunks += data
        length = int.from_bytes(chunks, "big")
        body = b""
        while len(body) < length:
            data = sock.recv(length - len(body))
            if not data:
                return None
            body += data
        return chunks + body

    def _serve_one(self, conn: socket.socket) -> None:
        try:
            self._serve_request(conn)
        finally:
            # shutdown(), not just close(): backend engines fork worker
            # processes that inherit this fd, so a bare close() would
            # leave the duplicate open and the peer would never see EOF.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    def _serve_request(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(10)
            with self._lock:
                self.connections += 1
                mode = self.mode
                if mode == "busy":
                    if self.busy_budget > 0:
                        self.busy_budget -= 1
                    else:
                        mode = "pass"
            request = self._read_frame(conn)
            if request is None:
                return
            if mode == "busy":
                body = protocol.encode_error(
                    0,
                    protocol.ERR_BUSY,
                    "proxy-injected backpressure",
                    retryable=True,
                )
                conn.sendall(len(body).to_bytes(4, "big") + body)
                return
            if mode == "stall":
                deadline = time.monotonic() + self.stall_s
                while time.monotonic() < deadline and not self._closing:
                    time.sleep(0.05)
                return
            if mode == "partial_write":
                decoded = protocol.decode_request(request[4:])
                fields = {}
                if decoded.verb == "upload":
                    fields["stored"] = len(decoded.fields.get("records", ()))
                elif decoded.verb == "delete":
                    fields["removed"] = len(
                        decoded.fields.get("identifiers", ())
                    )
                body = protocol.encode_ok(decoded.request_id, fields)
                conn.sendall(len(body).to_bytes(4, "big") + body)
                return
            upstream = socket.create_connection(
                ("127.0.0.1", self.backend_port), timeout=10
            )
            with upstream:
                upstream.sendall(request)
                reply = self._read_frame(upstream)
            if reply is None:
                return
            with self._lock:
                self.forwarded += 1
            if mode == "truncate":
                conn.sendall(reply[: max(5, len(reply) // 2)])
                return
            if mode == "drop_reply":
                return
            conn.sendall(reply)

    def close(self) -> None:
        self._closing = True
        self._listener.close()


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def env():
    rng = random.Random(0xFA17)
    space = DataSpace(2, 16)
    scheme = CRSE2Scheme(space, group_for_crse2(space, "fast", rng))
    key = scheme.gen_key(rng)
    points = [
        (rng.randrange(space.t), rng.randrange(space.t)) for _ in range(12)
    ]
    dataset = UploadDataset(
        records=tuple(
            UploadRecord(
                identifier=i,
                payload=encode_ciphertext(scheme, scheme.encrypt(key, p, rng)),
                content=f"record-{i}".encode(),
            )
            for i, p in enumerate(points)
        )
    )
    token = encode_token(
        scheme, scheme.gen_token(key, Circle.from_radius((8, 8), 5), rng)
    )
    return scheme, dataset, token


@pytest.fixture(scope="module")
def batch(env):
    """A ``search_batch`` vector: the env token, then a token under an
    unrelated key (it matches nothing)."""
    scheme, _, token = env
    rng = random.Random(0xBA7C)
    stranger = encode_token(
        scheme,
        scheme.gen_token(
            scheme.gen_key(rng), Circle.from_radius((8, 8), 5), rng
        ),
    )
    return (token, stranger)


def _in_process_shard(scheme) -> ServerThread:
    handle = ServerThread(ServiceServer(scheme, config=ServiceConfig()))
    handle.start()
    return handle


def _coordinator_over(ports, **config_kwargs) -> ServerThread:
    handle = ServerThread(
        Coordinator(
            [f"127.0.0.1:{port}" for port in ports],
            CoordinatorConfig(**config_kwargs),
        )
    )
    handle.start()
    return handle


# ----------------------------------------------------------------------
# Process death
# ----------------------------------------------------------------------
class TestShardDeath:
    @pytest.fixture()
    def cli_cluster(self, tmp_path):
        """Two real ``repro serve`` subprocesses behind a coordinator."""
        env_vars = dict(os.environ)
        env_vars["PYTHONPATH"] = "src"
        key = tmp_path / "demo.key"
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "keygen",
                "--size", "16", "--dims", "2", "--backend", "fast",
                "--seed", "21", "--out", str(key),
            ],
            capture_output=True, text=True, env=env_vars, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        procs, ports = [], []
        for i in range(2):
            port_file = tmp_path / f"port{i}"
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "serve",
                        "--key", str(key), "--port", "0",
                        "--port-file", str(port_file), "--workers", "1",
                    ],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.STDOUT,
                    env=env_vars,
                )
            )
            deadline = time.monotonic() + 60
            while not port_file.exists() and time.monotonic() < deadline:
                assert procs[-1].poll() is None, "backend died on startup"
                time.sleep(0.1)
            ports.append(int(port_file.read_text()))
        coordinator = _coordinator_over(ports, shard_timeout_s=5.0)
        try:
            yield procs, ports, coordinator
        finally:
            coordinator.stop()
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=30)

    def test_sigkill_mid_search_yields_typed_partial_results(
        self, env, cli_cluster
    ):
        _, dataset, token = env
        procs, _, coordinator = cli_cluster
        client = ServiceClient("127.0.0.1", coordinator.port)
        client.upload(dataset)
        victim = procs[1]
        # Freeze the victim so the fanned-out search is genuinely in
        # flight against it, then kill it mid-request.
        os.kill(victim.pid, signal.SIGSTOP)
        outcome: dict = {}

        def run_search() -> None:
            try:
                outcome["result"] = client.search(token)
            except BaseException as exc:
                outcome["error"] = exc

        searcher = threading.Thread(target=run_search)
        searcher.start()
        time.sleep(0.5)  # let the fan-out reach the frozen shard
        os.kill(victim.pid, signal.SIGKILL)
        searcher.join(timeout=30)
        assert not searcher.is_alive(), "search hung after shard death"

        error = outcome.get("error")
        assert isinstance(error, ShardUnavailableError), outcome
        # The partial results cover exactly the surviving shard's slice.
        reports = {r["addr"]: r for r in error.shards}
        assert len(reports) == 2
        assert sum(1 for r in reports.values() if r["ok"]) == 1
        survivor_map = coordinator.server.partition_map
        dead_addr = next(a for a, r in reports.items() if not r["ok"])
        dead_pid = survivor_map.partition_of(dead_addr)
        live_ids = {
            i
            for i, pid in survivor_map.assignments.items()
            if pid != dead_pid
        }
        assert set(error.partial_identifiers) <= live_ids
        assert all(
            isinstance(i, int) for i in error.partial_identifiers
        )

    def test_coordinator_survives_and_stays_typed(self, env, cli_cluster):
        _, dataset, token = env
        procs, _, coordinator = cli_cluster
        client = ServiceClient("127.0.0.1", coordinator.port)
        client.upload(dataset)
        procs[0].kill()
        procs[0].wait(timeout=30)
        # Health degrades but answers; searches fail typed, repeatedly.
        health = client.health()
        assert health["status"] == "degraded"
        assert health["coordinator"] is True
        assert health["shards_healthy"] == 1
        for _ in range(2):
            with pytest.raises(ShardUnavailableError):
                client.search(token)
        # The surviving shard still answers through the coordinator.
        health = client.health()
        assert health["shards_healthy"] == 1


# ----------------------------------------------------------------------
# Wire corruption and BUSY storms (proxy shim)
# ----------------------------------------------------------------------
class TestProxyFaults:
    @pytest.fixture()
    def shards(self, env):
        scheme, _, _ = env
        handles = [_in_process_shard(scheme) for _ in range(2)]
        yield handles
        for handle in handles:
            handle.stop()

    def test_truncated_reply_frame_is_typed_shard_loss(self, env, shards):
        _, dataset, token = env
        proxy = FaultProxy(shards[1].port, mode="pass")
        coordinator = _coordinator_over([shards[0].port, proxy.port])
        try:
            client = ServiceClient("127.0.0.1", coordinator.port)
            client.upload(dataset)
            proxy.mode = "truncate"
            with pytest.raises(ShardUnavailableError) as excinfo:
                client.search(token)
            error = excinfo.value
            ok_flags = sorted(r["ok"] for r in error.shards)
            assert ok_flags == [False, True]
            # The healthy shard's matches still came back.
            healthy_ids = set(
                coordinator.server.partition_map.ids_on(
                    f"127.0.0.1:{shards[0].port}"
                )
            )
            assert set(error.partial_identifiers) <= healthy_ids
        finally:
            coordinator.stop()
            proxy.close()

    def test_truncated_batch_reply_is_typed_shard_loss(
        self, env, shards, batch
    ):
        _, dataset, _ = env
        proxy = FaultProxy(shards[1].port, mode="pass")
        coordinator = _coordinator_over([shards[0].port, proxy.port])
        try:
            client = ServiceClient("127.0.0.1", coordinator.port)
            client.upload(dataset)
            direct = ServiceClient("127.0.0.1", shards[0].port)
            healthy_matches = {
                i
                for response, _ in direct.search_batch(batch)
                for i in response.identifiers
            }
            proxy.mode = "truncate"
            with pytest.raises(ShardUnavailableError) as excinfo:
                client.search_batch(batch)
            error = excinfo.value
            assert sorted(r["ok"] for r in error.shards) == [False, True]
            healthy_ids = set(
                coordinator.server.partition_map.ids_on(
                    f"127.0.0.1:{shards[0].port}"
                )
            )
            # The partial union is exactly what the healthy shard matched
            # across the whole vector.
            assert set(error.partial_identifiers) <= healthy_ids
            assert set(error.partial_identifiers) == healthy_matches
        finally:
            coordinator.stop()
            proxy.close()

    def test_busy_storm_retries_only_the_busy_shard(self, env, shards):
        _, dataset, token = env
        proxy = FaultProxy(shards[1].port, mode="pass")
        coordinator = _coordinator_over([shards[0].port, proxy.port])
        try:
            client = ServiceClient("127.0.0.1", coordinator.port)
            client.upload(dataset)
            proxy.mode = "busy"
            proxy.busy_budget = 2
            proxy.connections = 0
            proxy.forwarded = 0
            snapshot = shards[0].server.metrics.snapshot()["verbs"]
            direct_before = (
                snapshot["search"]["requests"] if "search" in snapshot else 0
            )
            response, _ = client.search(token)
            # The stormed shard ate the whole busy budget plus one real
            # request; the healthy shard was asked exactly once.
            assert proxy.connections >= 3
            assert proxy.forwarded == 1
            direct_after = shards[0].server.metrics.snapshot()["verbs"][
                "search"
            ]["requests"]
            assert direct_after == direct_before + 1
            assert sorted(response.identifiers) == list(
                response.identifiers
            )
        finally:
            coordinator.stop()
            proxy.close()

    def test_busy_retried_upload_applies_once(self, env, shards):
        _, dataset, _ = env
        proxy = FaultProxy(shards[1].port, mode="busy", busy_budget=1)
        coordinator = _coordinator_over([shards[0].port, proxy.port])
        try:
            client = ServiceClient("127.0.0.1", coordinator.port)
            stored = client.upload(dataset)
            assert stored == len(dataset.records)
            counts = [s.server.cloud.record_count for s in shards]
            assert sum(counts) == len(dataset.records)
            # One logical upload per shard — the BUSY rejections never
            # reached the backend, so no double-apply was possible.
            assert [s.server.cloud.log.uploads for s in shards] == [1, 1]
        finally:
            coordinator.stop()
            proxy.close()

    def test_stats_mid_scrape_death_degrades_to_unreachable_marker(
        self, env
    ):
        """A shard dying mid-scrape must not fail the whole ``stats``
        aggregate: its report degrades to an ``unreachable`` marker and
        the survivors' sections still come back."""
        scheme, dataset, _ = env
        shards = [_in_process_shard(scheme) for _ in range(2)]
        coordinator = _coordinator_over(
            [s.port for s in shards], probe_timeout_s=2.0
        )
        try:
            client = ServiceClient("127.0.0.1", coordinator.port)
            client.upload(dataset)
            dead_addr = f"127.0.0.1:{shards[1].port}"
            shards[1].stop(drain=False)
            snapshot = client.stats()  # must degrade, never raise
            reports = {r["addr"]: r for r in snapshot["shards"]}
            assert reports[dead_addr]["ok"] is False
            assert reports[dead_addr]["unreachable"] is True
            assert "error" in reports[dead_addr]
            live_addr = f"127.0.0.1:{shards[0].port}"
            assert reports[live_addr]["ok"] is True
            assert "unreachable" not in reports[live_addr]
            assert snapshot["cluster"]["shards_reporting"] == 1
            # The aggregate still reflects the whole dataset: counts
            # come from the map, not from whoever answered the probe.
            assert snapshot["records"] == len(dataset.records)
        finally:
            coordinator.stop()
            shards[0].stop()

    def test_dropped_upload_ack_is_not_blindly_retried(self, env, shards):
        _, dataset, _ = env
        proxy = FaultProxy(shards[1].port, mode="drop_reply")
        coordinator = _coordinator_over([shards[0].port, proxy.port])
        try:
            client = ServiceClient("127.0.0.1", coordinator.port)
            with pytest.raises(ShardUnavailableError) as excinfo:
                client.upload(dataset)
            # The shard behind the proxy executed the request exactly
            # once (mid-request failures must not be replayed: the
            # server may have committed, and indeed it did).
            assert proxy.connections == 1
            assert shards[1].server.cloud.log.uploads == 1
            # The coordinator only recorded what was acked: the healthy
            # shard's sub-batch.
            acked = set(excinfo.value.partial_identifiers)
            map_ids = set(
                coordinator.server.partition_map.assignments
            )
            assert map_ids == acked
            assert (
                shards[0].server.cloud.record_count == len(acked)
            )
        finally:
            coordinator.stop()
            proxy.close()


# ----------------------------------------------------------------------
# Replication faults: stalls, failover, and re-replication convergence
# ----------------------------------------------------------------------
class TestReplicationFaults:
    @pytest.fixture()
    def replica_pair(self, env):
        """One partition at R=2: a proxied replica plus a direct sibling."""
        scheme, _, _ = env
        backends = [_in_process_shard(scheme) for _ in range(2)]
        proxy = FaultProxy(backends[0].port, mode="pass")
        coordinator = _coordinator_over(
            [proxy.port, backends[1].port],
            replication=2,
            shard_timeout_s=5.0,
        )
        yield backends, proxy, coordinator
        coordinator.stop()
        proxy.close()
        for backend in backends:
            backend.stop()

    @staticmethod
    def _steer_reads_to(coordinator, preferred_addr: str) -> None:
        """Bias replica selection so *preferred_addr* is tried first."""
        coord = coordinator.server
        with coord._state_lock:
            for addr in coord.partition_map.replicas("p0"):
                coord._loads[addr] = 0 if addr == preferred_addr else 100

    def test_stalled_replica_fails_over_within_deadline(
        self, env, replica_pair
    ):
        _, dataset, token = env
        backends, proxy, coordinator = replica_pair
        client = ServiceClient("127.0.0.1", coordinator.port)
        client.upload(dataset)
        reference, _ = client.search(token)
        proxy_addr = f"127.0.0.1:{proxy.port}"
        self._steer_reads_to(coordinator, proxy_addr)
        proxy.mode = "stall"
        contacted_before = proxy.connections
        started = time.monotonic()
        response, _ = client.search(token, deadline_ms=4000)
        elapsed = time.monotonic() - started
        # The stalled replica was genuinely attempted, the sibling
        # answered inside the original deadline, results are complete.
        assert proxy.connections > contacted_before
        assert elapsed < 4.0
        assert sorted(response.identifiers) == sorted(
            reference.identifiers
        )

    def test_stalled_replica_batch_fails_over_within_deadline(
        self, env, replica_pair, batch
    ):
        _, dataset, _ = env
        backends, proxy, coordinator = replica_pair
        client = ServiceClient("127.0.0.1", coordinator.port)
        client.upload(dataset)
        reference = [
            sorted(response.identifiers)
            for response, _ in client.search_batch(batch)
        ]
        assert reference[0] and reference[1] == []
        proxy_addr = f"127.0.0.1:{proxy.port}"
        self._steer_reads_to(coordinator, proxy_addr)
        proxy.mode = "stall"
        contacted_before = proxy.connections
        started = time.monotonic()
        results = client.search_batch(batch, deadline_ms=4000)
        elapsed = time.monotonic() - started
        # The stalled replica was attempted, the sibling answered inside
        # the original deadline, and every token kept its own result.
        assert proxy.connections > contacted_before
        assert elapsed < 4.0
        assert [
            sorted(response.identifiers) for response, _ in results
        ] == reference

    def test_delete_during_stall_marks_dirty_and_repair_converges(
        self, env, replica_pair
    ):
        _, dataset, _ = env
        backends, proxy, coordinator = replica_pair
        coord = coordinator.server
        client = ServiceClient("127.0.0.1", coordinator.port)
        client.upload(dataset)
        doomed = tuple(record.identifier for record in dataset.records[:4])
        kept = len(dataset.records) - len(doomed)
        proxy.mode = "stall"
        assert client.delete(doomed, deadline_ms=2500) == len(doomed)
        proxy_addr = f"127.0.0.1:{proxy.port}"
        # The sibling applied the delete; the stalled replica still holds
        # the rows and owes their removal.
        assert backends[1].server.cloud.record_count == kept
        assert backends[0].server.cloud.record_count == len(dataset.records)
        assert set(coord.partition_map.dirty_on(proxy_addr)) == set(doomed)
        proxy.mode = "pass"
        healed = coord.repair()
        assert healed == {proxy_addr: len(doomed)}
        assert not coord.partition_map.dirty_on(proxy_addr)
        assert backends[0].server.cloud.record_count == kept

    def test_upload_during_stall_marks_dirty_and_repair_converges(
        self, env, replica_pair
    ):
        _, dataset, _ = env
        backends, proxy, coordinator = replica_pair
        coord = coordinator.server
        client = ServiceClient("127.0.0.1", coordinator.port)
        proxy.mode = "stall"
        stored = client.upload(dataset, deadline_ms=2500)
        assert stored == len(dataset.records)
        proxy_addr = f"127.0.0.1:{proxy.port}"
        all_ids = {record.identifier for record in dataset.records}
        # The sibling committed; the stalled replica owes every row.
        assert backends[1].server.cloud.record_count == len(all_ids)
        assert backends[0].server.cloud.record_count == 0
        assert set(coord.partition_map.dirty_on(proxy_addr)) == all_ids
        # Un-stall and re-replicate: the replica converges and serves.
        proxy.mode = "pass"
        healed = coord.repair()
        assert healed == {proxy_addr: len(all_ids)}
        assert not coord.partition_map.dirty_on(proxy_addr)
        assert backends[0].server.cloud.record_count == len(all_ids)

    def test_forged_write_ack_is_audited_and_repaired(
        self, env, replica_pair
    ):
        _, dataset, token = env
        backends, proxy, coordinator = replica_pair
        coord = coordinator.server
        client = ServiceClient("127.0.0.1", coordinator.port)
        proxy.mode = "partial_write"
        stored = client.upload(dataset)
        assert stored == len(dataset.records)
        proxy_addr = f"127.0.0.1:{proxy.port}"
        # The forged ack left no trace in the map — and no rows in the
        # replica behind the proxy.
        assert not coord.partition_map.dirty_on(proxy_addr)
        assert backends[0].server.cloud.record_count == 0
        assert backends[1].server.cloud.record_count == len(
            dataset.records
        )
        proxy.mode = "pass"
        flagged = coord.audit_replicas()
        assert flagged == {proxy_addr: -len(dataset.records)}
        healed = coord.repair()
        assert healed == {proxy_addr: len(dataset.records)}
        assert backends[0].server.cloud.record_count == len(
            dataset.records
        )
        # The healed replica serves reads again, with full results —
        # reference comes from the sibling that always held the data.
        sibling_addr = f"127.0.0.1:{backends[1].port}"
        self._steer_reads_to(coordinator, sibling_addr)
        reference, _ = client.search(token)
        self._steer_reads_to(coordinator, proxy_addr)
        contacted_before = proxy.forwarded
        response, _ = client.search(token)
        assert proxy.forwarded > contacted_before
        assert sorted(response.identifiers) == sorted(
            reference.identifiers
        )
