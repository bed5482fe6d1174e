"""Durable service tests: replay equivalence with the in-memory server.

A :class:`ServiceServer` built over a :class:`RecordStore` must be
indistinguishable — in search results, in :class:`SearchStats`, and in
the paper's leakage log — from a twin server that never restarted.
These tests drive the request dispatcher directly (no TCP) with real
ciphertexts and a real single-worker engine, shut the durable server
down, rebuild it from the same data directory, and compare against the
twin after every combination of upload, delete, compaction, and replay.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import sys

import pytest

from repro.cloud.codec import encode_ciphertext, encode_token
from repro.cloud.messages import UploadDataset, UploadRecord
from repro.core.crse2 import CRSE2Scheme
from repro.core.geometry import Circle, DataSpace
from repro.core.provision import group_for_crse2
from repro.errors import StorageError
from repro.service import protocol
from repro.service.aio import AsyncServiceClient
from repro.service.engine import SearchEngine
from repro.service.harness import ServerThread
from repro.service.schemeio import scheme_header
from repro.service.server import ServiceConfig, ServiceServer
from repro.storage import RecordStore


@pytest.fixture(scope="module")
def env():
    rng = random.Random(0x570E)
    space = DataSpace(2, 32)
    scheme = CRSE2Scheme(space, group_for_crse2(space, "fast", rng))
    key = scheme.gen_key(rng)
    points = [(16, 16), (17, 17), (30, 2), (2, 30), (10, 10), (16, 18)]
    dataset = UploadDataset(
        records=tuple(
            UploadRecord(
                identifier=i,
                payload=encode_ciphertext(
                    scheme, scheme.encrypt(key, point, rng)
                ),
                content=f"record-{i}".encode(),
            )
            for i, point in enumerate(points)
        )
    )
    token_near = encode_token(
        scheme, scheme.gen_token(key, Circle.from_radius((16, 16), 3), rng)
    )
    token_wide = encode_token(
        scheme, scheme.gen_token(key, Circle.from_radius((16, 16), 9), rng)
    )
    return scheme, dataset, token_near, token_wide


def dispatch(server: ServiceServer, verb: str, fields: dict) -> dict:
    """Push one request through the server's dispatcher, no sockets."""
    request = protocol.Request(
        verb=verb, request_id=1, deadline_ms=None, fields=fields
    )
    return asyncio.run(server._dispatch(request))


def make_server(scheme, store=None) -> ServiceServer:
    return ServiceServer(
        scheme,
        config=ServiceConfig(workers=1),
        engine=SearchEngine(scheme, workers=1),
        store=store,
    )


def stop(server: ServiceServer) -> None:
    server.engine.close(wait=True)
    if server.store is not None:
        server.store.close()


def search_fields(token: bytes) -> dict:
    from repro.cloud.messages import SearchRequest

    return protocol.search_fields(SearchRequest(payload=token))


def leakage_view(server: ServiceServer) -> dict:
    log = server.cloud.log
    return {
        "uploads": log.uploads,
        "records_stored": log.records_stored,
        "token_sizes": list(log.token_sizes),
        "sub_token_counts": list(log.sub_token_counts),
        "access_pattern": list(log.access_pattern),
    }


class TestReplayEquivalence:
    def test_restart_matches_never_restarted_twin(self, env, tmp_path):
        scheme, dataset, token_near, token_wide = env

        # The twin: same requests, never restarted, no disk.
        twin = make_server(scheme)
        dispatch(twin, "upload", protocol.upload_fields(dataset))
        dispatch(twin, "delete", {"ids": [1, 5]})
        twin_near = dispatch(twin, "search", search_fields(token_near))

        # The durable server: same requests, then a rebuild from disk.
        store = RecordStore.create(tmp_path / "data", scheme_header(scheme))
        durable = make_server(scheme, store=store)
        dispatch(durable, "upload", protocol.upload_fields(dataset))
        dispatch(durable, "delete", {"ids": [1, 5]})
        stop(durable)  # fsynced state only; no graceful handoff needed

        reborn = make_server(
            scheme, store=RecordStore.open(tmp_path / "data")
        )
        reborn_near = dispatch(reborn, "search", search_fields(token_near))

        assert reborn_near["identifiers"] == twin_near["identifiers"]
        near_stats = reborn_near["stats"]
        twin_stats = twin_near["stats"]
        assert near_stats["records_scanned"] == twin_stats["records_scanned"]
        assert near_stats["matches"] == twin_stats["matches"]
        assert (
            near_stats["sub_token_evaluations"]
            == twin_stats["sub_token_evaluations"]
        )

        # Leakage-log parity: the restart is invisible to a curious
        # server's notebook.
        assert leakage_view(reborn) == leakage_view(twin)

        # Content fetch survives the restart too.
        fetched = dispatch(reborn, "fetch", {"ids": [0]})
        assert fetched["contents"] == [[0, "cmVjb3JkLTA="]]  # b64("record-0")
        stop(twin)
        stop(reborn)

    def test_delete_compact_replay_equivalence(self, env, tmp_path):
        scheme, dataset, token_near, token_wide = env

        twin = make_server(scheme)
        dispatch(twin, "upload", protocol.upload_fields(dataset))
        dispatch(twin, "delete", {"ids": [0, 2]})

        store = RecordStore.create(tmp_path / "data", scheme_header(scheme))
        durable = make_server(scheme, store=store)
        dispatch(durable, "upload", protocol.upload_fields(dataset))
        dispatch(durable, "delete", {"ids": [0, 2]})
        stop(durable)

        # Offline maintenance between the crash and the restart.
        with RecordStore.open(tmp_path / "data") as offline:
            assert offline.snapshot().dead_records == 2
            offline.compact()
            assert offline.snapshot().dead_records == 0

        reborn = make_server(
            scheme, store=RecordStore.open(tmp_path / "data")
        )
        for token in (token_near, token_wide):
            ours = dispatch(reborn, "search", search_fields(token))
            theirs = dispatch(twin, "search", search_fields(token))
            assert ours["identifiers"] == theirs["identifiers"]
            assert (
                ours["stats"]["records_scanned"]
                == theirs["stats"]["records_scanned"]
            )
        assert leakage_view(reborn) == leakage_view(twin)
        stop(twin)
        stop(reborn)

    def test_stats_verb_reflects_durable_state(self, env, tmp_path):
        scheme, dataset, _, _ = env
        store = RecordStore.create(tmp_path / "data", scheme_header(scheme))
        server = make_server(scheme, store=store)
        dispatch(server, "upload", protocol.upload_fields(dataset))
        dispatch(server, "delete", {"ids": [3]})

        snapshot = dispatch(server, "stats", {})
        assert snapshot["engine"]["record_count"] == 5
        assert snapshot["records"] == 5
        assert snapshot["store"]["live_records"] == 5
        assert snapshot["store"]["dead_records"] == 1
        assert snapshot["store"]["uploads"] == 1
        assert snapshot["store"]["deletes"] == 1
        assert snapshot["store"]["segments"] == 1
        assert snapshot["store"]["compactions"] == 0

        health = dispatch(server, "health", {})
        assert health["durable"] is True
        stop(server)

        # Without a store the snapshot omits the store section entirely.
        ephemeral = make_server(scheme)
        snapshot = dispatch(ephemeral, "stats", {})
        assert "store" not in snapshot
        assert dispatch(ephemeral, "health", {})["durable"] is False
        stop(ephemeral)

    def test_scheme_mismatch_store_refused(self, env, tmp_path):
        scheme, _, _, _ = env
        other_header = dict(scheme_header(scheme))
        other_header["space"] = {"w": 2, "t": 64}
        store = RecordStore.create(tmp_path / "other", other_header)
        try:
            with pytest.raises(StorageError, match="different scheme"):
                make_server(scheme, store=store)
        finally:
            store.close()

    def test_rejected_upload_never_reaches_the_log(self, env, tmp_path):
        scheme, dataset, _, _ = env
        store = RecordStore.create(tmp_path / "data", scheme_header(scheme))
        server = make_server(scheme, store=store)
        dispatch(server, "upload", protocol.upload_fields(dataset))

        # A duplicate batch is rejected by validation *before* the disk
        # write — the store must not grow a doomed batch.
        logged_before = server.store.snapshot().records_logged
        reply = asyncio.run(
            server._handle_request(
                protocol.Request(
                    verb="upload",
                    request_id=7,
                    deadline_ms=None,
                    fields=protocol.upload_fields(dataset),
                )
            )
        )
        assert b"duplicate" in reply
        assert server.store.snapshot().records_logged == logged_before
        stop(server)


class TestConcurrentWrites:
    def test_concurrent_uploads_and_deletes_are_all_acked(self, env, tmp_path):
        # Writes run on executor threads and each checkpoints the store's
        # MANIFEST; racing checkpoints once lost a reply (the loser's
        # os.replace raised outside the typed-error ladder).
        scheme, dataset, _, _ = env
        store = RecordStore.create(tmp_path / "data", scheme_header(scheme))
        server = make_server(scheme, store=store)
        uploads = [
            UploadDataset(
                records=(
                    dataclasses.replace(
                        dataset.records[i % len(dataset.records)],
                        identifier=100 + i,
                    ),
                )
            )
            for i in range(8)
        ]
        doomed = [record.identifier for record in dataset.records]

        async def scenario():
            async with AsyncServiceClient(
                "127.0.0.1", thread.port, timeout_s=20.0
            ) as client:
                await client.upload(dataset)
                acks = await asyncio.gather(
                    *(client.upload(batch) for batch in uploads),
                    *(client.delete((identifier,)) for identifier in doomed),
                )
                return acks, await client.health()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the executor threads
        try:
            with ServerThread(server) as thread:
                acks, health = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        stored, removed = acks[: len(uploads)], acks[len(uploads) :]
        assert all(1 <= count <= len(doomed) + len(uploads) for count in stored)
        assert removed == [1] * len(doomed)
        assert health["records"] == len(uploads)

        reborn = make_server(scheme, store=RecordStore.open(tmp_path / "data"))
        try:
            assert reborn.cloud.record_count == len(uploads)
            assert sorted(
                row[0] for row in reborn.store.scan_tagged()
            ) == list(range(100, 108))
        finally:
            stop(reborn)
