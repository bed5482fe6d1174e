"""Command-line interface: ``python -m repro <command>``.

A file-based workflow around the library, mirroring the paper's three-party
deployment for a user driving it from a shell:

* ``keygen``   — the data owner creates a CRSE-II key (JSON blob on disk);
* ``encrypt``  — encrypt a CSV of points into an uploadable records file;
* ``token``    — tokenize a circular query;
* ``search``   — the server side: scan a records file with a token;
* ``tables``   — print the paper's deterministic anchors (m values, sizes);
* ``calibrate``— time the group backends on this machine;
* ``demo``     — a self-contained end-to-end run;
* ``lint``     — run ``reprolint``, the crypto-aware static analyzer
  (:mod:`repro.analysis.staticcheck`);
* ``serve``    — run the networked query service (:mod:`repro.service`)
  over an encrypted records file, optionally durable via ``--data-dir``;
* ``coordinate`` — run the distributed front-end
  (:mod:`repro.service.coordinator`) over ``--shard host:port`` backends;
  it holds no key material, only the partition map;
* ``query``    — tokenize a circle client-side and search a running
  service over TCP (and/or upload a records file with ``--upload``);
  ``--via-coordinator`` first verifies the endpoint really is a
  coordinator and reports per-shard health;
* ``store``    — offline operations on a ``--data-dir`` record store:
  ``verify`` (read-only integrity check), ``compact`` (drop tombstoned
  records), ``stats`` (snapshot counters);
* ``integrity`` — verifiable-search operations: ``audit`` re-verifies a
  durable store's record tags against the owner's key and checks the
  manifest's accumulator checkpoint (``repro query --verify`` is the
  online counterpart).

Search only needs public parameters, but for CLI simplicity it reads the
key file and uses the public part — a real server would receive the scheme
parameters out of band and never the key.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from repro.cloud.codec import decode_ciphertext, decode_token, encode_ciphertext, encode_token
from repro.cloud.costmodel import PAPER_EC2_MODEL, measure_calibration
from repro.cloud.server import scan
from repro.core.base import EncryptedRecord
from repro.core.concircles import num_concentric_circles
from repro.core.crse2 import CRSE2Scheme
from repro.core.geometry import Circle, DataSpace
from repro.core.provision import group_for_crse2, provision_group
from repro.core.split import naive_alpha, optimized_alpha
from repro.crypto.keystore import load_crse2_key, save_crse2_key
from repro.crypto.serialize import ElementSizeModel
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Circular range search on encrypted spatial data "
        "(ICDCS 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate a CRSE-II key")
    keygen.add_argument("--size", type=int, default=1024, help="dimension size T")
    keygen.add_argument("--dims", type=int, default=2, help="dimensions w")
    keygen.add_argument(
        "--backend", choices=("fast", "pairing"), default="fast"
    )
    keygen.add_argument("--seed", type=int, default=None)
    keygen.add_argument("--out", type=Path, required=True)

    encrypt = sub.add_parser("encrypt", help="encrypt a CSV of points")
    encrypt.add_argument("--key", type=Path, required=True)
    encrypt.add_argument(
        "--points", type=Path, required=True, help="CSV: one 'x,y' per line"
    )
    encrypt.add_argument("--seed", type=int, default=None)
    encrypt.add_argument("--out", type=Path, required=True)

    token = sub.add_parser("token", help="tokenize a circular query")
    token.add_argument("--key", type=Path, required=True)
    token.add_argument(
        "--center", required=True, help="query center, e.g. '100,200'"
    )
    token.add_argument("--radius", type=int, required=True)
    token.add_argument(
        "--hide-to", type=int, default=None, help="dummy-pad to K sub-tokens"
    )
    token.add_argument("--seed", type=int, default=None)
    token.add_argument("--out", type=Path, required=True)

    search = sub.add_parser("search", help="scan records with a token")
    search.add_argument("--key", type=Path, required=True)
    search.add_argument("--records", type=Path, required=True)
    search.add_argument("--token", type=Path, required=True)

    sub.add_parser("tables", help="print the paper's deterministic anchors")

    calibrate = sub.add_parser("calibrate", help="time the backends")
    calibrate.add_argument(
        "--backend", choices=("fast", "pairing", "both"), default="both"
    )

    demo = sub.add_parser("demo", help="self-contained end-to-end run")
    demo.add_argument("--seed", type=int, default=7)

    lint = sub.add_parser(
        "lint", help="run the reprolint crypto-aware static analyzer"
    )
    lint.add_argument(
        "paths", nargs="*", type=Path, help="files/dirs (default: src/repro)"
    )
    lint.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human"
    )
    lint.add_argument("--baseline", type=Path, default=None)
    lint.add_argument("--no-baseline", action="store_true")
    lint.add_argument("--write-baseline", action="store_true")
    lint.add_argument("--select", default=None, metavar="RULES")
    lint.add_argument("--root", type=Path, default=None)
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument(
        "--flow", action="store_true",
        help="also run the project-wide taint/concurrency tier "
        "(CRS008-CRS011)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="also fail on stale baseline entries",
    )

    serve = sub.add_parser(
        "serve", help="run the networked query service (TCP)"
    )
    serve.add_argument("--key", type=Path, required=True)
    serve.add_argument(
        "--records", type=Path, default=None,
        help="records file from 'repro encrypt' to preload",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--port-file", type=Path, default=None,
        help="write the bound port here once listening",
    )
    serve.add_argument("--workers", type=int, default=None,
                       help="search worker processes (default: CPU count)")
    serve.add_argument("--max-pending", type=int, default=32)
    serve.add_argument("--default-deadline-ms", type=float, default=None)
    serve.add_argument(
        "--data-dir", type=Path, default=None,
        help="durable record store directory (created if absent); uploads "
        "and deletes are logged here and replayed on restart",
    )

    coordinate = sub.add_parser(
        "coordinate",
        help="run the distributed front-end over backend shards",
    )
    coordinate.add_argument(
        "--shard", action="append", required=True, metavar="HOST:PORT",
        help="backend shard address (repeat for each shard)",
    )
    coordinate.add_argument("--host", default="127.0.0.1")
    coordinate.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    coordinate.add_argument(
        "--port-file", type=Path, default=None,
        help="write the bound port here once listening",
    )
    coordinate.add_argument("--max-pending", type=int, default=32)
    coordinate.add_argument("--default-deadline-ms", type=float, default=None)
    coordinate.add_argument(
        "--shard-timeout-s", type=float, default=30.0,
        help="socket timeout for each backend call",
    )
    coordinate.add_argument(
        "--replication", type=int, default=1, metavar="R",
        help="copies of every partition; consecutive groups of R shards "
        "from the --shard list form one partition's replica set, so the "
        "shard count must be a multiple of R",
    )
    coordinate.add_argument(
        "--repair-interval-s", type=float, default=5.0, metavar="SECONDS",
        help="re-replicate dirty replicas every SECONDS while serving "
        "(0 disables background repair)",
    )
    coordinate.add_argument(
        "--data-dir", type=Path, default=None,
        help="directory for the persisted partition map (created if "
        "absent); a restarted coordinator reloads it and migrates records "
        "off shards that left the configured set",
    )
    coordinate.add_argument(
        "--rebalance", action="store_true",
        help="even out per-shard record counts before serving",
    )

    query = sub.add_parser(
        "query", help="search a running service over TCP"
    )
    query.add_argument("--key", type=Path, required=True)
    query.add_argument("--center", default=None,
                       help="query center, e.g. '100,200'")
    query.add_argument("--radius", type=int, default=None)
    query.add_argument(
        "--upload", type=Path, default=None,
        help="records file from 'repro encrypt' to upload before querying",
    )
    query.add_argument("--hide-to", type=int, default=None)
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, required=True)
    query.add_argument("--deadline-ms", type=float, default=None)
    query.add_argument("--timeout-s", type=float, default=30.0)
    query.add_argument("--seed", type=int, default=None)
    query.add_argument(
        "--stats", action="store_true",
        help="also print the server's metrics snapshot",
    )
    query.add_argument(
        "--via-coordinator", action="store_true",
        help="require the endpoint to be a coordinator and report "
        "per-shard health before querying",
    )
    query.add_argument(
        "--verify", action="store_true",
        help="demand per-record tags and a completeness proof with the "
        "reply and verify them client-side; any tamper exits non-zero",
    )
    query.add_argument(
        "--integrity-state", type=Path, default=None, metavar="PATH",
        help="JSON file tracking the client's expected accumulator state "
        "across invocations; updated on upload, checked on --verify",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="replay a generated query stream against a running service "
        "and report sustained QPS and latency percentiles",
    )
    loadtest.add_argument("--key", type=Path, required=True)
    loadtest.add_argument("--host", default="127.0.0.1")
    loadtest.add_argument("--port", type=int, required=True)
    loadtest.add_argument(
        "--queries", type=int, default=100,
        help="number of queries in the generated stream (default 100)",
    )
    loadtest.add_argument(
        "--mode", choices=("closed", "open", "sweep"), default="closed",
        help="closed: fixed concurrency; open: fixed arrival rate; "
        "sweep: closed loop at increasing concurrency levels",
    )
    loadtest.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop worker count (default 8)",
    )
    loadtest.add_argument(
        "--rate", type=float, default=100.0,
        help="open-loop arrival rate in queries/s (default 100)",
    )
    loadtest.add_argument(
        "--batch", type=int, default=1,
        help="queries per search_batch round trip in closed mode "
        "(default 1: plain multiplexed searches)",
    )
    loadtest.add_argument(
        "--levels", default="1,2,4,8,16",
        help="comma-separated concurrency levels for --mode sweep",
    )
    loadtest.add_argument(
        "--upload", type=Path, default=None,
        help="records file from 'repro encrypt' to upload before the run",
    )
    loadtest.add_argument("--max-radius", type=int, default=4)
    loadtest.add_argument("--hide-to", type=int, default=None)
    loadtest.add_argument("--deadline-ms", type=float, default=None)
    loadtest.add_argument(
        "--max-in-flight", type=int, default=64,
        help="client-side cap on outstanding requests (default 64)",
    )
    loadtest.add_argument("--timeout-s", type=float, default=30.0)
    loadtest.add_argument("--seed", type=int, default=None)

    integrity = sub.add_parser(
        "integrity", help="verifiable-search operations"
    )
    integrity_sub = integrity.add_subparsers(
        dest="integrity_command", required=True
    )
    integrity_audit = integrity_sub.add_parser(
        "audit",
        help="offline re-verification of a durable store's record tags "
        "and accumulator checkpoint",
    )
    integrity_audit.add_argument("--key", type=Path, required=True)
    integrity_audit.add_argument("--data-dir", type=Path, required=True)
    integrity_audit.add_argument(
        "--format", choices=("human", "json"), default="human"
    )

    store = sub.add_parser(
        "store", help="offline operations on a durable record store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify", help="read-only integrity check of a store directory"
    )
    store_verify.add_argument("--data-dir", type=Path, required=True)
    store_verify.add_argument(
        "--format", choices=("human", "json"), default="human"
    )
    store_compact = store_sub.add_parser(
        "compact", help="rewrite live records, dropping tombstoned ones"
    )
    store_compact.add_argument("--data-dir", type=Path, required=True)
    store_stats = store_sub.add_parser(
        "stats", help="print a store's snapshot counters as JSON"
    )
    store_stats.add_argument("--data-dir", type=Path, required=True)
    return parser


def _rng(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.Random()


def _parse_point(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.strip().split(","))


def _cmd_keygen(args, out) -> int:
    rng = _rng(args.seed)
    space = DataSpace(w=args.dims, t=args.size)
    scheme = CRSE2Scheme(space, group_for_crse2(space, args.backend, rng))
    key = scheme.gen_key(rng)
    args.out.write_bytes(save_crse2_key(scheme, key))
    print(
        f"wrote CRSE-II key for Δ^{args.dims}_{args.size} "
        f"({args.backend} backend) to {args.out}",
        file=out,
    )
    return 0


def _cmd_encrypt(args, out) -> int:
    scheme, key = load_crse2_key(args.key.read_bytes())
    rng = _rng(args.seed)
    lines = [
        line for line in args.points.read_text().splitlines() if line.strip()
    ]
    with args.out.open("w") as sink:
        for identifier, line in enumerate(lines):
            point = _parse_point(line)
            blob = encode_ciphertext(
                scheme, scheme.encrypt(key, point, rng)
            )
            sink.write(f"{identifier}:{blob.hex()}\n")
    print(f"encrypted {len(lines)} records to {args.out}", file=out)
    return 0


def _cmd_token(args, out) -> int:
    scheme, key = load_crse2_key(args.key.read_bytes())
    rng = _rng(args.seed)
    circle = Circle.from_radius(_parse_point(args.center), args.radius)
    token = scheme.gen_token(key, circle, rng, hide_radius_to=args.hide_to)
    blob = encode_token(scheme, token)
    args.out.write_bytes(blob)
    print(
        f"wrote token ({token.num_sub_tokens} sub-tokens, "
        f"{len(blob)} bytes) to {args.out}",
        file=out,
    )
    return 0


def _cmd_search(args, out) -> int:
    scheme, _key = load_crse2_key(args.key.read_bytes())
    token = decode_token(scheme, args.token.read_bytes())
    records = [
        EncryptedRecord(identifier, decode_ciphertext(scheme, blob))
        for identifier, blob in _read_records_file(args.records)
    ]
    matches, _stats = scan(scheme, token, records)
    print(f"matches: {matches}", file=out)
    return 0


def _cmd_tables(args, out) -> int:
    model = ElementSizeModel.paper()
    print("m(R) for w = 2 (Fig. 9 anchors):", file=out)
    for radius in (1, 2, 3, 5, 10, 20, 50):
        print(f"  R = {radius:>2}: m = {num_concentric_circles(radius * radius)}", file=out)
    print("\nCRSE-I object sizes at 512-bit field (Table II):", file=out)
    for radius in (1, 2, 3):
        m = num_concentric_circles(radius * radius)
        naive_kb = model.ssw_object_bytes(naive_alpha(2, m)) / 1000
        opt_kb = model.ssw_object_bytes(optimized_alpha(2, m)) / 1000
        print(
            f"  R = {radius}: naive {naive_kb:.2f} KB, optimized {opt_kb:.2f} KB",
            file=out,
        )
    print(
        f"\nCRSE-II: ciphertext {model.crse2_ciphertext_bytes()} B (Fig. 13); "
        f"token at R = 10: {model.crse2_token_bytes(44) / 1000:.2f} KB (Fig. 14)",
        file=out,
    )
    return 0


def _cmd_calibrate(args, out) -> int:
    rng = random.Random(0xCA11)
    backends = (
        ["fast", "pairing"] if args.backend == "both" else [args.backend]
    )
    print(
        f"paper reference: {PAPER_EC2_MODEL.pairing_ms} ms/pairing "
        "(PBC on EC2 medium)",
        file=out,
    )
    for backend in backends:
        group = provision_group(10**6, backend, rng, noise_bits=16)
        model = measure_calibration(group, repetitions=10)
        print(
            f"{model.label}: pairing {model.pairing_ms:.3f} ms, "
            f"exp {model.exponentiation_ms:.3f} ms, "
            f"mult {model.multiplication_ms:.4f} ms",
            file=out,
        )
    return 0


def _cmd_demo(args, out) -> int:
    from repro.cloud.deployment import CloudDeployment

    rng = _rng(args.seed)
    space = DataSpace(w=2, t=256)
    scheme = CRSE2Scheme(space, group_for_crse2(space, "fast", rng))
    cloud = CloudDeployment.create(scheme, rng=rng)
    points = [(50, 50), (52, 51), (200, 10)]
    cloud.outsource(points)
    hits = cloud.query_points(Circle.from_radius((51, 51), 5))
    print(f"outsourced {points}; query circle (51,51) R=5 → {sorted(hits)}", file=out)
    return 0


def _read_records_file(path: Path) -> list[tuple[int, bytes]]:
    """Parse the ``identifier:hex`` lines written by ``repro encrypt``."""
    records = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        identifier, hex_blob = line.split(":", 1)
        records.append((int(identifier), bytes.fromhex(hex_blob)))
    return records


def _tagged_dataset(tag_keys, records):
    """An upload of ``(identifier, payload)`` *records* carrying the
    integrity tags an owner upload mints, so ``--verify`` queries stay
    answerable."""
    from repro.cloud.messages import UploadDataset, UploadRecord
    from repro.integrity import membership_tag, record_tag

    return UploadDataset(
        records=tuple(
            UploadRecord(
                identifier=i,
                payload=blob,
                tag=record_tag(tag_keys, i, blob),
                mtag=membership_tag(tag_keys, i),
            )
            for i, blob in records
        )
    )


def _cmd_serve(args, out) -> int:
    import asyncio
    import os

    from repro.integrity import TagKeys
    from repro.service import ServiceConfig, ServiceServer
    from repro.service.schemeio import scheme_header

    scheme, key = load_crse2_key(args.key.read_bytes())
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=workers,
        max_pending=args.max_pending,
        default_deadline_ms=args.default_deadline_ms,
    )
    store = None
    if args.data_dir is not None:
        from repro.storage import RecordStore

        store = RecordStore.open_or_create(
            args.data_dir, scheme_header(scheme)
        )
    server = ServiceServer(scheme, config, store=store)
    if store is not None:
        print(
            f"replayed {store.record_count} records from {args.data_dir}",
            file=out,
        )
    if args.records is not None:
        if store is not None and store.record_count > 0:
            # The store is authoritative once populated: silently merging
            # a records file into replayed state invites duplicate-id
            # surprises, so seed only an empty store.
            print(
                f"store is non-empty; ignoring --records {args.records}",
                file=out,
            )
        else:
            # The serve CLI already holds the owner's key file, so the
            # preload path mints the same integrity tags an owner upload
            # would.
            records = _read_records_file(args.records)
            server.ingest(_tagged_dataset(TagKeys.derive(scheme, key), records))
            print(f"preloaded {len(records)} records", file=out)

    async def main() -> None:
        port = await server.start()
        if args.port_file is not None:
            # Keep file IO off the loop even here: the server is already
            # accepting connections by the time the port file appears.
            await asyncio.to_thread(args.port_file.write_text, str(port))
        print(
            f"serving on {args.host}:{port} (workers={workers}, "
            f"max_pending={args.max_pending})",
            file=out, flush=True,
        )
        await server.run()

    asyncio.run(main())
    print("drained, bye", file=out, flush=True)
    return 0


def _cmd_coordinate(args, out) -> int:
    import asyncio

    from repro.service import Coordinator, CoordinatorConfig

    config = CoordinatorConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        default_deadline_ms=args.default_deadline_ms,
        shard_timeout_s=args.shard_timeout_s,
        replication=args.replication,
        repair_interval_s=args.repair_interval_s or None,
    )
    coordinator = Coordinator(args.shard, config, data_dir=args.data_dir)
    if coordinator.needs_reconcile:
        moved = coordinator.reconcile_membership()
        print(
            f"migrated {sum(moved.values())} record(s) off departed "
            f"partition(s): {', '.join(sorted(moved))}",
            file=out,
        )
    repaired = coordinator.repair()
    if repaired:
        print(
            f"re-replicated {sum(repaired.values())} record(s) onto "
            f"{len(repaired)} stale replica(s)",
            file=out,
        )
    if args.rebalance:
        moved = coordinator.rebalance()
        print(f"rebalanced {moved} record(s)", file=out)

    async def main() -> None:
        port = await coordinator.start()
        if args.port_file is not None:
            await asyncio.to_thread(args.port_file.write_text, str(port))
        print(
            f"coordinating {len(coordinator.shards)} shard(s) on "
            f"{args.host}:{port} "
            f"(replication x{coordinator.replication}, "
            f"{coordinator.partition_map.record_count} records mapped)",
            file=out, flush=True,
        )
        await coordinator.run()

    asyncio.run(main())
    print("drained, bye", file=out, flush=True)
    return 0


def _cmd_query(args, out) -> int:
    import json as _json

    from repro.errors import ParameterError, ShardUnavailableError
    from repro.integrity import IntegrityState, ResultVerifier, TagKeys
    from repro.service import ServiceClient

    wants_search = args.center is not None or args.radius is not None
    if wants_search and (args.center is None or args.radius is None):
        raise ParameterError("--center and --radius go together")
    if not wants_search and args.upload is None:
        raise ParameterError(
            "nothing to do: give --center/--radius, --upload, or both"
        )
    if args.verify and not wants_search:
        raise ParameterError("--verify needs --center/--radius")

    scheme, key = load_crse2_key(args.key.read_bytes())
    tag_keys = TagKeys.derive(scheme, key)
    state = None
    if args.integrity_state is not None and args.integrity_state.exists():
        state = IntegrityState.from_dict(
            _json.loads(args.integrity_state.read_text("utf-8"))
        )
    rng = _rng(args.seed)
    client = ServiceClient(args.host, args.port, timeout_s=args.timeout_s)
    if args.via_coordinator:
        health = client.health()
        if not health.get("coordinator"):
            raise ParameterError(
                f"{args.host}:{args.port} is not a coordinator "
                "(plain servers do not advertise the shards capability)"
            )
        print(
            f"coordinator {health.get('status')}: "
            f"{health.get('shards_healthy')}/{health.get('shards_total')} "
            f"shard(s) healthy, {health.get('records')} records",
            file=out,
        )
    if args.upload is not None:
        records = _read_records_file(args.upload)
        stored = client.upload(_tagged_dataset(tag_keys, records))
        print(
            f"uploaded {len(records)} records ({stored} now stored)",
            file=out,
        )
        if args.integrity_state is not None:
            if state is None:
                state = IntegrityState()
            state.note_upload(tag_keys, (i for i, _ in records))
            args.integrity_state.write_text(
                _json.dumps(state.to_dict()), "utf-8"
            )
    if wants_search:
        circle = Circle.from_radius(_parse_point(args.center), args.radius)
        token = scheme.gen_token(
            key, circle, rng, hide_radius_to=args.hide_to
        )
        token_payload = encode_token(scheme, token)
        try:
            if args.verify:
                response, stats, section = client.search_verified(
                    token_payload, deadline_ms=args.deadline_ms
                )
            else:
                response, stats = client.search(
                    token_payload, deadline_ms=args.deadline_ms
                )
        except ShardUnavailableError as exc:
            # Degraded, not silent: show what the reachable shards could
            # attest to, then fail with the typed error.
            print(
                f"partial matches: {sorted(exc.partial_identifiers)} "
                f"(from {sum(1 for r in exc.shards if r.get('ok'))} of "
                f"{len(exc.shards)} shards)",
                file=out, flush=True,
            )
            raise
        print(f"matches: {sorted(response.identifiers)}", file=out)
        if args.verify:
            report = ResultVerifier(tag_keys).verify(
                token_payload, response.identifiers, section, state=state
            )
            line = (
                f"verified: {report.records} match(es) attested across "
                f"{report.shards} shard proof(s)"
            )
            if report.state_checked:
                line += "; aggregate state checked"
            print(line, file=out)
        if stats:
            print(
                f"scanned {stats.get('records_scanned')} records in "
                f"{stats.get('elapsed_ms')} ms across "
                f"{len(stats.get('partitions', []))} partition(s)",
                file=out,
            )
    if args.stats:
        print(_json.dumps(client.stats(), indent=2), file=out)
    return 0


def _cmd_store(args, out) -> int:
    import json as _json

    from repro.storage import RecordStore, verify_store

    if args.store_command == "verify":
        report = verify_store(args.data_dir)
        if args.format == "json":
            print(_json.dumps(report, indent=2), file=out)
        else:
            for seg in report["segments"]:
                line = (
                    f"  {seg['name']}: {seg['status']} "
                    f"({seg['frames']} frames, {seg['bytes']} bytes)"
                )
                if seg["detail"]:
                    line += f" — {seg['detail']}"
                print(line, file=out)
            for warning in report["warnings"]:
                print(f"warning: {warning}", file=out)
            for error in report["errors"]:
                print(f"error: {error}", file=out)
            verdict = "clean" if report["clean"] else (
                "damaged" if report["errors"] else "recoverable"
            )
            print(f"store at {report['directory']}: {verdict}", file=out)
        return 1 if report["errors"] else 0
    if args.store_command == "compact":
        with RecordStore.open(args.data_dir) as store:
            before = store.snapshot()
            after = store.compact()
        print(
            f"compacted {args.data_dir}: {before.log_bytes} → "
            f"{after.log_bytes} bytes, dropped {before.dead_records} dead "
            f"record(s), {after.live_records} live",
            file=out,
        )
        return 0
    # stats: opening the store runs recovery and one full replay, which
    # is exactly what the counters describe.
    with RecordStore.open(args.data_dir) as store:
        print(_json.dumps(store.snapshot().to_dict(), indent=2), file=out)
    return 0


def _cmd_integrity(args, out) -> int:
    import hmac as _hmac
    import json as _json

    from repro.integrity import (
        EMPTY_ROOT,
        TagKeys,
        membership_tag,
        payload_digest,
        verify_record_tag,
        xor_fold,
    )
    from repro.storage import RecordStore

    scheme, key = load_crse2_key(args.key.read_bytes())
    tag_keys = TagKeys.derive(scheme, key)
    with RecordStore.open(args.data_dir) as store:
        checkpoint = store.integrity_checkpoint
        rows = list(store.scan_tagged())

    untagged: list[int] = []
    bad: list[int] = []
    root = EMPTY_ROOT
    for identifier, payload, _content, tag, mtag in rows:
        if not tag or not mtag:
            untagged.append(identifier)
            continue
        ok = verify_record_tag(
            tag_keys, identifier, payload_digest(payload), tag
        ) and _hmac.compare_digest(mtag, membership_tag(tag_keys, identifier))
        if not ok:
            bad.append(identifier)
            continue
        root = xor_fold((root, mtag))

    checkpoint_match = None
    if checkpoint is not None:
        checkpoint_match = (
            not untagged
            and not bad
            and checkpoint.get("root") == root.hex()
            and checkpoint.get("count") == len(rows)
        )
    report = {
        "directory": str(args.data_dir),
        "records": len(rows),
        "tagged": len(rows) - len(untagged),
        "untagged": sorted(untagged),
        "bad": sorted(bad),
        "root": root.hex(),
        "checkpoint": checkpoint,
        "checkpoint_match": checkpoint_match,
        "clean": not untagged and not bad and checkpoint_match is not False,
    }
    if args.format == "json":
        print(_json.dumps(report, indent=2), file=out)
    else:
        print(
            f"audited {report['records']} record(s): "
            f"{report['tagged']} tagged, {len(bad)} bad tag(s), "
            f"{len(untagged)} untagged",
            file=out,
        )
        for identifier in report["bad"]:
            print(
                f"error: record {identifier} fails tag verification "
                "(altered ciphertext or forged tag)",
                file=out,
            )
        if checkpoint is None:
            print("no accumulator checkpoint in the manifest", file=out)
        else:
            verdict = "matches" if checkpoint_match else "DOES NOT match"
            print(
                f"accumulator checkpoint {verdict} the recomputed root",
                file=out,
            )
        print(
            f"store at {args.data_dir}: "
            f"{'clean' if report['clean'] else 'tampered'}",
            file=out,
        )
    return 0 if report["clean"] else 1


def _cmd_lint(args, out) -> int:
    from repro.analysis.staticcheck.cli import _print_rule_table, run_lint

    if args.list_rules:
        _print_rule_table(out)
        return 0
    return run_lint(
        args.paths,
        output_format=args.format,
        baseline=args.baseline,
        no_baseline=args.no_baseline,
        write_baseline_file=args.write_baseline,
        select=args.select,
        root=args.root,
        flow=args.flow,
        strict=args.strict,
        out=out,
    )


def _cmd_loadtest(args, out) -> int:
    import asyncio

    from repro.datasets.workload import generate_query_stream
    from repro.errors import ParameterError
    from repro.loadgen import (
        render_report,
        render_sweep,
        run_closed_loop,
        run_open_loop,
        saturation_sweep,
        tokens_for_queries,
    )
    from repro.service import AsyncServiceClient, ServiceClient

    if args.queries < 1:
        raise ParameterError("--queries must be at least 1")
    scheme, key = load_crse2_key(args.key.read_bytes())
    rng = _rng(args.seed)
    queries = generate_query_stream(
        scheme.space, args.queries, rng, max_radius=args.max_radius
    )
    payloads = tokens_for_queries(
        scheme, key, queries, rng, hide_radius_to=args.hide_to
    )
    if args.upload is not None:
        from repro.cloud.messages import UploadDataset, UploadRecord

        records = _read_records_file(args.upload)
        with ServiceClient(
            args.host, args.port, timeout_s=args.timeout_s
        ) as uploader:
            stored = uploader.upload(
                UploadDataset(
                    records=tuple(
                        UploadRecord(identifier=i, payload=blob)
                        for i, blob in records
                    )
                )
            )
        print(
            f"uploaded {len(records)} records ({stored} now stored)",
            file=out,
        )
    print(
        f"loadtest: {len(payloads)} queries against "
        f"{args.host}:{args.port} (mode={args.mode})",
        file=out,
    )

    async def main():
        async with AsyncServiceClient(
            args.host,
            args.port,
            timeout_s=args.timeout_s,
            max_in_flight=args.max_in_flight,
        ) as client:
            if args.mode == "sweep":
                levels = [
                    int(level) for level in args.levels.split(",") if level
                ]
                return await saturation_sweep(
                    client,
                    payloads,
                    concurrency_levels=levels,
                    deadline_ms=args.deadline_ms,
                    batch=args.batch,
                )
            if args.mode == "open":
                return await run_open_loop(
                    client,
                    payloads,
                    rate_qps=args.rate,
                    deadline_ms=args.deadline_ms,
                )
            return await run_closed_loop(
                client,
                payloads,
                concurrency=args.concurrency,
                deadline_ms=args.deadline_ms,
                batch=args.batch,
            )

    outcome = asyncio.run(main())
    if args.mode == "sweep":
        print(render_sweep(outcome), file=out)
        return 0 if all(r.ok == r.requested for r in outcome) else 1
    print(render_report(outcome), file=out)
    return 0 if outcome.ok == outcome.requested else 1


_COMMANDS = {
    "keygen": _cmd_keygen,
    "encrypt": _cmd_encrypt,
    "token": _cmd_token,
    "search": _cmd_search,
    "tables": _cmd_tables,
    "calibrate": _cmd_calibrate,
    "demo": _cmd_demo,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "coordinate": _cmd_coordinate,
    "query": _cmd_query,
    "loadtest": _cmd_loadtest,
    "store": _cmd_store,
    "integrity": _cmd_integrity,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
