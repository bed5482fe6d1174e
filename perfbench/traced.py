"""The traced run: per-layer metrics from spans around each layer.

The servers run in-process (:class:`~repro.service.harness.ServerThread`,
or a :class:`~repro.service.harness.ReplicatedCluster`) so the wrappers
of :mod:`perfbench.tracing` see the parent-side calls.  Engine workers
are forked children whose spans would be lost, so their work is replayed
in this process: the same token and ciphertext bytes through
``decode_token`` -> ``matches_with_stats`` -> ``ssw_query`` ->
``multi_pair``.  The replay must scan the records and evaluate the
sub-tokens the reply stats report, and its per-record Miller loops and
final exponentiations must equal :mod:`repro.analysis.opcount`.

Order of a run: seed the data directories; start untraced and time one
pass of singleton searches with one request in flight (the baseline for
the tracing overhead and the workload-shape guards); then start again
with the wrappers live and run every operation type, one request at a
time; finally replay the worker side.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import statistics
from pathlib import Path

import repro.cloud.server as cloud_server
import repro.core.crse2 as crse2
import repro.service.engine as engine
import repro.service.server as service_server
from repro.analysis.opcount import crse2_search_record_ops
from repro.core.crse2 import CRSE2Scheme
from repro.integrity import ShardIntegrity
from repro.service import (
    AsyncServiceClient,
    Coordinator,
    CoordinatorConfig,
    FramedServer,
    ReplicatedCluster,
    SearchEngine,
    ServerThread,
    ServiceConfig,
    ServiceServer,
    protocol,
)
from repro.service.coordinator import PartitionMap
from repro.service.schemeio import restore_scheme, scheme_header
from repro.storage import RecordStore

from perfbench.load import Ledger, Loader
from perfbench.service import backend_ports, no_retry
from perfbench.tracing import Patches, Tracer, register_fork_guard, self_times_ms
from perfbench.workloads import WORKERS, Inputs

#: Workload-shape guard: the least share of client search latency the
#: worker scan must take, with one request in flight.  With two, each
#: request also queues behind the other's scan on the one worker, which
#: halves the share without any change in what dominates.
MIN_SCAN_SHARE = {"scan-pairing": 0.85}
#: Exact fan-out of each verb through the coordinator (one replica per
#: partition for reads, every replica of one partition for writes).
CLUSTER_CALLS = {"search": 2.0, "upload": 2.0}


class GuardError(RuntimeError):
    """The workload stopped exercising the layer it exists for."""


# ----------------------------------------------------------------------
# In-process topology
# ----------------------------------------------------------------------
class InProcess:
    """The workload's servers on threads of this process."""

    def __init__(self, inputs: Inputs, work: Path):
        self.workload = inputs.workload
        self.work = work
        # Servers hold only the public scheme, rebuilt from its header as
        # ``repro serve`` rebuilds it from the key file.
        self.scheme = restore_scheme(scheme_header(inputs.scheme))
        self.backend_ports = backend_ports(self.workload)
        self._thread: ServerThread | None = None
        self._cluster: ReplicatedCluster | None = None
        self.port: int | None = None

    def _backend(self, index: int) -> ServiceServer:
        store = RecordStore.open_or_create(
            self.work / f"store{index}", scheme_header(self.scheme)
        )
        return ServiceServer(
            self.scheme,
            ServiceConfig(port=self.backend_ports[index],
                          workers=WORKERS),
            store=store,
        )

    def start(self) -> int:
        """Start every server; return the client-facing port."""
        if not self.workload.clustered:
            self._thread = ServerThread(self._backend(0))
            self.port = self._thread.start()
            self.backend_ports = [self.port]
            return self.port
        indices = iter(range(len(self.backend_ports)))
        self._cluster = ReplicatedCluster(
            lambda: self._backend(next(indices)),
            partitions=self.workload.partitions,
            replication=self.workload.replication,
            coordinator_config=CoordinatorConfig(),
            data_dir=self.work / "coordinator",
        )
        self.port = self._cluster.start()
        return self.port

    def stop(self) -> None:
        """Drain and stop every server (engine workers included)."""
        if self._thread is not None:
            self._thread.stop()
            self._thread = None
            self.backend_ports = [0]
        if self._cluster is not None:
            self._cluster.stop()
            self._cluster = None

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        """``(role, port)`` of every running server."""
        roles = [("backend", port) for port in self.backend_ports]
        if self.workload.clustered:
            roles.append(("coordinator", self.port))
        return roles


def _client(port: int, lanes: int = 1) -> AsyncServiceClient:
    return AsyncServiceClient(
        "127.0.0.1", port, retry=no_retry(), max_in_flight=lanes,
        timeout_s=60.0,
    )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _handle_name(args):
    server, request = args[0], args[1]
    kind = "coordinator" if isinstance(server, Coordinator) else "server"
    return f"{kind}.handle", {"verb": request.verb}


def _listed(args):
    return (args[0], list(args[1]), *args[2:])


def install(patches: Patches, scheme: CRSE2Scheme) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    group = type(scheme.group)
    patches.timed(group, "multi_pair", "crypto.multi_pair",
                  lambda a, r: {"pairs": len(a[1])})
    patches.timed(group, "pair", "crypto.pair", lambda a, r: {"pairs": 1})
    if "is_member" in group.__dict__:
        patches.timed(group, "is_member", "crypto.is_member")
    patches.timed(crse2, "ssw_query", "ssw.query")
    patches.timed(CRSE2Scheme, "matches_with_stats", "crse2.record_test",
                  lambda a, r: {"evaluated": r[1]})
    for module in (service_server, engine):
        patches.timed(module, "decode_token", "codec.decode_token")
    for module in (cloud_server, engine):
        patches.timed(module, "decode_ciphertext", "codec.decode_ciphertext")
    patches.timed(SearchEngine, "search", "engine.search",
                  lambda a, r: {"partitions": list(r.stats.partitions)})
    patches.timed(SearchEngine, "search_batch", "engine.search_batch")
    patches.timed(SearchEngine, "load", "engine.load",
                  lambda a, r: {"records": len(a[1])}, prepare=_listed)
    patches.timed(protocol, "encode_request", "protocol.encode_request",
                  lambda a, r: {"bytes": len(r)})
    patches.timed(protocol, "decode_request", "protocol.decode_request",
                  lambda a, r: {"bytes": len(a[0])})
    patches.timed(protocol, "encode_ok", "protocol.encode_ok",
                  lambda a, r: {"bytes": len(r)})
    patches.timed(protocol, "decode_reply", "protocol.decode_reply",
                  lambda a, r: {"bytes": len(a[0])})
    patches.timed_async(FramedServer, "_handle_request", _handle_name)
    patches.carried(FramedServer, "_offload", 0)
    patches.carried(Coordinator, "_fan_out", 2)
    patches.timed(Coordinator, "_note_failure", "coordinator.failover")
    patches.timed(PartitionMap, "save", "coordinator.map_save")
    patches.timed(RecordStore, "open_or_create", "storage.open")
    patches.timed(RecordStore, "scan_tagged", "storage.scan_tagged",
                  consume=True)
    patches.timed(RecordStore, "append", "storage.append")
    patches.timed(RecordStore, "checkpoint_integrity", "storage.checkpoint")
    patches.timed(os, "fsync", "storage.fsync")
    patches.timed(ShardIntegrity, "add", "integrity.add")


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
async def _scrape(topology: InProcess, tracer: Tracer) -> list[tuple[str, dict]]:
    """The ``stats`` reply of every server, outside any trace."""
    phase, tracer.phase = tracer.phase, "scrape"
    replies = []
    try:
        for role, port in topology.endpoints:
            async with _client(port) as client:
                replies.append((role, await client.stats()))
    finally:
        tracer.phase = phase
    return replies


async def _seed(port: int, inputs: Inputs) -> None:
    async with _client(port) as client:
        for batch in inputs.seed_batches:
            stored = await client.upload(batch)
    if stored != inputs.workload.records:
        raise RuntimeError(f"seeding stored {stored} records")


async def _baseline(port: int, inputs: Inputs, ledger: Ledger):
    """An untraced pass of singleton searches, one request in flight."""
    async with _client(port) as client:
        loader = Loader(client, inputs, ledger, 1)
        await loader.warm_up()
        return await loader.searches()


async def _traced(topology: InProcess, inputs: Inputs, ledger: Ledger,
                  tracer: Tracer) -> dict:
    phases = {}
    scrapes = {}
    async with _client(topology.port) as client:
        loader = Loader(client, inputs, ledger, 1, span=tracer.request)
        tracer.phase = "warmup"
        await loader.warm_up()
        for name, run in (
            ("search", loader.searches),
            ("batch", loader.batches),
            ("upload", loader.uploads),
            ("delete", loader.deletes),
        ):
            scrapes[f"before_{name}"] = await _scrape(topology, tracer)
            tracer.phase = name
            phases[name] = await run()
        scrapes["end"] = await _scrape(topology, tracer)
    return {"phases": phases, "scrapes": scrapes}


def _replay(inputs: Inputs, tracer: Tracer, search_stats: list[dict]) -> None:
    """Redo each worker's search in this process and check it matches."""
    scheme = restore_scheme(scheme_header(inputs.scheme))
    scheme.group.precompute_generators()
    tracer.phase = "replay-load"
    records = [
        (record.identifier, engine.decode_ciphertext(scheme, record.payload))
        for batch in inputs.seed_batches
        for record in batch.records
    ]
    tracer.phase = "replay"
    for index, payload in enumerate(inputs.tokens):
        stats = search_stats[index]
        scanned = evaluations = 0
        with tracer.request("replay"):
            # One decode per engine partition, as each worker decodes.
            for _ in stats["partitions"]:
                token = engine.decode_token(scheme, payload)
            for _, ciphertext in records:
                _, evaluated = scheme.matches_with_stats(token, ciphertext)
                scanned += 1
                evaluations += evaluated
        if (scanned, evaluations) != (
            stats["records_scanned"], stats["sub_token_evaluations"]
        ):
            raise GuardError(
                f"replay of query {index} scanned {scanned} records with "
                f"{evaluations} evaluations; the reply reported "
                f"{stats['records_scanned']} and "
                f"{stats['sub_token_evaluations']}"
            )


def run(inputs: Inputs, work: Path, out_dir: Path, seed: int):
    """Seed, baseline, traced pass and replay; returns
    ``(metrics, ledger, notes)``.  The work is fixed: one pass of each
    operation type, whatever ``--seconds`` says.
    """
    ledger = Ledger()
    tracer = Tracer()
    register_fork_guard(tracer)
    topology = InProcess(inputs, work)
    try:
        asyncio.run(_seed(topology.start(), inputs))
    finally:
        topology.stop()
    try:
        baseline = asyncio.run(_baseline(topology.start(), inputs, ledger))
    finally:
        topology.stop()
    patches = Patches(tracer)
    install(patches, topology.scheme)
    try:
        tracer.active = True
        tracer.phase = "setup"
        try:
            topology.start()
            traced = asyncio.run(_traced(topology, inputs, ledger, tracer))
        finally:
            tracer.phase = "stop"
            topology.stop()
        _replay(inputs, tracer, traced["phases"]["search"].stats)
    finally:
        tracer.active = False
        patches.restore()
    tracer.dump(out_dir / f"{inputs.workload.name}-seed{seed}.spans.jsonl")
    metrics, notes = LayerReport(inputs, tracer.spans, baseline, traced).build()
    return metrics, ledger, notes


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _handle_totals(scrape, verb: str) -> tuple[float, int]:
    """Summed handle time (ms) and request count of *verb* over the
    backends of one scrape."""
    total_ms = 0.0
    requests = 0
    for role, stats in scrape:
        if role != "backend":
            continue
        verb_stats = stats["verbs"].get(verb, {"requests": 0, "mean_ms": 0.0})
        total_ms += verb_stats["mean_ms"] * verb_stats["requests"]
        requests += verb_stats["requests"]
    return total_ms, requests


def _log_bytes(scrape) -> int:
    return sum(stats["store"]["log_bytes"] for role, stats in scrape
               if role == "backend")


#: Count metrics that must repeat exactly between traced runs of one seed.
EXACT = (
    "crypto.miller_loops_per_search",
    "crypto.final_exps_per_search",
    "crypto.subgroup_checks_per_search",
    "crse2.evals_per_record",
    "codec.token_decodes_per_search",
    "protocol.search_request_bytes",
    "coordinator.backend_calls_per_search",
    "coordinator.backend_calls_per_upload",
    "coordinator.backend_calls_per_delete",
    "storage.fsyncs_per_upload",
    "storage.log_bytes_per_payload_byte",
)


class LayerReport:
    """Turns the spans, scrapes and replies of one traced run into the
    per-layer metrics, and enforces the workload-shape guards."""

    def __init__(self, inputs: Inputs, spans, baseline, traced: dict):
        self.inputs = inputs
        self.workload = inputs.workload
        self.spans = spans
        self.baseline = baseline
        self.phases = traced["phases"]
        self.scrapes = traced["scrapes"]
        self.self_ms = self_times_ms(spans)
        self.queries = len(inputs.tokens)
        roots = [s for s in spans if s.name.startswith("client.")]
        self.trace_verb = {s.trace_id: (s.phase, s.attrs["verb"]) for s in roots}

    def _in(self, name: str, phase: str, verb: str | None = None):
        """Spans called *name* recorded in traces of *phase* (and *verb*)."""
        return [
            s for s in self.spans
            if s.name == name
            and self.trace_verb.get(s.trace_id, ("", ""))[0] == phase
            and (verb is None or self.trace_verb[s.trace_id][1] == verb)
        ]

    def _phase(self, name: str, *phases: str):
        """Spans called *name* recorded during any of *phases*."""
        return [s for s in self.spans if s.name == name and s.phase in phases]

    def _per_trace(self, phase: str, verb: str, outer: str, inner: str):
        """Per request: the *outer* span's time minus the slowest *inner*."""
        by_trace: dict[int, list] = {}
        for span in self._in(outer, phase, verb) + self._in(inner, phase, verb):
            by_trace.setdefault(span.trace_id, []).append(span)
        gaps = []
        for spans in by_trace.values():
            outers = [s.ms for s in spans if s.name == outer]
            inners = [s.ms for s in spans if s.name == inner]
            if outers and inners:
                gaps.append(outers[0] - max(inners))
        return _mean(gaps)

    def _calls_per(self, phase: str, verb: str) -> float:
        traces = [t for t, pv in self.trace_verb.items() if pv == (phase, verb)]
        calls = self._in("server.handle", phase, verb)
        return len(calls) / len(traces) if traces else 0.0

    def _check_opcounts(self) -> None:
        """Each replayed record test's Miller loops and final exps must
        equal the analytical count for its early-exit evaluation count."""
        children: dict[int, list] = {}
        for span in self.spans:
            children.setdefault(span.parent_id, []).append(span)

        def pairings(span):
            pairs = finals = 0
            for child in children.get(span.span_id, ()):
                if child.name in ("crypto.multi_pair", "crypto.pair"):
                    pairs += child.attrs["pairs"]
                    finals += 1
                sub_pairs, sub_finals = pairings(child)
                pairs += sub_pairs
                finals += sub_finals
            return pairs, finals

        tests = self._phase("crse2.record_test", "replay")
        if not tests:
            raise GuardError("the replay ran no record tests")
        w = self.inputs.scheme.space.w
        for span in tests:
            expected = crse2_search_record_ops(span.attrs["evaluated"], w)
            got = pairings(span)
            if got != (expected.pairings, expected.final_exps):
                raise GuardError(
                    f"record test with {span.attrs['evaluated']} "
                    f"evaluations ran {got[0]} Miller loops and {got[1]} "
                    f"final exps; opcount says {expected.pairings} and "
                    f"{expected.final_exps}"
                )

    def build(self):
        """Every per-layer metric plus the printed guard and note lines."""
        q = self.queries
        search = self.phases["search"]
        stats = search.stats
        scan_ms = [max(s["partitions"]) for s in stats]
        pairings = self._phase("crypto.multi_pair", "replay") + self._phase(
            "crypto.pair", "replay")
        members = self._in("crypto.is_member", "search") + self._phase(
            "crypto.is_member", "replay")
        decodes = self._in("codec.decode_token", "search") + self._phase(
            "codec.decode_token", "replay")
        envelope = [
            span
            for name in ("protocol.encode_request", "protocol.decode_request",
                         "protocol.encode_ok", "protocol.decode_reply")
            for span in self._in(name, "search")
        ]
        main = "MainThread"
        handle_before = _handle_totals(self.scrapes["before_search"], "search")
        handle_after = _handle_totals(self.scrapes["before_batch"], "search")
        handled = handle_after[1] - handle_before[1]
        handle_ms = (handle_after[0] - handle_before[0]) / max(handled, 1)
        engine_scan_ms = _mean(scan_ms)
        client_ms = _mean(search.latencies_ms)
        if self.workload.clustered:
            front_ms = _mean(s.ms for s in self._in(
                "coordinator.handle", "search", "search"))
        else:
            front_ms = handle_ms
        end = self.scrapes["end"]
        loads = self._phase("engine.load", "setup", "upload")
        upload_traces = self._in("client.upload", "upload")
        payload_bytes = sum(
            len(record.payload)
            for batch in self.inputs.upload_batches
            for record in batch.records
        ) * self.workload.replication
        log_growth = _log_bytes(self.scrapes["before_delete"]) - _log_bytes(
            self.scrapes["before_upload"])
        replay_io = self._phase("storage.open", "setup") + self._phase(
            "storage.scan_tagged", "setup")
        backends = self.workload.partitions * self.workload.replication
        clustered = self.workload.clustered
        metrics = {
            "crypto.miller_loops_per_search": (
                sum(s.attrs["pairs"] for s in pairings) / q, "count"),
            "crypto.final_exps_per_search": (len(pairings) / q, "count"),
            "crypto.subgroup_checks_per_search": (len(members) / q, "count"),
            "crypto.multi_pair_ms": (
                sum(self.self_ms[s.span_id] for s in pairings) / q, "ms"),
            "crypto.subgroup_check_ms": (
                sum(self.self_ms[s.span_id] for s in members) / q, "ms"),
            "ssw.query_ms": (_mean(
                self.self_ms[s.span_id]
                for s in self._phase("ssw.query", "replay")), "ms"),
            "crse2.evals_per_record": (
                sum(s["sub_token_evaluations"] for s in stats)
                / sum(s["records_scanned"] for s in stats), "count"),
            "crse2.record_test_ms": (_mean(
                s.ms for s in self._phase("crse2.record_test", "replay")),
                "ms"),
            "codec.token_decodes_per_search": (len(decodes) / q, "count"),
            "codec.decode_token_ms": (_mean(s.ms for s in decodes), "ms"),
            "codec.decode_ciphertext_ms": (_mean(
                s.ms for s in self._phase(
                    "codec.decode_ciphertext", "setup", "upload",
                    "replay-load")), "ms"),
            "engine.scan_ms": (engine_scan_ms, "ms"),
            "engine.dispatch_ms": (_mean(
                s.ms - max(s.attrs["partitions"])
                for s in self._in("engine.search", "search")), "ms"),
            "engine.load_ms_per_record": (
                sum(s.ms for s in loads)
                / max(sum(s.attrs["records"] for s in loads), 1), "ms"),
            "protocol.search_request_bytes": (sum(
                s.attrs["bytes"]
                for s in self._in("protocol.encode_request", "search")
                if s.thread == main) / q, "B"),
            "protocol.search_reply_bytes": (sum(
                s.attrs["bytes"]
                for s in self._in("protocol.decode_reply", "search")
                if s.thread == main) / q, "B"),
            "protocol.envelope_ms": (sum(s.ms for s in envelope) / q, "ms"),
            "server.search_handle_ms": (handle_ms, "ms"),
            "server.search_overhead_ms": (handle_ms - engine_scan_ms, "ms"),
            "server.queue_peak": (max(
                stats["queue"]["peak_in_flight"] for _, stats in end),
                "count"),
            "server.busy_rejects": (sum(
                stats["rejected_busy"] for _, stats in end), "count"),
            "client.wire_ms": (client_ms - front_ms, "ms"),
            "coordinator.search_overhead_ms": (self._per_trace(
                "search", "search", "coordinator.handle", "server.handle")
                if clustered else 0.0, "ms"),
            "coordinator.upload_overhead_ms": (self._per_trace(
                "upload", "upload", "coordinator.handle", "server.handle")
                if clustered else 0.0, "ms"),
            "coordinator.backend_calls_per_search": (
                self._calls_per("search", "search") if clustered else 0.0,
                "count"),
            "coordinator.backend_calls_per_upload": (
                self._calls_per("upload", "upload") if clustered else 0.0,
                "count"),
            "coordinator.backend_calls_per_delete": (
                self._calls_per("delete", "delete") if clustered else 0.0,
                "count"),
            "coordinator.map_save_ms": (_mean(
                s.ms for s in self._phase(
                    "coordinator.map_save", "upload", "delete")), "ms"),
            "coordinator.failovers": (len(
                [s for s in self.spans if s.name == "coordinator.failover"]),
                "count"),
            "storage.append_ms": (_mean(
                s.ms for s in self._in("storage.append", "upload")), "ms"),
            "storage.checkpoint_ms": (_mean(
                s.ms for s in self._phase(
                    "storage.checkpoint", "upload", "delete")), "ms"),
            "storage.fsyncs_per_upload": (
                len(self._in("storage.fsync", "upload"))
                / max(len(upload_traces), 1), "count"),
            "storage.log_bytes_per_payload_byte": (
                log_growth / payload_bytes, "B/B"),
            "storage.replay_ms": (
                sum(s.ms for s in replay_io) / backends, "ms"),
            "integrity.add_ms": (_mean(
                s.ms for s in self._phase(
                    "integrity.add", "setup", "upload")), "ms"),
            # Paired per query (both passes send the list in order, one
            # at a time): a p50 of a dozen pairing queries moves by more
            # than the tracing costs.
            "trace.overhead_ms": (statistics.median(
                traced - untraced for traced, untraced in zip(
                    search.latencies_ms, self.baseline.latencies_ms)),
                "ms"),
        }
        self._check_opcounts()
        notes = self._guards(metrics)
        digest = hashlib.sha256(
            json.dumps([metrics[name][0] for name in EXACT]).encode()
        ).hexdigest()[:16]
        notes.append(f"exact counts sha256={digest} " + " ".join(
            f"{name}={metrics[name][0]:g}" for name in EXACT))
        traced_p50 = statistics.median(search.latencies_ms)
        untraced_p50 = statistics.median(self.baseline.latencies_ms)
        notes.append(
            f"tracing overhead: search_p50_ms traced {traced_p50:.3f} - "
            f"untraced {untraced_p50:.3f} = {traced_p50 - untraced_p50:+.3f} "
            f"ms; median paired per-query difference "
            f"{metrics['trace.overhead_ms'][0]:+.3f} ms"
        )
        return metrics, notes

    def _guards(self, metrics) -> list[str]:
        """Fail loudly when the workload stops exercising its layer."""
        name = self.workload.name
        lines = []
        problems = []
        scan = sum(max(s["partitions"]) for s in self.baseline.stats)
        share = scan / sum(self.baseline.latencies_ms)
        lines.append(f"guard workload={name} lanes=1 scan_share={share:.3f}")
        bound = MIN_SCAN_SHARE.get(name)
        if bound is not None and share < bound:
            problems.append(
                f"the worker scan is {share:.1%} of client search latency; "
                f"the bound is min {bound:.1%}")
        if self.workload.clustered:
            for verb, calls in CLUSTER_CALLS.items():
                got = metrics[f"coordinator.backend_calls_per_{verb}"][0]
                lines.append(f"guard backend_calls_per_{verb}={got:g}")
                if got != calls:
                    problems.append(
                        f"{verb} made {got:g} backend calls, expected {calls:g}")
            failovers = metrics["coordinator.failovers"][0]
            lines.append(f"guard failovers={failovers}")
            if failovers:
                problems.append(f"{failovers} failovers in a fault-free run")
        if problems:
            raise GuardError("; ".join(problems))
        return lines
