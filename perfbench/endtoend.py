"""The untraced run: end-to-end metrics against the service as processes.

Set-up is timed from launching the server processes on data directories
that already hold the seed dataset until the first search answers
correctly; it is repeated ``COLD_STARTS`` times and the median reported.
The last cold start then serves a fixed number of rounds, each a
singleton-search pass over the query list, the same list as
``search_batch`` vectors, and an upload pass whose records the following
delete pass removes again, so the live set stays constant.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from pathlib import Path

from repro.service import AsyncServiceClient

from perfbench.load import WRITE_LANES, Ledger, Loader, search_problem
from perfbench.measure import summarize, tree_cpu_seconds, tree_peak_rss_mb
from perfbench.service import Deployment, no_retry
from perfbench.workloads import Inputs

#: Requests outstanding on the one client connection (the 2-CPU host's
#: core count, fixed so the load does not depend on the machine).
LANES = 2

#: Cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 9

#: Local reply timeout; a request unanswered this long counts as failed.
TIMEOUT_S = 30.0


async def first_answer(port: int, inputs: Inputs, ledger: Ledger) -> None:
    """Search query 0 on a fresh connection and check the answer."""
    async with AsyncServiceClient(
        "127.0.0.1", port, retry=no_retry(), max_in_flight=1
    ) as client:
        response, _ = await client.search(inputs.tokens[0])
    problem = search_problem(inputs, 0, response.identifiers)
    if not ledger.record("search", problem):
        raise RuntimeError(f"first search after start-up failed: {problem}")


async def run(inputs: Inputs, work: Path, src: Path, seconds: float):
    """Measure every end-to-end metric; returns ``(metrics, ledger, notes)``."""
    ledger = Ledger()
    deployment = Deployment(inputs, work, src)
    setups = []
    try:
        await asyncio.to_thread(deployment.seed)
        for attempt in range(COLD_STARTS):
            if attempt:
                deployment.stop()
            started = time.perf_counter()
            port = deployment.start()
            await first_answer(port, inputs, ledger)
            setups.append(time.perf_counter() - started)
        metrics, notes = await _measure(deployment, inputs, ledger, seconds)
    finally:
        deployment.stop()
    metrics["setup_s"] = (statistics.median(setups), "s")
    notes.append(
        "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups)
    )
    return metrics, ledger, notes


async def _measure(deployment: Deployment, inputs: Inputs, ledger: Ledger,
                   seconds: float):
    workload = inputs.workload
    rounds = workload.rounds(seconds)
    roots = deployment.pids
    search_ms: list[float] = []
    upload_ms: list[float] = []
    delete_ms: list[float] = []
    search_s = batch_s = 0.0
    search_cpu_s = write_cpu_s = 0.0
    gc.collect()
    async with AsyncServiceClient(
        "127.0.0.1", deployment.port, retry=no_retry(),
        max_in_flight=LANES, timeout_s=TIMEOUT_S,
    ) as client:
        loader = Loader(client, inputs, ledger, LANES)
        await loader.warm_up()
        for _ in range(rounds):
            cpu_start = tree_cpu_seconds(roots)
            search = await loader.searches()
            cpu_searched = tree_cpu_seconds(roots)
            batch = await loader.batches()
            cpu_batched = tree_cpu_seconds(roots)
            upload = await loader.uploads()
            delete = await loader.deletes()
            write_cpu_s += tree_cpu_seconds(roots) - cpu_batched
            search_cpu_s += cpu_searched - cpu_start
            search_s += search.wall_s
            batch_s += batch.wall_s
            search_ms += search.latencies_ms
            upload_ms += upload.latencies_ms
            delete_ms += delete.latencies_ms
    rss_mb = tree_peak_rss_mb(roots)
    queries = rounds * len(inputs.tokens)
    writes = 2 * rounds * workload.uploads
    search = summarize(search_ms)
    upload = summarize(upload_ms)
    delete = summarize(delete_ms)
    metrics = {
        "search_p50_ms": (search["p50"], "ms"),
        "search_cpu_ms": (1000.0 * search_cpu_s / queries, "ms"),
        "server_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        f"rounds={rounds} lanes={LANES} write_lanes={WRITE_LANES} "
        f"queries={len(inputs.tokens)} batch={workload.batch} "
        f"uploads={workload.uploads}x{workload.upload_batch}",
        # Reported, not gated: on a shared 2-CPU host these do not repeat
        # within the largest bound (see perfbench/README.md).
        f"search_qps={queries / search_s:.3f} "
        f"batch_qps={queries / batch_s:.3f} "
        f"write_cpu_ms={1000.0 * write_cpu_s / writes:.3f}",
        f"search_tail_ms={search['tail']:.3f} "
        f"(p{search['tail_pct']:g} of {search['n']} samples)",
        f"upload_p50_ms={upload['p50']:.3f} upload_tail_ms="
        f"{upload['tail']:.3f} (p{upload['tail_pct']:g} of {upload['n']} "
        f"samples)",
        f"delete_p50_ms={delete['p50']:.3f} ({delete['n']} samples)",
    ]
    return metrics, notes
