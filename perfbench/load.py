"""Closed-loop load generation with an output oracle.

One :class:`~repro.service.aio.AsyncServiceClient` connection carries at
most ``lanes`` outstanding requests: each lane sends its next operation
only when its previous one has been answered.  Every answer is checked —
search results against the plaintext filter, ``stored``/``removed``
counts against what the run expects — and a wrong answer, BUSY, deadline
or any other error counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ReproError

from perfbench.workloads import Inputs

OPS = ("search", "search_batch", "upload", "delete")

#: Uploads and deletes go one at a time: two concurrent writes to one
#: durable server race on the store's ``MANIFEST.json.tmp`` (both
#: checkpoint the integrity accumulator through the same temporary file),
#: and the loser's request is never answered.
WRITE_LANES = 1


class Ledger:
    """Operations attempted and failed, per operation type."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.first_errors: list[str] = []

    def record(self, op: str, problem: str | None) -> bool:
        """Count one *op*; *problem* is ``None`` when it succeeded."""
        self.attempted[op] += 1
        if problem is not None:
            self.failed[op] += 1
            if len(self.first_errors) < 5:
                self.first_errors.append(f"{op}: {problem}")
        return problem is None

    @property
    def total_attempted(self) -> int:
        """Operations attempted, all types."""
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        """Operations failed, all types."""
        return sum(self.failed.values())

    def lines(self, workload: str) -> list[str]:
        """One greppable line per operation type."""
        return [
            f"ops workload={workload} op={op} "
            f"attempted={self.attempted[op]} failed={self.failed[op]}"
            for op in OPS
            if self.attempted[op]
        ]


def search_problem(
    inputs: Inputs, index: int, identifiers
) -> str | None:
    """Why a search answer for query *index* is wrong, or ``None``."""
    expected = inputs.expected(index)
    got = tuple(sorted(identifiers))
    if got != expected:
        return f"query {index}: got {list(got)}, expected {list(expected)}"
    return None


@dataclass
class Phase:
    """Per-operation latencies and wall time of one pass."""

    latencies_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    stats: list[dict] = field(default_factory=list)


async def closed_loop(count: int, lanes: int, op) -> float:
    """Run ``await op(i)`` for ``i < count`` with *lanes* outstanding.

    Returns the wall time of the whole pass in seconds.
    """
    cursor = iter(range(count))

    async def lane() -> None:
        for index in cursor:
            await op(index)

    started = time.perf_counter()
    await asyncio.gather(*(lane() for _ in range(lanes)))
    return time.perf_counter() - started


class Loader:
    """Drives the four operation types against one endpoint.

    Searches keep *lanes* requests outstanding; uploads and deletes keep
    ``WRITE_LANES``.  *span* is a hook ``span(verb) -> context manager``
    entered around each request; the traced run uses it to open the
    request's root span.
    """

    def __init__(self, client, inputs: Inputs, ledger: Ledger, lanes: int,
                 span=None):
        self.client = client
        self.inputs = inputs
        self.ledger = ledger
        self.lanes = lanes
        self.span = span or (lambda verb: contextlib.nullcontext())

    async def _timed(self, phase: Phase, op: str, call, check) -> None:
        with self.span(op):
            started = time.perf_counter()
            try:
                result = await call()
            except ReproError as exc:
                self.ledger.record(op, f"{type(exc).__name__}: {exc}")
                return
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        if self.ledger.record(op, check(result)):
            phase.latencies_ms.append(elapsed_ms)

    async def warm_up(self) -> None:
        """One untimed pass of the query list plus one operation of each
        other type (connections open, the server's executor and pool
        threads exist, caches fill); the answers are checked like any
        other."""
        await self.searches()
        await self.batches(self.lanes)
        await self.uploads(1)
        await self.deletes(1)

    async def searches(self, count: int | None = None) -> Phase:
        """The query list (or its first *count*) as singleton searches."""
        phase = Phase()

        def check_for(index):
            def check(result):
                response, stats = result
                phase.stats.append(stats)
                return search_problem(self.inputs, index, response.identifiers)
            return check

        async def op(index: int) -> None:
            await self._timed(
                phase, "search",
                lambda: self.client.search(self.inputs.tokens[index]),
                check_for(index),
            )

        total = len(self.inputs.tokens) if count is None else count
        phase.wall_s = await closed_loop(total, self.lanes, op)
        return phase

    async def batches(self, count: int | None = None) -> Phase:
        """The same list (or its first *count* vectors) as fixed-size
        ``search_batch`` vectors."""
        phase = Phase()
        size = self.inputs.workload.batch
        starts = list(range(0, len(self.inputs.tokens), size))[:count]

        async def op(chunk: int) -> None:
            indices = range(starts[chunk], min(starts[chunk] + size,
                                               len(self.inputs.tokens)))

            def check(results):
                for index, (response, stats) in zip(indices, results):
                    phase.stats.append(stats)
                    problem = search_problem(
                        self.inputs, index, response.identifiers
                    )
                    if problem:
                        return problem
                return None

            await self._timed(
                phase, "search_batch",
                lambda: self.client.search_batch(
                    tuple(self.inputs.tokens[i] for i in indices)
                ),
                check,
            )

        phase.wall_s = await closed_loop(len(starts), self.lanes, op)
        return phase

    async def uploads(self, count: int | None = None) -> Phase:
        """Every upload batch (or the first *count*) once; each ack must
        count the live set: the seed dataset plus the batches sent so far
        (writes go one at a time)."""
        phase = Phase()
        batches = self.inputs.upload_batches[:count]
        base = self.inputs.workload.records
        size = self.inputs.workload.upload_batch

        async def op(index: int) -> None:
            def check(stored):
                expected = base + size * (index + 1)
                if stored != expected:
                    return f"stored={stored}, expected {expected}"
                return None

            await self._timed(
                phase, "upload",
                lambda: self.client.upload(batches[index]), check,
            )

        phase.wall_s = await closed_loop(len(batches), WRITE_LANES, op)
        return phase

    async def deletes(self, count: int | None = None) -> Phase:
        """Delete every uploaded batch (or the first *count*); each must
        remove exactly its records."""
        phase = Phase()
        ids = self.inputs.upload_ids[:count]

        async def op(index: int) -> None:
            def check(removed):
                if removed != len(ids[index]):
                    return f"removed={removed}, expected {len(ids[index])}"
                return None

            await self._timed(
                phase, "delete",
                lambda: self.client.delete(ids[index]), check,
            )

        phase.wall_s = await closed_loop(len(ids), WRITE_LANES, op)
        return phase
