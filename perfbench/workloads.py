"""Workload definitions and their seeded inputs.

A workload fixes the backend, the dataset shape, the topology and the
operation counts.  :func:`make_inputs` turns a workload and a seed into
everything the servers will see (ciphertexts, tokens, tagged upload
batches) plus the plaintext the oracle checks answers against; the same
seed always gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cloud.codec import encode_ciphertext, encode_token
from repro.cloud.messages import UploadDataset, UploadRecord
from repro.core.crse2 import CRSE2Scheme
from repro.core.geometry import Circle, DataSpace, point_in_circle
from repro.core.provision import group_for_crse2
from repro.crypto.keystore import save_crse2_key
from repro.integrity import TagKeys, membership_tag, record_tag


@dataclass(frozen=True)
class Workload:
    """One fixed traffic mix against one fixed deployment."""

    name: str
    backend: str
    size: int
    records: int
    radii: tuple[int, ...]
    queries: int
    batch: int
    uploads: int
    upload_batch: int
    #: Rounds (search pass + batch pass + uploads + deletes) per second
    #: of ``--seconds``; the count is fixed by the arguments, never by a
    #: clock, so every run of one workload does identical work.
    rounds_per_second: float
    partitions: int = 1
    replication: int = 1

    @property
    def clustered(self) -> bool:
        """Whether the workload runs behind ``repro coordinate``."""
        return self.partitions * self.replication > 1

    def rounds(self, seconds: float) -> int:
        """Measured rounds for a run of *seconds*."""
        return max(2, round(seconds * self.rounds_per_second))


#: Engine workers per server: fixed, not the CPU-count default, so the
#: load does not depend on the machine.
WORKERS = 1

WORKLOADS = {
    w.name: w
    for w in (
        # Miller loops, final exponentiations, subgroup checks and token
        # decode dominate; service-layer changes bypass it.
        Workload(
            name="scan-pairing",
            backend="pairing",
            size=32,
            records=6,
            radii=(1, 2, 3),
            queries=12,
            batch=3,
            uploads=20,
            upload_batch=1,
            rounds_per_second=0.13,
        ),
        # Coordinator fan-out and merge, replicated fsynced writes and
        # partition-map persistence.
        Workload(
            name="cluster-durable",
            backend="fast",
            size=256,
            records=200,
            radii=(1, 2, 3),
            queries=24,
            batch=4,
            uploads=8,
            upload_batch=1,
            rounds_per_second=0.9,
            partitions=2,
            replication=2,
        ),
    )
}

#: Identifiers of the per-round upload batches start here, far above the
#: seed dataset's ``0 .. records-1``.
UPLOAD_ID_BASE = 1_000_000


@dataclass
class Inputs:
    """Everything one run sends, plus the plaintext the oracle uses."""

    workload: Workload
    scheme: CRSE2Scheme
    key_bytes: bytes
    points: dict[int, tuple[int, int]]
    seed_batches: list[UploadDataset]
    circles: list[Circle]
    tokens: list[bytes]
    upload_batches: list[UploadDataset]

    def expected(self, index: int) -> tuple[int, ...]:
        """Plaintext answer to query *index* over the seed dataset."""
        circle = self.circles[index]
        return tuple(
            sorted(
                identifier
                for identifier, point in self.points.items()
                if point_in_circle(point, circle)
            )
        )

    @property
    def upload_ids(self) -> list[tuple[int, ...]]:
        """Identifiers of each per-round upload batch."""
        return [
            tuple(record.identifier for record in batch.records)
            for batch in self.upload_batches
        ]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the key, dataset, query list and upload batches.

    The group parameters depend on the workload only, so pairing cost
    does not vary with the seed; everything else comes from the seed.
    Records sit in distinct grid cells wider than any query circle, so a
    query centred on a record matches exactly that record and any other
    query matches none: every seed scans the same number of sub-tokens,
    up to where the matching one lands in the token's permutation.
    """
    space = DataSpace(w=2, t=workload.size)
    group = group_for_crse2(
        space, workload.backend, random.Random(f"{workload.name}/group")
    )
    scheme = CRSE2Scheme(space, group)
    rng = random.Random(f"{workload.name}/{seed}")
    key = scheme.gen_key(rng)
    tag_keys = TagKeys.derive(scheme, key)

    def record(identifier: int, point) -> UploadRecord:
        payload = encode_ciphertext(scheme, scheme.encrypt(key, point, rng))
        return UploadRecord(
            identifier=identifier,
            payload=payload,
            tag=record_tag(tag_keys, identifier, payload),
            mtag=membership_tag(tag_keys, identifier),
        )

    def random_point() -> tuple[int, int]:
        return (rng.randrange(workload.size), rng.randrange(workload.size))

    reach = max(workload.radii)
    cell = 2 * reach + 2
    per_row = workload.size // cell
    cells = rng.sample(range(per_row * per_row), workload.records + 1)

    def in_cell(index: int, margin: int) -> tuple[int, int]:
        row, col = divmod(index, per_row)
        return tuple(
            base * cell + rng.randrange(margin, cell - margin)
            for base in (row, col)
        )

    # A record keeps ``reach`` clear of its cell's edges, so no circle
    # centred in another cell can reach it.
    points = {i: in_cell(cells[i], reach) for i in range(workload.records)}
    empty_cell = cells[-1]
    seeded = [record(i, points[i]) for i in range(workload.records)]
    seed_batches = [
        UploadDataset(records=tuple(seeded[start : start + 50]))
        for start in range(0, len(seeded), 50)
    ]
    # Radii cycle in a fixed order so every seed scans the same mix of
    # sub-token counts; every other centre sits on a record (one match),
    # the rest in the one cell left empty (no match).
    circles = []
    for index in range(workload.queries):
        radius = workload.radii[index % len(workload.radii)]
        if index % 2 == 0:
            centre = points[rng.randrange(workload.records)]
        else:
            centre = in_cell(empty_cell, 0)
        circles.append(Circle.from_radius(centre, radius))
    tokens = [
        encode_token(scheme, scheme.gen_token(key, circle, rng))
        for circle in circles
    ]
    upload_batches = []
    next_id = UPLOAD_ID_BASE
    for _ in range(workload.uploads):
        batch = []
        for _ in range(workload.upload_batch):
            batch.append(record(next_id, random_point()))
            next_id += 1
        upload_batches.append(UploadDataset(records=tuple(batch)))
    return Inputs(
        workload=workload,
        scheme=scheme,
        key_bytes=save_crse2_key(scheme, key),
        points=points,
        seed_batches=seed_batches,
        circles=circles,
        tokens=tokens,
        upload_batches=upload_batches,
    )
