"""Common CRSE scheme interface (paper Def. 1) and dataset helpers.

A symmetric-key Circular Range Searchable Encryption scheme is the tuple
``Π = (GenKey, Enc, GenToken, Search)``.  Both constructions (CRSE-I and
CRSE-II) implement :class:`CRSEScheme`; everything above this layer — the
simulated cloud, the benchmarks, the examples — is written against the
interface, so the schemes are drop-in replacements for each other.

``Search`` in the paper acts on a single ciphertext and returns the record's
identifier or ``⊥``; the dataset-level extension is the linear scan the
paper describes at the end of Sec. III ("separately encrypting each D_i …
and linearly searching each ciphertext").
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Any, Generic, Iterable, Sequence, TypeVar

from repro.core.geometry import Circle, DataSpace
from repro.crypto.groups.base import CompositeBilinearGroup
from repro.errors import SchemeError

__all__ = [
    "CRSEScheme",
    "EncryptedRecord",
    "encrypt_dataset",
    "linear_search",
]

KeyT = TypeVar("KeyT")
CiphertextT = TypeVar("CiphertextT")
TokenT = TypeVar("TokenT")


@dataclass(frozen=True)
class EncryptedRecord:
    """A stored ciphertext with its server-side identifier.

    The identifier models "a memory location in the cloud server" (paper
    Def. 1); the content of the record itself would be protected by an
    independent layer of standard encryption and is out of scope, exactly as
    in the paper.
    """

    identifier: int
    ciphertext: Any


class CRSEScheme(abc.ABC, Generic[KeyT, CiphertextT, TokenT]):
    """Symmetric-key CRSE over a data space and a bilinear-group backend."""

    def __init__(self, space: DataSpace, group: CompositeBilinearGroup):
        self.space = space
        self.group = group

    # ------------------------------------------------------------------
    # The four algorithms of Def. 1
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gen_key(self, rng: random.Random) -> KeyT:
        """``GenKey(1^λ, Δ^w_T)``: generate the secret key."""

    @abc.abstractmethod
    def encrypt(
        self, key: KeyT, point: Sequence[int], rng: random.Random
    ) -> CiphertextT:
        """``Enc(SK, D)``: encrypt one data record."""

    @abc.abstractmethod
    def gen_token(
        self, key: KeyT, circle: Circle, rng: random.Random
    ) -> TokenT:
        """``GenToken(SK, Q)``: build a search token for a query circle."""

    @abc.abstractmethod
    def matches(self, token: TokenT, ciphertext: CiphertextT) -> bool:
        """The Boolean core of ``Search``: is the point inside the circle?"""

    def matches_with_stats(
        self, token: TokenT, ciphertext: CiphertextT
    ) -> tuple[bool, int]:
        """Like :meth:`matches`, also reporting the evaluations it took.

        One evaluation per record by default; CRSE-II overrides this with
        its early-exit sub-token count.
        """
        return self.matches(token, ciphertext), 1

    # ------------------------------------------------------------------
    # Paper-faithful Search and bookkeeping
    # ------------------------------------------------------------------
    def search(
        self, token: TokenT, record: EncryptedRecord
    ) -> int | None:
        """``Search(TK, C)``: the record's identifier, or None for ``⊥``."""
        return record.identifier if self.matches(token, record.ciphertext) else None

    @abc.abstractmethod
    def inner_product_bound(self) -> int:
        """Largest honest inner-product magnitude this scheme can produce.

        Correctness requires the group's payload prime to exceed this value
        (see :meth:`repro.crypto.groups.base.CompositeBilinearGroup.exponent_bound_ok`).
        """

    def check_group_supports_space(self) -> None:
        """Raise if the group's payload prime is too small for correctness.

        Raises:
            SchemeError: If false positives would be possible.
        """
        bound = self.inner_product_bound()
        if not self.group.exponent_bound_ok(bound):
            raise SchemeError(
                f"payload prime {self.group.subgroup_primes[1]} does not "
                f"exceed the inner-product bound {bound}; generate parameters "
                "with repro.crypto.groups.params_for_bound"
            )


def encrypt_dataset(
    scheme: CRSEScheme,
    key: Any,
    points: Iterable[Sequence[int]],
    rng: random.Random,
) -> list[EncryptedRecord]:
    """Encrypt a dataset record by record, assigning sequential identifiers."""
    return [
        EncryptedRecord(identifier=i, ciphertext=scheme.encrypt(key, point, rng))
        for i, point in enumerate(points)
    ]


def linear_search(
    scheme: CRSEScheme, token: Any, records: Iterable[EncryptedRecord]
) -> list[int]:
    """The paper's linear scan: identifiers of all matching records."""
    matches = []
    for record in records:
        identifier = scheme.search(token, record)
        if identifier is not None:
            matches.append(identifier)
    return matches
