"""Backend-neutral interface for composite-order bilinear groups.

SSW predicate encryption (paper Sec. V, citing Shen-Shi-Waters TCC'09) runs
in a cyclic group ``G`` of composite order ``N = p1·p2·p3·p4`` equipped with
a symmetric bilinear pairing ``e : G × G → G_T``.  The four prime-order
subgroups play distinct roles (following SSW's notation ``G_p, G_q, G_r,
G_s``):

* ``G_p`` (index 0) — the cancellation subgroup tied to the secret key,
* ``G_q`` (index 1) — the payload subgroup carrying vector entries,
* ``G_r`` (index 2) — ciphertext-side masking noise,
* ``G_s`` (index 3) — token-side masking noise.

Two implementations are provided:

* :class:`repro.crypto.groups.pairing.SupersingularPairingGroup` — the real
  thing: the paper's curve ``y² = x³ + x`` with a Tate pairing (what PBC's
  Type-A1 parameters give).
* :class:`repro.crypto.groups.fastgroup.FastCompositeGroup` — an
  algebraically faithful simulation with trivial discrete logs, used to run
  large benchmark sweeps at Python speed.

Every scheme above this layer is written against the abstract interface, so
the backends are interchangeable.
"""

from __future__ import annotations

import abc
import random
from typing import Sequence

from repro.errors import CryptoError

__all__ = [
    "GroupElement",
    "TargetElement",
    "CompositeBilinearGroup",
    "SUBGROUP_P",
    "SUBGROUP_Q",
    "SUBGROUP_R",
    "SUBGROUP_S",
    "NUM_SUBGROUPS",
]

# Symbolic indices for the four prime-order subgroups (SSW naming).
SUBGROUP_P = 0
SUBGROUP_Q = 1
SUBGROUP_R = 2
SUBGROUP_S = 3
NUM_SUBGROUPS = 4


class GroupElement(abc.ABC):
    """An element of the source group ``G``.

    Elements are immutable.  Group operations use multiplicative notation:
    ``a * b``, ``a ** k`` (integer ``k``, negatives allowed), and ``~a`` for
    the inverse.
    """

    __slots__ = ()

    @property
    @abc.abstractmethod
    def group(self) -> "CompositeBilinearGroup":
        """The group this element belongs to."""

    @abc.abstractmethod
    def _mul(self, other: "GroupElement") -> "GroupElement":
        """Multiply by another element of the same group."""

    @abc.abstractmethod
    def _pow(self, exponent: int) -> "GroupElement":
        """Raise to an integer power (reduced mod the group order)."""

    @abc.abstractmethod
    def is_identity(self) -> bool:
        """True if this is the neutral element."""

    @abc.abstractmethod
    def __eq__(self, other: object) -> bool: ...

    @abc.abstractmethod
    def __hash__(self) -> int: ...

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.group != self.group:
            raise CryptoError("cannot combine elements from different groups")
        return self._mul(other)

    def __pow__(self, exponent: int) -> "GroupElement":
        if not isinstance(exponent, int):
            return NotImplemented
        return self._pow(exponent)

    def __invert__(self) -> "GroupElement":
        return self._pow(-1)


class TargetElement(abc.ABC):
    """An element of the target group ``G_T`` (output of the pairing)."""

    __slots__ = ()

    @abc.abstractmethod
    def _mul(self, other: "TargetElement") -> "TargetElement":
        """Multiply by another target-group element."""

    @abc.abstractmethod
    def _pow(self, exponent: int) -> "TargetElement":
        """Raise to an integer power."""

    @abc.abstractmethod
    def is_identity(self) -> bool:
        """True if this is the neutral element of ``G_T``.

        SSW's ``Query`` reduces a match to exactly this test.
        """

    @abc.abstractmethod
    def __eq__(self, other: object) -> bool: ...

    @abc.abstractmethod
    def __hash__(self) -> int: ...

    def __mul__(self, other: "TargetElement") -> "TargetElement":
        if not isinstance(other, TargetElement):
            return NotImplemented
        return self._mul(other)

    def __pow__(self, exponent: int) -> "TargetElement":
        if not isinstance(exponent, int):
            return NotImplemented
        return self._pow(exponent)

    def __invert__(self) -> "TargetElement":
        return self._pow(-1)


class CompositeBilinearGroup(abc.ABC):
    """A cyclic group of order ``N = p1·p2·p3·p4`` with a symmetric pairing.

    Groups compare by *value*: two instances of the same backend built from
    equal parameters are interchangeable (their elements combine freely and
    serialized keys restore into compatible groups).  Backends with extra
    parameters extend :meth:`_equality_key`.
    """

    def _equality_key(self) -> tuple:
        """The value identity of this group (type + parameters)."""
        return (type(self), self.subgroup_primes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositeBilinearGroup):
            return NotImplemented
        return self._equality_key() == other._equality_key()

    def __hash__(self) -> int:
        return hash(self._equality_key())

    @property
    @abc.abstractmethod
    def subgroup_primes(self) -> tuple[int, int, int, int]:
        """The four distinct subgroup primes ``(p1, p2, p3, p4)``."""

    @property
    def order(self) -> int:
        """The composite group order ``N``."""
        p1, p2, p3, p4 = self.subgroup_primes
        return p1 * p2 * p3 * p4

    @property
    @abc.abstractmethod
    def element_byte_length(self) -> int:
        """Serialized size in bytes of one element of ``G``."""

    # ------------------------------------------------------------------
    # Elements
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def identity(self) -> GroupElement:
        """The neutral element of ``G``."""

    @abc.abstractmethod
    def gt_identity(self) -> TargetElement:
        """The neutral element of ``G_T``."""

    @abc.abstractmethod
    def generator(self) -> GroupElement:
        """A fixed generator of the full order-``N`` group."""

    def subgroup_generator(self, index: int) -> GroupElement:
        """Return the canonical generator of the order-``p_index`` subgroup."""
        self._check_subgroup_index(index)
        cofactor = self.order // self.subgroup_primes[index]
        return self.generator() ** cofactor

    def random_subgroup_element(
        self, index: int, rng: random.Random
    ) -> GroupElement:
        """Sample uniformly from the order-``p_index`` subgroup.

        The identity is included (probability ``1/p_index``), matching the
        uniform sampling SSW's masking subgroups require.
        """
        self._check_subgroup_index(index)
        exponent = rng.randrange(self.subgroup_primes[index])
        return self.subgroup_generator(index) ** exponent

    def random_exponent(self, rng: random.Random) -> int:
        """Sample a uniform exponent in ``Z_N``."""
        return rng.randrange(self.order)

    # ------------------------------------------------------------------
    # Fixed-base precomputation
    # ------------------------------------------------------------------
    def precompute_base(self, element: GroupElement) -> bool:
        """Build (and cache) fixed-base acceleration tables for *element*.

        Backends where exponentiation has a fixed-base fast path (the curve
        backend's windowing tables) override this; the default is a no-op.
        Precomputation never changes results — only speed — so callers may
        invoke it unconditionally.

        Returns:
            True if a table was built, False if cached already or the
            backend has nothing to precompute.

        Raises:
            CryptoError: If *element* does not belong to this group.
        """
        if element.group != self:
            raise CryptoError("cannot precompute a foreign group element")
        return False

    def precompute_generators(self) -> None:
        """Precompute fixed-base tables for the full and subgroup generators.

        These are the bases behind :meth:`random_subgroup_element` — the
        masking-element sampling that dominates SSW ``Enc``/``GenToken``
        outside the key bases themselves.
        """
        self.precompute_base(self.generator())
        for index in range(NUM_SUBGROUPS):
            self.precompute_base(self.subgroup_generator(index))

    # ------------------------------------------------------------------
    # Pairing and serialization
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pair(self, a: GroupElement, b: GroupElement) -> TargetElement:
        """Evaluate the symmetric bilinear pairing ``e(a, b)``."""

    def prepare_fixed(
        self, elements: Sequence[GroupElement]
    ) -> Sequence[GroupElement]:
        """Prepare *elements* as the fixed first argument of many pairings.

        A scan pairs one token against every record, so backends whose
        pairing has per-argument work independent of the other argument
        (the curve's Miller lines) do that work here, once.  The returned
        elements compare equal to the inputs and may stand in for them
        anywhere; :meth:`multi_pair` takes the fast path when every first
        argument is prepared.  This default returns the elements unchanged.
        """
        return elements

    def multi_pair(
        self, pairs: "list[tuple[GroupElement, GroupElement]]"
    ) -> TargetElement:
        """Evaluate the product of pairings ``∏ e(a_i, b_i)``.

        This is SSW ``Query``'s shape: only the *product* is tested against
        the identity, so backends may share work across the pairs — the
        curve backend runs one Miller accumulator and a **single** final
        exponentiation for the whole product.  This default evaluates the
        pairs one by one, which every backend supports (and which the
        ablation benchmark uses as the per-pair reference).

        Raises:
            CryptoError: If any element belongs to a different group (the
                per-pair :meth:`pair` check, surfaced before any pairing
                math runs).
        """
        for a, b in pairs:
            if a.group != self or b.group != self:
                raise CryptoError(
                    "multi_pair elements from a different group"
                )
        result = self.gt_identity()
        for a, b in pairs:
            result = result * self.pair(a, b)
        return result

    @abc.abstractmethod
    def serialize_element(self, element: GroupElement) -> bytes:
        """Encode an element of ``G`` as bytes (fixed length)."""

    @abc.abstractmethod
    def deserialize_element(self, data: bytes) -> GroupElement:
        """Invert :meth:`serialize_element`.

        Raises:
            SerializationError: If *data* does not encode a group element.
        """

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_subgroup_index(self, index: int) -> None:
        if not 0 <= index < NUM_SUBGROUPS:
            raise CryptoError(
                f"subgroup index {index} out of range [0, {NUM_SUBGROUPS})"
            )

    def exponent_bound_ok(self, bound: int) -> bool:
        """Check the SSW correctness precondition against this group.

        A scheme whose honest inner products have absolute value at most
        *bound* is false-positive-free iff the payload prime ``p2`` exceeds
        *bound* (values reduce mod ``p2`` in the pairing exponent).
        """
        return self.subgroup_primes[SUBGROUP_Q] > bound
