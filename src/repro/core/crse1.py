"""CRSE-I: single-token circular range search (paper Sec. VI-B, Fig. 7).

CRSE-I folds all ``m`` concentric-circle polynomials into the product
``P = P_1 ⋯ P_m`` (zero iff the point is on *some* covering circle, Eq. 7),
splits ``P`` into one long inner product, and runs a single SSW instance.
The result is the stronger scheme — one indivisible token, full SCPA data
and query privacy — at exponential cost: the vector length is
``α = (w+2)^m`` naive, ``C(m+w+1, w+1)`` after the paper's "optimized α"
merge, and ``m`` itself grows like ``O(R²)``.  Table I/II report exactly
this blow-up for ``R ∈ {1, 2, 3}``.

Structural consequences faithfully reproduced here:

* the radius ``R`` is **fixed at** ``GenKey`` and is a public parameter
  (the split's general form depends on ``m``), so one key answers queries
  of one radius only;
* ciphertexts depend on the key's radius (through ``α``), unlike CRSE-II;
* radius hiding (Sec. VI-D) pads ``m`` up to a public ``K`` with dummy
  circles at key-generation time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.core.concircles import gen_con_circle
from repro.core.geometry import Circle, DataSpace
from repro.core.base import CRSEScheme
from repro.core.split import SplitForm, split_product
from repro.crypto.groups.base import CompositeBilinearGroup
from repro.crypto.ssw import (
    SSWCiphertext,
    SSWSecretKey,
    SSWToken,
    ssw_encrypt,
    ssw_gen_token,
    ssw_prepare_tokens,
    ssw_query,
    ssw_setup,
)
from repro.errors import ParameterError, SchemeError

__all__ = ["CRSE1Key", "CRSE1Ciphertext", "CRSE1Token", "CRSE1Scheme"]


@dataclass(frozen=True)
class CRSE1Key:
    """CRSE-I secret key with its public parameters.

    Attributes:
        ssw: SSW key at vector length ``α``.
        split: The product split (public: ``{w, T, R, α, f_u, f_v}``).
        space: The data space.
        r_squared: The fixed query radius (squared) — public by design,
            which is why CRSE-I leaks the radius pattern.
        radii_squared: Squared radii of the ``m`` covering circles (plus
            dummies when radius hiding is on).
    """

    ssw: SSWSecretKey
    split: SplitForm
    space: DataSpace
    r_squared: int
    radii_squared: tuple[int, ...]

    def __repr__(self) -> str:  # redacted: wraps the SSW master key
        return f"CRSE1Key(alpha={self.alpha}, m={self.m}, space={self.space!r})"

    @property
    def m(self) -> int:
        """Number of polynomial factors (including dummy padding)."""
        return len(self.radii_squared)

    @property
    def alpha(self) -> int:
        """SSW vector length."""
        return self.split.alpha


@dataclass(frozen=True)
class CRSE1Ciphertext:
    """Encryption of one point under the product split."""

    ssw: SSWCiphertext

    @property
    def alpha(self) -> int:
        """SSW vector length."""
        return self.ssw.n


@dataclass(frozen=True)
class CRSE1Token:
    """A single indivisible search token."""

    ssw: SSWToken

    @property
    def alpha(self) -> int:
        """SSW vector length."""
        return self.ssw.n

    @cached_property
    def prepared(self) -> SSWToken:
        """The SSW token prepared for a scan (:func:`ssw_prepare_tokens`),
        built on first use and freed with this token."""
        return ssw_prepare_tokens((self.ssw,))[0]


class CRSE1Scheme(CRSEScheme[CRSE1Key, CRSE1Ciphertext, CRSE1Token]):
    """The CRSE-I construction (radius fixed at key generation)."""

    def __init__(
        self,
        space: DataSpace,
        group: CompositeBilinearGroup,
        r_squared: int,
        optimize_split: bool = True,
        hide_radius_to: int | None = None,
    ):
        """Set up CRSE-I for queries of one fixed radius.

        Args:
            space: The data space ``Δ^w_T``.
            group: Bilinear-group backend; its payload prime must exceed
                the product bound (grows like ``bound^m`` — size it with
                :meth:`required_inner_product_bound`).
            r_squared: The fixed squared query radius ``R²``.
            optimize_split: Use the merged split (α = C(m+w+1, w+1)) rather
                than the naive (w+2)^m expansion.
            hide_radius_to: If set to ``K >= m``, pad the product with dummy
                factors so the public parameters reveal only ``K``
                (Sec. VI-D radius hiding for CRSE-I).

        Raises:
            ParameterError / SchemeError: On out-of-domain parameters or an
                undersized group.
        """
        super().__init__(space, group)
        if r_squared < 0:
            raise ParameterError("squared radius must be non-negative")
        self.r_squared = r_squared
        real_radii = gen_con_circle(r_squared, space.w)
        self._m_real = len(real_radii)
        if hide_radius_to is not None:
            if hide_radius_to < len(real_radii):
                raise SchemeError(
                    f"cannot hide m={len(real_radii)} factors inside "
                    f"K={hide_radius_to}"
                )
            dummy_r_sq = space.max_distance_squared() + 1
            real_radii = real_radii + [dummy_r_sq] * (
                hide_radius_to - len(real_radii)
            )
        self._radii_squared = tuple(real_radii)
        self._split = split_product(
            space.w, len(self._radii_squared), optimize=optimize_split
        )
        self.check_group_supports_space()

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of product factors (covering circles plus dummies)."""
        return len(self._radii_squared)

    @property
    def alpha(self) -> int:
        """SSW vector length."""
        return self._split.alpha

    def inner_product_bound(self) -> int:
        return self.required_inner_product_bound(
            self.space, self.r_squared, self.m
        )

    @staticmethod
    def required_inner_product_bound(
        space: DataSpace, r_squared: int, m: int | None = None
    ) -> int:
        """Payload-prime bound for CRSE-I: the single-factor bound to the m-th power.

        ``|P(D)| = ∏ |P_i(D)| <= max(w(T-1)², R²+pad)^m``.
        """
        if m is None:
            m = len(gen_con_circle(r_squared, space.w))
        single = space.boundary_value_bound(
            max(r_squared, space.max_distance_squared() + 1)
        )
        return single**m

    # ------------------------------------------------------------------
    def gen_key(self, rng: random.Random) -> CRSE1Key:
        """``GenKey``: run ``GenConCircle``, ``Split(P1⋯Pm)``, SSW setup."""
        return CRSE1Key(
            ssw=ssw_setup(self.group, self._split.alpha, rng),
            split=self._split,
            space=self.space,
            r_squared=self.r_squared,
            radii_squared=self._radii_squared,
        )

    def encrypt(
        self, key: CRSE1Key, point: Sequence[int], rng: random.Random
    ) -> CRSE1Ciphertext:
        """``Enc``: encrypt the (long) vector ``f_u(D)``."""
        self._check_key(key)
        point = self.space.validate_point(point)
        return CRSE1Ciphertext(
            ssw=ssw_encrypt(key.ssw, key.split.f_u(point), rng)
        )

    def gen_token(
        self, key: CRSE1Key, circle: Circle, rng: random.Random
    ) -> CRSE1Token:
        """``GenToken``: tokenize ``f_v(Q)`` for a circle of the key's radius.

        Raises:
            SchemeError: If the circle's radius differs from the radius
                fixed at key generation (CRSE-I's static-radius limitation,
                paper Sec. VI-B).
        """
        self._check_key(key)
        self.space.validate_circle(circle)
        if circle.r_squared != key.r_squared:
            # Both radii are secrets (the key's fixed radius and the
            # query's); say that they differ, not what they are.
            raise SchemeError(
                "CRSE-I keys fix the query radius at KeyGen; this circle's "
                "radius differs from the key's"
            )
        vector = key.split.f_v(circle.center, list(key.radii_squared))
        return CRSE1Token(ssw=ssw_gen_token(key.ssw, vector, rng))

    def matches(self, token: CRSE1Token, ciphertext: CRSE1Ciphertext) -> bool:
        """``Search`` core: one SSW query over the length-α vectors."""
        if token.alpha != self.alpha or ciphertext.alpha != self.alpha:
            raise SchemeError(
                "token/ciphertext vector length does not match this scheme "
                "(was it produced by a key with a different radius?)"
            )
        return ssw_query(token.prepared, ciphertext.ssw)

    def _check_key(self, key: CRSE1Key) -> None:
        if key.r_squared != self.r_squared or key.split.alpha != self.alpha:
            raise SchemeError(
                "key was generated for a different CRSE-I configuration"
            )
