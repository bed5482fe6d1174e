"""CRSE-II: scalable circular range search via per-circle sub-tokens
(paper Sec. VI-C, Fig. 8).

For a query circle with ``m`` covering concentric circles, ``GenToken``
builds one CPE sub-token per concentric circle and ships them in a freshly
permuted order; ``Search`` evaluates sub-tokens until one matches (the point
is on that concentric circle's boundary, hence inside the query) or all
fail.  Costs: ``O(α)`` per sub-token with ``α = w + 2``, so ``O(α·m)`` per
record worst case and ``m/2`` sub-token evaluations on average for matching
records — the quantities behind Figs. 10-16.

Security (paper Sec. VII / Appendix): weaker than CRSE-I — a shared
sub-token match reveals that two records lie on the *same* concentric
circle (the Fig. 18/19 distinguishing attack), and the sub-token count
reveals the radius.  The radius leak can be blunted by padding with dummy
sub-tokens whose circles lie outside the data space (Sec. VI-D, "Radius
Privacy"), implemented here via ``hide_radius_to``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.core.concircles import gen_con_circle
from repro.core.geometry import Circle, DataSpace
from repro.core.base import CRSEScheme
from repro.core.permute import permute, random_beta
from repro.core.split import SplitForm, split_boundary
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
from repro.errors import SchemeError

__all__ = ["CRSE2Key", "CRSE2Ciphertext", "CRSE2Token", "CRSE2Scheme", "dummy_circle"]


@dataclass(frozen=True, repr=False)
class CRSE2Key:
    """CRSE-II secret key (identical in shape to a CPE key)."""

    ssw: SSWSecretKey
    split: SplitForm
    space: DataSpace

    def __repr__(self) -> str:  # redacted: wraps the SSW master key
        return f"CRSE2Key(alpha={self.ssw.n}, space={self.space!r})"


@dataclass(frozen=True)
class CRSE2Ciphertext:
    """Encryption of one point: a single SSW ciphertext at ``α = w + 2``."""

    ssw: SSWCiphertext

    @property
    def alpha(self) -> int:
        """SSW vector length."""
        return self.ssw.n


@dataclass(frozen=True)
class CRSE2Token:
    """A permuted tuple of sub-tokens ``TK* = (TK*_1, …, TK*_m)``.

    ``num_sub_tokens`` includes any dummy padding, so it equals the real
    ``m`` only when radius hiding is off — which is exactly the radius
    leakage story of Sec. VI-D.
    """

    sub_tokens: tuple[SSWToken, ...]

    @property
    def num_sub_tokens(self) -> int:
        """Total sub-tokens (real + dummy) — what the server observes."""
        return len(self.sub_tokens)

    @cached_property
    def prepared(self) -> tuple[SSWToken, ...]:
        """The sub-tokens prepared for a scan (:func:`ssw_prepare_tokens`).

        Built on first use, all ``m`` sub-tokens in one pass, and freed
        with the token, i.e. after the query; tokens cross process
        boundaries only as codec bytes, so the memo never does.  Memory
        grows as ``O(m)``: about 0.11 MB per sub-token at a 120-bit field.
        """
        return ssw_prepare_tokens(self.sub_tokens)


def dummy_circle(space: DataSpace, center: Sequence[int]) -> Circle:
    """A concentric circle no space point can touch (for radius hiding).

    Its squared radius exceeds the space diameter, so no record is ever on
    its boundary (paper's example: data in [0,100]² padded with ``R=200``).
    """
    return Circle(tuple(center), space.max_distance_squared() + 1)


class CRSE2Scheme(CRSEScheme[CRSE2Key, CRSE2Ciphertext, CRSE2Token]):
    """The CRSE-II construction."""

    def __init__(self, space: DataSpace, group: CompositeBilinearGroup):
        super().__init__(space, group)
        self._split = split_boundary(space.w)
        self.check_group_supports_space()

    @property
    def alpha(self) -> int:
        """Per-sub-token vector length ``α = w + 2``."""
        return self._split.alpha

    def inner_product_bound(self) -> int:
        # Dummy circles use r² = max_distance² + 1, the largest honest value.
        return self.space.max_distance_squared() + 1

    # ------------------------------------------------------------------
    def gen_key(self, rng: random.Random) -> CRSE2Key:
        """``GenKey``: same as CPE's (paper Fig. 8)."""
        return CRSE2Key(
            ssw=ssw_setup(self.group, self._split.alpha, rng),
            split=self._split,
            space=self.space,
        )

    def encrypt(
        self, key: CRSE2Key, point: Sequence[int], rng: random.Random
    ) -> CRSE2Ciphertext:
        """``Enc``: one SSW encryption of ``f_u(D)`` — independent of any radius."""
        point = self.space.validate_point(point)
        return CRSE2Ciphertext(
            ssw=ssw_encrypt(key.ssw, key.split.f_u(point), rng)
        )

    def gen_token(
        self,
        key: CRSE2Key,
        circle: Circle,
        rng: random.Random,
        hide_radius_to: int | None = None,
    ) -> CRSE2Token:
        """``GenToken``: one sub-token per concentric circle, permuted.

        Args:
            key: The secret key.
            circle: The query circle ``Q = {center, R}``.
            rng: Randomness for SSW and the fresh permutation β.
            hide_radius_to: If set to ``K``, pad with dummy sub-tokens so the
                server sees exactly ``K`` sub-tokens (Sec. VI-D radius
                hiding).  Must satisfy ``K >= m``.

        Raises:
            SchemeError: If ``hide_radius_to`` is smaller than ``m``.
        """
        self.space.validate_circle(circle)
        radii_squared = gen_con_circle(circle.r_squared, self.space.w)
        circles = [Circle(circle.center, r_sq) for r_sq in radii_squared]
        if hide_radius_to is not None:
            if hide_radius_to < len(circles):
                raise SchemeError(
                    f"cannot hide m={len(circles)} sub-tokens inside "
                    f"K={hide_radius_to}"
                )
            circles.extend(
                dummy_circle(self.space, circle.center)
                for _ in range(hide_radius_to - len(circles))
            )
        sub_tokens = [
            ssw_gen_token(
                key.ssw,
                key.split.f_v(sub.center, [sub.r_squared]),
                rng,
            )
            for sub in circles
        ]
        beta = random_beta(len(sub_tokens), rng)
        return CRSE2Token(sub_tokens=tuple(permute(sub_tokens, beta)))

    def matches(self, token: CRSE2Token, ciphertext: CRSE2Ciphertext) -> bool:
        """``Search`` core: evaluate sub-tokens until one flags a match."""
        return any(ssw_query(sub, ciphertext.ssw) for sub in token.prepared)

    def matches_with_stats(
        self, token: CRSE2Token, ciphertext: CRSE2Ciphertext
    ) -> tuple[bool, int]:
        """Like :meth:`matches`, also reporting sub-tokens evaluated.

        The early-exit count is the paper's "average case" driver: matching
        records stop after the hit, non-matching records pay all ``m``.
        """
        for evaluated, sub in enumerate(token.prepared, start=1):
            if ssw_query(sub, ciphertext.ssw):
                return True, evaluated
        return False, len(token.sub_tokens)
