"""SSW symmetric-key predicate encryption for inner products.

The paper's Fig. 3 primitive: the Shen-Shi-Waters scheme ("Predicate Privacy
in Encryption Systems", TCC 2009) over a composite-order bilinear group with
``N = p1·p2·p3·p4``.  Data is a vector ``x``, a query is a vector ``v``, and
``Query(TK, C)`` outputs 1 iff ``⟨x, v⟩ = 0`` — without revealing either
vector.  SSW protects both *data privacy* and *query privacy* under
selective chosen-plaintext attacks, which is exactly what CRSE inherits.

Construction (subgroup roles follow :mod:`repro.crypto.groups.base`):

* ``Setup``: secret per-coordinate bases ``h_{1,i}, h_{2,i}, u_{1,i},
  u_{2,i} ∈ G_p``.
* ``Enc(x)``:  ``C = S·g_p^y``, ``C0 = S0·g_p^z``, and for each coordinate
  ``C_{1,i} = h_{1,i}^y · u_{1,i}^z · g_q^{α·x_i} · R_{1,i}``,
  ``C_{2,i} = h_{2,i}^y · u_{2,i}^z · g_q^{β·x_i} · R_{2,i}``
  with fresh ``y, z, α, β ∈ Z_N``, ``S, S0 ∈ G_s``, ``R ∈ G_r``.
* ``GenToken(v)``: ``K = R·∏ h_{1,i}^{-r_{1,i}} h_{2,i}^{-r_{2,i}}``,
  ``K0 = R0·∏ u_{1,i}^{-r_{1,i}} u_{2,i}^{-r_{2,i}}``, and per coordinate
  ``K_{1,i} = g_p^{r_{1,i}} · g_q^{f1·v_i} · S_{1,i}``,
  ``K_{2,i} = g_p^{r_{2,i}} · g_q^{f2·v_i} · S_{2,i}``.
* ``Query``: ``e(C,K) · e(C0,K0) · ∏_i e(C_{1,i},K_{1,i}) ·
  e(C_{2,i},K_{2,i})``.  The ``G_p`` legs telescope away and the product
  collapses to ``e(g_q,g_q)^{(αf1+βf2)·⟨x,v⟩ mod p2}`` — the identity iff
  ``⟨x, v⟩ ≡ 0 (mod p2)``.

Cost/shape facts the paper's evaluation relies on (and our benchmarks
reproduce): a ciphertext and a token are each ``2n + 2`` group elements for
vector length ``n``, and a query costs ``2n + 2`` pairings — evaluated here
as one product-of-pairings (``2n + 2`` Miller loops sharing a single final
exponentiation; see :mod:`repro.crypto.groups.pairing`).

Correctness caveats, handled by callers sizing the payload prime ``p2``
(:func:`repro.crypto.groups.params.params_for_bound`):

* A non-zero inner product divisible by ``p2`` is a false positive, so
  honest inner products must stay below ``p2`` in magnitude.
* With probability ``~1/p2`` the blinding combination ``αf1 + βf2`` vanishes
  mod ``p2`` and a non-match reports a match — the ``negl(λ)`` term in the
  paper's correctness definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.groups.base import (
    SUBGROUP_P,
    SUBGROUP_Q,
    SUBGROUP_R,
    SUBGROUP_S,
    CompositeBilinearGroup,
    GroupElement,
)
from repro.errors import CryptoError

__all__ = [
    "SSWSecretKey",
    "SSWCiphertext",
    "SSWToken",
    "ssw_setup",
    "ssw_encrypt",
    "ssw_gen_token",
    "ssw_query",
    "ssw_prepare_tokens",
    "ssw_query_element_count",
    "ssw_query_pairing_count",
]


@dataclass(frozen=True, repr=False)
class SSWSecretKey:
    """The SSW master secret key.

    Attributes:
        group: The composite-order bilinear group.
        n: Vector length this key supports.
        h1, h2, u1, u2: Per-coordinate secret bases in ``G_p``.
    """

    group: CompositeBilinearGroup
    n: int
    h1: tuple[GroupElement, ...]
    h2: tuple[GroupElement, ...]
    u1: tuple[GroupElement, ...]
    u2: tuple[GroupElement, ...]

    def __repr__(self) -> str:  # redacted: bases are the master secret
        return (
            f"SSWSecretKey(n={self.n}, "
            f"group_bits={self.group.order.bit_length()})"
        )

    def precompute(self) -> int:
        """Build fixed-base tables for every base this key exponentiates.

        ``Enc`` raises each of the ``4n`` key bases (plus the ``G_p``/``G_q``
        generators and the masking-subgroup generators) to fresh exponents
        per record; a dataset encryption or an ``m``-sub-token CRSE-II
        ``GenToken`` therefore reuses the same bases thousands of times.
        Backends with a fixed-base fast path (the curve) amortize the table
        build across those calls; on other backends this is a no-op.

        Called by :func:`ssw_setup`; call it again after deserializing a
        key into a *fresh* group instance (tables live on the group).

        Returns:
            The number of tables actually built.
        """
        built = 0
        for base in (*self.h1, *self.h2, *self.u1, *self.u2):
            built += self.group.precompute_base(base)
        self.group.precompute_generators()
        return built


@dataclass(frozen=True)
class SSWCiphertext:
    """An SSW ciphertext: ``2n + 2`` group elements."""

    c: GroupElement
    c0: GroupElement
    c1: tuple[GroupElement, ...]
    c2: tuple[GroupElement, ...]

    @property
    def n(self) -> int:
        """Vector length."""
        return len(self.c1)

    def elements(self) -> list[GroupElement]:
        """All group elements in canonical order (for serialization)."""
        return [self.c, self.c0, *self.c1, *self.c2]


@dataclass(frozen=True)
class SSWToken:
    """An SSW search token: ``2n + 2`` group elements."""

    k: GroupElement
    k0: GroupElement
    k1: tuple[GroupElement, ...]
    k2: tuple[GroupElement, ...]

    @property
    def n(self) -> int:
        """Vector length."""
        return len(self.k1)

    def elements(self) -> list[GroupElement]:
        """All group elements in canonical order (for serialization)."""
        return [self.k, self.k0, *self.k1, *self.k2]


def ssw_setup(
    group: CompositeBilinearGroup, n: int, rng: random.Random
) -> SSWSecretKey:
    """Run SSW ``Setup``: sample the secret ``G_p`` bases.

    Args:
        group: A composite-order bilinear group backend.
        n: Supported vector length (``α`` in the paper); must be positive.
        rng: Randomness source (callers pass a CSPRNG-backed ``Random`` in
            production and a seeded one in tests).

    Raises:
        CryptoError: If ``n < 1``.
    """
    if n < 1:
        raise CryptoError("SSW vector length must be at least 1")
    gp = group.subgroup_generator(SUBGROUP_P)
    p1 = group.subgroup_primes[SUBGROUP_P]

    def sample_bases() -> tuple[GroupElement, ...]:
        # Exponents in [1, p1) keep every base a generator of G_p.
        return tuple(gp ** rng.randrange(1, p1) for _ in range(n))

    key = SSWSecretKey(
        group=group,
        n=n,
        h1=sample_bases(),
        h2=sample_bases(),
        u1=sample_bases(),
        u2=sample_bases(),
    )
    key.precompute()
    return key


def _check_vector(sk: SSWSecretKey, vector: list[int] | tuple[int, ...]) -> list[int]:
    if len(vector) != sk.n:
        raise CryptoError(
            f"vector length {len(vector)} does not match key length {sk.n}"
        )
    order = sk.group.order
    return [value % order for value in vector]


def _nonzero_exponent(group: CompositeBilinearGroup, rng: random.Random) -> int:
    """Sample an exponent that is non-zero modulo the payload prime."""
    p2 = group.subgroup_primes[SUBGROUP_Q]
    while True:
        value = group.random_exponent(rng)
        if value % p2:
            return value


def ssw_encrypt(
    sk: SSWSecretKey, x: list[int] | tuple[int, ...], rng: random.Random
) -> SSWCiphertext:
    """Run SSW ``Enc``: encrypt the data vector *x*.

    Entries may be any integers (negative allowed); they are reduced modulo
    the group order.
    """
    x_red = _check_vector(sk, x)
    group = sk.group
    gp = group.subgroup_generator(SUBGROUP_P)
    gq = group.subgroup_generator(SUBGROUP_Q)

    y = group.random_exponent(rng)
    z = group.random_exponent(rng)
    alpha = _nonzero_exponent(group, rng)
    beta = _nonzero_exponent(group, rng)

    c = group.random_subgroup_element(SUBGROUP_S, rng) * gp**y
    c0 = group.random_subgroup_element(SUBGROUP_S, rng) * gp**z
    c1 = []
    c2 = []
    for i, xi in enumerate(x_red):
        payload = gq**xi
        c1.append(
            sk.h1[i] ** y
            * sk.u1[i] ** z
            * payload**alpha
            * group.random_subgroup_element(SUBGROUP_R, rng)
        )
        c2.append(
            sk.h2[i] ** y
            * sk.u2[i] ** z
            * payload**beta
            * group.random_subgroup_element(SUBGROUP_R, rng)
        )
    return SSWCiphertext(c=c, c0=c0, c1=tuple(c1), c2=tuple(c2))


def ssw_gen_token(
    sk: SSWSecretKey, v: list[int] | tuple[int, ...], rng: random.Random
) -> SSWToken:
    """Run SSW ``GenToken``: build a search token for the predicate vector *v*."""
    v_red = _check_vector(sk, v)
    group = sk.group
    gp = group.subgroup_generator(SUBGROUP_P)
    gq = group.subgroup_generator(SUBGROUP_Q)

    f1 = _nonzero_exponent(group, rng)
    f2 = _nonzero_exponent(group, rng)
    r1 = [group.random_exponent(rng) for _ in range(sk.n)]
    r2 = [group.random_exponent(rng) for _ in range(sk.n)]

    k = group.random_subgroup_element(SUBGROUP_R, rng)
    k0 = group.random_subgroup_element(SUBGROUP_R, rng)
    for i in range(sk.n):
        k = k * sk.h1[i] ** (-r1[i]) * sk.h2[i] ** (-r2[i])
        k0 = k0 * sk.u1[i] ** (-r1[i]) * sk.u2[i] ** (-r2[i])

    k1 = []
    k2 = []
    for i, vi in enumerate(v_red):
        payload = gq**vi
        k1.append(
            gp ** r1[i]
            * payload**f1
            * group.random_subgroup_element(SUBGROUP_S, rng)
        )
        k2.append(
            gp ** r2[i]
            * payload**f2
            * group.random_subgroup_element(SUBGROUP_S, rng)
        )
    return SSWToken(k=k, k0=k0, k1=tuple(k1), k2=tuple(k2))


def ssw_query(token: SSWToken, ciphertext: SSWCiphertext) -> bool:
    """Run SSW ``Query``: return True iff the inner product matches zero.

    Costs ``2n + 2`` Miller loops, evaluated as a *product of pairings*
    (:meth:`~repro.crypto.groups.base.CompositeBilinearGroup.multi_pair`):
    only the product is compared against the identity, so the curve backend
    shares one Miller accumulator and performs a single final exponentiation
    instead of ``2n + 2``.

    Raises:
        CryptoError: If the token and ciphertext lengths disagree, or if
            they were built over different group instances (mismatched
            backends or parameters fail here with a typed error instead of
            an opaque failure deep inside the pairing arithmetic).
    """
    if token.n != ciphertext.n:
        raise CryptoError(
            f"token length {token.n} does not match ciphertext length "
            f"{ciphertext.n}"
        )
    group = token.k.group
    if ciphertext.c.group != group:
        raise CryptoError(
            "token and ciphertext were built over different groups"
        )
    # Token first: the reduced pairing is symmetric on the cyclic order-N
    # subgroup, ê(aG, bG) = ê(G, G)^{ab} = ê(bG, aG), so the token can be
    # the Miller point — the argument a scan holds fixed, which
    # ssw_prepare_tokens prepares once for every record.
    pairs = [
        (token.k, ciphertext.c),
        (token.k0, ciphertext.c0),
        *zip(token.k1, ciphertext.c1),
        *zip(token.k2, ciphertext.c2),
    ]
    return group.multi_pair(pairs).is_identity()


def ssw_prepare_tokens(tokens: Sequence[SSWToken]) -> tuple[SSWToken, ...]:
    """Prepare *tokens* for scanning many ciphertexts.

    Every token element becomes a fixed pairing argument
    (:meth:`~repro.crypto.groups.base.CompositeBilinearGroup.prepare_fixed`)
    in one pass over all the tokens' elements, so the curve backend shares
    each Miller step's inversion across all of them.  The returned tokens
    are equal to the inputs and give the same :func:`ssw_query` answers;
    on backends without a fixed-argument fast path they are the inputs'
    elements unchanged.
    """
    if not tokens:
        return ()
    group = tokens[0].k.group
    flat = group.prepare_fixed(
        [element for token in tokens for element in token.elements()]
    )
    prepared = []
    start = 0
    for token in tokens:
        n = token.n
        k, k0, *rest = flat[start : start + 2 * n + 2]
        prepared.append(
            SSWToken(k=k, k0=k0, k1=tuple(rest[:n]), k2=tuple(rest[n:]))
        )
        start += 2 * n + 2
    return tuple(prepared)


def ssw_query_pairing_count(n: int) -> int:
    """Number of pairing evaluations in ``Query`` for vector length *n*."""
    return 2 * n + 2


def ssw_query_element_count(n: int) -> int:
    """Group elements in one ciphertext (equivalently, one token)."""
    return 2 * n + 2
