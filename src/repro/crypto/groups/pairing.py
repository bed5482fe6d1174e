"""Tate pairing on the supersingular curve and the real group backend.

Implements the modified (distortion-map) Tate pairing

    ê(P, Q) = f_{N,P}(φ(Q)) ^ ((q² - 1) / N),    φ(x, y) = (-x, i·y),

via Miller's algorithm.  Because the embedding degree is 2 and ``φ(Q)`` has
its x-coordinate in the base field, *denominator elimination* applies: every
vertical-line factor lies in ``F_q*`` and is annihilated by the final
exponentiation, so the Miller loop multiplies only the (tangent/secant) line
values.  The final exponentiation itself collapses to the cheap form
``(conj(f) / f) ^ l`` with ``l = (q + 1) / N``, using the Frobenius
``f^q = conj(f)`` on ``F_q²``.

This file also provides :class:`SupersingularPairingGroup`, the production
backend implementing :class:`repro.crypto.groups.base.CompositeBilinearGroup`
on the curve — the pure-Python stand-in for the paper's GMP+PBC stack.

Two Miller-loop implementations coexist:

* :func:`miller_loop` / :func:`reduced_tate_pairing` — the textbook affine
  version (one modular inversion per point operation, one final
  exponentiation per pairing).  Kept as the auditable reference and as the
  "naive" arm of the ablation benchmark.
* :func:`multi_miller_loop` / :func:`product_tate_pairing` — the hot path:
  evaluates a whole *product* ``∏ ê(P_i, Q_i)`` with one shared accumulator.
  Points advance in Jacobian coordinates and line values are scaled by
  ``F_q*`` factors instead of inverted denominators (sound for the same
  reason denominator elimination is: anything in ``F_q*`` dies under the
  ``(q - 1)``-part of the final exponentiation), so the loop performs **no**
  modular inversions; the accumulator squares once per bit regardless of
  how many pairs ride along, and one single final exponentiation reduces
  the whole product.  :meth:`SupersingularPairingGroup.multi_pair` exposes
  this to SSW's ``Query``, collapsing its ``2n + 2`` final exponentiations
  into one.

A third path serves the scan, where one token meets every record:
:func:`fixed_argument_lines` / :func:`fixed_argument_pairing` (Costello and
Stebila, "Fixed Argument Pairings", LATINCRYPT 2010).  The Miller point's
walk ``T ← 2T, T ← T + P`` does not depend on the second argument, so its
per-step line ``(λ, c = λ·x_T − y_T)`` is computed once per fixed point
(:meth:`SupersingularPairingGroup.prepare_fixed`); each later evaluation
costs one multiply plus the ``F_q²`` accumulator update per step.
"""

from __future__ import annotations

import functools
import random
from typing import Sequence

from repro.crypto.groups.base import (
    NUM_SUBGROUPS,
    CompositeBilinearGroup,
    GroupElement,
    TargetElement,
)
from repro.crypto.groups.curve import (
    INFINITY,
    FixedBaseTable,
    Point,
    SupersingularCurve,
)
from repro.crypto.groups.field import Fq2
from repro.crypto.groups.params import PairingParams
from repro.errors import CryptoError, SerializationError
from repro.math.modular import batch_modinv, modinv

__all__ = [
    "miller_loop",
    "multi_miller_loop",
    "reduced_tate_pairing",
    "product_tate_pairing",
    "fixed_argument_lines",
    "fixed_argument_pairing",
    "SupersingularPairingGroup",
    "CurveElement",
    "PreparedCurveElement",
    "PairingTargetElement",
]


def _line_value(
    curve: SupersingularCurve,
    t: Point,
    s: Point,
    eval_x: int,
    eval_y_imag: int,
) -> Fq2 | None:
    """Evaluate the line through *t* and *s* at ``(eval_x, i·eval_y_imag)``.

    Returns None when the line is vertical (or touches infinity): those
    values lie in ``F_q*`` and are eliminated by the final exponentiation.
    """
    q = curve.q
    if t.infinite or s.infinite:
        return None
    if t.x == s.x:
        if (t.y + s.y) % q == 0:
            return None  # vertical chord (t == -s) or 2-torsion tangent
        slope = (3 * t.x * t.x + 1) * modinv(2 * t.y % q, q) % q
    else:
        slope = (s.y - t.y) * modinv((s.x - t.x) % q, q) % q
    # l(X, Y) = Y - y_t - slope·(X - x_t) at X = eval_x, Y = i·eval_y_imag.
    real = (-t.y - slope * (eval_x - t.x)) % q
    return Fq2(q, real, eval_y_imag)


def miller_loop(
    curve: SupersingularCurve, p: Point, q_point: Point, order: int
) -> Fq2:
    """Compute ``f_{order,p}(φ(q_point))`` with denominator elimination.

    Args:
        curve: The ambient curve.
        p: First pairing argument; its order must divide *order*.
        q_point: Second pairing argument (distortion map applied here).
        order: The Miller loop length, the group order ``N``.

    Returns:
        The unreduced pairing value in ``F_q²``.
    """
    field_q = curve.q
    eval_x = (-q_point.x) % field_q  # x-coordinate of φ(Q)
    eval_y = q_point.y % field_q  # imaginary part of φ(Q)'s y-coordinate
    f = Fq2.one(field_q)
    t = p
    for bit in bin(order)[3:]:  # skip the leading 1 bit
        line = _line_value(curve, t, t, eval_x, eval_y)
        f = f.square() if line is None else f.square() * line
        t = curve.double(t)
        if bit == "1":
            line = _line_value(curve, t, p, eval_x, eval_y)
            if line is not None:
                f = f * line
            t = curve.add(t, p)
    return f


def reduced_tate_pairing(
    curve: SupersingularCurve, p: Point, q_point: Point, order: int, cofactor: int
) -> Fq2:
    """Return the reduced modified Tate pairing ``ê(p, q_point)``.

    The reduction exponent ``(q² - 1)/N`` factors as ``(q - 1) · l`` with
    ``l = (q + 1)/N = cofactor``; the ``q - 1`` part is a Frobenius divide.
    """
    if p.infinite or q_point.infinite:
        return Fq2.one(curve.q)
    f = miller_loop(curve, p, q_point, order)
    reduced = f.conjugate() * f.inverse()  # f^(q-1)
    return reduced**cofactor


def multi_miller_loop(
    curve: SupersingularCurve,
    pairs: list[tuple[Point, Point]],
    order: int,
) -> Fq2:
    """Compute ``∏ f_{order,P_i}(φ(Q_i))`` with one shared accumulator.

    The loop over the bits of *order* is run once: each pair keeps its own
    running point ``T_i`` (in Jacobian coordinates, so point updates need no
    modular inversion) while a single ``F_q²`` accumulator absorbs every
    pair's line value and is squared once per bit.  Line values are scaled
    by per-step ``F_q*`` factors (the deferred Jacobian denominators); the
    final exponentiation annihilates ``F_q*``, so the *reduced* product is
    unchanged — the same argument that justifies denominator elimination.

    Pairs with an infinite argument contribute the factor 1 and are skipped.

    Returns:
        The unreduced product in ``F_q²`` (equal to the product of the
        per-pair Miller values up to a factor in ``F_q*``).
    """
    q = curve.q
    # Per-pair state: [X, Y, Z, px, py, eval_x, eval_y] — the Jacobian
    # running point T, the affine base P, and φ(Q)'s evaluation coords.
    states = [
        [p.x, p.y, 1, p.x, p.y, (-qp.x) % q, qp.y % q]
        for p, qp in pairs
        if not (p.infinite or qp.infinite)
    ]
    fr, fi = 1, 0  # the shared accumulator, as raw F_q² coefficients
    for bit in bin(order)[3:]:  # skip the leading 1 bit
        # f ← f²  (one squaring for the whole product)
        fr, fi = (fr - fi) * (fr + fi) % q, 2 * fr * fi % q
        for state in states:
            x, y, z = state[0], state[1], state[2]
            if z == 0:
                continue  # T = O: stays O, vertical lines only
            if y == 0:
                state[2] = 0  # 2-torsion: vertical tangent, 2T = O
                continue
            # Tangent line at T evaluated at (eval_x, i·eval_y), scaled by
            # 2YZ³ ∈ F_q*:  real = −2Y² − M(Z²·x_e − X),  imag = 2YZ³·y_e.
            xx = x * x % q
            yy = y * y % q
            zz = z * z % q
            m = (3 * xx + zz * zz) % q
            lr = (-2 * yy - m * (zz * state[5] - x)) % q
            li = 2 * y * z % q * zz % q * state[6] % q
            fr, fi = (fr * lr - fi * li) % q, (fr * li + fi * lr) % q
            # T ← 2T (Jacobian doubling, reusing the shared intermediates).
            s = 4 * x * yy % q
            x3 = (m * m - 2 * s) % q
            state[0] = x3
            state[1] = (m * (s - x3) - 8 * yy * yy) % q
            state[2] = 2 * y * z % q
        if bit == "1":
            for state in states:
                x, y, z, px, py = state[0], state[1], state[2], state[3], state[4]
                if z == 0:
                    # T = O: T + P = P, the line is vertical — no factor.
                    state[0], state[1], state[2] = px, py, 1
                    continue
                zz = z * z % q
                h = (px * zz - x) % q
                r = (py * z % q * zz - y) % q
                if h == 0:
                    if r == 0:
                        # T = P: chord degenerates to the tangent at T.
                        xx = x * x % q
                        yy = y * y % q
                        m = (3 * xx + zz * zz) % q
                        lr = (-2 * yy - m * (zz * state[5] - x)) % q
                        li = 2 * y * z % q * zz % q * state[6] % q
                        fr, fi = (
                            (fr * lr - fi * li) % q,
                            (fr * li + fi * lr) % q,
                        )
                        s = 4 * x * yy % q
                        x3 = (m * m - 2 * s) % q
                        state[0] = x3
                        state[1] = (m * (s - x3) - 8 * yy * yy) % q
                        state[2] = 2 * y * z % q
                    else:
                        state[2] = 0  # T = −P: vertical chord, T + P = O
                    continue
                # Chord through T and P at (eval_x, i·eval_y), scaled by
                # ZH ∈ F_q*:  real = −ZH·y_P − R(x_e − x_P),  imag = ZH·y_e.
                zh = z * h % q
                lr = (-zh * py - r * (state[5] - px)) % q
                li = zh * state[6] % q
                fr, fi = (fr * lr - fi * li) % q, (fr * li + fi * lr) % q
                # T ← T + P (mixed Jacobian addition, reusing H and R).
                hh = h * h % q
                hhh = h * hh % q
                v = x * hh % q
                x3 = (r * r - hhh - 2 * v) % q
                state[0] = x3
                state[1] = (r * (v - x3) - y * hhh) % q
                state[2] = zh
    return Fq2(q, fr, fi)


def product_tate_pairing(
    curve: SupersingularCurve,
    pairs: list[tuple[Point, Point]],
    order: int,
    cofactor: int,
) -> Fq2:
    """Return the reduced product ``∏ ê(P_i, Q_i)``.

    One shared Miller loop (:func:`multi_miller_loop`) and one single final
    exponentiation ``f ↦ (conj(f)/f)^cofactor`` replace ``len(pairs)``
    independent pairings.  Soundness: the final exponentiation is a group
    homomorphism, so reducing the product equals the product of the
    reductions — and SSW-style match tests only ever inspect the product.
    """
    f = multi_miller_loop(curve, pairs, order)
    reduced = f.conjugate() * f.inverse()  # f^(q-1)
    return reduced**cofactor


#: Line-table entry for a Miller step with no line factor: a vertical line
#: (or one touching infinity), whose value lies in ``F_q*`` and dies in the
#: final exponentiation.  Real entries are non-negative.
_VERTICAL = -1


@functools.lru_cache(maxsize=8)
def _miller_steps(order: int) -> tuple[bool, ...]:
    """The Miller loop's steps for *order*: True for a doubling (tangent)
    step, which squares the accumulator first; False for an addition
    (chord) step.  ``bitlen(order) − 1`` doublings and
    ``popcount(order) − 1`` additions."""
    steps: list[bool] = []
    for bit in bin(order)[3:]:  # skip the leading 1 bit
        steps.append(True)
        if bit == "1":
            steps.append(False)
    return tuple(steps)


def fixed_argument_lines(
    curve: SupersingularCurve, points: Sequence[Point], order: int
) -> list[list[int]]:
    """Precompute the Miller lines of every point in *points*.

    For each point ``P`` the loop walks ``T`` from ``P`` exactly as
    :func:`multi_miller_loop` does and records, per step, the line's slope
    ``λ`` and intercept ``c = λ·x_T − y_T`` packed into one integer
    ``λ·2^b + c`` (``b`` = the bit length of ``q``; a third less memory
    than two integers), ``_VERTICAL`` marking a step without a line
    factor.  The points advance in lockstep in affine coordinates, so each
    step costs one :func:`~repro.math.modular.batch_modinv` shared by all
    of them.

    Returns:
        One table per point, one entry per step of ``_miller_steps(order)``;
        an empty table for the point at infinity (its pairings are 1).
    """
    q = curve.q
    shift = q.bit_length()
    tables: list[list[int]] = [[] for _ in points]
    live = [i for i, point in enumerate(points) if not point.infinite]
    tx = [point.x for point in points]
    ty = [point.y for point in points]
    at_infinity = [False] * len(points)

    def advance(slopes: list[tuple[int, int, int, int]]) -> None:
        # slopes: (index, numerator, denominator, x of the other point).
        inverses = batch_modinv([den for _, _, den, _ in slopes], q)
        for (i, num, _, x2), inverse in zip(slopes, inverses):
            lam = num * inverse % q
            x, y = tx[i], ty[i]
            tables[i].append(lam << shift | (lam * x - y) % q)
            x3 = (lam * lam - x - x2) % q
            tx[i], ty[i] = x3, (lam * (x - x3) - y) % q

    for doubling in _miller_steps(order):
        slopes = []
        for i in live:
            x, y = tx[i], ty[i]
            if doubling:
                if at_infinity[i] or y == 0:
                    # T = O stays O; a 2-torsion T has a vertical tangent.
                    at_infinity[i] = True
                    tables[i].append(_VERTICAL)
                else:
                    slopes.append((i, 3 * x * x + 1, 2 * y, x))
                continue
            px, py = points[i].x, points[i].y
            if at_infinity[i]:
                # T = O: T + P = P along a vertical line.
                at_infinity[i] = False
                tx[i], ty[i] = px, py
                tables[i].append(_VERTICAL)
            elif x != px:
                slopes.append((i, py - y, px - x, px))
            elif (y + py) % q == 0:
                # T = −P: vertical chord, T + P = O.
                at_infinity[i] = True
                tables[i].append(_VERTICAL)
            else:
                # T = P: the chord degenerates to the tangent at T.
                slopes.append((i, 3 * x * x + 1, 2 * y, px))
        advance(slopes)
    return tables


def fixed_argument_pairing(
    curve: SupersingularCurve,
    pairs: Sequence[tuple[list[int], Point]],
    order: int,
    cofactor: int,
) -> Fq2:
    """Return the reduced product ``∏ ê(P_i, Q_i)`` from prepared lines.

    Each pair is ``(lines of P_i, Q_i)`` with the lines from
    :func:`fixed_argument_lines`.  One shared accumulator, squared once per
    doubling step; per pair and step the line at ``φ(Q) = (−x_Q, i·y_Q)``
    is ``λ·x_Q + c + i·y_Q``, so a step costs one multiply plus the
    ``F_q²`` update — no point arithmetic.  Equal to
    :func:`product_tate_pairing` on the same pairs (differentially tested).
    """
    q = curve.q
    shift = q.bit_length()
    mask = (1 << shift) - 1
    rows = [
        (lines, point.x, point.y)
        for lines, point in pairs
        if lines and not point.infinite
    ]
    fr, fi = 1, 0  # the shared accumulator, as raw F_q² coefficients
    for step, doubling in enumerate(_miller_steps(order)):
        if doubling:
            fr, fi = (fr - fi) * (fr + fi) % q, 2 * fr * fi % q
        for lines, x, y in rows:
            line = lines[step]
            if line != _VERTICAL:
                real = (line >> shift) * x + (line & mask)  # λ·x_Q + c
                fr, fi = (fr * real - fi * y) % q, (fr * y + fi * real) % q
    f = Fq2(q, fr, fi)
    reduced = f.conjugate() * f.inverse()  # f^(q-1)
    return reduced**cofactor


class CurveElement(GroupElement):
    """A point of the order-``N`` subgroup, as an abstract group element."""

    __slots__ = ("_group", "_point")

    def __init__(self, group: "SupersingularPairingGroup", point: Point):
        self._group = group
        self._point = point

    @property
    def group(self) -> "SupersingularPairingGroup":
        return self._group

    @property
    def point(self) -> Point:
        """The underlying affine point."""
        return self._point

    def _mul(self, other: GroupElement) -> "CurveElement":
        if not isinstance(other, CurveElement):
            raise CryptoError("cannot combine curve and non-curve elements")
        return CurveElement(
            self._group, self._group.curve.add(self._point, other._point)
        )

    def _pow(self, exponent: int) -> "CurveElement":
        group = self._group
        scalar = exponent % group.order
        table = group._fixed_tables.get(self._point)
        if table is not None:
            return CurveElement(group, table.multiply(scalar))
        return CurveElement(group, group.curve.multiply(self._point, scalar))

    def is_identity(self) -> bool:
        return self._point.infinite

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurveElement):
            return NotImplemented
        return self._group == other._group and self._point == other._point

    def __hash__(self) -> int:
        return hash((self._group, self._point))

    def __repr__(self) -> str:
        return f"CurveElement({self._point!r})"


class PreparedCurveElement(CurveElement):
    """A curve element carrying its Miller line table.

    Built by :meth:`SupersingularPairingGroup.prepare_fixed`; as the first
    argument of :meth:`~SupersingularPairingGroup.multi_pair` it skips the
    point arithmetic.  Otherwise it behaves (and compares) exactly like its
    plain :class:`CurveElement`.
    """

    __slots__ = ("lines",)

    def __init__(
        self, group: "SupersingularPairingGroup", point: Point, lines: list[int]
    ):
        super().__init__(group, point)
        self.lines = lines

    def __repr__(self) -> str:
        return f"PreparedCurveElement({self._point!r})"


class PairingTargetElement(TargetElement):
    """A reduced pairing value in the order-``N`` subgroup of ``F_q²*``."""

    __slots__ = ("_group", "_value")

    def __init__(self, group: "SupersingularPairingGroup", value: Fq2):
        self._group = group
        self._value = value

    @property
    def value(self) -> Fq2:
        """The underlying field element."""
        return self._value

    def _mul(self, other: TargetElement) -> "PairingTargetElement":
        if not isinstance(other, PairingTargetElement):
            raise CryptoError("cannot combine pairing and non-pairing targets")
        if other._group != self._group:
            raise CryptoError("target elements from different groups")
        return PairingTargetElement(self._group, self._value * other._value)

    def _pow(self, exponent: int) -> "PairingTargetElement":
        scalar = exponent % self._group.order
        return PairingTargetElement(self._group, self._value**scalar)

    def is_identity(self) -> bool:
        return self._value.is_one()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairingTargetElement):
            return NotImplemented
        return self._group == other._group and self._value == other._value

    def __hash__(self) -> int:
        return hash((self._group, self._value))

    def __repr__(self) -> str:
        return f"PairingTargetElement({self._value!r})"


class SupersingularPairingGroup(CompositeBilinearGroup):
    """The order-``N`` subgroup of ``y² = x³ + x`` over ``F_q`` (Type A1)."""

    def __init__(self, params: PairingParams):
        """Build the group and fix a full-order generator.

        The generator is derived deterministically from the parameters, so
        two groups built from equal parameters are interoperable.

        Raises:
            ParameterError: If *params* fail validation.
        """
        params.validate()
        self._params = params
        self.curve = SupersingularCurve(params.field_prime)
        self._order = params.group_order
        # Fixed-base windowing tables, keyed by base point.  Consulted on
        # every exponentiation; populated only via precompute_base().
        self._fixed_tables: dict[Point, FixedBaseTable] = {}
        self._generator = self._find_generator()
        cofactors = [
            self._order // p for p in params.subgroup_primes
        ]
        self._subgroup_generators = tuple(
            CurveElement(
                self, self.curve.multiply(self._generator, c)
            )
            for c in cofactors
        )

    def _find_generator(self) -> Point:
        """Find a point of exact order ``N`` with a non-degenerate pairing."""
        # The generator is *public* and must derive deterministically from
        # the parameters so independently-built groups interoperate (see
        # class docstring); this seeded RNG produces no secret material.
        # reprolint: ignore[CRS001]
        rng = random.Random(self._params.field_prime ^ 0x9E3779B97F4A7C15)
        for _ in range(256):
            candidate = self.curve.multiply(
                self.curve.random_point(rng), self._params.cofactor
            )
            if candidate.infinite:
                continue
            if any(
                self.curve.multiply(candidate, self._order // p).infinite
                for p in self._params.subgroup_primes
            ):
                continue
            pairing = reduced_tate_pairing(
                self.curve,
                candidate,
                candidate,
                self._order,
                self._params.cofactor,
            )
            if all(
                not (pairing ** (self._order // p)).is_one()
                for p in self._params.subgroup_primes
            ):
                return candidate
        raise CryptoError("could not find a full-order generator")

    # ------------------------------------------------------------------
    def _equality_key(self) -> tuple:
        return (type(self), self._params)

    @property
    def params(self) -> PairingParams:
        """The Type-A1 parameters this group was built from."""
        return self._params

    @property
    def subgroup_primes(self) -> tuple[int, int, int, int]:
        return self._params.subgroup_primes

    @property
    def order(self) -> int:
        return self._order

    @property
    def element_byte_length(self) -> int:
        return self.curve.compressed_byte_length()

    def identity(self) -> CurveElement:
        return CurveElement(self, INFINITY)

    def gt_identity(self) -> PairingTargetElement:
        return PairingTargetElement(self, Fq2.one(self.curve.q))

    def generator(self) -> CurveElement:
        return CurveElement(self, self._generator)

    def subgroup_generator(self, index: int) -> CurveElement:
        self._check_subgroup_index(index)
        return self._subgroup_generators[index]

    def precompute_base(self, element: GroupElement) -> bool:
        """Build a fixed-base windowing table for *element* (idempotent).

        Every subsequent ``element ** k`` resolves through the cached
        :class:`~repro.crypto.groups.curve.FixedBaseTable` — one mixed
        addition per exponent window instead of full double-and-add.

        Raises:
            CryptoError: If *element* is not a member of this group.
        """
        if not isinstance(element, CurveElement) or element.group != self:
            raise CryptoError("cannot precompute a foreign group element")
        point = element.point
        if point.infinite or point in self._fixed_tables:
            return False
        self._fixed_tables[point] = FixedBaseTable(
            self.curve, point, self._order.bit_length()
        )
        return True

    @property
    def precomputed_base_count(self) -> int:
        """How many fixed-base tables are currently cached."""
        return len(self._fixed_tables)

    def pair(self, a: GroupElement, b: GroupElement) -> PairingTargetElement:
        if not isinstance(a, CurveElement) or not isinstance(b, CurveElement):
            raise CryptoError("pairing requires curve elements")
        if a.group != self or b.group != self:
            raise CryptoError("pairing elements from a different group")
        value = product_tate_pairing(
            self.curve,
            [(a.point, b.point)],
            self._order,
            self._params.cofactor,
        )
        return PairingTargetElement(self, value)

    def prepare_fixed(
        self, elements: Sequence[GroupElement]
    ) -> list[PreparedCurveElement]:
        """Attach Miller line tables to *elements*, all in one lockstep pass.

        Costs about one Miller loop per element; pays off once an element
        is the first argument of two or more pairings.

        Raises:
            CryptoError: If any element is not a curve element of this group.
        """
        points = []
        for element in elements:
            if not isinstance(element, CurveElement) or element.group != self:
                raise CryptoError("cannot prepare a foreign group element")
            points.append(element.point)
        tables = fixed_argument_lines(self.curve, points, self._order)
        return [
            PreparedCurveElement(self, point, lines)
            for point, lines in zip(points, tables)
        ]

    def multi_pair(
        self, pairs: list[tuple[GroupElement, GroupElement]]
    ) -> PairingTargetElement:
        """Product of pairings with one Miller loop and one final exp.

        When every first argument is prepared (:meth:`prepare_fixed`) the
        loop reads their line tables (:func:`fixed_argument_pairing`);
        otherwise it runs :func:`product_tate_pairing` on the points.

        Raises:
            CryptoError: If any element is not a curve element of this
                group (mismatched backends fail here with a typed error
                instead of deep inside the pairing arithmetic).
        """
        points: list[tuple[Point, Point]] = []
        prepared: list[tuple[list[int], Point]] = []
        for a, b in pairs:
            if not isinstance(a, CurveElement) or not isinstance(b, CurveElement):
                raise CryptoError("multi_pair requires curve elements")
            if a.group != self or b.group != self:
                raise CryptoError("multi_pair elements from a different group")
            points.append((a.point, b.point))
            if isinstance(a, PreparedCurveElement):
                prepared.append((a.lines, b.point))
        if len(prepared) == len(points):
            value = fixed_argument_pairing(
                self.curve, prepared, self._order, self._params.cofactor
            )
        else:
            value = product_tate_pairing(
                self.curve, points, self._order, self._params.cofactor
            )
        return PairingTargetElement(self, value)

    def serialize_element(self, element: GroupElement) -> bytes:
        if not isinstance(element, CurveElement) or element.group != self:
            raise SerializationError("element does not belong to this group")
        return self.curve.compress(element.point)

    def is_member(self, point: Point) -> bool:
        """True if *point* lies in the order-``N`` subgroup.

        Decompression only proves the point is on the curve, which has
        ``l·N`` points; a point of order dividing ``l`` but not ``N`` would
        survive decoding and corrupt pairing results (a small-subgroup
        confinement vector).  Membership is ``[N]P = O``.
        """
        return self.curve.multiply(point, self._order).infinite

    def deserialize_element(self, data: bytes) -> CurveElement:
        try:
            point = self.curve.decompress(data)
        except CryptoError as exc:
            raise SerializationError(str(exc)) from exc
        if not self.is_member(point):
            raise SerializationError(
                "point is on the curve but outside the order-N subgroup"
            )
        return CurveElement(self, point)

    def __repr__(self) -> str:
        return (
            "SupersingularPairingGroup("
            f"q={self._params.field_prime.bit_length()} bits, "
            f"N={self._order.bit_length()} bits)"
        )


# Keep NUM_SUBGROUPS imported name used (role order documented in base).
_ = NUM_SUBGROUPS
