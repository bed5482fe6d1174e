"""The supersingular elliptic curve ``y² = x³ + x`` over ``F_q``.

This is the curve the paper selects ("we choose super-singular curve
``y² = x³ + x`` to achieve the fastest performance in PBC", Sec. VIII).
For ``q ≡ 3 (mod 4)`` it is supersingular with exactly ``q + 1`` rational
points and embedding degree 2, which is what makes the composite-order
Type-A1 construction work: pick ``q = l·N - 1`` and the curve contains a
subgroup of any order dividing ``l·N``.

The public group law (``add``/``double``) stays in affine coordinates with
the textbook chord-and-tangent formulas, auditable against any reference.
The *hot path* is different: scalar multiplication runs in Jacobian
projective coordinates ``(X, Y, Z)`` with ``x = X/Z², y = Y/Z³`` — no
modular inversion per point operation — recodes the scalar in width-``w``
NAF form, and normalizes whole precomputation tables back to affine with a
single batched inversion (:func:`repro.math.modular.batch_modinv`).  Fixed
bases (generators, SSW key bases) get radix-``2^w`` windowing tables
(:class:`FixedBaseTable`) so a scalar multiplication collapses to one mixed
addition per window.  The original double-and-add survives as
:meth:`SupersingularCurve.multiply_naive` for differential tests and the
ablation benchmark.
"""

from __future__ import annotations

import random

from repro.errors import CryptoError
from repro.math.modular import batch_modinv, modinv, sqrt_mod

__all__ = ["Point", "INFINITY", "SupersingularCurve", "FixedBaseTable"]


class Point:
    """An affine point ``(x, y)`` or the point at infinity."""

    __slots__ = ("x", "y", "_infinite")

    def __init__(self, x: int = 0, y: int = 0, infinite: bool = False):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_infinite", infinite)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("curve points are immutable")

    @property
    def infinite(self) -> bool:
        """True for the point at infinity (the group identity)."""
        return self._infinite

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self._infinite or other._infinite:
            return self._infinite and other._infinite
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self._infinite:
            return hash("infinity")
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        if self._infinite:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point(infinite=True)


# ----------------------------------------------------------------------
# Jacobian projective arithmetic on y² = x³ + x (curve coefficient a = 1).
#
# A point is a plain ``(X, Y, Z)`` tuple with ``x = X/Z², y = Y/Z³``;
# ``Z = 0`` encodes the point at infinity.  No formula below performs a
# modular inversion — that is the whole point (one inversion per *batch*
# happens only when converting back to affine).  The pairing module reuses
# these helpers for its inversion-free Miller loop.
# ----------------------------------------------------------------------

JAC_INFINITY = (1, 1, 0)


def jac_from_affine(point: Point) -> tuple[int, int, int]:
    """Lift an affine :class:`Point` to Jacobian coordinates."""
    if point.infinite:
        return JAC_INFINITY
    return (point.x, point.y, 1)


def jac_to_affine(jac: tuple[int, int, int], q: int) -> Point:
    """Project a Jacobian triple back to an affine :class:`Point`.

    Costs the one modular inversion the Jacobian pipeline deferred.
    """
    x, y, z = jac
    if z == 0:
        return INFINITY
    z_inv = modinv(z, q)
    zi2 = z_inv * z_inv % q
    return Point(x * zi2 % q, y * zi2 * z_inv % q)


def jac_double(jac: tuple[int, int, int], q: int) -> tuple[int, int, int]:
    """Double a Jacobian point (a = 1 tangent formulas, inversion-free)."""
    x, y, z = jac
    if z == 0 or y == 0:  # infinity, or 2-torsion (vertical tangent)
        return JAC_INFINITY
    yy = y * y % q
    s = 4 * x * yy % q
    zz = z * z % q
    m = (3 * x * x + zz * zz) % q  # 3x² + a·z⁴ with a = 1
    x3 = (m * m - 2 * s) % q
    y3 = (m * (s - x3) - 8 * yy * yy) % q
    z3 = 2 * y * z % q
    return (x3, y3, z3)


def jac_add_mixed(
    jac: tuple[int, int, int], x2: int, y2: int, q: int
) -> tuple[int, int, int]:
    """Add the affine point ``(x2, y2)`` to a Jacobian point."""
    x1, y1, z1 = jac
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % q
    u2 = x2 * z1z1 % q
    s2 = y2 * z1 * z1z1 % q
    h = (u2 - x1) % q
    r = (s2 - y1) % q
    if h == 0:
        if r == 0:
            return jac_double(jac, q)
        return JAC_INFINITY
    hh = h * h % q
    hhh = h * hh % q
    v = x1 * hh % q
    x3 = (r * r - hhh - 2 * v) % q
    y3 = (r * (v - x3) - y1 * hhh) % q
    z3 = z1 * h % q
    return (x3, y3, z3)


def jac_add(
    a: tuple[int, int, int], b: tuple[int, int, int], q: int
) -> tuple[int, int, int]:
    """Add two Jacobian points (general, inversion-free)."""
    x1, y1, z1 = a
    x2, y2, z2 = b
    if z1 == 0:
        return b
    if z2 == 0:
        return a
    z1z1 = z1 * z1 % q
    z2z2 = z2 * z2 % q
    u1 = x1 * z2z2 % q
    u2 = x2 * z1z1 % q
    s1 = y1 * z2 * z2z2 % q
    s2 = y2 * z1 * z1z1 % q
    h = (u2 - u1) % q
    r = (s2 - s1) % q
    if h == 0:
        if r == 0:
            return jac_double(a, q)
        return JAC_INFINITY
    hh = h * h % q
    hhh = h * hh % q
    v = u1 * hh % q
    x3 = (r * r - hhh - 2 * v) % q
    y3 = (r * (v - x3) - s1 * hhh) % q
    z3 = z1 * z2 % q * h % q
    return (x3, y3, z3)


def jac_batch_to_affine(
    jacs: list[tuple[int, int, int]], q: int
) -> list[Point]:
    """Normalize many Jacobian points with one shared inversion.

    Montgomery's trick replaces one inversion per point with a single
    :func:`~repro.math.modular.batch_modinv` call — the step that makes
    precomputation tables cheap to build.
    """
    finite = [(i, jac) for i, jac in enumerate(jacs) if jac[2] != 0]
    inverses = batch_modinv([jac[2] for _, jac in finite], q)
    points = [INFINITY] * len(jacs)
    for (i, (x, y, z)), z_inv in zip(finite, inverses):
        zi2 = z_inv * z_inv % q
        points[i] = Point(x * zi2 % q, y * zi2 * z_inv % q)
    return points


def _wnaf(scalar: int, width: int) -> list[int]:
    """Width-``w`` NAF digits of a positive scalar, least significant first.

    Digits are zero or odd in ``(-2^{w-1}, 2^{w-1})``; at most one of any
    ``w`` consecutive digits is non-zero, so double-and-add needs ~``1/(w+1)``
    additions per bit instead of ``1/2``.
    """
    digits: list[int] = []
    full = 1 << width
    half = full >> 1
    while scalar:
        if scalar & 1:
            digit = scalar & (full - 1)
            if digit >= half:
                digit -= full
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


def _wnaf_width(bits: int) -> int:
    """Window width minimizing cost for a scalar of *bits* bits."""
    if bits <= 10:
        return 2
    if bits <= 32:
        return 3
    if bits <= 160:
        return 4
    return 5


class SupersingularCurve:
    """Group operations on ``y² = x³ + x`` over ``F_q``."""

    def __init__(self, q: int):
        """Create the curve over ``F_q``.

        Args:
            q: The field characteristic; must satisfy ``q ≡ 3 (mod 4)`` so
                the curve is supersingular with ``#E = q + 1``.

        Raises:
            CryptoError: If ``q`` is not ``3 (mod 4)``.
        """
        if q % 4 != 3:
            raise CryptoError("field prime must satisfy q ≡ 3 (mod 4)")
        self.q = q

    @property
    def order(self) -> int:
        """The number of rational points, ``q + 1``."""
        return self.q + 1

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, point: Point) -> bool:
        """True if *point* satisfies the curve equation (infinity counts)."""
        if point.infinite:
            return True
        q = self.q
        return (point.y * point.y - (point.x**3 + point.x)) % q == 0

    # ------------------------------------------------------------------
    # Group law
    # ------------------------------------------------------------------
    def negate(self, point: Point) -> Point:
        """Return ``-point``."""
        if point.infinite:
            return INFINITY
        return Point(point.x, (-point.y) % self.q)

    def add(self, a: Point, b: Point) -> Point:
        """Return ``a + b`` by the chord-and-tangent law."""
        if a.infinite:
            return b
        if b.infinite:
            return a
        q = self.q
        if a.x == b.x:
            if (a.y + b.y) % q == 0:
                return INFINITY
            return self.double(a)
        slope = (b.y - a.y) * modinv((b.x - a.x) % q, q) % q
        x3 = (slope * slope - a.x - b.x) % q
        y3 = (slope * (a.x - x3) - a.y) % q
        return Point(x3, y3)

    def double(self, a: Point) -> Point:
        """Return ``2a``."""
        if a.infinite:
            return INFINITY
        q = self.q
        if a.y == 0:
            return INFINITY
        # Tangent slope for y² = x³ + x: (3x² + 1) / (2y).
        slope = (3 * a.x * a.x + 1) * modinv(2 * a.y % q, q) % q
        x3 = (slope * slope - 2 * a.x) % q
        y3 = (slope * (a.x - x3) - a.y) % q
        return Point(x3, y3)

    def multiply(self, point: Point, scalar: int) -> Point:
        """Return ``scalar · point`` (negatives allowed).

        Runs in Jacobian coordinates with width-``w`` NAF recoding: the odd
        multiples ``P, 3P, …`` are precomputed once, normalized to affine
        with a single batched inversion, and the main loop is inversion-free
        (one more inversion converts the result back to affine).  Agreement
        with :meth:`multiply_naive` is property-tested.
        """
        if scalar < 0:
            return self.multiply(self.negate(point), -scalar)
        if scalar == 0 or point.infinite:
            return INFINITY
        if scalar == 1:
            return point
        q = self.q
        width = _wnaf_width(scalar.bit_length())
        digits = _wnaf(scalar, width)
        # Odd multiples P, 3P, …, (2^{w-1}-1)P, normalized to affine so the
        # scan below uses cheap mixed additions.
        base = jac_from_affine(point)
        if width == 2:
            odd = [point]
        else:
            twice = jac_double(base, q)
            jacs = [base]
            for _ in range((1 << (width - 2)) - 1):
                jacs.append(jac_add(jacs[-1], twice, q))
            odd = jac_batch_to_affine(jacs, q)
        acc = JAC_INFINITY
        for digit in reversed(digits):
            acc = jac_double(acc, q)
            if digit:
                entry = odd[abs(digit) >> 1]
                if entry.infinite:
                    continue  # small-order point: this multiple vanished
                y = entry.y if digit > 0 else (-entry.y) % q
                acc = jac_add_mixed(acc, entry.x, y, q)
        return jac_to_affine(acc, q)

    def multiply_naive(self, point: Point, scalar: int) -> Point:
        """Return ``scalar · point`` by affine double-and-add.

        The pre-optimization reference implementation: one modular inversion
        per point operation.  Kept for differential tests and the pairing
        ablation benchmark.
        """
        if scalar < 0:
            return self.multiply_naive(self.negate(point), -scalar)
        result = INFINITY
        addend = point
        k = scalar
        while k:
            if k & 1:
                result = self.add(result, addend)
            addend = self.double(addend)
            k >>= 1
        return result

    # ------------------------------------------------------------------
    # Sampling and encoding
    # ------------------------------------------------------------------
    def random_point(self, rng: random.Random) -> Point:
        """Sample a uniform finite point.

        Draws ``x`` until ``x³ + x`` is a quadratic residue, then picks the
        root whose sign bit is random.
        """
        q = self.q
        while True:
            x = rng.randrange(q)
            try:
                y = sqrt_mod((x**3 + x) % q, q)
            except ValueError:
                continue
            if rng.getrandbits(1):
                y = (-y) % q
            return Point(x, y)

    def compressed_byte_length(self) -> int:
        """Bytes needed for a compressed point: x-coordinate plus a tag."""
        return (self.q.bit_length() + 7) // 8 + 1

    def compress(self, point: Point) -> bytes:
        """Encode a point as x-coordinate plus a sign/infinity tag byte."""
        size = (self.q.bit_length() + 7) // 8
        if point.infinite:
            return bytes([2]) + bytes(size)
        tag = point.y & 1
        return bytes([tag]) + point.x.to_bytes(size, "big")

    def decompress(self, data: bytes) -> Point:
        """Invert :meth:`compress`.

        Raises:
            CryptoError: If the encoding is malformed or not on the curve.
        """
        size = (self.q.bit_length() + 7) // 8
        if len(data) != size + 1:
            raise CryptoError(
                f"compressed point must be {size + 1} bytes, got {len(data)}"
            )
        tag = data[0]
        if tag == 2:
            return INFINITY
        if tag not in (0, 1):
            raise CryptoError(f"invalid point tag {tag}")
        x = int.from_bytes(data[1:], "big")
        if x >= self.q:
            raise CryptoError("x-coordinate out of field range")
        try:
            y = sqrt_mod((x**3 + x) % self.q, self.q)
        except ValueError:
            # sqrt_mod's message carries the operands; keep them out of
            # the typed error.
            raise CryptoError("x-coordinate is not on the curve") from None
        if y & 1 != tag:
            y = (-y) % self.q
        return Point(x, y)


class FixedBaseTable:
    """Radix-``2^w`` windowing table for a fixed base point.

    For a base ``P`` and scalars up to *max_bits* bits, precomputes
    ``rows[j][d-1] = d·2^{wj}·P`` (affine) for every window ``j`` and digit
    ``d ∈ [1, 2^w)``.  A scalar multiplication then writes the scalar in
    base ``2^w`` and performs one mixed addition per non-zero digit —
    ``⌈max_bits/w⌉`` additions and **zero** doublings, versus ~``max_bits``
    doublings plus ~``max_bits/2`` additions for double-and-add.

    Memory: ``⌈max_bits/w⌉ · (2^w - 1)`` affine points (two field elements
    each) — ≈ 1.9 KiB per base at 80-bit scalars, ``w = 4``, 64-bit fields.
    Build cost amortizes after roughly three scalar multiplications; the
    whole table is normalized to affine with a single batched inversion.
    """

    __slots__ = ("curve", "window", "max_bits", "_rows")

    def __init__(
        self,
        curve: SupersingularCurve,
        point: Point,
        max_bits: int,
        window: int = 4,
    ):
        """Precompute the table for *point* (``w = window``).

        Raises:
            CryptoError: If *window* or *max_bits* is not positive.
        """
        if window < 1 or max_bits < 1:
            raise CryptoError("fixed-base table needs positive window/bits")
        self.curve = curve
        self.window = window
        self.max_bits = max_bits
        q = curve.q
        windows = (max_bits + window - 1) // window
        per_row = (1 << window) - 1
        jacs: list[tuple[int, int, int]] = []
        base = jac_from_affine(point)
        for _ in range(windows):
            entry = base
            for _ in range(per_row):
                jacs.append(entry)
                entry = jac_add(entry, base, q)
            for _ in range(window):
                base = jac_double(base, q)
        flat = jac_batch_to_affine(jacs, q)
        self._rows = [
            flat[j * per_row : (j + 1) * per_row] for j in range(windows)
        ]

    def multiply(self, scalar: int) -> Point:
        """Return ``scalar · P`` using only table lookups and mixed adds.

        Raises:
            CryptoError: If *scalar* is negative or exceeds *max_bits* bits.
        """
        if scalar < 0 or scalar.bit_length() > self.max_bits:
            raise CryptoError(
                "scalar out of range for this fixed-base table"
            )
        q = self.curve.q
        mask = (1 << self.window) - 1
        acc = JAC_INFINITY
        j = 0
        while scalar:
            digit = scalar & mask
            if digit:
                entry = self._rows[j][digit - 1]
                if not entry.infinite:
                    acc = jac_add_mixed(acc, entry.x, entry.y, q)
            scalar >>= self.window
            j += 1
        return jac_to_affine(acc, q)
