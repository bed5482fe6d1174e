"""Modular arithmetic utilities.

Building blocks for the finite-field layer (:mod:`repro.crypto.groups.field`)
and for Cornacchia's algorithm in :mod:`repro.math.sumsquares`:
extended gcd, modular inverse, Jacobi symbol, modular square roots
(Tonelli-Shanks with the fast ``q ≡ 3 (mod 4)`` path used by our
supersingular curves), and the Chinese Remainder Theorem.
"""

from __future__ import annotations

import math

__all__ = [
    "egcd",
    "modinv",
    "batch_modinv",
    "jacobi",
    "is_quadratic_residue",
    "sqrt_mod",
    "crt",
    "crt_pair",
]


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def modinv(a: int, n: int) -> int:
    """Return the inverse of *a* modulo *n*.

    Uses the built-in ``pow(a, -1, n)`` (about twice as fast as the
    pure-Python :func:`egcd` at pairing field sizes); the two are
    differentially tested.

    Raises:
        ValueError: If ``gcd(a, n) != 1``.
    """
    try:
        return pow(a, -1, n)
    except ValueError:
        g = math.gcd(a, n)
    # Never echo the operand: in a composite-order group a non-invertible
    # value shares a factor with n, so printing it (or the gcd) would hand
    # out part of the secret factorization.
    raise ValueError(
        f"value is not invertible modulo the {n.bit_length()}-bit "
        f"modulus (gcd is {g.bit_length()} bits)"
    ) from None


def batch_modinv(values: list[int], n: int) -> list[int]:
    """Invert every entry of *values* modulo *n* with a single inversion.

    Montgomery's trick: one modular inversion plus ``3(k - 1)``
    multiplications replace ``k`` inversions.  This is what makes batched
    normalization of projective curve points affordable (the elliptic-curve
    layer converts whole precomputation tables to affine form at once).

    Raises:
        ValueError: If any entry shares a factor with *n*.
    """
    if not values:
        return []
    prefix = [1] * len(values)
    acc = 1
    for i, value in enumerate(values):
        prefix[i] = acc
        acc = acc * value % n
    acc_inv = modinv(acc, n)  # raises ValueError on a non-invertible entry
    inverses = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        inverses[i] = acc_inv * prefix[i] % n
        acc_inv = acc_inv * values[i] % n
    return inverses


def jacobi(a: int, n: int) -> int:
    """Return the Jacobi symbol ``(a / n)`` for odd positive *n*.

    Raises:
        ValueError: If *n* is not a positive odd integer.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires positive odd n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_quadratic_residue(a: int, p: int) -> bool:
    """Return True if *a* is a quadratic residue modulo prime *p*.

    Zero counts as a residue (``0 = 0²``).
    """
    a %= p
    if a == 0:
        return True
    if p == 2:
        return True
    return jacobi(a, p) == 1


def sqrt_mod(a: int, p: int) -> int:
    """Return a square root of *a* modulo prime *p*.

    Uses the direct exponentiation shortcut when ``p ≡ 3 (mod 4)`` (the case
    for all our supersingular-curve fields) and Tonelli-Shanks otherwise.
    The returned root is the one in ``[0, p)``; the other root is ``p - r``.

    Raises:
        ValueError: If *a* is not a quadratic residue modulo *p*.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if jacobi(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks for p ≡ 1 (mod 4).
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i in (0, m) with t^(2^i) == 1.
        i = 0
        t2i = t
        while t2i != 1:
            t2i = (t2i * t2i) % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = (b * b) % p
        t = (t * c) % p
        r = (r * b) % p
    return r


def crt_pair(r1: int, n1: int, r2: int, n2: int) -> tuple[int, int]:
    """Combine two congruences ``x ≡ r1 (mod n1)``, ``x ≡ r2 (mod n2)``.

    Returns:
        ``(r, n)`` with ``n = lcm(n1, n2)`` and ``x ≡ r (mod n)``.

    Raises:
        ValueError: If the congruences are inconsistent.
    """
    g, p, _ = egcd(n1, n2)
    if (r2 - r1) % g != 0:
        raise ValueError("inconsistent congruences")
    lcm = n1 // g * n2
    diff = (r2 - r1) // g
    r = (r1 + n1 * (diff * p % (n2 // g))) % lcm
    return r, lcm


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve a system of congruences by the Chinese Remainder Theorem.

    Args:
        residues: Target residues ``r_i``.
        moduli: Pairwise compatible moduli ``n_i`` (coprime or consistent).

    Returns:
        The unique ``x`` in ``[0, lcm(moduli))`` with ``x ≡ r_i (mod n_i)``.

    Raises:
        ValueError: On empty input, length mismatch, or inconsistency.
    """
    if not residues or len(residues) != len(moduli):
        raise ValueError("residues and moduli must be equal-length, non-empty")
    r, n = residues[0] % moduli[0], moduli[0]
    for r_i, n_i in zip(residues[1:], moduli[1:]):
        r, n = crt_pair(r, n, r_i % n_i, n_i)
    return r
