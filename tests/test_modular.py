"""Tests for repro.math.modular."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.math.modular import (
    crt,
    crt_pair,
    egcd,
    is_quadratic_residue,
    jacobi,
    modinv,
    sqrt_mod,
)
from repro.math.primes import primes_up_to

_ODD_PRIMES = [p for p in primes_up_to(200) if p > 2]


class TestEgcd:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        assert g == math.gcd(a, b) or g == -math.gcd(a, b)

    def test_zero_cases(self):
        assert egcd(0, 0)[0] == 0
        g, x, _ = egcd(7, 0)
        assert g == 7 and 7 * x == 7


class TestModinv:
    @given(st.integers(1, 10**6), st.integers(2, 10**6))
    def test_inverse_property(self, a, n):
        if math.gcd(a, n) != 1:
            with pytest.raises(ValueError):
                modinv(a, n)
        else:
            assert a * modinv(a, n) % n == 1

    def test_negative_input(self):
        assert (-3) * modinv(-3, 7) % 7 == 1

    @given(st.integers(-(2**130), 2**130), st.integers(2, 2**128))
    def test_matches_egcd_reference(self, a, n):
        # The built-in pow(a, -1, n) against the pure-Python Euclid it
        # replaced: same inverse where one exists, same refusal otherwise.
        g, x, _ = egcd(a % n, n)
        if g == 1:
            assert modinv(a, n) == x % n
        else:
            with pytest.raises(ValueError):
                modinv(a, n)

    def test_non_invertible_modulo_composite_is_redacted(self):
        # 3·5·7·11: every multiple of a factor is refused, and the message
        # gives bit lengths only — never the operand or the shared factor.
        n = 3 * 5 * 7 * 11
        for a in (0, 3, 35, 2 * 7 * 11, n, n + 5):
            with pytest.raises(ValueError) as info:
                modinv(a, n)
            g = math.gcd(a, n)
            assert str(info.value) == (
                "value is not invertible modulo the 11-bit modulus "
                f"(gcd is {g.bit_length()} bits)"
            )
        for a in (1, 2, 4, 13, n - 1, -1):
            assert a * modinv(a, n) % n == 1


class TestJacobi:
    def test_matches_legendre_for_primes(self):
        for p in _ODD_PRIMES[:15]:
            residues = {pow(x, 2, p) for x in range(1, p)}
            for a in range(1, p):
                expected = 1 if a in residues else -1
                assert jacobi(a, p) == expected, (a, p)

    def test_zero_when_shared_factor(self):
        assert jacobi(6, 9) == 0
        assert jacobi(0, 5) == 0

    def test_multiplicative_in_numerator(self):
        n = 15
        for a in range(1, 30):
            for b in range(1, 30):
                assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 8)


class TestSqrtMod:
    def test_all_residues_small_primes(self):
        for p in _ODD_PRIMES[:20]:
            for a in range(p):
                if is_quadratic_residue(a, p):
                    r = sqrt_mod(a, p)
                    assert r * r % p == a
                else:
                    with pytest.raises(ValueError):
                        sqrt_mod(a, p)

    def test_tonelli_shanks_path(self):
        # p ≡ 1 (mod 4) forces the general algorithm.
        p = 1000033
        assert p % 4 == 1
        for x in (2, 999, 123456):
            a = x * x % p
            r = sqrt_mod(a, p)
            assert r * r % p == a

    def test_fast_path_3_mod_4(self):
        p = 1000003
        assert p % 4 == 3
        a = 55**2 % p
        r = sqrt_mod(a, p)
        assert r in (55, p - 55)

    def test_zero(self):
        assert sqrt_mod(0, 13) == 0


class TestCrt:
    @given(st.integers(0, 10**4), st.sampled_from([(3, 5, 7), (11, 13), (2, 9, 25)]))
    def test_reconstruction(self, x, moduli):
        moduli = list(moduli)
        residues = [x % n for n in moduli]
        total = math.prod(moduli)
        assert crt(residues, moduli) == x % total

    def test_inconsistent_raises(self):
        with pytest.raises(ValueError):
            crt_pair(1, 4, 2, 6)  # x≡1 (4) and x≡2 (6) conflict mod 2

    def test_consistent_non_coprime(self):
        r, n = crt_pair(1, 4, 3, 6)
        assert n == 12 and r % 4 == 1 and r % 6 == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            crt([], [])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            crt([1], [3, 5])
