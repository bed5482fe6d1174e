"""Tests for repro.crypto.groups.curve (the supersingular curve)."""

from __future__ import annotations

import random

import pytest

from repro.crypto.groups.curve import INFINITY, Point, SupersingularCurve
from repro.errors import CryptoError
from repro.math.modular import is_quadratic_residue, sqrt_mod

Q = 1000003  # ≡ 3 (mod 4)


@pytest.fixture(scope="module")
def curve() -> SupersingularCurve:
    return SupersingularCurve(Q)


@pytest.fixture(scope="module")
def sample_points(curve) -> list[Point]:
    rng = random.Random(77)
    return [curve.random_point(rng) for _ in range(8)]


class TestConstruction:
    def test_rejects_bad_field(self):
        with pytest.raises(CryptoError):
            SupersingularCurve(1000033)  # ≡ 1 (mod 4)

    def test_order_is_q_plus_one(self, curve):
        assert curve.order == Q + 1

    def test_random_points_on_curve(self, curve, sample_points):
        assert all(curve.contains(p) for p in sample_points)

    def test_random_point_draws_match_residue_check(self, curve):
        # Reference: test residuosity first, then take the root — the
        # sampler must consume the same draws and return the same points.
        ours, reference = random.Random(5), random.Random(5)
        for _ in range(20):
            while True:
                x = reference.randrange(Q)
                rhs = (x**3 + x) % Q
                if is_quadratic_residue(rhs, Q):
                    break
            y = sqrt_mod(rhs, Q)
            if reference.getrandbits(1):
                y = (-y) % Q
            assert curve.random_point(ours) == Point(x, y)


class TestGroupLaw:
    def test_identity(self, curve, sample_points):
        p = sample_points[0]
        assert curve.add(p, INFINITY) == p
        assert curve.add(INFINITY, p) == p
        assert curve.add(INFINITY, INFINITY) == INFINITY

    def test_inverse(self, curve, sample_points):
        for p in sample_points:
            assert curve.add(p, curve.negate(p)) == INFINITY

    def test_commutativity(self, curve, sample_points):
        a, b = sample_points[0], sample_points[1]
        assert curve.add(a, b) == curve.add(b, a)

    def test_associativity(self, curve, sample_points):
        a, b, c = sample_points[:3]
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))

    def test_double_matches_add(self, curve, sample_points):
        for p in sample_points:
            assert curve.double(p) == curve.add(p, p)

    def test_closure(self, curve, sample_points):
        a, b = sample_points[2], sample_points[3]
        assert curve.contains(curve.add(a, b))
        assert curve.contains(curve.double(a))

    def test_two_torsion(self, curve):
        # (0, 0) is on y² = x³ + x and has y = 0, so it is 2-torsion.
        t = Point(0, 0)
        assert curve.contains(t)
        assert curve.double(t) == INFINITY


class TestScalarMultiplication:
    def test_small_scalars(self, curve, sample_points):
        p = sample_points[0]
        acc = INFINITY
        for k in range(6):
            assert curve.multiply(p, k) == acc
            acc = curve.add(acc, p)

    def test_group_order_annihilates(self, curve, sample_points):
        for p in sample_points[:3]:
            assert curve.multiply(p, curve.order) == INFINITY

    def test_negative_scalar(self, curve, sample_points):
        p = sample_points[0]
        assert curve.multiply(p, -3) == curve.negate(curve.multiply(p, 3))

    def test_distributes_over_scalar_addition(self, curve, sample_points):
        p = sample_points[1]
        a, b = 1234, 98765
        left = curve.multiply(p, a + b)
        right = curve.add(curve.multiply(p, a), curve.multiply(p, b))
        assert left == right


class TestCompression:
    def test_roundtrip(self, curve, sample_points):
        for p in sample_points:
            assert curve.decompress(curve.compress(p)) == p

    def test_infinity_roundtrip(self, curve):
        assert curve.decompress(curve.compress(INFINITY)) == INFINITY

    def test_length(self, curve, sample_points):
        expected = curve.compressed_byte_length()
        assert len(curve.compress(sample_points[0])) == expected

    def test_bad_tag_rejected(self, curve):
        data = bytearray(curve.compress(INFINITY))
        data[0] = 9
        with pytest.raises(CryptoError):
            curve.decompress(bytes(data))

    def test_off_curve_x_rejected(self, curve):
        # Find an x with non-residue RHS.
        size = curve.compressed_byte_length() - 1
        for x in range(2, 100):
            try:
                curve.decompress(bytes([0]) + x.to_bytes(size, "big"))
            except CryptoError:
                break
        else:
            pytest.fail("expected some x to be off-curve")

    def test_off_curve_error_names_no_operand(self, curve):
        size = curve.compressed_byte_length() - 1
        x = next(
            x for x in range(2, 100) if not is_quadratic_residue(x**3 + x, Q)
        )
        with pytest.raises(CryptoError) as excinfo:
            curve.decompress(bytes([0]) + x.to_bytes(size, "big"))
        assert str(excinfo.value) == "x-coordinate is not on the curve"
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__

    def test_wrong_length_rejected(self, curve):
        with pytest.raises(CryptoError):
            curve.decompress(b"\x00" * 3)

    def test_out_of_range_x_rejected(self, curve):
        size = curve.compressed_byte_length() - 1
        with pytest.raises(CryptoError):
            curve.decompress(bytes([0]) + Q.to_bytes(size, "big"))


class TestPointHygiene:
    def test_immutability(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.x = 5

    def test_equality_and_hash(self):
        assert Point(1, 2) == Point(1, 2)
        assert Point(1, 2) != Point(2, 1)
        assert INFINITY == Point(infinite=True)
        assert hash(INFINITY) == hash(Point(infinite=True))
