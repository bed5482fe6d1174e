"""Tests for CRSE-II (paper Sec. VI-C)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import EncryptedRecord, encrypt_dataset, linear_search
from repro.core.crse2 import CRSE2Scheme, dummy_circle
from repro.core.geometry import Circle, DataSpace, point_in_circle
from repro.core.provision import group_for_crse2
from repro.cloud.codec import decode_token, encode_token
from repro.crypto.groups.pairing import PreparedCurveElement
from repro.crypto.ssw import ssw_query
from repro.errors import ParameterError, SchemeError


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(31)
    space = DataSpace(2, 16)
    scheme = CRSE2Scheme(space, group_for_crse2(space, "fast", rng))
    key = scheme.gen_key(rng)
    return scheme, key


class TestPaperExample:
    def test_fig5_inside_and_outside(self, setup, rng):
        scheme, key = setup
        q = Circle.from_radius((3, 2), 1)
        token = scheme.gen_token(key, q, rng)
        assert token.num_sub_tokens == 2  # m = 2 for R = 1
        assert scheme.matches(token, scheme.encrypt(key, (2, 2), rng))
        assert not scheme.matches(token, scheme.encrypt(key, (1, 3), rng))

    def test_center_matches_via_zero_radius_circle(self, setup, rng):
        scheme, key = setup
        q = Circle.from_radius((3, 2), 1)
        token = scheme.gen_token(key, q, rng)
        assert scheme.matches(token, scheme.encrypt(key, (3, 2), rng))


class TestExhaustiveCorrectness:
    def test_all_points_against_query(self, setup, rng):
        scheme, key = setup
        q = Circle.from_radius((8, 7), 3)
        token = scheme.gen_token(key, q, rng)
        for point in scheme.space.iter_points():
            got = scheme.matches(token, scheme.encrypt(key, point, rng))
            assert got == point_in_circle(point, q), point

    @settings(max_examples=15, deadline=None)
    @given(
        x=st.integers(0, 15),
        y=st.integers(0, 15),
        cx=st.integers(0, 15),
        cy=st.integers(0, 15),
        radius=st.integers(0, 4),
    )
    def test_matches_plaintext_predicate(self, setup, x, y, cx, cy, radius):
        scheme, key = setup
        rng = random.Random(hash((x, y, cx, cy, radius)) & 0xFFFFF)
        q = Circle.from_radius((cx, cy), radius)
        token = scheme.gen_token(key, q, rng)
        ct = scheme.encrypt(key, (x, y), rng)
        assert scheme.matches(token, ct) == point_in_circle((x, y), q)

    def test_irrational_radius_query(self, setup, rng):
        # R² = 5: every point with distance² <= 5 is inside.
        scheme, key = setup
        q = Circle((8, 8), 5)
        token = scheme.gen_token(key, q, rng)
        assert scheme.matches(token, scheme.encrypt(key, (10, 7), rng))  # d²=5
        assert not scheme.matches(token, scheme.encrypt(key, (10, 6), rng))  # d²=8


class TestRadiusHiding:
    def test_padding_reaches_k(self, setup, rng):
        scheme, key = setup
        q = Circle.from_radius((8, 8), 2)  # m = 4
        token = scheme.gen_token(key, q, rng, hide_radius_to=9)
        assert token.num_sub_tokens == 9

    def test_padding_preserves_results(self, setup, rng):
        scheme, key = setup
        q = Circle.from_radius((8, 8), 2)
        plain = scheme.gen_token(key, q, rng)
        padded = scheme.gen_token(key, q, rng, hide_radius_to=12)
        for point in ((8, 8), (8, 10), (9, 9), (12, 12), (0, 0)):
            ct = scheme.encrypt(key, point, rng)
            assert scheme.matches(plain, ct) == scheme.matches(padded, ct)

    def test_dummy_circle_matches_nothing(self, setup, rng):
        scheme, key = setup
        dummy = dummy_circle(scheme.space, (8, 8))
        assert dummy.r_squared > scheme.space.max_distance_squared()

    def test_k_below_m_rejected(self, setup, rng):
        scheme, key = setup
        q = Circle.from_radius((8, 8), 2)  # m = 4
        with pytest.raises(SchemeError):
            scheme.gen_token(key, q, rng, hide_radius_to=3)

    def test_two_radii_indistinguishable_by_count(self, setup, rng):
        # With K fixed, the sub-token count no longer reveals R.
        scheme, key = setup
        t1 = scheme.gen_token(key, Circle.from_radius((8, 8), 1), rng, hide_radius_to=10)
        t2 = scheme.gen_token(key, Circle.from_radius((8, 8), 2), rng, hide_radius_to=10)
        assert t1.num_sub_tokens == t2.num_sub_tokens == 10


class TestPermutation:
    def test_sub_token_order_varies(self, setup):
        scheme, key = setup
        q = Circle.from_radius((8, 8), 3)  # m = 7: 5040 orders
        rng = random.Random(123)
        # Fresh β per token: two tokens matching the same record should hit
        # different sub-token positions at least once over several trials.
        record = scheme.encrypt(key, (8, 10), rng)  # on r² = 4 boundary

        def hit_index(token):
            from repro.crypto.ssw import ssw_query

            for i, sub in enumerate(token.sub_tokens):
                if ssw_query(sub, record.ssw):
                    return i
            return None

        indices = {
            hit_index(scheme.gen_token(key, q, rng)) for _ in range(12)
        }
        assert None not in indices
        assert len(indices) > 1


class TestStats:
    def test_match_stats_early_exit(self, setup, rng):
        scheme, key = setup
        q = Circle.from_radius((8, 8), 2)
        token = scheme.gen_token(key, q, rng)
        matched, evaluated = scheme.matches_with_stats(
            token, scheme.encrypt(key, (8, 9), rng)
        )
        assert matched and 1 <= evaluated <= token.num_sub_tokens

    def test_non_match_pays_full_m(self, setup, rng):
        scheme, key = setup
        q = Circle.from_radius((8, 8), 2)
        token = scheme.gen_token(key, q, rng)
        matched, evaluated = scheme.matches_with_stats(
            token, scheme.encrypt(key, (0, 0), rng)
        )
        assert not matched and evaluated == token.num_sub_tokens


def _unprepared_stats(token, ciphertext):
    """``matches_with_stats`` on the raw sub-tokens: the reference."""
    for evaluated, sub in enumerate(token.sub_tokens, start=1):
        if ssw_query(sub, ciphertext.ssw):
            return True, evaluated
    return False, token.num_sub_tokens


class TestPreparedScan:
    """The scan's prepared token (fixed-argument pairings) against the raw
    sub-tokens, on the curve backend where preparing changes the work."""

    @pytest.fixture(scope="class")
    def curve_setup(self, pairing_group):
        rng = random.Random(37)
        scheme = CRSE2Scheme(DataSpace(2, 16), pairing_group)
        return scheme, scheme.gen_key(rng)

    @pytest.mark.parametrize("decoded", [False, True])
    def test_same_matches_and_evaluations(self, curve_setup, decoded):
        scheme, key = curve_setup
        rng = random.Random(41)
        q = Circle.from_radius((8, 8), 2)
        points = [(8, 10), (9, 9), (8, 8), (10, 8), (0, 0), (15, 3), (8, 11)]
        ciphertexts = [scheme.encrypt(key, p, rng) for p in points]
        token = scheme.gen_token(key, q, rng)
        if decoded:
            token = decode_token(scheme, encode_token(scheme, token))
        expected = [_unprepared_stats(token, ct) for ct in ciphertexts]
        assert [m for m, _ in expected] == [
            point_in_circle(p, q) for p in points
        ]
        assert [scheme.matches_with_stats(token, ct) for ct in ciphertexts] == (
            expected
        )
        assert [scheme.matches(token, ct) for ct in ciphertexts] == [
            m for m, _ in expected
        ]

    def test_prepared_once_per_token(self, curve_setup, rng):
        scheme, key = curve_setup
        token = scheme.gen_token(key, Circle.from_radius((4, 4), 1), rng)
        prepared = token.prepared
        assert token.prepared is prepared
        assert prepared == token.sub_tokens
        assert all(
            isinstance(element, PreparedCurveElement)
            for sub in prepared
            for element in sub.elements()
        )

    def test_fast_backend_prepares_nothing(self, setup, rng):
        scheme, key = setup
        token = scheme.gen_token(key, Circle.from_radius((4, 4), 1), rng)
        for prepared, sub in zip(token.prepared, token.sub_tokens):
            assert prepared.elements() == sub.elements()
            assert all(
                a is b for a, b in zip(prepared.elements(), sub.elements())
            )


class TestDatasetHelpers:
    def test_encrypt_and_linear_search(self, setup, rng):
        scheme, key = setup
        points = [(rng.randrange(16), rng.randrange(16)) for _ in range(25)]
        records = encrypt_dataset(scheme, key, points, rng)
        assert [r.identifier for r in records] == list(range(25))
        q = Circle.from_radius((8, 8), 3)
        token = scheme.gen_token(key, q, rng)
        hits = linear_search(scheme, token, records)
        expected = [i for i, p in enumerate(points) if point_in_circle(p, q)]
        assert hits == expected

    def test_search_returns_identifier_or_none(self, setup, rng):
        scheme, key = setup
        q = Circle.from_radius((8, 8), 1)
        token = scheme.gen_token(key, q, rng)
        inside = EncryptedRecord(7, scheme.encrypt(key, (8, 8), rng))
        outside = EncryptedRecord(9, scheme.encrypt(key, (1, 1), rng))
        assert scheme.search(token, inside) == 7
        assert scheme.search(token, outside) is None


class TestValidation:
    def test_point_outside_space(self, setup, rng):
        scheme, key = setup
        with pytest.raises(ParameterError):
            scheme.encrypt(key, (16, 0), rng)

    def test_circle_outside_space(self, setup, rng):
        scheme, key = setup
        with pytest.raises(ParameterError):
            scheme.gen_token(key, Circle.from_radius((20, 0), 1), rng)

    def test_undersized_group(self, rng):
        from repro.core.provision import provision_group

        big_space = DataSpace(2, 1 << 22)
        small_group = provision_group(10, "fast", rng)
        with pytest.raises(SchemeError):
            CRSE2Scheme(big_space, small_group)
