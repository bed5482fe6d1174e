"""Tests for the pairing hot-path optimizations.

Every optimized path is pinned to its naive reference implementation:
wNAF/Jacobian scalar multiplication against double-and-add, fixed-base
tables against plain multiplication, the shared-final-exponentiation
product of pairings against the per-pair product, and prepared
(fixed-argument) pairings against ``product_tate_pairing``.  A full SSW
differential run checks that the two group backends still agree on match
decisions with all optimizations enabled.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.groups.base import NUM_SUBGROUPS, CompositeBilinearGroup
from repro.crypto.groups.curve import (
    INFINITY,
    FixedBaseTable,
    Point,
    SupersingularCurve,
)
from repro.crypto.groups.fastgroup import FastCompositeGroup
from repro.crypto.groups.pairing import (
    PreparedCurveElement,
    SupersingularPairingGroup,
    fixed_argument_lines,
    fixed_argument_pairing,
    product_tate_pairing,
    reduced_tate_pairing,
)
from repro.crypto.groups.params import toy_params
from repro.crypto.serialize import deserialize_token, serialize_token
from repro.crypto.ssw import (
    ssw_encrypt,
    ssw_gen_token,
    ssw_prepare_tokens,
    ssw_query,
    ssw_setup,
)
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def group() -> SupersingularPairingGroup:
    return SupersingularPairingGroup(toy_params())


@pytest.fixture(scope="module")
def fast() -> FastCompositeGroup:
    return FastCompositeGroup(toy_params().subgroup_primes)


class TestScalarMultiplication:
    def test_random_scalars_match_naive(self, group, rng):
        curve = group.curve
        order = curve.order
        point = group.generator().point
        for _ in range(50):
            k = rng.randrange(0, 2 * order)
            assert curve.multiply(point, k) == curve.multiply_naive(point, k)

    def test_edge_scalars(self, group):
        curve = group.curve
        order = curve.order
        point = group.generator().point
        for k in (0, 1, 2, 3, order - 1, order, order + 1, -1, -17, -order):
            assert curve.multiply(point, k) == curve.multiply_naive(point, k)

    def test_infinity_input(self, group, rng):
        curve = group.curve
        assert curve.multiply(INFINITY, rng.randrange(1, curve.order)) == INFINITY

    def test_two_torsion_point(self, group):
        # (0, 0) lies on y² = x³ + x and is its own negative: 2·P = ∞.
        curve = group.curve
        torsion = Point(0, 0)
        assert curve.contains(torsion)
        for k in range(5):
            assert curve.multiply(torsion, k) == curve.multiply_naive(torsion, k)

    def test_random_points(self, group, rng):
        curve = group.curve
        for _ in range(10):
            point = curve.random_point(rng)
            k = rng.randrange(0, curve.order)
            assert curve.multiply(point, k) == curve.multiply_naive(point, k)


class TestFixedBaseTable:
    def test_matches_naive(self, group, rng):
        curve = group.curve
        point = group.generator().point
        bits = group.order.bit_length()
        table = FixedBaseTable(curve, point, bits)
        for _ in range(50):
            k = rng.randrange(0, group.order)
            assert table.multiply(k) == curve.multiply_naive(point, k)

    def test_edge_scalars(self, group):
        curve = group.curve
        point = group.generator().point
        bits = group.order.bit_length()
        table = FixedBaseTable(curve, point, bits)
        for k in (0, 1, 2, group.order - 1, (1 << bits) - 1):
            assert table.multiply(k) == curve.multiply_naive(point, k)

    def test_rejects_out_of_range_scalars(self, group):
        table = FixedBaseTable(
            group.curve, group.generator().point, group.order.bit_length()
        )
        with pytest.raises(CryptoError):
            table.multiply(-1)
        with pytest.raises(CryptoError):
            table.multiply(1 << (group.order.bit_length() + 1))

    def test_precompute_base_feeds_pow(self, group, rng):
        # After precompute_base, __pow__ must route through the table and
        # keep producing exactly the same elements.
        element = group.generator() ** 7
        before = [element ** k for k in (0, 1, 5, group.order - 1)]
        assert group.precompute_base(element) is True
        assert group.precompute_base(element) is False  # cached
        after = [element ** k for k in (0, 1, 5, group.order - 1)]
        assert before == after
        for _ in range(20):
            k = rng.randrange(0, group.order)
            assert (element ** k).point == group.curve.multiply_naive(
                element.point, k
            )

    def test_precompute_base_rejects_foreign_element(self, group, fast):
        with pytest.raises(CryptoError):
            group.precompute_base(fast.generator())

    def test_fast_backend_has_no_tables(self, fast):
        assert fast.precompute_base(fast.generator()) is False


class TestProductOfPairings:
    def _sample_pairs(self, group, rng, count):
        g = group.generator()
        return [
            (g ** rng.randrange(1, group.order), g ** rng.randrange(1, group.order))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("backend", ["fast", "group"])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_matches_per_pair_product(self, backend, count, rng, request):
        grp = request.getfixturevalue(backend)
        pairs = self._sample_pairs(grp, rng, count)
        product = grp.gt_identity()
        for a, b in pairs:
            product = product * grp.pair(a, b)
        assert grp.multi_pair(pairs) == product

    @pytest.mark.parametrize("backend", ["fast", "group"])
    def test_empty_product_is_identity(self, backend, request):
        grp = request.getfixturevalue(backend)
        assert grp.multi_pair([]).is_identity()

    def test_identity_arguments(self, group, rng):
        g = group.generator()
        pairs = [(group.identity(), g), (g, group.identity())]
        assert group.multi_pair(pairs).is_identity()
        mixed = pairs + self._sample_pairs(group, rng, 2)
        expected = group.pair(*mixed[2]) * group.pair(*mixed[3])
        assert group.multi_pair(mixed) == expected

    def test_base_class_default_agrees(self, group, rng):
        # The unbound base-class implementation (per-pair reduction) is the
        # ablation reference — it must compute the same product.
        pairs = self._sample_pairs(group, rng, 3)
        assert CompositeBilinearGroup.multi_pair(group, pairs) == group.multi_pair(
            pairs
        )

    def test_product_tate_matches_reduced_tate(self, group, rng):
        curve, params = group.curve, group.params
        order = params.group_order
        pairs = [
            (a.point, b.point) for a, b in self._sample_pairs(group, rng, 4)
        ]
        expected = reduced_tate_pairing(
            curve, pairs[0][0], pairs[0][1], order, params.cofactor
        )
        for a, b in pairs[1:]:
            expected = expected * reduced_tate_pairing(
                curve, a, b, order, params.cofactor
            )
        assert (
            product_tate_pairing(curve, pairs, order, params.cofactor) == expected
        )

    @pytest.mark.parametrize("backend", ["fast", "group"])
    def test_rejects_foreign_elements(self, backend, request):
        grp = request.getfixturevalue(backend)
        if isinstance(grp, FastCompositeGroup):
            other = FastCompositeGroup(toy_params(seed=2).subgroup_primes)
        else:
            other = SupersingularPairingGroup(toy_params(seed=2))
        good = (grp.generator(), grp.generator())
        bad = (grp.generator(), other.generator())
        with pytest.raises(CryptoError):
            grp.multi_pair([good, bad])

    def test_rejects_non_elements(self, group):
        with pytest.raises(CryptoError):
            group.multi_pair([(group.generator(), object())])


class TestSSWCrossGroupRejection:
    @pytest.mark.parametrize("backend", ["fast", "pairing"])
    def test_token_and_ciphertext_from_different_groups(self, backend):
        if backend == "fast":
            g1 = FastCompositeGroup(toy_params().subgroup_primes)
            g2 = FastCompositeGroup(toy_params(seed=2).subgroup_primes)
        else:
            g1 = SupersingularPairingGroup(toy_params())
            g2 = SupersingularPairingGroup(toy_params(seed=2))
        key1 = ssw_setup(g1, 2, random.Random(1))
        key2 = ssw_setup(g2, 2, random.Random(1))
        ct = ssw_encrypt(key1, [1, 2], random.Random(2))
        tk = ssw_gen_token(key2, [2, -1], random.Random(3))
        with pytest.raises(CryptoError, match="different groups"):
            ssw_query(tk, ct)


class TestBackendDifferential:
    def test_ssw_match_decisions_agree(self, group, fast):
        """Full SSW runs on both backends must yield identical decisions."""
        n = 3
        cases = [
            ([1, 2, 3], [3, 0, -1], True),  # ⟨x, v⟩ = 0
            ([1, 2, 3], [1, 1, 1], False),
            ([5, 0, 2], [2, 7, -5], True),
            ([0, 0, 0], [4, 5, 6], True),
            ([1, 1, 1], [1, -1, 1], False),
        ]
        for seed, (x, v, expected) in enumerate(cases):
            decisions = []
            for backend in (group, fast):
                key = ssw_setup(backend, n, random.Random(100 + seed))
                ct = ssw_encrypt(key, x, random.Random(200 + seed))
                tk = ssw_gen_token(key, v, random.Random(300 + seed))
                decisions.append(ssw_query(tk, ct))
            assert decisions[0] == decisions[1] == expected, (x, v)


def _query_pairs(ciphertext, token):
    """SSW ``Query``'s pairs in the original (ciphertext, token) order."""
    return [
        (ciphertext.c, token.k),
        (ciphertext.c0, token.k0),
        *zip(ciphertext.c1, token.k1),
        *zip(ciphertext.c2, token.k2),
    ]


def _reference(group, pairs):
    """``product_tate_pairing`` on the raw points, in the given order."""
    return product_tate_pairing(
        group.curve,
        [(a.point, b.point) for a, b in pairs],
        group.order,
        group.params.cofactor,
    )


class TestFixedArgumentLines:
    # y² = x³ + x over F_1019 has 1020 = 4·3·5·17 points.  Miller loops of
    # order 255 = 0b11111111 over its 255-torsion meet every degenerate
    # step: T = O mid-loop (orders 3, 5, 15, 17, …), T = P at a chord, and
    # T = −P at the last one.
    CURVE = SupersingularCurve(1019)
    ORDER = 255
    COFACTOR = 1020 // 255

    def _points(self, rng):
        curve = self.CURVE
        torsion = {
            curve.multiply(curve.random_point(rng), self.COFACTOR)
            for _ in range(400)
        }
        return sorted(torsion, key=lambda p: (p.infinite, p.x, p.y))

    def test_step_count(self, rng):
        order = self.ORDER
        steps = (order.bit_length() - 1) + (bin(order).count("1") - 1)
        (lines,) = fixed_argument_lines(
            self.CURVE, [self._points(rng)[0]], order
        )
        assert len(lines) == steps

    def test_matches_product_tate_on_every_small_point(self, rng):
        curve = self.CURVE
        points = self._points(rng)
        assert len(points) > 100  # most of the 255-torsion, orders 1..255
        tables = fixed_argument_lines(curve, points, self.ORDER)
        for p, lines in zip(points, tables):
            for q_point in rng.sample(points, 3):
                expected = product_tate_pairing(
                    curve, [(p, q_point)], self.ORDER, self.COFACTOR
                )
                got = fixed_argument_pairing(
                    curve, [(lines, q_point)], self.ORDER, self.COFACTOR
                )
                assert got == expected, (p, q_point)

    def test_torsion_and_off_subgroup_points(self, rng):
        # Not in the 255-torsion at all: the walk is still the same one
        # multi_miller_loop takes, vertical tangent at (0, 0) included.
        curve = self.CURVE
        points = [Point(0, 0), *(curve.random_point(rng) for _ in range(20))]
        tables = fixed_argument_lines(curve, points, self.ORDER)
        for p, lines in zip(points, tables):
            q_point = curve.random_point(rng)
            assert fixed_argument_pairing(
                curve, [(lines, q_point)], self.ORDER, self.COFACTOR
            ) == product_tate_pairing(
                curve, [(p, q_point)], self.ORDER, self.COFACTOR
            )

    def test_infinity_has_no_lines(self):
        (lines,) = fixed_argument_lines(self.CURVE, [INFINITY], self.ORDER)
        assert lines == []


class TestPreparedMultiPair:
    def test_random_subgroup_elements(self, group, rng):
        g = group.generator()
        for count in (1, 2, 10):
            pairs = [
                (g ** rng.randrange(group.order), g ** rng.randrange(group.order))
                for _ in range(count)
            ]
            fixed = group.prepare_fixed([b for _, b in pairs])
            got = group.multi_pair(list(zip(fixed, [a for a, _ in pairs])))
            assert got.value == _reference(group, pairs)

    def test_identity_elements(self, group, rng):
        g = group.generator()
        other = g ** rng.randrange(1, group.order)
        fixed = group.prepare_fixed([group.identity(), other, group.identity()])
        pairs = [
            (fixed[0], g),
            (fixed[1], group.identity()),
            (fixed[2], group.identity()),
        ]
        assert group.multi_pair(pairs).is_identity()
        pairs.append((fixed[1], g))
        assert group.multi_pair(pairs).value == _reference(
            group, [(g, other)]
        )

    @pytest.mark.parametrize("index", range(NUM_SUBGROUPS))
    def test_single_subgroup_generators(self, group, rng, index):
        h = group.subgroup_generator(index)
        (fixed,) = group.prepare_fixed([h])
        other = group.subgroup_generator((index + 1) % NUM_SUBGROUPS)
        for b in (h, group.generator(), other):
            assert group.multi_pair([(fixed, b)]).value == _reference(
                group, [(b, h)]
            )

    @pytest.mark.parametrize("decoded", [False, True])
    @pytest.mark.parametrize("v", [[1, -3, 0, 0], [1, 1, 1, 1]])
    def test_ssw_tokens(self, group, decoded, v):
        rng = random.Random(0x70C3)
        key = ssw_setup(group, 4, rng)
        ciphertext = ssw_encrypt(key, [3, 1, 4, 1], rng)
        token = ssw_gen_token(key, v, rng)
        if decoded:
            token = deserialize_token(group, serialize_token(group, token))
        (prepared,) = ssw_prepare_tokens([token])
        assert prepared == token
        assert all(
            isinstance(e, PreparedCurveElement) for e in prepared.elements()
        )
        got = group.multi_pair(
            [(t, c) for c, t in _query_pairs(ciphertext, prepared)]
        )
        assert got.value == _reference(group, _query_pairs(ciphertext, token))
        assert ssw_query(prepared, ciphertext) is ssw_query(token, ciphertext)
        assert ssw_query(token, ciphertext) is (v == [1, -3, 0, 0])

    def test_mixed_pairs_fall_back(self, group, rng, monkeypatch):
        import repro.crypto.groups.pairing as pairing_module

        g = group.generator()
        a, b, c, d = (g ** rng.randrange(1, group.order) for _ in range(4))
        fixed_a, fixed_c = group.prepare_fixed([a, c])
        calls = []
        real = pairing_module.fixed_argument_pairing

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pairing_module, "fixed_argument_pairing", spy)
        expected = _reference(group, [(b, a), (d, c)])
        assert group.multi_pair([(fixed_a, b), (c, d)]).value == expected
        assert group.multi_pair([(a, b), (fixed_c, d)]).value == expected
        # A prepared element as the *second* argument is just a point.
        assert group.multi_pair([(b, fixed_a), (d, fixed_c)]).value == expected
        assert calls == []
        assert group.multi_pair([(fixed_a, b), (fixed_c, d)]).value == expected
        assert len(calls) == 1

    def test_prepared_elements_behave_like_plain_ones(self, group, rng):
        element = group.generator() ** rng.randrange(1, group.order)
        (fixed,) = group.prepare_fixed([element])
        assert fixed == element and hash(fixed) == hash(element)
        assert fixed * element == element * element
        assert fixed ** 5 == element ** 5
        assert group.serialize_element(fixed) == group.serialize_element(element)

    def test_prepare_rejects_foreign_elements(self, group, fast):
        other = SupersingularPairingGroup(toy_params(seed=2))
        for foreign in (fast.generator(), other.generator()):
            with pytest.raises(CryptoError):
                group.prepare_fixed([group.generator(), foreign])


class TestFastBackendUnchanged:
    def test_prepare_is_the_identity(self, fast, rng):
        elements = [fast.generator() ** rng.randrange(fast.order) for _ in range(5)]
        assert fast.prepare_fixed(elements) is elements

    def test_query_values_bit_for_bit(self, fast):
        # The token-first order gives the same target element, not just the
        # same identity test: the fast pairing is an exponent product.
        rng = random.Random(0xFA57)
        key = ssw_setup(fast, 4, rng)
        ciphertext = ssw_encrypt(key, [2, 7, 1, 8], rng)
        for v in ([7, -2, 0, 0], [1, 2, 3, 4]):
            token = ssw_gen_token(key, v, rng)
            (prepared,) = ssw_prepare_tokens([token])
            assert prepared.elements() == token.elements()
            pairs = _query_pairs(ciphertext, token)
            swapped = [(t, c) for c, t in pairs]
            assert fast.multi_pair(swapped) == fast.multi_pair(pairs)
            assert fast.multi_pair(swapped).exponent == fast.multi_pair(pairs).exponent
            assert ssw_query(prepared, ciphertext) is (v == [7, -2, 0, 0])
