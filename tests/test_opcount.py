"""Tests for operation counting and the EC2 cost model.

The formulas in repro.analysis.opcount are verified *dynamically*: the SSW
algorithms run against an instrumented fast group that counts every pairing,
exponentiation, and multiplication, and the counts must match exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.analysis.opcount import (
    OpCount,
    crse1_search_record_ops,
    crse2_encrypt_ops,
    crse2_gen_token_ops,
    crse2_search_record_ops,
    ssw_encrypt_ops,
    ssw_gen_token_ops,
    ssw_query_ops,
    ssw_setup_ops,
)
from repro.cloud.costmodel import PAPER_EC2_MODEL, CostModel, measure_calibration
from repro.crypto.groups.fastgroup import (
    FastCompositeGroup,
    FastElement,
    FastTargetElement,
)
from repro.crypto.groups.params import default_test_params
from repro.crypto.ssw import (
    ssw_encrypt,
    ssw_gen_token,
    ssw_prepare_tokens,
    ssw_query,
    ssw_setup,
)


@dataclass
class _Counts:
    pairings: int = 0
    exponentiations: int = 0
    multiplications: int = 0
    final_exps: int = 0


@pytest.fixture
def counted(monkeypatch):
    """An instrumented fast group plus its live operation counters."""
    group = FastCompositeGroup(default_test_params().subgroup_primes)
    counts = _Counts()
    original_pair = FastCompositeGroup.pair
    original_multi_pair = FastCompositeGroup.multi_pair
    original_pow = FastElement._pow
    original_mul = FastElement._mul

    def counting_pair(self, a, b):
        counts.pairings += 1
        return original_pair(self, a, b)

    def counting_multi_pair(self, pairs):
        # One Miller loop per pair, one shared final exponentiation —
        # mirrors the op classes ssw_query_ops accounts for.
        pairs = list(pairs)
        counts.pairings += len(pairs)
        counts.final_exps += 1
        return original_multi_pair(self, pairs)

    def counting_pow(self, exponent):
        counts.exponentiations += 1
        return original_pow(self, exponent)

    def counting_mul(self, other):
        counts.multiplications += 1
        return original_mul(self, other)

    monkeypatch.setattr(FastCompositeGroup, "pair", counting_pair)
    monkeypatch.setattr(FastCompositeGroup, "multi_pair", counting_multi_pair)
    monkeypatch.setattr(FastElement, "_pow", counting_pow)
    monkeypatch.setattr(FastElement, "_mul", counting_mul)
    return group, counts


class TestDynamicVerification:
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_setup_count(self, counted, n):
        group, counts = counted
        ssw_setup(group, n, random.Random(1))
        assert counts.exponentiations == ssw_setup_ops(n).exponentiations

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_encrypt_count(self, counted, n):
        group, counts = counted
        key = ssw_setup(group, n, random.Random(1))
        counts.exponentiations = counts.multiplications = 0
        ssw_encrypt(key, list(range(n)), random.Random(2))
        expected = ssw_encrypt_ops(n)
        assert counts.exponentiations == expected.exponentiations
        assert counts.multiplications == expected.multiplications

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_gen_token_count(self, counted, n):
        group, counts = counted
        key = ssw_setup(group, n, random.Random(1))
        counts.exponentiations = counts.multiplications = 0
        ssw_gen_token(key, list(range(n)), random.Random(2))
        expected = ssw_gen_token_ops(n)
        assert counts.exponentiations == expected.exponentiations
        assert counts.multiplications == expected.multiplications

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_query_count(self, counted, n):
        group, counts = counted
        key = ssw_setup(group, n, random.Random(1))
        ct = ssw_encrypt(key, list(range(n)), random.Random(2))
        tk = ssw_gen_token(key, [0] * n, random.Random(3))
        counts.pairings = counts.final_exps = 0
        ssw_query(tk, ct)
        expected = ssw_query_ops(n)
        assert counts.pairings == expected.pairings
        assert counts.final_exps == expected.final_exps == 1

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_prepared_query_count(self, counted, n):
        # Preparing a token for a scan is no pairing work of its own, and a
        # prepared query is still one product of 2n + 2 pairings.
        group, counts = counted
        key = ssw_setup(group, n, random.Random(1))
        ct = ssw_encrypt(key, list(range(n)), random.Random(2))
        tk = ssw_gen_token(key, [0] * n, random.Random(3))
        counts.pairings = counts.final_exps = 0
        (prepared,) = ssw_prepare_tokens([tk])
        assert counts.pairings == counts.final_exps == 0
        ssw_query(prepared, ct)
        expected = ssw_query_ops(n)
        assert counts.pairings == expected.pairings
        assert counts.final_exps == expected.final_exps == 1


class TestOpCountAlgebra:
    def test_add_and_scale(self):
        a = OpCount(1, 2, 3, 4)
        b = OpCount(10, 20, 30, 40)
        assert a + b == OpCount(11, 22, 33, 44)
        assert 3 * a == OpCount(3, 6, 9, 12) == a * 3

    def test_query_shares_one_final_exponentiation(self):
        # 2n + 2 Miller loops, but the product-of-pairings evaluation pays
        # a single final exponentiation regardless of the vector length.
        assert ssw_query_ops(4).final_exps == 1
        assert crse2_search_record_ops(3, 2).final_exps == 3

    def test_crse2_composition(self):
        assert crse2_encrypt_ops(2) == ssw_encrypt_ops(4)
        assert crse2_gen_token_ops(5, 2) == 5 * ssw_gen_token_ops(4)
        assert crse2_search_record_ops(3, 2) == 3 * ssw_query_ops(4)
        assert crse1_search_record_ops(10) == ssw_query_ops(10)


class TestCostModel:
    def test_paper_model_reproduces_search_time(self):
        # R = 10 → m = 44, average hit after m/2 = 22 sub-tokens:
        # 22 × 10 pairings × 0.44 ms ≈ 97 ms (paper: 98.65 ms).
        ops = crse2_search_record_ops(evaluated=22, w=2)
        assert PAPER_EC2_MODEL.time_ms(ops) == pytest.approx(98.65, rel=0.05)

    def test_paper_model_reproduces_encrypt_time(self):
        # Paper Fig. 10: CRSE-II encryption ≈ 5.61 ms.
        ms = PAPER_EC2_MODEL.time_ms(crse2_encrypt_ops(2))
        assert ms == pytest.approx(5.61, rel=0.15)

    def test_paper_model_reproduces_token_time(self):
        # Paper: 329.47 ms for m = 44 at R = 10.
        ms = PAPER_EC2_MODEL.time_ms(crse2_gen_token_ops(44, 2))
        assert ms == pytest.approx(329.47, rel=0.15)

    def test_time_units(self):
        model = CostModel(1.0, 1.0, 1.0)
        assert model.time_s(OpCount(1000, 0, 0)) == pytest.approx(1.0)

    def test_final_exp_priced_separately(self):
        model = CostModel(1.0, 0.0, 0.0, final_exp_ms=5.0)
        assert model.time_ms(OpCount(pairings=10, final_exps=1)) == 15.0
        # The paper model prices complete pairings, so the shared final
        # exponentiation must not be double-charged there.
        assert PAPER_EC2_MODEL.final_exp_ms == 0.0

    def test_measure_calibration_runs(self):
        group = FastCompositeGroup(default_test_params().subgroup_primes)
        model = measure_calibration(group, repetitions=5)
        assert model.pairing_ms >= 0
        assert model.label == "FastCompositeGroup"
