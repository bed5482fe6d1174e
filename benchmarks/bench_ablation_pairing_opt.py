"""Ablation — the pairing hot-path optimizations, layer by layer.

The PR's speedup claim, demonstrated on the real curve backend at the
paper-relevant shape: a CRSE-II sub-token query is one SSW ``Query`` at
vector length ``n = w + 2 = 4``, i.e. ``2n + 2 = 10`` pairings per
evaluation ("pairing operations … are the dominating operations in our
search process", Sec. VIII).  Two ablation ladders:

* **scalar multiplication** — naive affine double-and-add → Jacobian
  coordinates with wNAF recoding → fixed-base window tables;
* **the query product** — per-pair affine pairings (the pre-optimization
  reference) → per-pair Jacobian Miller loops (still one final
  exponentiation *each*) → one shared Miller accumulator with a single
  final exponentiation for the whole product.
* **fixed-argument pairings** — at the curve size of perfbench's
  ``scan-pairing`` workload (120-bit ``q``, 112-bit ``N``), a token
  prepared once (its Miller lines computed for every element, in
  lockstep) against ``product_tate_pairing`` on the raw points.

The end-to-end assert requires the fully optimized ``ssw_query`` to beat
the naive per-pair evaluation by >= 3x; the intermediate rung isolates how
much of that comes from coordinates vs the shared final exponentiation.
The fixed-argument arm gates on single-core CPU time: a prepared
evaluation >= 2.5x faster than an unprepared one, and preparing a
sub-token <= 1.5 unprepared evaluations, plus exact Miller-loop, final
exponentiation and line-step counts.
"""

from __future__ import annotations

import random
import time

import repro.crypto.groups.pairing as pairing_module
from repro.analysis.report import TextTable
from repro.core import CRSE2Scheme, DataSpace, group_for_crse2
from repro.core.geometry import Circle
from repro.crypto.groups.base import CompositeBilinearGroup
from repro.crypto.groups.curve import FixedBaseTable
from repro.crypto.groups.fastgroup import FastCompositeGroup
from repro.crypto.groups.pairing import (
    SupersingularPairingGroup,
    reduced_tate_pairing,
)
from repro.crypto.groups.params import toy_params
from repro.crypto.ssw import (
    ssw_encrypt,
    ssw_gen_token,
    ssw_prepare_tokens,
    ssw_query,
    ssw_setup,
)

#: CRSE-II sub-token vector length (w = 2 planar data → alpha = 4).
VECTOR_LENGTH = 4
QUERY_ROUNDS = 5
SCALAR_ROUNDS = 40
FIXED_ROUNDS = 5
#: The scan-pairing workload's query radius with the most sub-tokens.
FIXED_RADIUS = 3


def _best_of(repeats, fn):
    """Best-of-*repeats* wall-clock of ``fn()``, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def _best_cpu_ms(repeats, fn):
    """Best-of-*repeats* single-core CPU time of ``fn()``, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.process_time()
        fn()
        best = min(best, (time.process_time() - started) * 1000.0)
    return best


def _query_pairs(ciphertext, token):
    return [
        (ciphertext.c, token.k),
        (ciphertext.c0, token.k0),
        *zip(ciphertext.c1, token.k1),
        *zip(ciphertext.c2, token.k2),
    ]


def test_ablation_scalar_multiplication(write_result, write_json):
    group = SupersingularPairingGroup(toy_params())
    curve = group.curve
    point = group.generator().point
    rng = random.Random(0x5CA1A2)
    scalars = [rng.randrange(1, group.order) for _ in range(SCALAR_ROUNDS)]
    table = FixedBaseTable(curve, point, group.order.bit_length())

    naive_ms = _best_of(
        3, lambda: [curve.multiply_naive(point, k) for k in scalars]
    ) / len(scalars)
    wnaf_ms = _best_of(
        3, lambda: [curve.multiply(point, k) for k in scalars]
    ) / len(scalars)
    fixed_ms = _best_of(
        3, lambda: [table.multiply(k) for k in scalars]
    ) / len(scalars)

    # Same outputs before comparing speeds.
    assert all(
        curve.multiply(point, k)
        == curve.multiply_naive(point, k)
        == table.multiply(k)
        for k in scalars[:5]
    )
    # Each rung of the ladder must not regress the previous one (generous
    # slack: these are micro-timings on shared CI hardware).
    assert wnaf_ms < naive_ms * 1.2
    assert fixed_ms < naive_ms

    out = TextTable(
        "Ablation — scalar multiplication (curve backend, ms/op, best of 3)",
        ["variant", "ms_per_mult", "speedup_vs_naive"],
    )
    out.add_row("naive double-and-add (affine)", naive_ms, 1.0)
    out.add_row("wNAF + Jacobian", wnaf_ms, naive_ms / wnaf_ms)
    out.add_row("fixed-base window table", fixed_ms, naive_ms / fixed_ms)
    write_result("ablation_scalar_mult", out.render())
    write_json(
        "ablation_scalar_mult",
        {
            "benchmark": "ablation_scalar_mult",
            "rounds": SCALAR_ROUNDS,
            "naive_ms": naive_ms,
            "wnaf_jacobian_ms": wnaf_ms,
            "fixed_base_ms": fixed_ms,
            "wnaf_speedup": naive_ms / wnaf_ms,
            "fixed_base_speedup": naive_ms / fixed_ms,
        },
    )


def test_ablation_query_product(write_result, write_json):
    group = SupersingularPairingGroup(toy_params())
    params = group.params
    rng = random.Random(0xAB1A)
    key = ssw_setup(group, VECTOR_LENGTH, rng)
    ciphertext = ssw_encrypt(key, [3, 1, 4, 1], rng)
    token = ssw_gen_token(key, [1, -3, 0, 0], rng)  # <x, v> = 0 → match
    pairs = _query_pairs(ciphertext, token)
    point_pairs = [(a.point, b.point) for a, b in pairs]

    def query_naive():
        # Pre-optimization reference: 2n + 2 affine Miller loops, each
        # paying its own final exponentiation, multiplied in G_T.
        product = reduced_tate_pairing(
            group.curve, *point_pairs[0], group.order, params.cofactor
        )
        for a, b in point_pairs[1:]:
            product = product * reduced_tate_pairing(
                group.curve, a, b, group.order, params.cofactor
            )
        return product.is_one()

    def query_per_pair():
        # Jacobian Miller loops, but still one final exponentiation per
        # pairing (the base-class multi_pair reduction).
        return CompositeBilinearGroup.multi_pair(group, pairs).is_identity()

    def query_optimized():
        return ssw_query(token, ciphertext)

    assert query_naive() is query_per_pair() is query_optimized() is True

    naive_ms = _best_of(QUERY_ROUNDS, query_naive)
    per_pair_ms = _best_of(QUERY_ROUNDS, query_per_pair)
    optimized_ms = _best_of(QUERY_ROUNDS, query_optimized)
    speedup = naive_ms / optimized_ms

    # The PR's acceptance bar: >= 3x end to end on the real backend.
    assert speedup >= 3.0, (
        f"optimized ssw_query only {speedup:.2f}x faster "
        f"({naive_ms:.2f} ms -> {optimized_ms:.2f} ms)"
    )

    out = TextTable(
        f"Ablation — SSW query product, n = {VECTOR_LENGTH} "
        f"(2n+2 = {len(pairs)} pairings, ms/query, best of {QUERY_ROUNDS})",
        ["variant", "ms_per_query", "speedup_vs_naive"],
    )
    out.add_row("per-pair affine (pre-PR)", naive_ms, 1.0)
    out.add_row("per-pair Jacobian Miller", per_pair_ms, naive_ms / per_pair_ms)
    out.add_row(
        "shared accumulator + 1 final exp", optimized_ms, speedup
    )
    write_result("ablation_pairing_opt", out.render())
    write_json(
        "ablation_pairing_opt",
        {
            "benchmark": "ablation_pairing_opt",
            "vector_length": VECTOR_LENGTH,
            "pairings_per_query": len(pairs),
            "naive_ms": naive_ms,
            "per_pair_jacobian_ms": per_pair_ms,
            "optimized_ms": optimized_ms,
            "jacobian_speedup": naive_ms / per_pair_ms,
            "total_speedup": speedup,
        },
    )


def test_fast_backend_unchanged():
    """The exponent-space backend must agree with itself through multi_pair
    (guards the benchmark harness against comparing different answers)."""
    group = FastCompositeGroup(toy_params().subgroup_primes)
    rng = random.Random(0xFA57)
    key = ssw_setup(group, VECTOR_LENGTH, rng)
    ciphertext = ssw_encrypt(key, [2, 7, 1, 8], rng)
    token = ssw_gen_token(key, [7, -2, 0, 0], rng)
    pairs = _query_pairs(ciphertext, token)
    assert ssw_query(token, ciphertext) is True
    assert (
        group.multi_pair(pairs)
        == CompositeBilinearGroup.multi_pair(group, pairs)
    )


def test_ablation_fixed_argument(write_result, write_json, monkeypatch):
    # The group perfbench's scan-pairing workload provisions (same seed).
    space = DataSpace(w=2, t=32)
    group = group_for_crse2(
        space, "pairing", random.Random("scan-pairing/group")
    )
    scheme = CRSE2Scheme(space, group)
    rng = random.Random(0xF1A7)
    key = scheme.gen_key(rng)
    token = scheme.gen_token(
        key, Circle.from_radius((16, 16), FIXED_RADIUS), rng
    )
    ciphertext = scheme.encrypt(key, (2, 30), rng)  # far away: no match
    subs = token.sub_tokens
    m = len(subs)
    prepared = ssw_prepare_tokens(subs)

    # Exact counts first.  Every element carries one line per Miller step:
    # bitlen(N) - 1 tangents plus popcount(N) - 1 chords.
    order = group.order
    steps = (order.bit_length() - 1) + (bin(order).count("1") - 1)
    elements = [e for sub in prepared for e in sub.elements()]
    assert len(elements) == m * (2 * VECTOR_LENGTH + 2)
    assert all(len(e.lines) == steps for e in elements)
    # One prepared evaluation: 2n + 2 Miller loops, one final exp.
    calls = []
    real = pairing_module.fixed_argument_pairing

    def counting(curve, pairs, *rest):
        calls.append(len(pairs))
        return real(curve, pairs, *rest)

    monkeypatch.setattr(pairing_module, "fixed_argument_pairing", counting)
    decisions = [ssw_query(sub, ciphertext.ssw) for sub in prepared]
    monkeypatch.undo()
    assert calls == [2 * VECTOR_LENGTH + 2] * m
    assert decisions == [ssw_query(sub, ciphertext.ssw) for sub in subs]
    assert not any(decisions)

    unprepared_ms = _best_cpu_ms(
        FIXED_ROUNDS, lambda: ssw_query(subs[0], ciphertext.ssw)
    )
    prepared_ms = _best_cpu_ms(
        FIXED_ROUNDS, lambda: ssw_query(prepared[0], ciphertext.ssw)
    )
    prepare_ms = _best_cpu_ms(3, lambda: ssw_prepare_tokens(subs)) / m
    speedup = unprepared_ms / prepared_ms
    prepare_cost = prepare_ms / unprepared_ms
    # A non-matching record pays all m sub-tokens; the scan-pairing
    # workload spreads one prepare over its 6 records.
    record_unprepared_ms = m * unprepared_ms
    record_prepared_ms = m * prepared_ms + m * prepare_ms / 6

    assert speedup >= 2.5, (
        f"prepared evaluation only {speedup:.2f}x faster "
        f"({unprepared_ms:.2f} ms -> {prepared_ms:.2f} ms)"
    )
    assert prepare_cost <= 1.5, (
        f"preparing a sub-token costs {prepare_cost:.2f} unprepared "
        f"evaluations ({prepare_ms:.2f} ms)"
    )

    out = TextTable(
        f"Ablation — fixed-argument pairings, scan-pairing curve "
        f"(q {group.curve.q.bit_length()} bits, N {order.bit_length()} "
        f"bits, R = {FIXED_RADIUS}, m = {m}; CPU ms, best of {FIXED_ROUNDS})",
        ["variant", "cpu_ms", "vs_unprepared"],
    )
    out.add_row("sub-token evaluation, unprepared", unprepared_ms, 1.0)
    out.add_row("sub-token evaluation, prepared", prepared_ms, speedup)
    out.add_row("prepare, per sub-token", prepare_ms, prepare_cost)
    out.add_row("non-matching record, unprepared", record_unprepared_ms, 1.0)
    out.add_row(
        "non-matching record, prepared (+1/6 prepare)",
        record_prepared_ms,
        record_unprepared_ms / record_prepared_ms,
    )
    write_result("ablation_fixed_argument", out.render())
    write_json(
        "ablation_fixed_argument",
        {
            "benchmark": "ablation_fixed_argument",
            "field_bits": group.curve.q.bit_length(),
            "order_bits": order.bit_length(),
            "radius": FIXED_RADIUS,
            "sub_tokens": m,
            "miller_steps_per_element": steps,
            "pairings_per_evaluation": 2 * VECTOR_LENGTH + 2,
            "unprepared_eval_cpu_ms": unprepared_ms,
            "prepared_eval_cpu_ms": prepared_ms,
            "prepare_per_sub_token_cpu_ms": prepare_ms,
            "eval_speedup": speedup,
            "prepare_in_unprepared_evals": prepare_cost,
            "record_unprepared_cpu_ms": record_unprepared_ms,
            "record_prepared_cpu_ms": record_prepared_ms,
        },
    )
