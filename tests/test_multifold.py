"""Tests for Lucas arithmetic, relation modules and pinched-cube coproducts."""

from __future__ import annotations

import itertools
import random
from math import comb

import pytest

from thhcalc import graded_hopf as gh
from thhcalc import multifold as mf


# ---------------------------------------------------------------------------
# binomials mod p
# ---------------------------------------------------------------------------


def test_lucas_examples():
    assert mf.lucas(10, 4, 3) == 0
    assert all(mf.lucas(n, 0, 3) == 1 for n in range(20))
    for p in (3, 5):
        for i in (1, 2):
            for k in range(1, p**i):
                assert mf.lucas(p**i, k, p) == 0
    assert mf.lucas(4, 1, 3) == 1  # 4 = 11_3, C(4,1) = 4
    assert mf.lucas(5, 2, 3) == comb(5, 2) % 3


def test_lucas_matches_comb_randomized():
    rng = random.Random(11)
    for _ in range(500):
        p = rng.choice((3, 5, 7))
        n = rng.randrange(0, 400)
        k = rng.randrange(0, 400)
        assert mf.lucas(n, k, p) == (comb(n, k) % p if k <= n else 0)


def test_binom_div_p_examples():
    assert mf.binom_div_p(9, 3, 3) == 1
    assert mf.binom_div_p(3, 1, 3) == 1
    assert mf.binom_div_p(5, 1, 5) == 1
    assert mf.binom_div_p(25, 5, 5) == 1
    for p in (3, 5):
        for m in (1, 2):
            assert mf.binom_div_p(p ** (m + 1), p**m, p) == 1
    with pytest.raises(ValueError):
        mf.binom_div_p(6, 2, 3)
    with pytest.raises(ValueError):
        mf.binom_div_p(9, 0, 3)


def test_weight_classification():
    assert mf.classify_weight(1, 3) == mf.UNIT
    assert mf.classify_weight(9, 3) == mf.P_POWER
    assert mf.classify_weight(4, 3) == mf.TWO_POWERS  # 3 + 1
    assert mf.classify_weight(12, 3) == mf.TWO_POWERS  # 9 + 3
    assert mf.classify_weight(2, 3) == mf.GENERIC  # 1 + 1, equal powers
    assert mf.classify_weight(6, 3) == mf.GENERIC  # 3 + 3
    assert mf.classify_weight(5, 3) == mf.GENERIC  # digits (2, 1)
    assert mf.classify_weight(26, 5) == mf.TWO_POWERS  # 25 + 1
    assert mf.two_power_split(12, 3) == (9, 3)


# The recursive enumerations the library used before it switched to
# itertools; kept as the oracle for order as well as content, since the
# rognes column order fixes the solve_membership witness.


def _subsets_of_size(pool, size):
    pool = list(pool)
    if size == 0:
        return [()]
    return [(v,) + rest for i, v in enumerate(pool) for rest in _subsets_of_size(pool[i + 1 :], size - 1)]


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    return [(first,) + rest for first in range(total + 1) for rest in _compositions(total - first, parts - 1)]


def _full_support_weights(n, N):
    if n == 1:
        return [(N,)] if N >= 1 else []
    return [(first,) + rest for first in range(1, N - n + 2) for rest in _full_support_weights(n - 1, N - first)]


def test_stdlib_enumerations_match_recursive_oracles():
    for size in range(0, 6):
        for n in range(0, 6):
            assert list(itertools.combinations(range(1, n + 1), size)) == _subsets_of_size(range(1, n + 1), size)
    for parts in range(1, 5):
        for total in range(0, 10):
            assert gh.compositions(total, parts) == _compositions(total, parts)
            assert gh.compositions(total, parts, least=1) == _full_support_weights(parts, total)


def test_lucas_row_construction():
    for p in (3, 5):
        for n in (0, 1, 7, 30, 81, 121):
            assert mf.lucas_row(n, p) == [comb(n, k) % p for k in range(n + 1)]


def test_lucas_vs_pascal_small_sweep():
    for p in (3, 5, 7):
        report = mf.lucas_vs_pascal(p, 150)
        assert report["passed"], report


# ---------------------------------------------------------------------------
# one-direction relation modules
# ---------------------------------------------------------------------------


def test_relation_module_two_powers_weight_four():
    report = mf.relation_module(4, 3)
    assert report["type"] == mf.TWO_POWERS
    assert report["dimension"] == 2
    assert report["agrees"]
    assert report["normal_form"]["pivots"] == (3, 1)


def test_relation_module_p_power_weight_nine():
    report = mf.relation_module(9, 3)
    assert report["type"] == mf.P_POWER
    assert report["dimension"] == 1
    assert report["agrees"]
    # the divided row vanishes away from valuation-1 positions: r_1 = 0
    _, vectors, _ = mf.closed_form_vectors(9, 3)
    assert vectors[0][0] == 0  # r_1
    assert vectors[0][2] == 1  # r_3, the pivot


def test_relation_module_generic_weight_five():
    report = mf.relation_module(5, 3)
    assert report["type"] == mf.GENERIC
    assert report["dimension"] == 1
    assert report["agrees"]
    # normalized at the leading power: r_3 = 1 forces r_1 = 2
    _, vectors, normal = mf.closed_form_vectors(5, 3)
    assert normal["pivot"] == 3
    assert vectors[0][2] == 1
    assert vectors[0][0] == 2


def test_relation_module_sweep_small():
    for p in (3, 5):
        for N in range(3, 60):
            report = mf.relation_module(N, p)
            assert report["agrees"], (N, p)
            expected = {
                mf.P_POWER: 1,
                mf.TWO_POWERS: 2,
                mf.GENERIC: 1,
            }[report["type"]]
            assert report["dimension"] == expected, (N, p)


# ---------------------------------------------------------------------------
# decomposing tables
# ---------------------------------------------------------------------------


def test_decompose_power_table():
    # the weight-4 power class at p = 3: coefficients C(4, k) = 1, 0, 1
    table = mf.CoproductTable(4, {1: 1, 2: 0, 3: 1})
    report = mf.decompose_coproduct(table, 3)
    assert report["consistent"]
    assert report["round"] == 1 and report["skew"] == 0


def test_decompose_pure_skew_table():
    # a single hit at position 1 of weight p + 1: pure skew part
    p = 5
    table = mf.CoproductTable(p + 1, {1: 1})
    report = mf.decompose_coproduct(table, p)
    assert report["consistent"]
    assert report["round"] == 0 and report["skew"] == 1
    assert report["skew_position"] == 1


def test_decompose_rejects_bad_table():
    table = mf.CoproductTable(4, {2: 1})
    report = mf.decompose_coproduct(table, 3)
    assert not report["consistent"]
    assert report["witness"] == (1, 1, 2)


def test_decompose_p_power_table():
    p = 3
    table = mf.CoproductTable(9, {k: 2 * mf.binom_div_p(9, k, p) % p for k in range(1, 9)})
    report = mf.decompose_coproduct(table, p)
    assert report["consistent"]
    assert report["p_part"] == 2


def test_decompose_generic_table():
    # twice the Lucas row at weight 5, p = 3
    p = 3
    table = mf.CoproductTable(5, {k: 2 * mf.lucas(5, k, p) % p for k in range(1, 5)})
    report = mf.decompose_coproduct(table, p)
    assert report["consistent"]
    assert report["round"] == 2


def test_decompose_round_trip_randomized():
    # every consistent table is a combination of the closed-form vectors;
    # build random combinations and decompose them back
    rng = random.Random(23)
    for p in (3, 5):
        for N in range(3, 40):
            kind, vectors, _ = mf.closed_form_vectors(N, p)
            for _ in range(5):
                weights = [rng.randrange(p) for _ in vectors]
                coeffs = {
                    k: sum(w * v[k - 1] for w, v in zip(weights, vectors)) % p
                    for k in range(1, N)
                }
                report = mf.decompose_coproduct(mf.CoproductTable(N, coeffs), p)
                assert report["consistent"], (N, p, weights)


# ---------------------------------------------------------------------------
# pinched cubes
# ---------------------------------------------------------------------------


def test_cube_psi_single_variable():
    p = 3
    mon = mf.cube_monomial([((0, -1), 2)])
    out = mf.cube_psi(0, {mon: 1}, p)
    # m^2 -> m0^2 + 2 m0 m1 + m1^2
    sq0 = mf.cube_monomial([((0, 0), 2)])
    mixed = mf.cube_monomial([((0, 0), 1), ((0, 1), 1)])
    sq1 = mf.cube_monomial([((0, 1), 2)])
    assert out == {sq0: 1, mixed: 2, sq1: 1}


def test_cube_psi_drops_p_multiples():
    p = 3
    mon = mf.cube_monomial([((0, -1), 3)])
    out = mf.cube_psi(0, {mon: 1}, p)
    # the middle binomials C(3,1), C(3,2) vanish mod 3
    assert set(out.values()) == {1}
    assert len(out) == 2


def test_cube_psi_rejects_repinching():
    p = 3
    out = mf.cube_psi(0, {mf.cube_monomial([((0, -1), 1)]): 1}, p)
    with pytest.raises(ValueError):
        mf.cube_psi(0, out, p)


def test_pinch_order_independence_two_directions():
    report = mf.pinch_order_report(2, 12, 3)
    assert report["passed"]
    assert report["monomials_checked"] == 28  # pairs with e1 + e2 <= 6


def test_pinch_order_independence_three_directions():
    report = mf.pinch_order_report(3, 20, 5)
    assert report["passed"]
    assert report["monomials_checked"] == 286
    assert report["orders_per_monomial"] == 6


def test_pushout_series():
    for unpinched, pinched in ((1, 0), (2, 0), (1, 1), (2, 1), (3, 0)):
        report = mf.pushout_series_report(unpinched, pinched, 20)
        assert report["passed"], report


# ---------------------------------------------------------------------------
# several directions
# ---------------------------------------------------------------------------


def test_multifold_two_directions_degree_eight():
    # weight vectors (1,3), (3,1), (2,2): one dimension each
    report = mf.multifold_solution_space(2, 8, 3)
    assert report["passed"], report
    assert report["dimension"] == 3
    by_weight = {tuple(e["weight"]): e["expected_dimension"] for e in report["per_weight"]}
    assert by_weight == {(1, 3): 1, (3, 1): 1, (2, 2): 1}


def test_multifold_single_direction_matches_relation_module():
    for p in (3, 5):
        for N in range(3, 30):
            report = mf.multifold_solution_space(1, 2 * N, p)
            assert report["passed"], (N, p)
            assert report["dimension"] == mf.relation_module(N, p)["dimension"]


def test_multifold_invisible_weight_reported():
    report = mf.multifold_solution_space(2, 4, 3)
    assert report["passed"]
    assert report["dimension"] == 0
    assert report["invisible_weights"] == [(1, 1)]


def test_multifold_two_power_weight_gets_skew_dimension():
    # degree 10 at p = 3: weights (1,4),(4,1) are two-power (dim 2 each),
    # (2,3),(3,2) mix generic with a p-power (dim 1 each), (5,... wait
    # (1,4),(2,3),(3,2),(4,1): total 2+1+1+2
    report = mf.multifold_solution_space(2, 10, 3)
    assert report["passed"], report
    by_weight = {tuple(e["weight"]): e["expected_dimension"] for e in report["per_weight"]}
    assert by_weight == {(1, 4): 2, (2, 3): 1, (3, 2): 1, (4, 1): 2}
    assert report["dimension"] == 6


def test_multifold_sweep_degrees():
    for p in (3, 5):
        for n in (1, 2, 3):
            for degree in range(2 * n, 25, 2):
                report = mf.multifold_solution_space(n, degree, p)
                assert report["passed"], (n, degree, p, report)


def test_multifold_three_directions_spot():
    report = mf.multifold_solution_space(3, 12, 3)
    assert report["passed"], report
    by_weight = {tuple(e["weight"]): e["expected_dimension"] for e in report["per_weight"]}
    # (1,1,4) type two-power: 2; (1,2,3)-style: generic 2 present, dim 1;
    # (2,2,2): all generic, dim 1; (1,1,1,...) absent (support is exact)
    assert by_weight[(1, 1, 4)] == 2
    assert by_weight[(1, 2, 3)] == 1
    assert by_weight[(2, 2, 2)] == 1


def test_multifold_guards():
    with pytest.raises(ValueError):
        mf.multifold_solution_space(4, 8, 3)
    with pytest.raises(ValueError):
        mf.multifold_solution_space(2, 7, 3)
