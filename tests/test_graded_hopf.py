"""Generator-presented graded algebras: products, coproducts, primitives."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhcalc import graded_hopf as gh


def gamma_spec(degree=2, bound=40, mode=gh.TRUNCATING):
    return gh.algebra([gh.divided("x", degree)], bound, mode)


def poly_spec(degree=2, bound=40):
    return gh.algebra([gh.polynomial("mu", degree)], bound)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_divided_power_product_rule():
    spec = gamma_spec()
    g = lambda k: {((0, k),): 1} if k else {(): 1}
    # gamma_1 * gamma_1 = 2 gamma_2
    assert gh.multiply(spec, g(1), g(1), 5) == {((0, 2),): 2}
    # gamma_2 * gamma_3 = binom(5,2) gamma_5 = 10 gamma_5 = 0 mod 5
    assert gh.multiply(spec, g(2), g(3), 5) == {}
    assert gh.multiply(spec, g(2), g(3), 3) == {((0, 5),): 1}


def test_exterior_squares_vanish():
    spec = gh.algebra([gh.exterior("y", 3)], 20)
    y = {((0, 1),): 1}
    assert gh.multiply(spec, y, y, 5) == {}


def test_truncated_height_default_and_explicit():
    spec = gh.algebra([gh.truncated("u", 2)], 40)
    u2 = {((0, 2),): 1}
    # default height p: u^2 * u = u^3 != 0 mod 5, = 0 mod 3
    assert gh.multiply(spec, u2, {((0, 1),): 1}, 3) == {}
    assert gh.multiply(spec, u2, {((0, 1),): 1}, 5) == {((0, 3),): 1}
    spec7 = gh.algebra([gh.truncated("u", 2, 4)], 40)
    assert gh.multiply(spec7, u2, u2, 7) == {}


def test_koszul_sign_on_odd_swap():
    spec = gh.algebra([gh.exterior("a", 1), gh.exterior("b", 3)], 20)
    a = {((0, 1),): 1}
    b = {((1, 1),): 1}
    ab = gh.multiply(spec, a, b, 5)
    ba = gh.multiply(spec, b, a, 5)
    assert ab == {((0, 1), (1, 1)): 1}
    assert ba == {((0, 1), (1, 1)): 4}


def test_strict_mode_overflow_raises():
    spec = gamma_spec(bound=6, mode=gh.STRICT)
    g3 = {((0, 3),): 1}
    with pytest.raises(gh.DegreeOverflow):
        gh.multiply(spec, g3, {((0, 1),): 1}, 5)
    # truncating drops the same product silently
    spec_t = gamma_spec(bound=6)
    assert gh.multiply(spec_t, g3, {((0, 1),): 1}, 5) == {}


# ---------------------------------------------------------------------------
# coproducts and primitives
# ---------------------------------------------------------------------------


def test_reduced_coproduct_of_gamma_2():
    spec = gamma_spec()
    red = gh.reduced_coproduct(spec, {((0, 2),): 1}, 5)
    assert red == {(((0, 1),), ((0, 1),)): 1}


def test_polynomial_generator_is_primitive():
    spec = poly_spec()
    red = gh.reduced_coproduct(spec, {((0, 1),): 1}, 5)
    assert red == {}


@pytest.mark.parametrize("p", [3, 5])
def test_polynomial_primitives_at_degree_2p(p):
    spec = poly_spec(bound=6 * p)
    prims = gh.primitive_basis(spec, 2 * p, p)
    assert len(prims) == 1
    assert prims[0] == {((0, p),): 1}
    # nothing primitive in composite, non-p-power degrees
    assert gh.primitive_basis(spec, 8 if p == 3 else 12, p) == []


def test_divided_power_primitives_only_gamma_1():
    spec = gamma_spec(bound=30)
    for t in range(1, 30):
        prims = gh.primitive_basis(spec, t, 3)
        if t == 2:
            assert prims == [{((0, 1),): 1}]
        else:
            assert prims == []


def test_indecomposables_of_divided_powers_mod_3():
    spec = gamma_spec(bound=20)
    dims = gh.indecomposable_dims(spec, 20, 3)
    hits = [t for t, d in enumerate(dims) if d]
    assert hits == [2, 6, 18]
    assert all(dims[t] == 1 for t in hits)


def test_divided_powers_match_tensor_of_truncated():
    # Gamma(x) has the dimensions of (x)_k P_p(gamma_{p^k} x), |x| = 2
    p, limit = 3, 50
    spec = gamma_spec(bound=limit)
    gens = []
    k = 0
    while 2 * p**k <= limit:
        gens.append(gh.truncated(f"g{k}", 2 * p**k))
        k += 1
    trunc = gh.algebra(gens, limit)
    assert gh.poincare_series(spec, limit, p) == gh.poincare_series(trunc, limit, p)


def test_basis_counts_agree_with_poincare_series():
    spec = gh.algebra(
        [gh.exterior("a", 3), gh.divided("x", 2), gh.truncated("u", 4)], 25
    )
    series = gh.poincare_series(spec, 25, 5)
    for t in range(26):
        assert len(gh.basis(spec, t, 5)) == series[t]


# ---------------------------------------------------------------------------
# algebra laws on randomized homogeneous elements
# ---------------------------------------------------------------------------


MIXED = gh.algebra(
    [gh.exterior("a", 1), gh.divided("x", 2), gh.exterior("b", 3), gh.polynomial("m", 2)],
    24,
)


def random_pair(rng, p):
    t1 = rng.randrange(1, 9)
    t2 = rng.randrange(1, 9)
    return (
        gh.random_homogeneous(MIXED, t1, p, rng),
        gh.random_homogeneous(MIXED, t2, p, rng),
        t1,
        t2,
    )


@pytest.mark.parametrize("p", [3, 5])
def test_associativity_random(p):
    rng = random.Random(500 + p)
    for _ in range(300):
        a, b, _, _ = random_pair(rng, p)
        c = gh.random_homogeneous(MIXED, rng.randrange(1, 7), p, rng)
        left = gh.multiply(MIXED, gh.multiply(MIXED, a, b, p), c, p)
        right = gh.multiply(MIXED, a, gh.multiply(MIXED, b, c, p), p)
        assert left == right


@pytest.mark.parametrize("p", [3, 5])
def test_graded_commutativity_random(p):
    rng = random.Random(600 + p)
    for _ in range(300):
        a, b, t1, t2 = random_pair(rng, p)
        ab = gh.multiply(MIXED, a, b, p)
        ba = gh.multiply(MIXED, b, a, p)
        sign = -1 if (t1 * t2) % 2 else 1
        assert ab == gh.scalar_mul(sign, ba, p)


@pytest.mark.parametrize("p", [3, 5])
def test_coproduct_multiplicative_random(p):
    rng = random.Random(700 + p)
    for _ in range(150):
        a, b, _, _ = random_pair(rng, p)
        lhs = gh.coproduct(MIXED, gh.multiply(MIXED, a, b, p), p)
        rhs = gh.tensor_multiply(
            MIXED, gh.coproduct(MIXED, a, p), gh.coproduct(MIXED, b, p), p
        )
        assert lhs == rhs


def _triple_left(spec, ts, p):
    out = {}
    for (m1, m2), c in ts.items():
        for (a, b), d in gh.coproduct(spec, {m1: 1}, p).items():
            key = (a, b, m2)
            v = (out.get(key, 0) + c * d) % p
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def _triple_right(spec, ts, p):
    out = {}
    for (m1, m2), c in ts.items():
        for (a, b), d in gh.coproduct(spec, {m2: 1}, p).items():
            key = (m1, a, b)
            v = (out.get(key, 0) + c * d) % p
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_coassociativity_random(p):
    rng = random.Random(800 + p)
    for _ in range(150):
        a = gh.random_homogeneous(MIXED, rng.randrange(1, 10), p, rng)
        ts = gh.coproduct(MIXED, a, p)
        assert _triple_left(MIXED, ts, p) == _triple_right(MIXED, ts, p)


@pytest.mark.parametrize("p", [3, 5])
def test_frobenius_additivity_random(p):
    # (a+b)^p = a^p + b^p on even homogeneous elements
    rng = random.Random(900 + p)
    spec = gh.algebra([gh.divided("x", 2), gh.polynomial("m", 2), gh.truncated("u", 4)], 8 * p)
    for _ in range(60):
        t = 2 * rng.randrange(1, 4)
        a = gh.random_homogeneous(spec, t, p, rng)
        b = gh.random_homogeneous(spec, t, p, rng)
        lhs = gh.power(spec, gh.add(a, b, p), p, p)
        rhs = gh.add(gh.power(spec, a, p, p), gh.power(spec, b, p, p), p)
        assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10), st.sampled_from([3, 5]), st.integers())
def test_monomial_products_graded_commute_hypothesis(t1, t2, p, seed):
    rng = random.Random(seed)
    a = gh.random_homogeneous(MIXED, t1, p, rng, max_terms=1)
    b = gh.random_homogeneous(MIXED, t2, p, rng, max_terms=1)
    ab = gh.multiply(MIXED, a, b, p)
    ba = gh.multiply(MIXED, b, a, p)
    sign = -1 if (t1 * t2) % 2 else 1
    assert ab == gh.scalar_mul(sign, ba, p)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def test_dualize_swaps_divided_for_polynomial():
    spec = gh.algebra([gh.exterior("a", 3), gh.divided("x", 4)], 30)
    dual = gh.dualize(spec)
    kinds = [g.kind for g in dual.generators]
    assert kinds == [gh.EXTERIOR, gh.POLYNOMIAL]
    assert gh.poincare_series(spec, 30, 5) == gh.poincare_series(dual, 30, 5)


def test_dualize_rejects_polynomial_input():
    with pytest.raises(gh.DualizeError):
        gh.dualize(poly_spec())


def test_generator_parity_validation():
    with pytest.raises(ValueError):
        gh.exterior("a", 2)
    with pytest.raises(ValueError):
        gh.polynomial("m", 3)
    with pytest.raises(ValueError):
        gh.truncated("u", 4, 1)
