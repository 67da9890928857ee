"""Generator-presented graded algebras: products, coproducts, primitives."""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhcalc import admissible_words as aw
from thhcalc import checks
from thhcalc import graded_hopf as gh
from thhcalc import spectral_engine as se
from thhcalc import torus_model as tm
from thhcalc.fp_linalg import FpSparseMatrix, add_to, rank


def gamma_spec(degree=2, bound=40, p=5):
    return gh.algebra([gh.divided("x", degree)], bound, p)


def poly_spec(degree=2, bound=40, p=5):
    return gh.algebra([gh.polynomial("mu", degree)], bound, p)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_divided_power_product_rule():
    spec = gamma_spec()
    g = lambda k: {((0, k),): 1} if k else {(): 1}
    # gamma_1 * gamma_1 = 2 gamma_2
    assert gh.multiply(spec, g(1), g(1)) == {((0, 2),): 2}
    # gamma_2 * gamma_3 = binom(5,2) gamma_5 = 10 gamma_5 = 0 mod 5
    assert gh.multiply(spec, g(2), g(3)) == {}
    assert gh.multiply(gamma_spec(p=3), g(2), g(3)) == {((0, 5),): 1}


def test_exterior_squares_vanish():
    spec = gh.algebra([gh.exterior("y", 3)], 20, 5)
    y = {((0, 1),): 1}
    assert gh.multiply(spec, y, y) == {}


def test_truncated_height_is_p():
    specs = {p: gh.algebra([gh.truncated("u", 2)], 40, p) for p in (3, 5, 7)}
    u = lambda k: {((0, k),): 1}
    # u^2 * u = u^3 != 0 mod 5, = 0 mod 3
    assert gh.multiply(specs[3], u(2), u(1)) == {}
    assert gh.multiply(specs[5], u(2), u(1)) == {((0, 3),): 1}
    # u^4 * u^2 = u^6 != 0 mod 7, u^4 * u^3 = 0 mod 7
    assert gh.multiply(specs[7], u(4), u(2)) == {((0, 6),): 1}
    assert gh.multiply(specs[7], u(4), u(3)) == {}


def test_koszul_sign_on_odd_swap():
    spec = gh.algebra([gh.exterior("a", 1), gh.exterior("b", 3)], 20, 5)
    a = {((0, 1),): 1}
    b = {((1, 1),): 1}
    ab = gh.multiply(spec, a, b)
    ba = gh.multiply(spec, b, a)
    assert ab == {((0, 1), (1, 1)): 1}
    assert ba == {((0, 1), (1, 1)): 4}


def test_overflowing_product_is_dropped():
    spec = gamma_spec(bound=6)
    g3 = {((0, 3),): 1}
    assert gh.multiply(spec, g3, {((0, 1),): 1}) == {}
    assert gh.multiply(spec, g3, {(): 1}) == g3
    # a zero product is found before the degree check
    ext = gh.algebra([gh.exterior("y", 3)], 4, 5)
    assert gh.mul_monomials(ext, ((0, 1),), ((0, 1),)) is None


# The product as it was before AlgebraSpec.table: a separate Koszul-sign
# pass, a dict merge and a sort.  Kept as the oracle for the one-pass merge.


def _koszul_sign(spec, m1, m2):
    odd1 = [i for i, _ in m1 if spec.generators[i].degree % 2]
    odd2 = [j for j, _ in m2 if spec.generators[j].degree % 2]
    inversions = sum(1 for i in odd1 for j in odd2 if j < i)
    return -1 if inversions % 2 else 1


def _mul_monomials_oracle(spec, m1, m2):
    p = spec.p
    coeff = _koszul_sign(spec, m1, m2) % p
    exps = dict(m1)
    for i, e2 in m2:
        g = spec.generators[i]
        e1 = exps.get(i, 0)
        e = e1 + e2
        if g.kind == gh.EXTERIOR:
            if e > 1:
                return None
        elif g.kind == gh.TRUNCATED:
            if e >= p:
                return None
        elif g.kind == gh.DIVIDED:
            coeff = coeff * comb(e, e1) % p
            if coeff == 0:
                return None
        exps[i] = e
    mon = tuple(sorted(exps.items()))
    if gh.monomial_degree(spec, mon) > spec.degree_bound:
        return None
    return coeff, mon


_generator = st.one_of(
    st.builds(gh.exterior, st.just(""), st.sampled_from([1, 3, 5])),
    st.builds(gh.polynomial, st.just(""), st.sampled_from([2, 4])),
    st.builds(gh.divided, st.just(""), st.sampled_from([2, 4])),
    st.builds(gh.truncated, st.just(""), st.sampled_from([2, 4])),
)


_EXPONENTS = [1, 1, 1, 1, 2, 3]


@st.composite
def _spec_and_monomials(draw):
    kinds = draw(st.lists(_generator, min_size=2, max_size=6))
    gens = [gh.GeneratorSpec(f"g{i}", g.degree, g.kind) for i, g in enumerate(kinds)]
    spec = gh.algebra(gens, draw(st.integers(0, 60)), draw(st.sampled_from([3, 5, 7])))
    # each generator goes to neither, one or both factors; an exponent may
    # exceed its kind's range
    m1, m2 = [], []
    for i in range(len(gens)):
        side = draw(st.sampled_from(["left", "right", "both", "neither"]))
        if side in ("left", "both"):
            m1.append((i, draw(st.sampled_from(_EXPONENTS))))
        if side in ("right", "both"):
            m2.append((i, draw(st.sampled_from(_EXPONENTS))))
    return spec, tuple(m1), tuple(m2)


@settings(max_examples=400, deadline=None)
@given(_spec_and_monomials())
def test_compiled_product_matches_oracle(case):
    spec, m1, m2 = case
    assert gh.mul_monomials(spec, m1, m2) == _mul_monomials_oracle(spec, m1, m2)


# ---------------------------------------------------------------------------
# coproducts and primitives
# ---------------------------------------------------------------------------


# The coproduct as it was built before its closed form: one factor's
# coproduct per generator, multiplied together in A (x) A.  Kept as the
# oracle for the closed form.


def _gen_coproduct(spec, i, e):
    single = lambda k: ((i, k),) if k else gh.ONE
    out = {}
    for a in range(e + 1):
        c = 1 if spec.generators[i].kind == gh.DIVIDED else comb(e, a) % spec.p
        if c:
            out[(single(a), single(e - a))] = c
    return out


def _coproduct_oracle(spec, mon):
    part = {(gh.ONE, gh.ONE): 1}
    for i, e in mon:
        part = gh.tensor_multiply(spec, part, _gen_coproduct(spec, i, e))
    return part


@st.composite
def _spec_and_basis_monomial(draw):
    """A spec mixing all four kinds and a basis monomial of it that may lie
    above the degree bound."""
    p = draw(st.sampled_from([3, 5, 7]))
    kinds = draw(st.lists(_generator, min_size=1, max_size=6))
    gens = [gh.GeneratorSpec(f"g{i}", g.degree, g.kind) for i, g in enumerate(kinds)]
    spec = gh.algebra(gens, draw(st.integers(0, 40)), p)
    mon = []
    for i, g in enumerate(gens):
        top = {gh.EXTERIOR: 1, gh.TRUNCATED: p - 1}.get(g.kind, 4)
        e = draw(st.integers(0, top))
        if e:
            mon.append((i, e))
    return spec, tuple(mon)


@settings(max_examples=400, deadline=None)
@given(_spec_and_basis_monomial())
def test_closed_form_coproduct_matches_generator_products(case):
    spec, mon = case
    assert gh.coproduct(spec, {mon: 1}) == _coproduct_oracle(spec, mon)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_closed_form_coproduct_matches_generator_products_on_the_core_basis(p):
    # every basis monomial of the battery's algebra, up to its degree bound
    spec = checks._core_config(p)
    seen = 0
    for t in range(spec.degree_bound + 1):
        for mon in gh.basis(spec, t):
            assert gh.coproduct(spec, {mon: 1}) == _coproduct_oracle(spec, mon), mon
            seen += 1
    assert seen == {3: 281, 5: 705, 7: 1393}[p]


@pytest.mark.parametrize("p", [3, 5])
def test_product_table_gives_the_same_products(p):
    rng = random.Random(1000 + p)
    spec = mixed(p)
    products = {}
    for _ in range(100):
        a, b, _, _ = random_pair(rng, spec)
        assert gh.multiply(spec, a, b, products) == gh.multiply(spec, a, b)
        ta, tb = gh.coproduct(spec, a), gh.coproduct(spec, b)
        assert gh.tensor_multiply(spec, ta, tb, products) == gh.tensor_multiply(spec, ta, tb)
    assert products
    for (m1, m2), r in products.items():
        assert r == gh.mul_monomials(spec, m1, m2)


@pytest.mark.parametrize("p", [3, 5])
def test_a_warm_product_table_makes_no_monomial_product(monkeypatch, p):
    rng = random.Random(1100 + p)
    spec = mixed(p)
    cases = []
    for _ in range(60):
        a, b, _, _ = random_pair(rng, spec)
        ta, tb = gh.coproduct(spec, a), gh.coproduct(spec, b)
        cases.append((a, b, ta, tb, gh.multiply(spec, a, b), gh.tensor_multiply(spec, ta, tb)))
    products = {}
    for a, b, ta, tb, _, _ in cases:
        gh.multiply(spec, a, b, products)
        gh.tensor_multiply(spec, ta, tb, products)
    # cached zeros are looked up too, not multiplied again
    assert None in products.values()
    calls = []
    real = gh.mul_monomials
    monkeypatch.setattr(gh, "mul_monomials", lambda *args: calls.append(args) or real(*args))
    for a, b, ta, tb, ab, tab in cases:
        assert gh.multiply(spec, a, b, products) == ab
        assert gh.tensor_multiply(spec, ta, tb, products) == tab
    assert calls == []


# The Leibniz extension as it was built before its terms came from monomial
# products: head times the image, then times the tail, by two `multiply`
# calls per differentiated factor.  Kept as the oracle for the kernel.


def _extend_derivation_oracle(spec, elem, image, divided_shift):
    p = spec.p
    out = {}
    for mon, coeff in elem.items():
        prefix_degree = 0
        for j, (gi, e) in enumerate(mon):
            g = spec.generators[gi]
            img = image(gi)
            if g.kind == gh.DIVIDED:
                drop, factor = divided_shift, int(e >= divided_shift)
            else:
                drop, factor = 1, e % p
            if img and factor:
                head = mon[:j] + (((gi, e - drop),) if e > drop else ())
                term = gh.multiply(spec, gh.multiply(spec, {head: 1}, img), {mon[j + 1 :]: 1})
                scale = -coeff * factor if prefix_degree % 2 else coeff * factor
                for m, v in term.items():
                    add_to(out, m, scale * v, p)
            prefix_degree += e * g.degree
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_sigma_matches_the_two_product_leibniz_oracle(p):
    # the suspension on the battery's tori, with and without the coaction
    # block, on random bounded elements whose word labels stay below v
    rng = random.Random(1200 + p)
    bound = 4 * p + 2
    compared = nonzero = 0
    for n in (2, 3, 4):
        for coaction in (False, True):
            torus = tm.build_torus(n, p, bound, coaction)
            for t in range(1, bound // 2 + 3):
                pool = [m for m in gh.basis(torus.spec, t) if m and checks._word_labels_below(torus, m, n)]
                for _ in range(8):
                    elem = checks._random_bounded(pool, p, rng)
                    want = _extend_derivation_oracle(torus.spec, elem, lambda gi: tm._generator_image(torus, n, gi), 1)
                    assert tm.sigma(torus, n, elem) == want
                    compared += 1
                    nonzero += bool(want)
    assert compared > 400 and nonzero > 300


@pytest.mark.parametrize("p, k, r", [(3, 2, (1, 2)), (3, 1, (2, 1, 1)), (5, 1, (3, 4)), (5, 2, (1,))])
def test_page_differentials_match_the_two_product_leibniz_oracle(p, k, r):
    # the changebasis page: each x_i hits y_{i+1} and z hits the multi-term
    # sum_l r_l y_{l+1}; images with unreduced coefficients give the same
    spec = se.change_basis_spec(p, k, len(r))
    labels = [g.label for g in spec.generators]
    y = [{((labels.index(f"y{i + 1}"), 1),): 1} for i in range(len(r))]
    values = {f"x{i}": y[i] for i in range(len(r))}
    values["z"] = {mon: c for i, c in enumerate(r) for mon in y[i]}
    raw = dict(values, z={mon: c + p for mon, c in values["z"].items()})
    term = se.SSTerm(spec, {label: 1 for label in labels})
    dspec = se.DifferentialSpec(p - 1, values)
    rng = random.Random(1300 + p)
    elems = list(se.change_basis_cycles(p, k, r)["replacements"].values())
    for t in range(2 * p, 2 * p**k + 4 * p + 1, 2):
        # monomials with a tower at index p or more, which the differential moves
        pool = [m for m in gh.basis(spec, t) if any(e >= p for _, e in m)]
        elems += [checks._random_bounded(pool, p, rng) for _ in range(4)]
    nonzero = 0
    for elem in elems:
        want = _extend_derivation_oracle(spec, elem, lambda gi: values.get(labels[gi]), p)
        assert se.apply_differential(term, dspec, elem) == want
        assert gh.extend_derivation(spec, elem, lambda gi: raw.get(labels[gi]), p) == want
        nonzero += bool(want)
    assert nonzero > len(elems) // 2


def test_reduced_coproduct_of_gamma_2():
    spec = gamma_spec()
    red = gh.reduced_coproduct(spec, {((0, 2),): 1})
    assert red == {(((0, 1),), ((0, 1),)): 1}


def test_polynomial_generator_is_primitive():
    spec = poly_spec()
    red = gh.reduced_coproduct(spec, {((0, 1),): 1})
    assert red == {}


@pytest.mark.parametrize("p", [3, 5])
def test_polynomial_primitives_at_degree_2p(p):
    spec = poly_spec(bound=6 * p, p=p)
    prims = gh.primitive_basis(spec, 2 * p)
    assert len(prims) == 1
    assert prims[0] == {((0, p),): 1}
    # nothing primitive in composite, non-p-power degrees
    assert gh.primitive_basis(spec, 8 if p == 3 else 12) == []


def test_divided_power_primitives_only_gamma_1():
    spec = gamma_spec(bound=30, p=3)
    for t in range(1, 30):
        prims = gh.primitive_basis(spec, t)
        if t == 2:
            assert prims == [{((0, 1),): 1}]
        else:
            assert prims == []


def indecomposable_dims(spec, limit):
    """dim of (positive-degree part / products) in degrees 0..limit."""
    dims = gh.poincare_series(spec, limit)
    out = [0] * (limit + 1)
    for t in range(1, limit + 1):
        target = {m: i for i, m in enumerate(gh.basis(spec, t))}
        if not target:
            continue
        columns = []
        for u in range(1, t):
            for m1 in gh.basis(spec, u):
                for m2 in gh.basis(spec, t - u):
                    r = gh.mul_monomials(spec, m1, m2)
                    if r is not None:
                        coeff, mon = r
                        columns.append({target[mon]: coeff})
        decomposable = rank(FpSparseMatrix.from_columns(len(target), columns), spec.p)
        out[t] = dims[t] - decomposable
    return out


def test_indecomposables_of_divided_powers_mod_3():
    spec = gamma_spec(bound=20, p=3)
    dims = indecomposable_dims(spec, 20)
    hits = [t for t, d in enumerate(dims) if d]
    assert hits == [2, 6, 18]
    assert all(dims[t] == 1 for t in hits)


def test_divided_powers_match_tensor_of_truncated():
    # Gamma(x) has the dimensions of (x)_k P_p(gamma_{p^k} x), |x| = 2
    p, limit = 3, 50
    spec = gamma_spec(bound=limit, p=p)
    gens = []
    k = 0
    while 2 * p**k <= limit:
        gens.append(gh.truncated(f"g{k}", 2 * p**k))
        k += 1
    trunc = gh.algebra(gens, limit, p)
    assert gh.poincare_series(spec, limit) == gh.poincare_series(trunc, limit)


def test_basis_counts_agree_with_poincare_series():
    spec = gh.algebra([gh.exterior("a", 3), gh.divided("x", 2), gh.truncated("u", 4)], 25, 5)
    series = gh.poincare_series(spec, 25)
    for t in range(26):
        assert len(gh.basis(spec, t)) == series[t]


# The basis enumeration as it was before it recursed once per factor: one
# level per generator, exponent 0 first.  Kept as the oracle for the order.


def _basis_oracle(spec, t):
    if t < 0:
        return []
    gens = spec.generators
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx == len(gens):
            return
        g = gens[idx]
        max_e = remaining // g.degree
        if g.kind == gh.EXTERIOR:
            max_e = min(max_e, 1)
        elif g.kind == gh.TRUNCATED:
            max_e = min(max_e, spec.p - 1)
        for e in range(0, max_e + 1):
            if e:
                acc.append((idx, e))
            rec(idx + 1, remaining - e * g.degree, acc)
            if e:
                acc.pop()

    rec(0, t, [])
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(_generator, max_size=6), st.sampled_from([3, 5, 7]))
def test_basis_matches_per_generator_recursion(kinds, p):
    gens = [gh.GeneratorSpec(f"g{i}", g.degree, g.kind) for i, g in enumerate(kinds)]
    spec = gh.algebra(gens, 18, p)
    for t in range(-1, 19):
        assert gh.basis(spec, t) == _basis_oracle(spec, t)


# The dimension series as it was before each generator multiplied it in
# place: one series per generator, convolved in.  Kept as the oracle.


def _poincare_oracle(spec, limit):
    series = [1] + [0] * limit
    for g in spec.generators:
        top = {gh.EXTERIOR: 1, gh.TRUNCATED: spec.p - 1}.get(g.kind, limit)
        factor = [0] * (limit + 1)
        for k in range(min(top, limit // g.degree) + 1):
            factor[k * g.degree] = 1
        series = gh.convolve(series, factor)
    return series


@settings(max_examples=300, deadline=None)
@given(st.lists(_generator, max_size=8), st.integers(0, 80), st.sampled_from([3, 5]))
def test_poincare_series_matches_convolution_oracle(kinds, limit, p):
    spec = gh.algebra([gh.GeneratorSpec(f"g{i}", g.degree, g.kind) for i, g in enumerate(kinds)], limit, p)
    assert gh.poincare_series(spec, limit) == _poincare_oracle(spec, limit)


@pytest.mark.parametrize("n", range(1, 7))
def test_poincare_series_of_word_algebras_matches_convolution_oracle(n):
    spec = aw.word_algebra(n, 3, 600)
    assert gh.poincare_series(spec, 600) == _poincare_oracle(spec, 600)


# ---------------------------------------------------------------------------
# algebra laws on randomized homogeneous elements
# ---------------------------------------------------------------------------


def mixed(p):
    return gh.algebra(
        [gh.exterior("a", 1), gh.divided("x", 2), gh.exterior("b", 3), gh.polynomial("m", 2)],
        24,
        p,
    )


def random_pair(rng, spec):
    t1 = rng.randrange(1, 9)
    t2 = rng.randrange(1, 9)
    return (
        gh.random_homogeneous(spec, t1, rng),
        gh.random_homogeneous(spec, t2, rng),
        t1,
        t2,
    )


@pytest.mark.parametrize("p", [3, 5])
def test_associativity_random(p):
    rng = random.Random(500 + p)
    spec = mixed(p)
    for _ in range(300):
        a, b, _, _ = random_pair(rng, spec)
        c = gh.random_homogeneous(spec, rng.randrange(1, 7), rng)
        left = gh.multiply(spec, gh.multiply(spec, a, b), c)
        right = gh.multiply(spec, a, gh.multiply(spec, b, c))
        assert left == right


@pytest.mark.parametrize("p", [3, 5])
def test_graded_commutativity_random(p):
    rng = random.Random(600 + p)
    spec = mixed(p)
    for _ in range(300):
        a, b, t1, t2 = random_pair(rng, spec)
        ab = gh.multiply(spec, a, b)
        ba = gh.multiply(spec, b, a)
        sign = -1 if (t1 * t2) % 2 else 1
        assert ab == gh.scalar_mul(sign, ba, p)


@pytest.mark.parametrize("p", [3, 5])
def test_coproduct_multiplicative_random(p):
    rng = random.Random(700 + p)
    spec = mixed(p)
    for _ in range(150):
        a, b, _, _ = random_pair(rng, spec)
        lhs = gh.coproduct(spec, gh.multiply(spec, a, b))
        rhs = gh.tensor_multiply(spec, gh.coproduct(spec, a), gh.coproduct(spec, b))
        assert lhs == rhs


def _triple_left(spec, ts):
    p = spec.p
    out = {}
    for (m1, m2), c in ts.items():
        for (a, b), d in gh.coproduct(spec, {m1: 1}).items():
            key = (a, b, m2)
            v = (out.get(key, 0) + c * d) % p
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def _triple_right(spec, ts):
    p = spec.p
    out = {}
    for (m1, m2), c in ts.items():
        for (a, b), d in gh.coproduct(spec, {m2: 1}).items():
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
    spec = mixed(p)
    for _ in range(150):
        a = gh.random_homogeneous(spec, rng.randrange(1, 10), rng)
        ts = gh.coproduct(spec, a)
        assert _triple_left(spec, ts) == _triple_right(spec, ts)


@st.composite
def _spec_and_element_pair(draw):
    """A spec drawn from all four constructors and two random homogeneous
    elements whose product degree stays within its bound."""
    p = draw(st.sampled_from([3, 5, 7]))
    kinds = draw(st.lists(_generator, min_size=1, max_size=4))
    spec = gh.algebra([gh.GeneratorSpec(f"g{i}", g.degree, g.kind) for i, g in enumerate(kinds)], 30, p)
    t1 = draw(st.integers(1, 15))
    t2 = draw(st.integers(1, 30 - t1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return spec, gh.random_homogeneous(spec, t1, rng), gh.random_homogeneous(spec, t2, rng)


@settings(max_examples=200, deadline=None)
@given(_spec_and_element_pair())
def test_every_spec_is_a_hopf_algebra(case):
    # truncation at p keeps psi multiplicative; truncated generators are
    # drawn here at p = 7 as well as 3 and 5
    spec, a, b = case
    lhs = gh.coproduct(spec, gh.multiply(spec, a, b))
    rhs = gh.tensor_multiply(spec, gh.coproduct(spec, a), gh.coproduct(spec, b))
    assert lhs == rhs
    ts = gh.coproduct(spec, a)
    assert _triple_left(spec, ts) == _triple_right(spec, ts)


@pytest.mark.parametrize("p", [3, 5])
def test_frobenius_additivity_random(p):
    # (a+b)^p = a^p + b^p on even homogeneous elements
    rng = random.Random(900 + p)
    spec = gh.algebra([gh.divided("x", 2), gh.polynomial("m", 2), gh.truncated("u", 4)], 8 * p, p)
    for _ in range(60):
        t = 2 * rng.randrange(1, 4)
        a = gh.random_homogeneous(spec, t, rng)
        b = gh.random_homogeneous(spec, t, rng)
        lhs = gh.power(spec, gh.add(a, b, p), p)
        rhs = gh.add(gh.power(spec, a, p), gh.power(spec, b, p), p)
        assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10), st.sampled_from([3, 5]), st.integers())
def test_monomial_products_graded_commute_hypothesis(t1, t2, p, seed):
    rng = random.Random(seed)
    spec = mixed(p)

    def monomial(t):
        pool = gh.basis(spec, t)
        return {rng.choice(pool): rng.randrange(1, p)} if pool else {}

    a, b = monomial(t1), monomial(t2)
    ab = gh.multiply(spec, a, b)
    ba = gh.multiply(spec, b, a)
    sign = -1 if (t1 * t2) % 2 else 1
    assert ab == gh.scalar_mul(sign, ba, p)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def test_dualize_swaps_divided_for_polynomial():
    spec = gh.algebra([gh.exterior("a", 3), gh.divided("x", 4)], 30, 5)
    dual = gh.dualize(spec)
    kinds = [g.kind for g in dual.generators]
    assert kinds == [gh.EXTERIOR, gh.POLYNOMIAL]
    assert dual.p == 5
    assert gh.poincare_series(spec, 30) == gh.poincare_series(dual, 30)


def test_dualize_rejects_polynomial_input():
    with pytest.raises(gh.DualizeError):
        gh.dualize(poly_spec())


def test_generator_parity_validation():
    with pytest.raises(ValueError):
        gh.exterior("a", 2)
    with pytest.raises(ValueError):
        gh.polynomial("m", 3)
    with pytest.raises(ValueError):
        gh.truncated("u", 3)
