"""Tests for the minimal-resolution Tor engine, the bar complex and Tor comparisons.

The bar complex is the reference: the resolution must give the same
dimension at every bidegree it computes.  The public functions take Tor
one generator at a time and convolve the tables; the resolution of the
whole algebra is their oracle wherever the bar complex is out of reach.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhcalc import admissible_words as aw
from thhcalc import bar_tor
from thhcalc import fp_linalg
from thhcalc import graded_hopf as gh
from thhcalc.bar_tor import BarComplex, tor_dims, verify_tor_iso
from thhcalc.fp_linalg import ContractViolation, FpSparseMatrix, _column_index, _pivot, add_to
from test_graded_hopf import indecomposable_dims


def poly_mu(bound: int, p: int) -> gh.AlgebraSpec:
    return gh.algebra([gh.polynomial("m", 2)], bound, p)


def to_dense(m: FpSparseMatrix) -> list:
    out = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        out[r][c] = v
    return out


def bar_dims(spec: gh.AlgebraSpec, top) -> dict:
    """Nonzero bar-complex homology dims for t <= the degree bound and s <= top(t)."""
    bar = BarComplex(spec)
    table = {}
    for t in range(spec.degree_bound + 1):
        for s in range(top(t) + 1):
            dim = bar.homology_dim(s, t)
            if dim:
                table[(s, t)] = dim
    return table


def assert_engines_agree(spec: gh.AlgebraSpec, total: bool) -> None:
    """The resolution and the bar complex agree at every bidegree of one range.

    total=True is the range of verify_tor_iso (s + t <= bound), otherwise the
    range of tor_dims (s <= t <= bound), for the spec's degree bound.
    """
    bound = spec.degree_bound
    top = (lambda t: min(t, bound - t)) if total else (lambda t: t)
    expected = bar_dims(spec, top)
    assert bar_tor._dims(bar_tor._resolve(spec, top)) == expected
    assert bar_tor._kunneth(spec, top) == expected
    if not total:
        assert tor_dims(spec) == expected


# ---------------------------------------------------------------------------
# complex mechanics
# ---------------------------------------------------------------------------


def test_bar_basis_counts_polynomial():
    bar = BarComplex(poly_mu(12, 5))
    # tuples of powers of the degree-2 generator: compositions of t/2
    assert len(bar.basis(0, 0)) == 1
    assert len(bar.basis(1, 6)) == 1
    assert len(bar.basis(2, 6)) == 2  # (m|m^2), (m^2|m)
    assert len(bar.basis(3, 6)) == 1
    assert bar.basis(2, 5) == []
    assert bar.basis(0, 2) == []


def test_bar_differential_square_zero_everywhere():
    spec = gh.algebra([gh.exterior("a", 3), gh.divided("g", 4), gh.polynomial("m", 2)], 14, 3)
    bar = BarComplex(spec)
    for t in range(0, 15):
        for s in range(0, t + 1):
            assert bar.square_is_zero(s + 1, t)


def test_bar_differential_example_by_hand():
    # d[m|m] = -[m^2]; d[m|m|m] = -[m^2|m] + [m|m^2]
    bar = BarComplex(poly_mu(8, 5))
    d2 = bar.differential(2, 4)
    assert to_dense(d2) == [[4]]
    d3 = bar.differential(3, 6)
    cols = {tuple(w) for w in bar.basis(3, 6)}
    assert len(cols) == 1
    dense = to_dense(d3)
    # target order: basis(2, 6) = [(m, m^2), (m^2, m)]
    m = ((0, 1),)
    m2 = ((0, 2),)
    idx = {b: i for i, b in enumerate(bar.basis(2, 6))}
    col = [row[0] for row in dense]
    assert col[idx[(m, m2)]] == 1
    assert col[idx[(m2, m)]] == 4


def test_divided_power_merge_uses_binomials():
    # gamma_1 * gamma_2 = 3 gamma_3 = 0 mod 3, so d[g1|g2] = 0
    spec = gh.algebra([gh.divided("g", 4)], 16, 3)
    bar = BarComplex(spec)
    g1 = ((0, 1),)
    g2 = ((0, 2),)
    j = bar.basis(2, 12).index((g1, g2))
    d = bar.differential(2, 12)
    assert all(d.entries.get((r, j), 0) == 0 for r in range(d.rows))


# ---------------------------------------------------------------------------
# frozen Tor tables
# ---------------------------------------------------------------------------


def test_tor_polynomial_generator():
    # Tor over P(m) is exterior on one class in bidegree (1, 2)
    table = tor_dims(poly_mu(12, 5))
    assert table == {(0, 0): 1, (1, 2): 1}


def test_tor_exterior_generator():
    # Tor over E(y), |y| = 3, is divided powers on (1, 3)
    spec = gh.algebra([gh.exterior("y", 3)], 12, 5)
    table = tor_dims(spec)
    assert table == {(s, 3 * s): 1 for s in range(0, 5)}


def test_tor_trivial_algebra():
    spec = gh.algebra([], 6, 3)
    assert tor_dims(spec) == {(0, 0): 1}


def test_tor_truncated_generator():
    # Tor over P(x)/(x^p) is E(1, d) tensor Gamma(2, pd): dims 1 along a
    # lattice; spot-check the first few bidegrees at p = 3, |x| = 2
    spec = gh.algebra([gh.truncated("x", 2)], 14, 3)
    table = tor_dims(spec)
    assert table[(0, 0)] == 1
    assert table[(1, 2)] == 1
    assert table[(2, 6)] == 1  # gamma_1 of the transpotence class
    assert table[(3, 8)] == 1  # product of the two
    assert (2, 4) not in table
    assert (1, 4) not in table


def test_tor_first_column_matches_indecomposables():
    spec = gh.algebra([gh.exterior("a", 3), gh.divided("g", 4)], 12, 3)
    table = tor_dims(spec)
    indec = indecomposable_dims(spec, 12)
    for t in range(1, 13):
        assert table.get((1, t), 0) == indec[t]


def test_tor_kunneth_spot_check():
    # Tor over E(y) tensor P(m), resolved whole, is the tensor of the two
    # answers: the theorem the factor route rests on
    spec = gh.algebra([gh.exterior("y", 3), gh.polynomial("m", 2)], 10, 3)
    table = bar_tor._dims(bar_tor._resolve(spec, lambda t: t))
    ey = tor_dims(gh.algebra([gh.exterior("y", 3)], 10, 3))
    pm = tor_dims(poly_mu(10, 3))
    combined = {}
    for (s1, t1), d1 in ey.items():
        for (s2, t2), d2 in pm.items():
            if t1 + t2 <= 10:
                key = (s1 + s2, t1 + t2)
                combined[key] = combined.get(key, 0) + d1 * d2
    assert table == combined


# ---------------------------------------------------------------------------
# the word-algebra ladder
# ---------------------------------------------------------------------------


def test_ladder_length_two_to_three_p3():
    b2 = aw.word_algebra(2, 3, 24)
    b3 = aw.word_algebra(3, 3, 24)
    report = verify_tor_iso(b2, b3)
    assert report["passed"], report["first_mismatch"]


def test_ladder_length_one_to_two_p3():
    b1 = aw.word_algebra(1, 3, 30)
    b2 = aw.word_algebra(2, 3, 30)
    report = verify_tor_iso(b1, b2)
    assert report["passed"], report["first_mismatch"]


def test_ladder_length_three_to_four_small():
    p = 3
    bound = 2 + 4 * p
    b3 = aw.word_algebra(3, p, bound)
    b4 = aw.word_algebra(4, p, bound)
    report = verify_tor_iso(b3, b4)
    assert report["passed"], report["first_mismatch"]


def test_negative_control_mismatch_located():
    # P(m) against itself: Tor is exterior on a class in total degree 3, so
    # the first disagreement is at degree 2, where the answer has m itself
    report = verify_tor_iso(poly_mu(6, 3), poly_mu(6, 3))
    assert not report["passed"]
    assert report["first_mismatch"] == {"total_degree": 2, "got": 0, "expected": 1}
    assert report["got"][3] == 1 and report["expected"][3] == 0


def test_degree_cap_validation():
    # the spec's degree bound is the one window: two bounds are refused, and
    # no table reaches past the bound
    with pytest.raises(ValueError, match="differ in degree bound"):
        verify_tor_iso(poly_mu(6, 3), poly_mu(10, 3))
    spec = gh.algebra([gh.exterior("y", 1), gh.polynomial("m", 2)], 6, 3)
    assert max(t for _, t in tor_dims(spec)) == 6
    bar = BarComplex(spec)
    assert bar.reduced_basis(6) and bar.reduced_basis(7) == []
    assert bar.basis(1, 7) == [] and bar.basis(2, 7) == []
    assert all(bar.homology_dim(s, 7) == 0 for s in range(8))


def test_tor_iso_refuses_specs_of_two_primes():
    # the answer's series depends on its prime, so a mixed pair compares nothing
    with pytest.raises(ValueError, match="^source and answer specs differ in prime: 3 and 5$"):
        verify_tor_iso(aw.word_algebra(1, 3, 30), aw.word_algebra(2, 5, 30))


def test_tor_iso_refuses_specs_of_two_degree_bounds():
    # the check's window is the source's bound; an answer at another bound
    # would be compared over degrees where one side was not computed
    with pytest.raises(ValueError, match="^source and answer specs differ in degree bound: 6 and 10$"):
        verify_tor_iso(poly_mu(6, 3), poly_mu(10, 3))


# ---------------------------------------------------------------------------
# the minimal resolution against the bar complex
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n, cap", [(1, 30), (2, 24), (3, None)])
def test_resolution_matches_bar_on_ladder_rungs(p, n, cap):
    # the rungs and caps of the tor.iso check
    cap = 2 + 4 * p if cap is None else cap
    assert_engines_agree(aw.word_algebra(n, p, cap), total=True)
    assert_engines_agree(aw.word_algebra(n, p, min(cap, 20)), total=False)


@pytest.mark.parametrize("n, p, cap", [(1, 3, 30), (3, 5, 60)])
def test_resolution_matches_bar_on_tor_check_configs(n, p, cap):
    # tor-check b1->b2 at p = 3 and b3->b4 at p = 5; the bar complex is
    # tractable at these caps (b1 at cap 36 already takes seconds)
    assert_engines_agree(aw.word_algebra(n, p, cap), total=True)


def _generator(draw, label: str) -> gh.GeneratorSpec:
    kind = draw(st.sampled_from(["exterior", "polynomial", "truncated", "divided"]))
    if kind == "exterior":
        return gh.exterior(label, draw(st.sampled_from([1, 3, 5])))
    degree = draw(st.sampled_from([2, 4, 6]))
    if kind == "polynomial":
        return gh.polynomial(label, degree)
    if kind == "divided":
        return gh.divided(label, degree)
    return gh.truncated(label, degree)


@st.composite
def small_specs(draw):
    count = draw(st.integers(0, 3))
    gens = [_generator(draw, f"g{i}") for i in range(count)]
    # generators of degree 1 make the bar complex grow like 2^t
    cap = draw(st.integers(2, 8 if any(g.degree == 1 for g in gens) else 12))
    return gh.algebra(gens, cap, draw(st.sampled_from([3, 5])))


@settings(max_examples=150, deadline=None)
@given(small_specs(), st.booleans())
def test_resolution_matches_bar_on_random_specs(spec, total):
    assert_engines_agree(spec, total)


def test_resolution_checks_each_generator_image_is_a_cycle(monkeypatch):
    # a kernel routine that keeps each vector's free column but drops its other
    # entries picks the same generators, but hands the next step coordinate
    # vectors as cycles; the engine must refuse the non-cycles it picks from them.
    # b3 at p = 3 is Gamma[y], |y| = 4, resolved whole; `tor_dims` splits it into
    # truncated factors, whose F_s have at most one basis pair in each degree, so
    # their kernel vectors have one entry and the tampering leaves them alone
    kernel_basis = fp_linalg.kernel_basis

    def tampered(m, p):
        return [{next(reversed(vec)): 1} for vec in kernel_basis(m, p)]

    monkeypatch.setattr(fp_linalg, "kernel_basis", tampered)
    with pytest.raises(ContractViolation, match=r"not a cycle at \(2, 16\)"):
        bar_tor._resolve(aw.word_algebra(3, 3, 30), lambda t: t)


# ---------------------------------------------------------------------------
# the one-elimination resolution against the two-elimination route it replaced
# ---------------------------------------------------------------------------


def outside_span(span, candidates, p):
    """Indices of the candidates not in the span of `span` and the candidates before them.

    Each nonzero row is pivoted, in order, on its sparsest column.
    """
    rows = [{c: v % p for c, v in row.items() if v % p} for row in (*span, *candidates)]
    col_index = _column_index(rows)
    chosen = []
    for rid, row in enumerate(rows):
        if row:
            c = min(row, key=lambda cc: (len(col_index[cc]), cc))
            _pivot(rows, col_index, rid, c, p)
            if rid >= len(span):
                chosen.append(rid - len(span))
    return chosen


def resolve_two_eliminations(spec, top):
    """Oracle: the resolution that picked new generators with one elimination
    (`outside_span`) and found ker d_s with a second (`kernel_basis`)."""
    p, max_degree = spec.p, spec.degree_bound
    bases = [gh.basis(spec, t) for t in range(max_degree + 1)]
    gens = [[(0, {})]]
    for t in range(1, max_degree + 1):
        below = [(0, m) for m in bases[t]]
        cycles = [{i: 1} for i in range(len(below))]
        for s in range(1, top(t) + 1):
            if len(gens) == s:
                gens.append([])
            index = {pair: i for i, pair in enumerate(below)}
            pairs = [(g, m) for g, (deg, _) in enumerate(gens[s]) if deg < t for m in bases[t - deg]]
            images = []
            for g, m in pairs:
                image = {}
                for (h, m2), c in gens[s][g][1].items():
                    product = gh.mul_monomials(spec, m, m2)
                    if product is not None:
                        add_to(image, index[(h, product[1])], c * product[0], p)
                images.append(image)
            new = [cycles[i] for i in outside_span(images, cycles, p)]
            for z in new:
                gens[s].append((t, {below[j]: v for j, v in z.items()}))
            cycles = []
            if images:
                cycles = fp_linalg.kernel_basis(FpSparseMatrix.from_columns(len(below), images), p)
            below = pairs + [(g, gh.ONE) for g in range(len(gens[s]) - len(new), len(gens[s]))]
    return gens


def levels(gens):
    """The resolution's levels without the empty ones at the end.

    The bounded resolution stops each degree at the vanishing line, so it
    opens fewer levels that never receive a generator."""
    gens = list(gens)
    while gens and not gens[-1]:
        gens.pop()
    return gens


@pytest.mark.parametrize(
    "p, n, cap", [(3, n, 120) for n in range(1, 5)] + [(3, 5, 100)] + [(5, n, 150) for n in (2, 3)] + [(5, 4, 120)]
)
def test_resolution_generators_match_two_elimination_route(p, n, cap):
    # every generator, its degree and its image alike, on the ladder rungs
    spec = aw.word_algebra(n, p, cap)
    assert levels(bar_tor._resolve(spec, lambda t: t)) == levels(resolve_two_eliminations(spec, lambda t: t))


# ---------------------------------------------------------------------------
# the bounded resolution against the loop over every cell
# ---------------------------------------------------------------------------


def resolve_every_cell(spec, top):
    """Oracle: the resolution before the degree-gcd and vanishing-line bounds,
    which visits every t <= the degree bound and every s <= top(t)."""
    p, max_degree = spec.p, spec.degree_bound
    bases = [gh.basis(spec, t) for t in range(max_degree + 1)]
    gens = [[(0, {})]]
    for t in range(1, max_degree + 1):
        below = [(0, m) for m in bases[t]]
        below_images = [{} for _ in below]
        cycles = [{i: 1} for i in range(len(below))]
        for s in range(1, top(t) + 1):
            if len(gens) == s:
                gens.append([])
            pairs = [(g, m) for g, (deg, _) in enumerate(gens[s]) if deg < t for m in bases[t - deg]]
            if not pairs and not below:
                cycles, below_images = [], []
                continue
            index = {pair: i for i, pair in enumerate(below)}
            images = []
            for g, m in pairs:
                image = {}
                for (h, m2), c in gens[s][g][1].items():
                    product = gh.mul_monomials(spec, m, m2)
                    if product is not None:
                        add_to(image, index[(h, product[1])], c * product[0], p)
                images.append(image)
            kernel = []
            if images or cycles:
                kernel = fp_linalg.kernel_basis(FpSparseMatrix.from_columns(len(below), images + cycles), p)
            free = {next(reversed(vec)) for vec in kernel}
            new = [z for i, z in enumerate(cycles, len(images)) if i not in free]
            for z in new:
                gens[s].append((t, {below[j]: v for j, v in z.items()}))
            cycles = [vec for vec in kernel if next(reversed(vec)) < len(images)]
            below = pairs + [(g, gh.ONE) for g in range(len(gens[s]) - len(new), len(gens[s]))]
            below_images = images + new
    return gens


def both_ranges(cap):
    return [lambda t: t, lambda t: min(t, cap - t)]


@pytest.mark.parametrize(
    "p, n, cap", [(3, n, 100) for n in range(1, 5)] + [(5, n, 120) for n in range(1, 5)] + [(7, 3, 150)]
)
def test_bounded_resolution_keeps_every_generator_of_the_every_cell_loop(p, n, cap):
    # skipping degrees off the gcd and cells above the vanishing line loses no
    # generator, and leaves each one's degree and image alone
    spec = aw.word_algebra(n, p, cap)
    for top in both_ranges(cap):
        assert levels(bar_tor._resolve(spec, top)) == levels(resolve_every_cell(spec, top))


def test_bounds_skip_cells_on_a_spec_with_gcd_and_vanishing_line_above_one():
    # E(y), |y| = 3: Tor is Gamma on (1, 3), one class in each (s, 3s), so
    # with s <= t // 3 every class still sits on the vanishing line
    spec = gh.algebra([gh.exterior("y", 3)], 30, 5)
    gens = bar_tor._resolve(spec, lambda t: t)
    assert [[t for t, _ in level] for level in gens] == [[0]] + [[3 * s] for s in range(1, 11)]
    assert levels(gens) == levels(resolve_every_cell(spec, lambda t: t))


@st.composite
def mixed_specs(draw):
    """A generator of each kind, up to two more, in a drawn order, at p = 3, 5 or 7."""
    gens = [
        gh.exterior("e", draw(st.sampled_from([1, 3, 5]))),
        gh.polynomial("m", draw(st.sampled_from([2, 4, 6]))),
        gh.truncated("x", draw(st.sampled_from([2, 4, 6]))),
        gh.divided("d", draw(st.sampled_from([2, 4, 6]))),
    ]
    gens += [_generator(draw, f"g{i}") for i in range(draw(st.integers(0, 2)))]
    cap = draw(st.integers(2, 14 if any(g.degree == 1 for g in gens) else 24))
    return gh.algebra(draw(st.permutations(gens)), cap, draw(st.sampled_from([3, 5, 7])))


@settings(max_examples=60, deadline=None)
@given(mixed_specs())
def test_factor_route_matches_full_resolution_on_specs_of_all_four_kinds(spec):
    for top in both_ranges(spec.degree_bound):
        full = bar_tor._resolve(spec, top)
        assert bar_tor._kunneth(spec, top) == bar_tor._dims(full)
        assert levels(full) == levels(resolve_every_cell(spec, top))


# ---------------------------------------------------------------------------
# Tor one generator at a time against the resolution of the whole algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p, n", [(3, n) for n in range(1, 6)] + [(5, n) for n in range(1, 5)] + [(7, 2), (7, 3)])
def test_factor_route_matches_full_resolution_on_ladder_rungs(p, n):
    # every bidegree, in the range of tor_dims and in that of verify_tor_iso
    cap = 150
    spec = aw.word_algebra(n, p, cap)
    for top in both_ranges(cap):
        assert bar_tor._kunneth(spec, top) == bar_tor._dims(bar_tor._resolve(spec, top))


def test_each_degree_and_kind_is_resolved_once(monkeypatch):
    resolved = []
    resolve = bar_tor._resolve

    def counting(spec, top):
        resolved.append(spec.generators)
        return resolve(spec, top)

    monkeypatch.setattr(bar_tor, "_resolve", counting)
    gens = [gh.polynomial("a", 2), gh.exterior("b", 3), gh.polynomial("c", 2), gh.divided("d", 2), gh.exterior("e", 13)]
    table = tor_dims(gh.algebra(gens, 12, 3))
    # highest degree first; a and c share one resolution; d is resolved as its
    # truncated factors gamma_1(d) and gamma_3(d), of degree 2 and 6, each once;
    # gamma_9(d) and e lie above the bound and are not resolved
    assert [[(g.degree, g.kind) for g in spec] for spec in resolved] == [
        [(6, gh.TRUNCATED)],
        [(3, gh.EXTERIOR)],
        [(2, gh.POLYNOMIAL)],
        [(2, gh.TRUNCATED)],
    ]
    assert table == bar_tor._dims(resolve(gh.algebra(gens, 12, 3), lambda t: t))


def test_degree_bound_is_checked_before_any_factor_is_resolved(monkeypatch):
    def unreachable(spec, top):
        raise AssertionError("a factor was resolved")

    monkeypatch.setattr(bar_tor, "_resolve", unreachable)
    # one spec with a generator under its bound, one with none
    for spec in (poly_mu(6, 3), gh.algebra([gh.polynomial("m", 20)], 6, 3)):
        with pytest.raises(ValueError, match="^source and answer specs differ in degree bound: 6 and 10$"):
            verify_tor_iso(spec, poly_mu(10, 3))


# ---------------------------------------------------------------------------
# Gamma[y] as its truncated factors, and the fold from the top degree down
# ---------------------------------------------------------------------------

SPLIT_CAP = 120


def divided_generators_of_the_test_specs():
    """(p, degree) of each divided generator under SPLIT_CAP that the tests resolve.

    The ladder rungs of this file at p = 3, 5 and 7, and the degrees that
    the hypothesis specs draw.
    """
    rungs = [(3, n) for n in range(1, 9)] + [(5, n) for n in range(1, 12)] + [(7, 2), (7, 3)]
    found = {(p, d) for p in (3, 5, 7) for d in (2, 4, 6)}
    for p, n in rungs:
        found |= {(p, g.degree) for g in aw.word_algebra(n, p, SPLIT_CAP).generators if g.kind == gh.DIVIDED}
    return sorted(found)


def split_map(gamma: gh.AlgebraSpec, split: gh.AlgebraSpec):
    """The map (x) z_k^{a_k} -> prod gamma_{p^k}(y)^{a_k} from split's monomials into gamma's elements."""
    y = gamma.generators[0].degree

    def image(mon):
        out = {gh.ONE: 1}
        for i, a in mon:
            out = gh.multiply(gamma, out, gh.power(gamma, {((0, split.generators[i].degree // y),): 1}, a))
        return out

    return image


@pytest.mark.parametrize("p, y", divided_generators_of_the_test_specs())
def test_divided_generator_is_the_tensor_product_of_its_truncated_factors(p, y):
    # Cartan: over F_p, Gamma[y] = (x)_k F_p[z_k]/(z_k^p) with z_k -> gamma_{p^k}(y),
    # as algebras through the cap: the map sends each basis monomial to a unit
    # times a distinct basis monomial, onto each degree, and respects products
    gamma = gh.algebra([gh.divided("y", y)], SPLIT_CAP, p)
    factors = bar_tor._factors(gamma)
    assert all(f.kind == gh.TRUNCATED for f in factors)
    split = gh.AlgebraSpec(tuple(factors), SPLIT_CAP, p)
    image = split_map(gamma, split)
    monomials = []
    for t in range(SPLIT_CAP + 1):
        images = [image(m) for m in gh.basis(split, t)]
        assert all(len(im) == 1 and next(iter(im.values())) % p for im in images), t
        assert sorted(next(iter(im)) for im in images) == sorted(gh.basis(gamma, t)), t
        monomials += gh.basis(split, t)
    for m1 in monomials:
        for m2 in monomials:
            product = gh.mul_monomials(split, m1, m2)
            expected = {} if product is None else gh.scalar_mul(product[0], image(product[1]), p)
            assert gh.multiply(gamma, image(m1), image(m2)) == expected, (m1, m2)


@pytest.mark.parametrize("p, n", [(3, n) for n in range(1, 6)] + [(5, n) for n in range(1, 5)] + [(7, 2), (7, 3)])
def test_descending_and_ascending_folds_give_equal_tables(monkeypatch, p, n):
    cap = 150
    spec = aw.word_algebra(n, p, cap)
    descending = [bar_tor._kunneth(spec, top) for top in both_ranges(cap)]
    factors = bar_tor._factors
    monkeypatch.setattr(bar_tor, "_factors", lambda spec: factors(spec)[::-1])
    assert [bar_tor._kunneth(spec, top) for top in both_ranges(cap)] == descending


# ---------------------------------------------------------------------------
# the cost bound of the Tor guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind, degrees", [("exterior", (1, 3, 5, 7)), ("polynomial", (2, 4)), ("truncated", (2, 4, 6, 10))])
def test_factor_cells_count_each_factor_table(p, kind, degrees):
    # the cells of each factor's Tor table, read off its kind and degree alone
    for d in degrees:
        spec = gh.algebra([gh.GeneratorSpec("x", d, kind)], 90, p)
        table = bar_tor._dims(bar_tor._resolve(spec, lambda t: t))
        assert bar_tor._factor_cells(spec.generators[0], spec) == len(table), d


def kunneth_work(spec, top):
    """The work of `_kunneth`, counted as it runs: four per resolution cell, one per fold pair.

    `_resolve` on a factor of degree d visits t = d, 2d, ... and s <= min(top(t), t // d)."""
    bound = spec.degree_bound
    resolved = {}
    work = 0
    table = {(0, 0): 1}
    for f in bar_tor._factors(spec):
        key = (f.degree, f.kind)
        if key not in resolved:
            resolved[key] = bar_tor._dims(bar_tor._resolve(gh.AlgebraSpec((f,), bound, spec.p), top))
            work += 4 * sum(min(top(t), t // f.degree) for t in range(f.degree, bound + 1, f.degree))
        work += len(table) * len(resolved[key])
        product = {}
        for (s1, t1), d1 in table.items():
            for (s2, t2), d2 in resolved[key].items():
                if t1 + t2 <= bound and s1 + s2 <= top(t1 + t2):
                    product[(s1 + s2, t1 + t2)] = product.get((s1 + s2, t1 + t2), 0) + d1 * d2
        table = product
    assert table == bar_tor._kunneth(spec, top)
    return work


@pytest.mark.parametrize(
    "p, n, cap", [(3, n, 150) for n in range(1, 7)] + [(5, n, 200) for n in range(2, 6)] + [(7, 3, 200), (3, 7, 300)]
)
def test_kunneth_cost_bounds_the_work_in_both_ranges(p, n, cap):
    spec = aw.word_algebra(n, p, cap)
    cost = bar_tor.kunneth_cost(spec)
    for top in both_ranges(cap):
        work = kunneth_work(spec, top)
        assert work <= cost, (work, cost)


@settings(max_examples=60, deadline=None)
@given(mixed_specs())
def test_kunneth_cost_bounds_the_work_on_specs_of_all_four_kinds(spec):
    for top in both_ranges(spec.degree_bound):
        assert kunneth_work(spec, top) <= bar_tor.kunneth_cost(spec)


# ---------------------------------------------------------------------------
# the deeper ladder, beyond what the bar complex reaches
# ---------------------------------------------------------------------------


def test_ladder_length_one_to_two_p3_to_cap_200():
    b1 = aw.word_algebra(1, 3, 200)
    b2 = aw.word_algebra(2, 3, 200)
    report = verify_tor_iso(b1, b2)
    assert report["first_mismatch"] is None


@pytest.mark.parametrize(
    "p, n, cap", [(3, n, 80) for n in range(4, 8)] + [(5, n, 120) for n in range(4, 12)]
)
def test_deeper_ladder_rungs(p, n, cap):
    # rungs 4->5 through (2p+1)->(2p+2)
    report = verify_tor_iso(aw.word_algebra(n, p, cap), aw.word_algebra(n + 1, p, cap))
    assert report["first_mismatch"] is None


@pytest.mark.parametrize("p, n, cap", [(3, 5, 200), (3, 6, 400), (5, 9, 600), (3, 7, 1000)])
def test_deep_ladder_rungs_at_caps_of_hundreds(p, n, cap):
    # rungs whose whole-algebra resolution took seconds to minutes; b7 at cap
    # 1000 took 8 s with each Gamma[y] as one factor, and about 2 s split
    report = verify_tor_iso(aw.word_algebra(n, p, cap), aw.word_algebra(n + 1, p, cap))
    assert report["first_mismatch"] is None
    assert report["passed"]
