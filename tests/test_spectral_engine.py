"""Page bookkeeping, page homology, and the certified constructions."""

import random

import pytest

from thhcalc import fp_linalg
from thhcalc import graded_hopf as gh
from thhcalc import multifold as mf
from thhcalc import spectral_engine as se
from thhcalc.fp_linalg import ContractViolation, FpSparseMatrix, rank


def _term(p, gens, filt, bound):
    spec = gh.AlgebraSpec(tuple(gens), bound, p)
    return se.SSTerm(spec, filt)


# ---------------------------------------------------------------------------
# bidegrees and the derivation
# ---------------------------------------------------------------------------


def test_bidegree_weights_exponents():
    term = _term(3, [gh.divided("x", 4)], {"x": 3}, 40)
    assert term.bidegree(((0, 1),)) == (3, 1)
    assert term.bidegree(((0, 5),)) == (15, 5)
    assert term.bidegree(()) == (0, 0)


def test_missing_filtration_rejected():
    spec = gh.AlgebraSpec((gh.exterior("a", 3),), 10, 3)
    with pytest.raises(ValueError):
        se.SSTerm(spec, {})


def _pterm_setup(p, d=2, bound=40):
    gens = [gh.divided("x", d), gh.exterior("y", p * d - 1)]
    term = _term(p, gens, {"x": 1, "y": 1}, bound)
    dspec = se.DifferentialSpec(p - 1, {"x": {((1, 1),): 1}})
    return term, dspec


def test_divided_rule_shifts_index_by_p():
    term, dspec = _pterm_setup(3)
    img = se.apply_differential(term, dspec, {((0, 4),): 1})
    assert img == {((0, 1), (1, 1)): 1}
    # below index p the tower is inert
    assert se.apply_differential(term, dspec, {((0, 2),): 1}) == {}
    # index exactly p lands on the partner alone
    assert se.apply_differential(term, dspec, {((0, 3),): 1}) == {((1, 1),): 1}


def test_group_like_rule_uses_exponent():
    gens = [gh.polynomial("m", 2), gh.exterior("e", 1)]
    term = _term(5, gens, {"m": 1, "e": 0}, 30)
    dspec = se.DifferentialSpec(1, {"m": {((1, 1),): 1}})
    img = se.apply_differential(term, dspec, {((0, 4),): 1})
    assert img == {((0, 3), (1, 1)): 4}


def test_apply_differential_is_a_derivation():
    term, dspec = _pterm_setup(3, bound=30)
    rng = random.Random(41)
    checked = 0
    degrees = [2, 4, 5, 6, 7, 8, 9, 10, 11]  # realizable in the tower spec

    def draw(d):
        for _ in range(10):
            e = gh.random_homogeneous(term.spec, d, rng)
            if e:
                return e
        return None

    for _ in range(200):
        da = rng.choice(degrees)
        db = rng.choice(degrees)
        a = draw(da)
        b = draw(db)
        if a is None or b is None:
            continue
        ab = gh.multiply(term.spec, a, b)
        lhs = se.apply_differential(term, dspec, ab)
        rhs = gh.add(
            gh.multiply(term.spec, se.apply_differential(term, dspec, a), b),
            gh.scalar_mul((-1) ** da, gh.multiply(term.spec, a, se.apply_differential(term, dspec, b)), 3),
            3,
        )
        assert lhs == rhs
        checked += 1
    assert checked >= 150


# ---------------------------------------------------------------------------
# page homology
# ---------------------------------------------------------------------------


def test_page_homology_polynomial_times_exterior():
    gens = [gh.polynomial("m", 2), gh.exterior("e", 1)]
    term = _term(3, gens, {"m": 2, "e": 1}, 13)
    dspec = se.DifferentialSpec(1, {"m": {((1, 1),): 1}})
    hom = se.page_homology(term, dspec)
    # survivors: 1, m^p and m^{2p}, and m^{p-1}e and m^{2p-1}e
    assert hom == {(0, 0): 1, (5, 0): 1, (6, 0): 1, (11, 0): 1, (12, 0): 1}


def test_page_homology_accepts_height_p_rule():
    term, dspec = _pterm_setup(3, bound=30)
    # 1, x, gamma_2(x): the height-3 truncation, one class per total degree
    assert se.page_homology(term, dspec) == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_page_homology_rejects_wrong_page_index():
    term, dspec = _pterm_setup(3, bound=30)
    wrong = se.DifferentialSpec(dspec.r + 1, dspec.values)
    with pytest.raises(ContractViolation, match="differential image"):
        se.page_homology(term, wrong)


def test_page_homology_rejects_nonzero_square():
    gens = [gh.polynomial("a", 4), gh.exterior("b", 3), gh.polynomial("c", 2)]
    # d(a) = b and d(b) = c makes d(d(a)) = c != 0
    term = _term(3, gens, {"a": 2, "b": 1, "c": 0}, 10)
    dspec = se.DifferentialSpec(1, {"a": {((1, 1),): 1}, "b": {((2, 1),): 1}})
    # a sits at bidegree (2, 2)
    with pytest.raises(ContractViolation, match=r"d o d is nonzero at \(2, 2\)"):
        se.page_homology(term, dspec)


def test_page_homology_rejects_off_target_images():
    gens = [gh.polynomial("m", 2), gh.exterior("e", 1)]
    term = _term(3, gens, {"m": 2, "e": 1}, 9)
    wrong = se.DifferentialSpec(2, {"m": {((1, 1),): 1}})
    with pytest.raises(ContractViolation):
        se.page_homology(term, wrong)


# ---------------------------------------------------------------------------
# height-p homology of twisted divided towers
# ---------------------------------------------------------------------------


def test_p_term_single_tower_p3():
    report = se.verify_p_term(3, [2], 30)
    assert report["passed"]
    # homology is concentrated where the truncated tower lives
    assert report["homology"] == {(k, k): 1 for k in range(3)}


def test_p_term_two_towers_p3():
    report = se.verify_p_term(3, [2, 2], 30)
    assert report["passed"]
    assert report["homology"][(2, 2)] == 3


def test_p_term_single_tower_p5():
    report = se.verify_p_term(5, [2], 50)
    assert report["passed"]
    assert report["homology"] == {(k, k): 1 for k in range(5)}


def test_p_term_mixed_degrees():
    report = se.verify_p_term(3, [2, 6], 26)
    assert report["passed"]


def test_p_term_rejects_odd_degree():
    with pytest.raises(ValueError):
        se.verify_p_term(3, [3], 12)


def _p_term_page(p, x_degrees, bound):
    """Homology of `verify_p_term`'s page built at degree bound `bound`."""
    spec = se.p_term_spec(p, x_degrees, bound - 1)
    index = {g.label: i for i, g in enumerate(spec.generators)}
    values = {f"x{i}": {((index[f"y{i + 1}"], 1),): 1} for i in range(len(x_degrees))}
    term = se.SSTerm(spec, {g.label: 1 for g in spec.generators})
    return se.page_homology(term, se.DifferentialSpec(p - 1, values))


@pytest.mark.parametrize(
    "p, x_degrees, bound",
    # checks.p_term's configurations (max_total + 1), then the pages that once
    # reported classes above their window: dim 6 at (7, 13) at bound 19, and
    # classes at (13, 16) and (15, 15) at bound 27
    [(3, [2], 31), (3, [2, 2], 31), (5, [2], 51), (3, [2, 2], 19), (3, [2], 27)],
)
def test_page_homology_is_exact_through_one_below_the_degree_bound(p, x_degrees, bound):
    page = _p_term_page(p, x_degrees, bound)
    wider = _p_term_page(p, x_degrees, bound + 3)
    assert max(s + t for s, t in page) <= bound - 1
    assert page == {key: dim for key, dim in wider.items() if sum(key) <= bound - 1}


# ---------------------------------------------------------------------------
# divided-power change of basis
# ---------------------------------------------------------------------------


def test_change_basis_first_replacement_content():
    report = se.change_basis_cycles(3, 1, (2,))
    # gamma_3(z') = gamma_3(z) - 2 gamma_3(x0) = gamma_3(z) + gamma_3(x0) mod 3
    assert report["replacements"][1] == {((0, 3),): 1, ((1, 3),): 1}
    assert report["passed"]


@pytest.mark.parametrize("p, k_max, n", [(3, 1, 1), (3, 2, 3), (5, 1, 2), (7, 2, 4)])
def test_change_basis_spec_is_z_then_the_p_term_towers(p, k_max, n):
    gens = [gh.divided("z", 2)]
    for i in range(n):
        gens += [gh.divided(f"x{i}", 2), gh.exterior(f"y{i + 1}", 2 * p - 1)]
    assert se.change_basis_spec(p, k_max, n) == gh.AlgebraSpec(tuple(gens), 2 * p ** (k_max + 1), p)


def _exchange_oracle(p, k_max, r_coeffs):
    """The exchange map ranked degree by degree, as the certificate once was.

    In each degree t <= 2p^k_max, gamma_a(z) m (m free of z) goes to
    gamma_a(z') m, gamma_a(z') the digitwise product of the replacements
    that `change_basis_cycles` reports, and the map must have full rank.
    """
    spec = se.change_basis_spec(p, k_max, len(r_coeffs))
    reps = se.change_basis_cycles(p, k_max, r_coeffs)["replacements"]

    def replaced(a):
        out = {gh.ONE: 1}
        for k, digit in enumerate(mf.digits(a, p)):
            base = {((0, 1),): 1} if k == 0 else reps[k]
            out = gh.multiply(spec, out, gh.power(spec, base, digit))
        return out

    for t in range(2 * p**k_max + 1):
        basis = gh.basis(spec, t)
        index = {mon: i for i, mon in enumerate(basis)}
        columns = []
        for mon in basis:
            if mon and mon[0][0] == 0:
                image = gh.multiply(spec, replaced(mon[0][1]), {mon[1:]: 1})
            else:
                image = {mon: 1}
            columns.append({index[m2]: c for m2, c in image.items()})
        if rank(FpSparseMatrix.from_columns(len(basis), columns), p) != len(basis):
            return False
    return True


# the battery's configurations and the benchmark verb-sweep's changebasis grid
EXCHANGE_CONFIGS = [(3, 2, (1,)), (3, 2, (2, 2)), (5, 1, (1,)), (5, 1, (3, 1, 4))] + [
    (p, k, r) for p, k in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)] for r in [(1,), (1, 2), (2, 1)]
]


@pytest.mark.parametrize("p, k_max, r_coeffs", EXCHANGE_CONFIGS)
def test_change_basis_leading_terms_agree_with_exchange_ranks(p, k_max, r_coeffs):
    assert se.change_basis_cycles(p, k_max, r_coeffs)["exchange_invertible"] is True
    assert _exchange_oracle(p, k_max, r_coeffs) is True


@pytest.mark.parametrize("p, k_max, r_coeffs", [(3, 1, (1,)), (3, 2, (2, 2)), (5, 1, (3, 1, 4)), (5, 2, (1, 2))])
def test_change_basis_without_leading_terms_is_not_invertible(monkeypatch, p, k_max, r_coeffs):
    # with no empty composition, every replacement loses its gamma_{p^k}(z)
    # term and keeps only terms of lower z exponent
    real = gh.compositions
    monkeypatch.setattr(gh, "compositions", lambda total, parts: [] if total == 0 else real(total, parts))
    assert se.change_basis_cycles(p, k_max, r_coeffs)["exchange_invertible"] is False
    assert _exchange_oracle(p, k_max, r_coeffs) is False


def test_change_basis_ranks_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("change_basis_cycles built or ranked a matrix")

    monkeypatch.setattr(fp_linalg, "rank", refuse)
    monkeypatch.setattr(FpSparseMatrix, "from_columns", refuse)
    assert se.change_basis_cycles(5, 2, (1, 2))["passed"]


def test_change_basis_p3_depth_two():
    for coeffs in [(1,), (2, 2), (1, 2)]:
        report = se.change_basis_cycles(3, 2, coeffs)
        assert report["passed"], coeffs
        assert report["cycle_checks"] == [(1, True), (2, True)]
        assert report["power_checks"] == [(1, True), (2, True)]
        assert report["exchange_invertible"]


def test_change_basis_p5_depth_one():
    for coeffs in [(1,), (3, 1, 4)]:
        report = se.change_basis_cycles(5, 1, coeffs)
        assert report["passed"], coeffs


def test_change_basis_depth_two_touches_deeper_tower():
    report = se.change_basis_cycles(3, 2, (1,))
    z9 = report["replacements"][2]
    # the depth-2 replacement telescopes through four terms
    assert len(z9) == 4
    assert z9[((0, 9),)] == 1
    assert z9[((1, 9),)] == 2  # (-1)^3 mod 3


def test_change_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        se.change_basis_cycles(3, 1, ())


# ---------------------------------------------------------------------------
# the two-column page and the power-class hitting problem
# ---------------------------------------------------------------------------


def _kernel_calls(monkeypatch):
    """Record each matrix handed to `kernel_basis` with its kernel, and
    refuse `rank`."""
    seen = []
    real = fp_linalg.kernel_basis

    def recording(m, p):
        kernel = real(m, p)
        seen.append((m, kernel))
        return kernel

    def refuse(*args):
        raise AssertionError("rognes_check ranked a matrix")

    monkeypatch.setattr(fp_linalg, "kernel_basis", recording)
    monkeypatch.setattr(fp_linalg, "rank", refuse)
    return seen


def test_hitting_problem_obstructed_small(monkeypatch):
    seen = _kernel_calls(monkeypatch)
    for p, n, rows, cols in [(3, 2, 8, 3), (5, 2, 12, 5)]:
        seen.clear()
        report = se.rognes_check(p, n)
        assert report["obstructed"], (p, n)
        assert report["rows"] == rows
        assert report["cols"] == cols
        assert report["rank_gap"] == 1
        # one elimination of the candidates with the target appended
        [(m, kernel)] = seen
        assert (m.rows, m.cols) == (rows, cols + 1)
        assert kernel == []  # the candidate columns are independent, and so is the target


def test_hitting_problem_obstructed_three_coordinates():
    report = se.rognes_check(5, 3)
    assert report["obstructed"]
    assert report["rows"] == 1053
    assert report["cols"] == 556
    assert report["rank_gap"] == 1


def test_hitting_problem_control_witness(monkeypatch):
    seen = _kernel_calls(monkeypatch)
    for p, n in [(3, 2), (5, 2), (5, 3), (3, 3), (3, 4), (7, 3)]:
        seen.clear()
        report = se.rognes_check(p, n, include_witness=True)
        assert len(seen) == 1, (p, n)
        assert not report["obstructed"], (p, n)
        assert report["witness_coefficient"] == 1
        assert report["canonical_solves"]
        assert report["witness_verified"]
        # the columns and the canonical one are independent, so the solution
        # is unique: tau_{n-1} alone
        assert report["witness"] == {(n - 1, (0,) * n): 1}, (p, n)


def test_hitting_problem_rejects_single_coordinate():
    with pytest.raises(ValueError):
        se.rognes_check(3, 1)
