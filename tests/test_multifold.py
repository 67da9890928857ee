"""Tests for Lucas arithmetic, relation modules and pinched-cube coproducts."""

from __future__ import annotations

import itertools
import random
from math import comb

import pytest

from thhcalc import graded_hopf as gh
from thhcalc import multifold as mf
from thhcalc.fp_linalg import FpSparseMatrix, add_to, kernel_basis, two_term_kernel
from thhcalc.fp_linalg import rank as fp_rank


# ---------------------------------------------------------------------------
# binomials mod p
# ---------------------------------------------------------------------------


def lucas(n, k, p):
    """C(n, k) mod p via digitwise binomials: the per-binomial oracle."""
    if k < 0 or k > n:
        return 0
    out = 1
    while k or n:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        out = out * comb(nd, kd) % p
        if not out:
            return 0
    return out


def test_lucas_examples():
    assert lucas(10, 4, 3) == 0
    assert all(lucas(n, 0, 3) == 1 for n in range(20))
    for p in (3, 5):
        for i in (1, 2):
            for k in range(1, p**i):
                assert lucas(p**i, k, p) == 0
    assert lucas(4, 1, 3) == 1  # 4 = 11_3, C(4,1) = 4
    assert lucas(5, 2, 3) == comb(5, 2) % 3


def test_lucas_matches_comb_randomized():
    rng = random.Random(11)
    for _ in range(500):
        p = rng.choice((3, 5, 7))
        n = rng.randrange(0, 400)
        k = rng.randrange(0, 400)
        assert lucas(n, k, p) == (comb(n, k) % p if k <= n else 0)


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
    assert mf.classify_weight(9, 3) == (mf.P_POWER, (9,))
    assert mf.classify_weight(3, 3) == (mf.P_POWER, (3,))
    assert mf.classify_weight(4, 3) == (mf.TWO_POWERS, (3, 1))
    assert mf.classify_weight(12, 3) == (mf.TWO_POWERS, (9, 3))
    assert mf.classify_weight(2, 3) == (mf.GENERIC, (1,))  # 1 + 1, equal powers
    assert mf.classify_weight(6, 3) == (mf.GENERIC, (3,))  # 3 + 3
    assert mf.classify_weight(5, 3) == (mf.GENERIC, (3,))  # digits (2, 1)
    assert mf.classify_weight(31, 3) == (mf.GENERIC, (27,))  # 27 + 3 + 1
    assert mf.classify_weight(26, 5) == (mf.TWO_POWERS, (25, 1))


# The recursive enumerations the library used before it switched to
# itertools; kept as the oracle for order as well as content, since the
# column order of rognes fixes its witness.


def _subsets_of_size(pool, size):
    pool = list(pool)
    if size == 0:
        return [()]
    return [(v,) + rest for i, v in enumerate(pool) for rest in _subsets_of_size(pool[i + 1 :], size - 1)]


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    return [(first,) + rest for first in range(total + 1) for rest in _compositions(total - first, parts - 1)]


def test_stdlib_enumerations_match_recursive_oracles():
    for size in range(0, 6):
        for n in range(0, 6):
            assert list(itertools.combinations(range(1, n + 1), size)) == _subsets_of_size(range(1, n + 1), size)
    for parts in range(1, 5):
        for total in range(0, 10):
            assert gh.compositions(total, parts) == _compositions(total, parts)


def test_lucas_row_construction():
    # decompose and relations admit primes up to 2^31 - 1, whose rows hold
    # entries of 256 and more: the row must stay a list
    for p in (3, 5, 257, 1009, 2**31 - 1):
        for n in (0, 1, 7, 30, 81, 121, 256, 257, 258, 514, 515, 600):
            row = mf.lucas_row(n, p)
            assert type(row) is list and row == [comb(n, k) % p for k in range(n + 1)], (n, p)


def test_lucas_vs_pascal_small_sweep():
    for p in (3, 5, 7, 127):
        report = mf.lucas_vs_pascal(p, 150)
        assert report["passed"], report


def _list_pascal_rows(p):
    """A stand-in for lucas_row(n, p) that returns Pascal row n mod p, built
    as a list from the row before it: the oracle for the packed rows.  The
    rows must be asked for in increasing order of n."""
    state = {"n": 0, "row": [1]}

    def row(n, q):
        assert q == p and n >= state["n"]
        while state["n"] < n:
            prev = state["row"]
            state["row"] = [1] + [(x + y) % p for x, y in zip(prev, prev[1:])] + [1]
            state["n"] += 1
        return list(state["row"])

    return row


@pytest.mark.parametrize("p, n_max", [(3, 2000), (5, 2000), (7, 2000), (127, 300)])
def test_packed_pascal_rows_match_list_oracle(p, n_max, monkeypatch):
    # with lucas_row swapped for the list-built rows, lucas_vs_pascal checks
    # every packed row against the oracle
    monkeypatch.setattr(mf, "lucas_row", _list_pascal_rows(p))
    assert mf.lucas_vs_pascal(p, n_max)["first_mismatch"] is None


def test_lucas_vs_pascal_reports_the_first_mismatch(monkeypatch):
    oracle = _list_pascal_rows(5)

    def off_from_40(n, p):
        row = oracle(n, p)
        if n >= 40:
            row[17] = (row[17] + 1) % p
        return row

    monkeypatch.setattr(mf, "lucas_row", off_from_40)
    assert mf.lucas_vs_pascal(5, 60) == {"first_mismatch": (40, 17), "passed": False}


def test_lucas_vs_pascal_refuses_primes_whose_bytes_would_carry():
    for p in (131, 257):
        with pytest.raises(ValueError):
            mf.lucas_vs_pascal(p, 10)


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
    report = mf.decompose_coproduct(4, {1: 1, 2: 0, 3: 1}, 3)
    assert report["consistent"]
    assert report["round"] == 1 and report["skew"] == 0


def test_decompose_pure_skew_table():
    # a single hit at position 1 of weight p + 1: pure skew part
    p = 5
    report = mf.decompose_coproduct(p + 1, {1: 1}, p)
    assert report["consistent"]
    assert report["round"] == 0 and report["skew"] == 1
    assert report["skew_position"] == 1


def test_decompose_rejects_bad_table():
    report = mf.decompose_coproduct(4, {2: 1}, 3)
    assert not report["consistent"]
    assert report["witness"] == (1, 1, 2)


def test_decompose_p_power_table():
    p = 3
    report = mf.decompose_coproduct(9, {k: 2 * mf.binom_div_p(9, k, p) % p for k in range(1, 9)}, p)
    assert report["consistent"]
    assert report["p_part"] == 2


def test_decompose_generic_table():
    # twice the Lucas row at weight 5, p = 3
    p = 3
    report = mf.decompose_coproduct(5, {k: 2 * lucas(5, k, p) % p for k in range(1, 5)}, p)
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
                report = mf.decompose_coproduct(N, coeffs, p)
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


def _cube_psi_oracle(direction, elem, p):
    """cube_psi as it was before it spliced: each new monomial sorted by
    cube_monomial and accumulated with add_to."""
    out = {}
    for mon, coeff in elem.items():
        exp = 0
        rest = []
        for var, e in mon:
            if var == (direction, -1):
                exp = e
            elif var[0] == direction:
                raise ValueError(f"direction {direction} is already pinched")
            else:
                rest.append((var, e))
        for j in range(exp + 1):
            c = coeff * comb(exp, j) % p
            if c:
                new = mf.cube_monomial(rest + [((direction, 0), j), ((direction, 1), exp - j)])
                add_to(out, new, c, p)
    return out


def _pinch_outcome(psi, direction, elem, p):
    try:
        return psi(direction, elem, p)
    except ValueError as err:
        return ("refused", str(err))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cube_psi_matches_sort_and_add_oracle(p):
    # random elements on 1-3 directions, pinched along random chains of
    # directions; a chain may name a direction no monomial holds, or one
    # already pinched, which both versions must refuse alike
    rng = random.Random(53 + p)
    pinches = refusals = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        elem = {}
        for _ in range(rng.randint(1, 4)):
            mon = mf.cube_monomial([((d, -1), rng.randrange(2 * p + 2)) for d in range(n)])
            elem[mon] = rng.randrange(1, p)
        for d in [rng.randrange(n + 1) for _ in range(rng.randint(1, n + 1))]:
            want = _pinch_outcome(_cube_psi_oracle, d, elem, p)
            assert _pinch_outcome(mf.cube_psi, d, elem, p) == want, (d, elem)
            if isinstance(want, tuple):
                refusals += 1
                break
            pinches += 1
            elem = want
    assert pinches > 500 and refusals > 50, (pinches, refusals)


def test_pinch_order_independence_two_directions():
    report = mf.pinch_order_report(2, 12, 3)
    assert report["passed"]
    assert report["monomials_checked"] == 28  # pairs with e1 + e2 <= 6


def test_pinch_order_independence_three_directions():
    report = mf.pinch_order_report(3, 20, 5)
    assert report["passed"]
    assert report["monomials_checked"] == 286
    assert report["orders_per_monomial"] == 6


# ---------------------------------------------------------------------------
# Lucas-row tables against per-call binomials
# ---------------------------------------------------------------------------

# The relation and decomposition code as it was before it read lucas_row
# tables: one lucas(n, k, p) call per binomial.  Kept as the oracle for the
# table indexing.


def _relation_matrix_oracle(N, p):
    entries = {}
    row = 0
    for a in range(1, N - 1):
        for b in range(1, N - a):
            c = N - a - b
            left, right = lucas(a + b, b, p), lucas(b + c, b, p)
            if left:
                entries[(row, a + b - 1)] = left
            if right:
                entries[(row, a - 1)] = -right % p
            row += 1
    return row, N - 1, entries


def _decompose_oracle(N, coeffs, p):
    """The decomposition with its own weight classes and per-kind expected
    rows, written without the library's closed forms."""
    table = [coeffs.get(k, 0) % p for k in range(N)]
    for a in range(1, N - 1):
        for b in range(1, N - a):
            c = N - a - b
            if lucas(a + b, b, p) * table[a + b] % p != lucas(b + c, b, p) * table[a] % p:
                return {"N": N, "p": p, "consistent": False, "witness": (a, b, c)}
    ds, n = [], N
    while n:
        n, d = divmod(n, p)
        ds.append(d)
    ones = [p**i for i, d in enumerate(ds) if d == 1]
    zero_one = all(d in (0, 1) for d in ds)
    if zero_one and len(ones) == 1 and N >= p:
        kind = mf.P_POWER
        r = table[N // p]
        expected = {k: r * (comb(N, k) // p) % p for k in range(1, N)}
        result = {"p_part": r}
    elif zero_one and len(ones) == 2:
        kind = mf.TWO_POWERS
        lo, hi = ones
        r, t = table[hi], (table[lo] - table[hi]) % p
        expected = {k: (r * lucas(N, k, p) + (t if k == lo else 0)) % p for k in range(1, N)}
        result = {"round": r, "skew": t, "skew_position": lo}
    else:
        kind = mf.GENERIC
        r = table[p ** (len(ds) - 1)] * pow(ds[-1], -1, p) % p
        expected = {k: r * lucas(N, k, p) % p for k in range(1, N)}
        result = {"round": r}
    for k in range(1, N):
        if table[k] != expected[k]:
            return {"N": N, "p": p, "consistent": False, "witness": ("pattern", k)}
    return {"N": N, "p": p, "consistent": True, "type": kind, **result}


def _distinct_constraints(N, p):
    """The oracle matrix's rows as relations: zero rows dropped, two-entry
    rows kept in order as (i, u, j, v), one-entry rows turned into their
    unknown, then one (i, 1, i, 0) per distinct forced unknown, sorted."""
    rows, _, entries = _relation_matrix_oracle(N, p)
    by_row = [[] for _ in range(rows)]
    for (row, col), val in sorted(entries.items()):
        by_row[row].append((col, val))
    out, forced = [], set()
    for terms in by_row:
        if len(terms) == 2:
            (j, minus_v), (i, u) = terms  # the r_a column lies left of r_{a+b}
            out.append((i, u, j, -minus_v % p))
        elif terms:
            forced.add(terms[0][0])
    return out + [(i, 1, i, 0) for i in sorted(forced)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_relation_matrix_matches_lucas_calls(p):
    # the streamed constraints are exactly the oracle matrix's distinct ones,
    # in order, up to verify-all's largest weight, from tables built for the
    # one weight and from tables shared by every weight
    shared = mf.lucas_tables(200, p)
    for N in range(3, 201):
        want = _distinct_constraints(N, p)
        assert list(mf.relation_rows(N, p)) == want, N
        assert list(mf.relation_rows(N, p, shared)) == want, N


@pytest.mark.parametrize("p", [3, 5, 7, 257])
def test_lucas_tables_match_the_rows(p):
    weight = 300
    tables = mf.lucas_tables(weight, p)
    assert tables.rows == [mf.lucas_row(n, p) for n in range(weight)]
    for n in range(weight):
        assert tables.support[n] == [k for k in range(1, n) if lucas(n, k, p)], n
    assert tables.carry_free[0] == []
    for a in range(1, weight):
        assert tables.carry_free[a] == [b for b in range(1, weight - a) if lucas(a + b, b, p)], a


def test_relation_module_reads_shared_lucas_rows():
    for p in (3, 5, 7):
        tables = mf.lucas_tables(200, p)
        for N in range(3, 201):
            assert mf.relation_module(N, p, tables) == mf.relation_module(N, p), (N, p)


@pytest.mark.parametrize("p", [3, 5])
def test_relation_module_membership_sees_forced_zeros(p, monkeypatch):
    # a claimed vector nonzero at a forced unknown breaks only that unknown's
    # x_i = 0 constraint; with the solver echoing the claim, so that the ranks
    # cannot see the difference, membership alone must refuse it
    true_forms = mf.closed_form_vectors
    real_kernel = mf.two_term_kernel

    def echo_kernel(n, relations, q):
        real_kernel(n, relations, q)  # drains the stream through _checked
        return [{k: v for k, v in enumerate(vec) if v} for vec in mf.closed_form_vectors(N, q)[1]]

    tried = 0
    for N in range(3, 41):
        forced = [i for i, _, _, v in mf.relation_rows(N, p) if not v]
        if not forced:
            continue
        tried += 1
        kind, vectors, normal = true_forms(N, p)
        assert vectors[0][forced[-1]] == 0
        tampered = [list(vectors[0])] + vectors[1:]
        tampered[0][forced[-1]] = 1
        for kernel in (real_kernel, echo_kernel):
            monkeypatch.setattr(mf, "two_term_kernel", kernel)
            monkeypatch.setattr(mf, "closed_form_vectors", lambda n, q: (kind, vectors, normal))
            assert mf.relation_module(N, p)["agrees"], (N, kernel)
            monkeypatch.setattr(mf, "closed_form_vectors", lambda n, q: (kind, tampered, normal))
            assert not mf.relation_module(N, p)["agrees"], (N, kernel)
    assert tried >= 20


@pytest.mark.parametrize("p, weights", [(3, (4, 10)), (5, (6, 26))])
def test_relation_module_refuses_a_spanning_claim_off_pivot_form(p, weights, monkeypatch):
    # [e_a + e_b, e_b] spans the two-power kernel, but decompose_coproduct
    # reads coordinates off the pivots and so rejects the valid table that is
    # 1 at both powers; relation_module must not agree with such a claim
    true_forms = mf.closed_form_vectors
    for N in weights:
        kind, vectors, normal = true_forms(N, p)
        assert kind == mf.TWO_POWERS and mf.relation_module(N, p)["agrees"], N
        a, b = normal["pivots"]
        skewed = [[x + y for x, y in zip(*vectors)], vectors[1]]
        monkeypatch.setattr(mf, "closed_form_vectors", lambda n, q: (kind, skewed, normal))
        assert mf.decompose_coproduct(N, {a: 1, b: 1}, p)["witness"] == ("pattern", b), N
        assert not mf.relation_module(N, p)["agrees"], N
        monkeypatch.setattr(mf, "closed_form_vectors", true_forms)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_two_term_kernel_matches_elimination_on_relation_systems(p):
    # the solver on the relation rows against kernel_basis on the oracle matrix
    for N in range(3, 201):
        rows, cols, entries = _relation_matrix_oracle(N, p)
        want = kernel_basis(FpSparseMatrix(rows, cols, entries), p)
        got = two_term_kernel(N - 1, mf.relation_rows(N, p), p)
        assert len(got) == len(want), N
        assert fp_rank(FpSparseMatrix.from_columns(cols, got), p) == len(got), N
        assert fp_rank(FpSparseMatrix.from_columns(cols, want + got), p) == len(want), N


@pytest.mark.parametrize("p", [3, 5, 7])
def test_decompose_matches_lucas_calls(p):
    rng = random.Random(31 + p)
    for N in range(3, 81):
        _, vectors, _ = mf.closed_form_vectors(N, p)
        tables = [{}, {k: rng.randrange(p) for k in range(1, N)}]
        for _ in range(3):
            weights = [rng.randrange(p) for _ in vectors]
            coeffs = {k: sum(w * v[k - 1] for w, v in zip(weights, vectors)) % p for k in range(1, N)}
            tables.append(coeffs)
            # one changed position breaks a relation or the closed-form pattern
            broken = dict(coeffs)
            k = rng.randrange(1, N)
            broken[k] = (broken[k] + 1) % p
            tables.append(broken)
        for coeffs in tables:
            assert mf.decompose_coproduct(N, coeffs, p) == _decompose_oracle(N, coeffs, p), (N, coeffs)


@pytest.mark.parametrize("p", [3, 5])
def test_decompose_reports_the_first_position_off_the_claimed_span(p, monkeypatch):
    # a table on the true closed form passes every relation; against a claim
    # tampered at one position off the pivots it must fail there, so the
    # table is checked against what closed_form_vectors claims
    true_forms = mf.closed_form_vectors
    kinds = set()
    for N in range(3, 40):
        kind, vectors, normal = true_forms(N, p)
        pivots = normal["pivots"] if kind == mf.TWO_POWERS else (normal["pivot"],)
        coeffs = {k: sum(vec[k - 1] for vec in vectors) % p for k in range(1, N)}
        spot = next(k for k in range(1, N) if k not in pivots)
        tampered = [list(vec) for vec in vectors]
        tampered[0][spot - 1] = (tampered[0][spot - 1] + 1) % p
        monkeypatch.setattr(mf, "closed_form_vectors", lambda n, q: (kind, tampered, normal))
        report = mf.decompose_coproduct(N, coeffs, p)
        assert report == {"N": N, "p": p, "consistent": False, "witness": ("pattern", spot)}, N
        monkeypatch.setattr(mf, "closed_form_vectors", true_forms)
        assert mf.decompose_coproduct(N, coeffs, p)["consistent"], N
        kinds.add(kind)
    assert kinds == {mf.P_POWER, mf.TWO_POWERS, mf.GENERIC}
