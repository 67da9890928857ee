"""Exact F_p linear algebra: frozen examples and randomized invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhcalc import admissible_words as aw
from thhcalc import bar_tor
from thhcalc import fp_linalg
from thhcalc import spectral_engine as se
from thhcalc.fp_linalg import (
    FpSparseMatrix,
    _column_index,
    _pivot,
    _rref,
    _sparse_rows,
    add_to,
    is_prime,
    kernel_basis,
    rank,
    two_term_kernel,
)


def from_dense(data):
    entries = {(r, c): v for r, row in enumerate(data) for c, v in enumerate(row) if v}
    return FpSparseMatrix(len(data), len(data[0]) if data else 0, entries)


def to_dense(m):
    out = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        out[r][c] = v
    return out


def mul_vec(m, vec, p):
    """m applied to a sparse {column: value} vector, as a dense tuple."""
    out = [0] * m.rows
    for (r, c), v in m.entries.items():
        out[r] += v * vec.get(c, 0)
    return tuple(x % p for x in out)


def transpose(m):
    return FpSparseMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def augment(m, b):
    """[m | b]: the dense right-hand side b appended as the last column."""
    entries = dict(m.entries)
    entries.update({(r, m.cols): v for r, v in enumerate(b) if v})
    return FpSparseMatrix(m.rows, m.cols + 1, entries)


def solve_by_kernel(m, b, p):
    """x with m x = b, read off the kernel vector of [m | b] that ends on the
    appended column, or None when no vector ends there."""
    kernel = kernel_basis(augment(m, b), p)
    # the appended column can only be the last vector's free column
    assert all(m.cols not in vec for vec in kernel[:-1])
    if not kernel or m.cols not in kernel[-1]:
        return None
    return tuple(-kernel[-1].get(c, 0) % p for c in range(m.cols))


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_is_prime_matches_a_sieve():
    limit = 2000
    sieve = [n >= 2 for n in range(limit)]
    for n in range(2, limit):
        if sieve[n]:
            sieve[n * n :: n] = [False] * len(sieve[n * n :: n])
    assert [n for n in range(-3, limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    assert is_prime(2**31 - 1) and not is_prime(46337 * 46349)  # a prime and a product of two near sqrt


def test_rank_identity_3x3_mod_5():
    m = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(m, 5) == 3
    assert kernel_basis(m, 5) == []


def test_rank_one_matrix_mod_5():
    m = from_dense([[1, 2], [2, 4]])
    assert rank(m, 5) == 1
    basis = kernel_basis(m, 5)
    # the kernel is the line spanned by (3, 1), 1 at the free column
    assert basis == [{0: 3, 1: 1}]
    assert mul_vec(m, basis[0], 5) == (0, 0)


def test_kernel_of_row_vector_mod_3():
    m = from_dense([[1, 1]])
    basis = kernel_basis(m, 3)
    # the kernel is the line spanned by (2, 1), 1 at the free column
    assert basis == [{0: 2, 1: 1}]


def test_solve_by_appended_column_mod_5():
    m = from_dense([[1], [2]])
    # the vector ending on the appended column is (-x, 1)
    assert kernel_basis(augment(m, (2, 4)), 5) == [{0: 3, 1: 1}]
    assert solve_by_kernel(m, (2, 4), 5) == (2,)
    # inconsistent right-hand side: no vector ends there, and the rank jumps
    assert kernel_basis(augment(m, (2, 3)), 5) == []
    assert solve_by_kernel(m, (2, 3), 5) is None
    assert rank(augment(m, (2, 3)), 5) == rank(m, 5) + 1


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


def random_matrix(rng, rows, cols, p, density=0.5):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randrange(1, p)
                entries[(r, c)] = v
    return FpSparseMatrix(rows, cols, entries)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_nullity_and_kernel_vectors(p):
    rng = random.Random(1000 + p)
    for _ in range(100):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8), p)
        basis = kernel_basis(m, p)
        assert rank(m, p) + len(basis) == m.cols
        zero = tuple([0] * m.rows)
        for v in basis:
            assert mul_vec(m, v, p) == zero


@pytest.mark.parametrize("p", [3, 5])
def test_solve_round_trip(p):
    rng = random.Random(2000 + p)
    for _ in range(100):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8), p)
        x = dict(enumerate(rng.randrange(p) for _ in range(m.cols)))
        b = mul_vec(m, x, p)
        x2 = solve_by_kernel(m, b, p)
        assert x2 is not None
        assert mul_vec(m, dict(enumerate(x2)), p) == b
        # every free variable is 0: x2 lives on the pivot columns of m alone
        pivot_cols = set(range(m.cols)) - {next(reversed(vec)) for vec in kernel_basis(m, p)}
        assert all(c in pivot_cols for c, v in enumerate(x2) if v)


@pytest.mark.parametrize("p", [3, 5])
def test_no_solution_certified_by_rank_jump(p):
    rng = random.Random(3000 + p)
    checked = 0
    while checked < 50:
        m = random_matrix(rng, rng.randrange(2, 8), rng.randrange(1, 6), p)
        b = tuple(rng.randrange(p) for _ in range(m.rows))
        # no vector ends on the appended column exactly when the rank jumps
        unsolved = solve_by_kernel(m, b, p) is None
        assert unsolved == (rank(augment(m, b), p) == rank(m, p) + 1)
        checked += unsolved


def test_rank_matches_nullity_and_transpose_rank():
    # the fewest-entries pivot rule of rank against the natural-order kernel,
    # on shapes on both sides of 64, the size where a dense path used to start
    rng = random.Random(4000)
    for _ in range(20):
        rows, cols = rng.randrange(1, 90), rng.randrange(1, 90)
        m = random_matrix(rng, rows, cols, 5, density=0.2)
        r = rank(m, 5)
        assert r == cols - len(kernel_basis(m, 5))
        assert r == rank(transpose(m), 5)


def test_add_to_drops_zero_sums():
    acc = {"a": 2}
    add_to(acc, "a", 1, 3)
    assert acc == {}
    add_to(acc, "b", -1, 5)
    add_to(acc, "c", 10, 5)
    assert acc == {"b": 4}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=6), min_size=36, max_size=36),
    st.sampled_from([3, 5, 7]),
)
def test_kernel_dimension_matches_rank_hypothesis(rows, cols, flat, p):
    data = [[flat[r * 6 + c] for c in range(cols)] for r in range(rows)]
    m = from_dense(data)
    basis = kernel_basis(m, p)
    assert rank(m, p) + len(basis) == cols
    for v in basis:
        assert all(x == 0 for x in mul_vec(m, v, p))


def _rank_of_vectors(vectors, p):
    return rank(FpSparseMatrix.from_columns(5, vectors), p)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.dictionaries(st.integers(0, 4), st.integers(-6, 6), max_size=4), max_size=4),
    st.lists(st.dictionaries(st.integers(0, 4), st.integers(-6, 6), max_size=4), max_size=5),
    st.sampled_from([3, 5, 7]),
)
def test_kernel_basis_frees_each_column_inside_the_running_span(span, candidates, p):
    # the resolution's contract: one kernel of [span | candidates] names the
    # candidates outside the running span and a kernel basis of span alone
    columns = span + candidates
    m = FpSparseMatrix.from_columns(5, columns)
    before = dict(m.entries)
    basis = kernel_basis(m, p)
    assert m.entries == before  # input untouched
    free = [next(reversed(vec)) for vec in basis]
    # column j is free exactly when it does not raise the rank of columns 0..j
    expected = [
        j for j in range(len(columns)) if _rank_of_vectors(columns[: j + 1], p) == _rank_of_vectors(columns[:j], p)
    ]
    assert free == expected
    pivots = set(range(len(columns))) - set(free)
    for vec, j in zip(basis, free):
        *rest, last = vec.items()
        assert last == (j, 1)
        keys = [c for c, _ in rest]
        assert keys == sorted(keys) and all(c in pivots and c < j for c in keys)
        assert all(0 < v < p for _, v in rest)
        assert mul_vec(m, vec, p) == (0,) * 5
    # the vectors whose free column lies in span are kernel_basis of span alone
    assert [vec for vec in basis if next(reversed(vec)) < len(span)] == kernel_basis(
        FpSparseMatrix.from_columns(5, span), p
    )


def test_compose_and_transpose_shapes():
    a = from_dense([[1, 2, 0], [0, 1, 1]])
    b = from_dense([[1, 0], [2, 1], [0, 3]])
    ab = a.compose(b, 5)
    assert (ab.rows, ab.cols) == (2, 2)
    assert to_dense(ab) == [[0, 2], [2, 4]]
    at = transpose(a)
    assert (at.rows, at.cols) == (3, 2)
    assert rank(a, 5) == rank(at, 5)


# ---------------------------------------------------------------------------
# the column-order rank and the scattered kernel against independent oracles
# ---------------------------------------------------------------------------


def rank_full_scan(m, p):
    """Oracle: a different pivot rule, the column with the fewest entries and
    then its sparsest row, found by rescanning every column for each pivot."""
    rows = _sparse_rows(m, p)
    col_index = _column_index(rows)
    found = 0
    while col_index:
        c = min(col_index, key=lambda cc: (len(col_index[cc]), cc))
        touching = col_index[c]
        if not touching:
            del col_index[c]
            continue
        _pivot(rows, col_index, min(touching, key=lambda r: (len(rows[r]), r)), c, p)
        found += 1
    return found


def kernel_basis_lookup(m, p):
    """Oracle: the kernel loop that looked each free column up in every pivot row."""
    pivots = _rref(_sparse_rows(m, p), m.cols, p)
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        v = {}
        for c, row in pivots:
            coeff = row.get(free)
            if coeff:
                v[c] = (-coeff) % p
        v[free] = 1
        basis.append(v)
    return basis


@st.composite
def prime_matrices(draw):
    """Up to 15 x 15 over a small prime, sparse to full, with blank rows and
    columns; a low-rank product forces cancellation during elimination."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows, cols = draw(st.integers(0, 15)), draw(st.integers(0, 15))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
    # a seeded generator, not drawn cells, keeps shrinking a failure quick
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))

    def fill(nrows, ncols):
        entries = {(r, c): rnd.randrange(1, 3 * p) for r in range(nrows) for c in range(ncols) if rnd.random() < density}
        return FpSparseMatrix(nrows, ncols, entries)

    if draw(st.booleans()):
        inner = draw(st.integers(1, 15))
        m = fill(rows, inner).compose(fill(inner, cols), p)
    else:
        m = fill(rows, cols)
    blank_rows = draw(st.sets(st.integers(0, 14), max_size=4))
    blank_cols = draw(st.sets(st.integers(0, 14), max_size=4))
    m.entries = {(r, c): v for (r, c), v in m.entries.items() if r not in blank_rows and c not in blank_cols}
    return m, p


@st.composite
def unitriangular_matrices(draw):
    """Upper unitriangular, up to 25 x 25: every column pivots on its diagonal row."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 25))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    entries = {(r, r): 1 for r in range(n)}
    entries.update({(r, c): rnd.randrange(1, p) for c in range(n) for r in range(c) if rnd.random() < density})
    return FpSparseMatrix(n, n, entries), p


@st.composite
def arrow_matrices(draw):
    """A diagonal with a full first row and first column, up to 25 x 25: the
    first pivot fills in every other row, so rank deficiency hides in it."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 25))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    entries = {(r, r): rnd.randrange(1, p) for r in range(n)}
    entries.update({(0, c): rnd.randrange(1, p) for c in range(1, n)})
    entries.update({(r, 0): rnd.randrange(1, p) for r in range(1, n)})
    return FpSparseMatrix(n, n, entries), p


@settings(max_examples=300, deadline=None)
@given(st.one_of(prime_matrices(), unitriangular_matrices(), arrow_matrices()))
def test_rank_matches_full_scan_oracle(case):
    m, p = case
    assert rank(m, p) == rank_full_scan(m, p)


@settings(max_examples=200, deadline=None)
@given(prime_matrices())
def test_kernel_basis_matches_lookup_oracle(case):
    m, p = case
    # the same vectors with their keys in the same order
    assert [list(v.items()) for v in kernel_basis(m, p)] == [list(v.items()) for v in kernel_basis_lookup(m, p)]


CALLERS = {
    "rognes_check(3, 3)": lambda: se.rognes_check(3, 3),
    "verify_p_term(3, [2, 2], 30)": lambda: se.verify_p_term(3, [2, 2], 30),
}


@pytest.fixture(scope="module")
def caller_matrices():
    """Every matrix the library callers rank or take a kernel of, by caller,
    with the rank that `rank` returned or cols minus the kernel's size."""
    recorded = {}
    real_rank = fp_linalg.rank
    real_kernel_basis = fp_linalg.kernel_basis
    with pytest.MonkeyPatch.context() as mp:
        for name, call in CALLERS.items():
            seen = recorded.setdefault(name, [])

            def recording_rank(m, p, seen=seen):
                got = real_rank(m, p)
                seen.append((FpSparseMatrix(m.rows, m.cols, dict(m.entries)), p, got))
                return got

            def recording_kernel_basis(m, p, seen=seen):
                kernel = real_kernel_basis(m, p)
                seen.append((FpSparseMatrix(m.rows, m.cols, dict(m.entries)), p, m.cols - len(kernel)))
                return kernel

            mp.setattr(fp_linalg, "rank", recording_rank)
            mp.setattr(fp_linalg, "kernel_basis", recording_kernel_basis)
            call()
    return recorded


@pytest.mark.parametrize("caller", list(CALLERS))
def test_rank_matches_full_scan_oracle_on_caller_matrices(caller_matrices, caller):
    matrices = caller_matrices[caller]
    assert matrices
    for m, p, got in matrices:
        assert got == rank_full_scan(m, p)


# ---------------------------------------------------------------------------
# the one-pass Gauss-Jordan _rref against back-substitution
# ---------------------------------------------------------------------------


def rref_back_substitution(rows, cols, p):
    """Oracle: forward elimination, then each pivot column cleared from every earlier pivot row."""
    col_index = _column_index(rows)
    pivots = []
    for c in range(cols):
        touching = col_index.get(c)
        if touching:
            pivots.append((c, _pivot(rows, col_index, min(touching), c, p)))
    for i in range(len(pivots) - 1, -1, -1):
        c, piv = pivots[i]
        for _, rowj in pivots[:i]:
            f = rowj.get(c)
            if f:
                for cc, vv in piv.items():
                    add_to(rowj, cc, -f * vv, p)
    return pivots


def assert_same_rref(m, p):
    # both consume their rows; pivot columns and reduced rows, values included
    assert _rref(_sparse_rows(m, p), m.cols, p) == rref_back_substitution(_sparse_rows(m, p), m.cols, p)


@settings(max_examples=300, deadline=None)
@given(prime_matrices())
def test_rref_matches_back_substitution_oracle(case):
    assert_same_rref(*case)


def test_rref_matches_back_substitution_oracle_on_resolution_matrices(monkeypatch):
    seen = []
    real_kernel_basis = fp_linalg.kernel_basis

    def recording_kernel_basis(m, p):
        seen.append((FpSparseMatrix(m.rows, m.cols, dict(m.entries)), p))
        return real_kernel_basis(m, p)

    monkeypatch.setattr(fp_linalg, "kernel_basis", recording_kernel_basis)
    bar_tor.tor_dims(aw.word_algebra(5, 3, 120))
    assert len(seen) > 100
    for m, p in seen:
        assert_same_rref(m, p)


# ---------------------------------------------------------------------------
# the two-term solver against elimination
# ---------------------------------------------------------------------------


def relation_matrix(n, relations, p):
    """Row r of the matrix is u x_i - v x_j for relation r = (i, u, j, v)."""
    entries = {}
    for r, (i, u, j, v) in enumerate(relations):
        add_to(entries, (r, i), u, p)
        add_to(entries, (r, j), -v, p)
    return FpSparseMatrix(len(relations), n, entries)


def assert_same_kernel(n, relations, p):
    """two_term_kernel spans the same space as kernel_basis, with independent vectors."""
    got = two_term_kernel(n, relations, p)
    want = kernel_basis(relation_matrix(n, relations, p), p)
    assert len(got) == len(want)
    assert rank(FpSparseMatrix.from_columns(n, got), p) == len(got)
    assert rank(FpSparseMatrix.from_columns(n, want + got), p) == len(want)
    return got


def test_two_term_kernel_examples():
    # x0 = 2 x1 and x1 = x2 over F_5: one component, 1 at its root x2
    assert two_term_kernel(3, [(0, 1, 1, 2), (1, 1, 2, 1)], 5) == [{0: 2, 1: 1, 2: 1}]
    # a one-entry row forces its component to 0; the untouched x3 stays free
    assert two_term_kernel(4, [(0, 1, 1, 1), (1, 1, 2, 1), (2, 3, 0, 0)], 5) == [{3: 1}]
    # a zero row changes nothing
    assert two_term_kernel(2, [(0, 5, 1, 0)], 5) == [{0: 1}, {1: 1}]
    # x0 = x1, x1 = x2, x2 = 2 x0: the gains around the cycle multiply to 2
    assert two_term_kernel(3, [(0, 1, 1, 1), (1, 1, 2, 1), (2, 1, 0, 2)], 5) == []
    # the same cycle with gains multiplying to 1 is consistent
    assert two_term_kernel(3, [(0, 1, 1, 1), (1, 1, 2, 2), (2, 1, 0, 3)], 5) == [{0: 2, 1: 2, 2: 1}]
    # a forced component stays forced after merging: the x1 = 0 row comes first
    assert two_term_kernel(3, [(1, 1, 1, 2), (0, 1, 1, 1), (0, 1, 2, 1)], 5) == []
    assert two_term_kernel(0, [], 3) == []


@st.composite
def two_term_systems(draw):
    """Relations u x_i = v x_j over a small prime, with one-entry and zero
    rows, i = j, repeated relations and cycles whose gains may disagree."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 15))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    relations = []
    if n:
        for _ in range(draw(st.integers(0, 25))):
            shape = rnd.choice(["two", "two", "one", "zero", "cycle", "repeat"])
            i, j = rnd.randrange(n), rnd.randrange(n)
            u, v = rnd.randrange(1, 3 * p), rnd.randrange(1, 3 * p)  # multiples of p are zeros
            if shape == "one":
                relations.append((i, u, j, 0) if rnd.random() < 0.5 else (i, 0, j, v))
            elif shape == "zero":
                relations.append((i, 0, j, p * rnd.randrange(3)))
            elif shape == "repeat" and relations:
                relations.append(rnd.choice(relations))
            elif shape == "cycle":
                nodes = [rnd.randrange(n) for _ in range(rnd.randrange(2, 5))]
                for a, b in zip(nodes, nodes[1:] + nodes[:1]):
                    relations.append((a, rnd.randrange(1, p), b, rnd.randrange(1, p)))
            else:
                relations.append((i, u, j, v))
    return n, relations, p


@settings(max_examples=400, deadline=None)
@given(two_term_systems())
def test_two_term_kernel_matches_kernel_basis(case):
    n, relations, p = case
    got = assert_same_kernel(n, relations, p)
    # one vector per free component: 1 at its root, nonzero on the component,
    # and no two components share a node
    seen = set()
    for vec in got:
        assert 1 in vec.values() and all(vec.values())
        assert not seen & vec.keys()
        seen |= vec.keys()
