"""Exact F_p linear algebra: frozen examples and randomized invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhcalc.fp_linalg import FpSparseMatrix, add_to, kernel_basis, rank, solve_membership


def scale(vec, c, p):
    return tuple((c * x) % p for x in vec)


def transpose(m):
    return FpSparseMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_rank_identity_3x3_mod_5():
    m = FpSparseMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(m, 5) == 3
    assert kernel_basis(m, 5) == []


def test_rank_one_matrix_mod_5():
    m = FpSparseMatrix.from_dense([[1, 2], [2, 4]])
    assert rank(m, 5) == 1
    basis = kernel_basis(m, 5)
    assert len(basis) == 1
    # the kernel is the line spanned by (3, 1)
    assert basis[0] in {scale((3, 1), c, 5) for c in range(1, 5)}
    assert m.mul_vec(basis[0], 5) == (0, 0)


def test_kernel_of_row_vector_mod_3():
    m = FpSparseMatrix.from_dense([[1, 1]])
    basis = kernel_basis(m, 3)
    assert len(basis) == 1
    # the kernel is the line spanned by (1, 2)
    assert basis[0] in {scale((1, 2), c, 3) for c in range(1, 3)}


def test_solve_membership_column_mod_5():
    m = FpSparseMatrix.from_dense([[1], [2]])
    assert solve_membership(m, (2, 4), 5) == (2,)
    # inconsistent right-hand side: rank jumps by one on augmenting
    assert solve_membership(m, (2, 3), 5) is None
    aug = FpSparseMatrix.from_dense([[1, 2], [2, 3]])
    assert rank(aug, 5) == rank(m, 5) + 1


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
            assert m.mul_vec(v, p) == zero


@pytest.mark.parametrize("p", [3, 5])
def test_solve_round_trip(p):
    rng = random.Random(2000 + p)
    for _ in range(100):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8), p)
        x = tuple(rng.randrange(p) for _ in range(m.cols))
        b = m.mul_vec(x, p)
        x2 = solve_membership(m, b, p)
        assert x2 is not None
        assert m.mul_vec(x2, p) == b


@pytest.mark.parametrize("p", [3, 5])
def test_no_solution_certified_by_rank_jump(p):
    rng = random.Random(3000 + p)
    checked = 0
    while checked < 50:
        m = random_matrix(rng, rng.randrange(2, 8), rng.randrange(1, 6), p)
        b = tuple(rng.randrange(p) for _ in range(m.rows))
        if solve_membership(m, b, p) is not None:
            continue
        cols = [dict() for _ in range(m.cols + 1)]
        for (r, c), v in m.entries.items():
            cols[c][r] = v
        cols[m.cols] = {r: v for r, v in enumerate(b) if v}
        aug = FpSparseMatrix.from_columns(m.rows, cols)
        assert rank(aug, p) == rank(m, p) + 1
        checked += 1


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
    m = FpSparseMatrix.from_dense(data)
    basis = kernel_basis(m, p)
    assert rank(m, p) + len(basis) == cols
    for v in basis:
        assert all(x == 0 for x in m.mul_vec(v, p))


def test_compose_and_transpose_shapes():
    a = FpSparseMatrix.from_dense([[1, 2, 0], [0, 1, 1]])
    b = FpSparseMatrix.from_dense([[1, 0], [2, 1], [0, 3]])
    ab = a.compose(b, 5)
    assert (ab.rows, ab.cols) == (2, 2)
    assert ab.to_dense() == [[0, 2], [2, 4]]
    at = transpose(a)
    assert (at.rows, at.cols) == (3, 2)
    assert rank(a, 5) == rank(at, 5)
