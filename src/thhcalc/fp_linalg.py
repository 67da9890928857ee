"""Exact linear algebra over prime fields F_p.

Matrices are sparse maps ``(row, col) -> value`` together with an explicit
shape.  Every elimination follows a fixed, documented pivot order, so ranks,
kernel bases and solution vectors are reproducible run to run -- the CLI's
byte-identical report guarantee bottoms out here.

All elimination runs through one step, `_pivot`: normalize the pivot row,
clear its column from every other row, and keep the column index in step.
One pivot rule drives it: scan the columns left to right and pivot on the
smallest active row index.  `_rref` reduces in one Gauss-Jordan pass, and
that pass serves ranks, kernels and solves alike: each normalized pivot row
stays in the column index, so every later pivot clears its column from the
earlier pivot rows as it is taken, touching only the rows that hold that
column, and no back-substitution follows.

The coordinate vectors of kernels and solutions are part of the public
contract.  `kernel_basis` returns one sparse {column: value} dict per free
column, keys increasing, ending at that free column with value 1; every
other key is a pivot column to its left.  So column j is free exactly when
it lies in the span of the columns before it, and the vectors whose free
column is below k span the kernel of the first k columns alone.  A solve is
the same contract read once more: append b as the last column; m x = b has
a solution exactly when some vector ends on that column, and that vector
is (-x, 1) for the solution x whose free variables are all 0.  `add_to`
is the package's one "add mod p, drop the key on zero" step for sparse
accumulators, and `is_prime` its one primality test, read by
`AlgebraSpec` and by the CLI's `--p`.

`two_term_kernel` is not an elimination rule.  A system whose every
relation reads u x_i = v x_j needs none: it is a graph whose edges carry
gains in F_p^x, and a union-find with a gain on each parent link finds its
kernel in near-linear time.  The relation modules of `multifold` are such
systems; `kernel_basis` on the same relations is its test oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Dict, Iterable, List, Set, Tuple


class ContractViolation(Exception):
    """A chain complex broke its contract.

    Raised when d o d is nonzero, when a differential leaves its target
    bidegree, when a homology dimension comes out negative, or when a
    resolution generator's image is not a cycle.
    """


def add_to(acc: Dict, key, value: int, p: int) -> None:
    """acc[key] += value mod p, dropping the key when the sum is zero."""
    v = (acc.get(key, 0) + value) % p
    if v:
        acc[key] = v
    elif key in acc:
        del acc[key]


MAX_PRIME = 2**31 - 1  # the largest prime a spec or `--p` takes; is_prime there costs ms


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division by 2 and the odd numbers to sqrt(n).

    The cost grows like sqrt(n), which is why `AlgebraSpec` and the CLI's
    `--p` refuse a p above `MAX_PRIME` before calling it.
    """
    if n < 4:
        return n >= 2
    return n % 2 != 0 and all(n % q for q in range(3, isqrt(n) + 1, 2))


# ---------------------------------------------------------------------------
# matrix container
# ---------------------------------------------------------------------------


class FpSparseMatrix:
    """A rows x cols matrix over F_p stored as a {(row, col): value} map.

    Values are arbitrary ints; operations reduce mod p on entry.  The matrix
    acts on column vectors: it represents a linear map F_p^cols -> F_p^rows.
    """

    def __init__(self, rows: int, cols: int, entries: Dict[Tuple[int, int], int]) -> None:
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_columns(rows: int, columns: Iterable[Dict[int, int]]) -> "FpSparseMatrix":
        """Assemble a matrix from per-column {row: value} maps.

        The columns are read once, in order, so a generator can hand them
        over one at a time without holding them all.
        """
        entries: Dict[Tuple[int, int], int] = {}
        cols = 0
        for col in columns:
            for r, v in col.items():
                if not 0 <= r < rows:
                    raise ValueError("row index out of range")
                if v:
                    entries[(r, cols)] = v
            cols += 1
        return FpSparseMatrix(rows, cols, entries)

    def compose(self, inner: "FpSparseMatrix", p: int) -> "FpSparseMatrix":
        """Matrix product self @ inner (apply inner first)."""
        if self.cols != inner.rows:
            raise ValueError("shapes do not compose")
        # group inner entries by row so each self entry is visited once per hit
        by_row: Dict[int, List[Tuple[int, int]]] = {}
        for (r, c), v in inner.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: Dict[Tuple[int, int], int] = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + v * w
        entries = {k: v % p for k, v in acc.items() if v % p}
        return FpSparseMatrix(self.rows, inner.cols, entries)

    def is_zero(self, p: int) -> bool:
        return all(v % p == 0 for v in self.entries.values())


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _sparse_rows(m: FpSparseMatrix, p: int) -> List[Dict[int, int]]:
    rows: List[Dict[int, int]] = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        vv = v % p
        if vv:
            rows[r][c] = vv
    return rows


def _column_index(rows: List[Dict[int, int]]) -> Dict[int, Set[int]]:
    col_index: Dict[int, Set[int]] = {}
    for rid, row in enumerate(rows):
        for c in row:
            col_index.setdefault(c, set()).add(rid)
    return col_index


def _pivot(
    rows: List[Dict[int, int]], col_index: Dict[int, Set[int]], rid: int, c: int, p: int
) -> Dict[int, int]:
    """Pivot on entry (rid, c) and return the normalized pivot row.

    The pivot row leaves the column index, column c is cleared from every
    other row, and the index follows each entry this creates or cancels;
    column c, left with no rows, is dropped from it.
    """
    piv = rows[rid]
    for cc in piv:
        col_index[cc].discard(rid)
    inv = pow(piv[c], -1, p)
    piv = {cc: (vv * inv) % p for cc, vv in piv.items()}
    for other_id in list(col_index[c]):
        other = rows[other_id]
        f = other[c]
        # not add_to: the column index must see each entry created or cancelled
        for cc, vv in piv.items():
            nv = (other.get(cc, 0) - f * vv) % p
            if nv:
                if cc not in other:
                    col_index.setdefault(cc, set()).add(other_id)
                other[cc] = nv
            elif cc in other:
                del other[cc]
                col_index[cc].discard(other_id)
    del col_index[c]
    return piv


def _rref(rows: List[Dict[int, int]], cols: int, p: int) -> List[Tuple[int, Dict[int, int]]]:
    """Reduced row echelon form in natural pivot order, in one Gauss-Jordan pass.

    Columns are scanned in increasing order; the pivot for a column is the
    smallest-index active row touching it.  Each normalized pivot row goes
    back into the column index under a fresh id past the input rows, so
    later pivots clear it too and `min` still finds an active row first.
    Returns (pivot column, row map) pairs in increasing pivot-column order,
    with each pivot normalized to 1 and eliminated from every other returned
    row.  Consumes the input rows.
    """
    col_index = _column_index(rows)
    n = len(rows)
    pivots: List[Tuple[int, Dict[int, int]]] = []
    for c in range(cols):
        # a column that only pivot rows hold is free
        rid = min(col_index.get(c, ()), default=n)
        if rid < n:
            piv = _pivot(rows, col_index, rid, c, p)
            for cc in piv:
                if cc != c:
                    col_index[cc].add(len(rows))
            rows.append(piv)
            pivots.append((c, piv))
    return pivots


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def rank(m: FpSparseMatrix, p: int) -> int:
    """Rank of m over F_p: the number of pivots in `_rref`'s one pass."""
    return len(_rref(_sparse_rows(m, p), m.cols, p))


def kernel_basis(m: FpSparseMatrix, p: int) -> List[Dict[int, int]]:
    """Deterministic sparse basis of ker(m) over F_p.

    One {column: value} vector per free column, in increasing free-column
    order.  Its keys increase: the pivot coordinates, read off the reduced
    echelon form, then the free column itself with value 1.
    """
    pivots = _rref(_sparse_rows(m, p), m.cols, p)
    pivot_cols = {c for c, _ in pivots}
    vectors: Dict[int, Dict[int, int]] = {free: {} for free in range(m.cols) if free not in pivot_cols}
    # a reduced pivot row holds its own pivot and later free columns only, so
    # each entry other than the pivot lands in one free column's vector, and
    # scattering the rows in pivot order keeps every vector's keys increasing
    for c, row in pivots:
        for cc, coeff in row.items():
            if cc != c:
                vectors[cc][c] = (-coeff) % p
    for free, vec in vectors.items():
        vec[free] = 1
    return list(vectors.values())


def two_term_kernel(
    n: int, relations: Iterable[Tuple[int, int, int, int]], p: int
) -> List[Dict[int, int]]:
    """Sparse basis of the solutions x in F_p^n of the relations a x_i = b x_j.

    Each relation (i, a, j, b) has at most two nonzero entries, so no
    elimination is needed: a union-find keeps on every parent link a gain g
    in F_p^x with x_child = g x_parent, halving paths as it finds roots.  A
    relation with one nonzero coefficient forces its component to 0, and so
    does a cycle whose gains disagree; merging with a forced component
    forces the result.  Each free component gives one sparse vector, 1 at
    its root and the gain product at every other node, in order of each
    component's smallest node.
    """
    parent = list(range(n))
    gain = [1] * n
    dead = [False] * n  # read at roots only

    def find(v: int) -> Tuple[int, int]:
        """(root, g) with x_v = g x_root."""
        g = 1
        while parent[v] != v:
            up = parent[v]
            if parent[up] != up:
                # path halving: hang v on its grandparent
                gain[v] = gain[v] * gain[up] % p
                parent[v] = parent[up]
            g = g * gain[v] % p
            v = parent[v]
        return v, g

    for i, a, j, b in relations:
        a %= p
        b %= p
        if not a:
            if b:
                dead[find(j)[0]] = True
            continue
        if not b:
            dead[find(i)[0]] = True
            continue
        ri, gi = find(i)
        rj, gj = find(j)
        # a gi x_ri = b gj x_rj
        if ri == rj:
            if (a * gi - b * gj) % p:
                dead[ri] = True
        else:
            parent[ri] = rj
            gain[ri] = b * gj * pow(a * gi, -1, p) % p
            dead[rj] = dead[rj] or dead[ri]

    vectors: Dict[int, Dict[int, int]] = {}
    for v in range(n):
        root, g = find(v)
        if not dead[root]:
            vectors.setdefault(root, {})[v] = g
    return list(vectors.values())

