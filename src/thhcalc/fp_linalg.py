"""Exact linear algebra over prime fields F_p.

Matrices are sparse maps ``(row, col) -> value`` together with an explicit
shape.  Every elimination follows a fixed, documented pivot order, so ranks,
kernel bases and solution vectors are reproducible run to run -- the CLI's
byte-identical report guarantee bottoms out here.

All elimination runs through one step, `_pivot`: normalize the pivot row,
clear its column from every other row, and keep the column index in step.
Two pivot rules drive it, on matrices of every size:

* `rank` takes the column with the fewest entries and, in it, the row with
  the fewest entries, which keeps fill-in low;
* `_rref`, behind kernels and solves, scans columns left to right and
  pivots on the smallest available row index.

Both rules give the same rank; the fewest-entries rule is never used for
kernels or solutions, whose coordinate vectors are part of the public
contract.  `add_to` is the package's one "add mod p, drop the key on zero"
step for sparse accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

Vector = Tuple[int, ...]


class ContractViolation(Exception):
    """A chain complex broke its contract.

    Raised when d o d is nonzero, when a differential leaves its target
    bidegree, or when a homology dimension comes out negative.
    """


def add_to(acc: Dict, key, value: int, p: int) -> None:
    """acc[key] += value mod p, dropping the key when the sum is zero."""
    v = (acc.get(key, 0) + value) % p
    if v:
        acc[key] = v
    elif key in acc:
        del acc[key]


# ---------------------------------------------------------------------------
# matrix container
# ---------------------------------------------------------------------------


@dataclass
class FpSparseMatrix:
    """A rows x cols matrix over F_p stored as a {(row, col): value} map.

    Values are arbitrary ints; operations reduce mod p on entry.  The matrix
    acts on column vectors: it represents a linear map F_p^cols -> F_p^rows.
    """

    rows: int
    cols: int
    entries: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @staticmethod
    def from_dense(data: Sequence[Sequence[int]]) -> "FpSparseMatrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        entries: Dict[Tuple[int, int], int] = {}
        for r, row in enumerate(data):
            if len(row) != ncols:
                raise ValueError("ragged dense matrix data")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        return FpSparseMatrix(nrows, ncols, entries)

    @staticmethod
    def from_columns(rows: int, columns: Sequence[Dict[int, int]]) -> "FpSparseMatrix":
        """Assemble a matrix from per-column {row: value} maps."""
        entries: Dict[Tuple[int, int], int] = {}
        for c, col in enumerate(columns):
            for r, v in col.items():
                if not 0 <= r < rows:
                    raise ValueError("row index out of range")
                if v:
                    entries[(r, c)] = v
        return FpSparseMatrix(rows, len(columns), entries)

    def to_dense(self) -> List[List[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def mul_vec(self, vec: Sequence[int], p: int) -> Vector:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [0] * self.rows
        for (r, c), v in self.entries.items():
            out[r] += v * vec[c]
        return tuple(x % p for x in out)

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
    """Reduced row echelon form in natural pivot order.

    Columns are scanned in increasing order; the pivot for a column is the
    smallest-index active row touching it.  Returns (pivot column, row map)
    pairs in increasing pivot-column order, with each pivot normalized to 1
    and eliminated from every other returned row.  Consumes the input rows.
    """
    col_index = _column_index(rows)
    pivots: List[Tuple[int, Dict[int, int]]] = []
    for c in range(cols):
        touching = col_index.get(c)
        if touching:
            pivots.append((c, _pivot(rows, col_index, min(touching), c, p)))

    # clear pivot columns from the pivot rows above them
    for i in range(len(pivots) - 1, -1, -1):
        c, piv = pivots[i]
        for _, rowj in pivots[:i]:
            f = rowj.get(c)
            if f:
                for cc, vv in piv.items():
                    add_to(rowj, cc, -f * vv, p)
    return pivots


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def rank(m: FpSparseMatrix, p: int) -> int:
    """Rank of m over F_p, pivoting on the sparsest column and row first."""
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


def kernel_basis(m: FpSparseMatrix, p: int) -> List[Vector]:
    """Deterministic basis of ker(m) over F_p.

    One vector per free column, in increasing free-column order; the free
    coordinate is set to 1 and pivot coordinates are read off the reduced
    echelon form.
    """
    pivots = _rref(_sparse_rows(m, p), m.cols, p)
    pivot_cols = {c for c, _ in pivots}
    basis: List[Vector] = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        v = [0] * m.cols
        v[free] = 1
        for c, row in pivots:
            coeff = row.get(free)
            if coeff:
                v[c] = (-coeff) % p
        basis.append(tuple(v))
    return basis


def solve_membership(m: FpSparseMatrix, b: Sequence[int], p: int) -> Optional[Vector]:
    """A solution x of m x = b over F_p, or None when b is not in the image.

    The returned solution sets every free variable to zero, making it the
    unique echelon-form representative.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    rows = _sparse_rows(m, p)
    sentinel = m.cols
    for r, val in enumerate(b):
        vv = val % p
        if vv:
            rows[r][sentinel] = vv
    pivots = _rref(rows, m.cols + 1, p)
    x = [0] * m.cols
    for c, row in pivots:
        if c == sentinel:
            return None
        x[c] = row.get(sentinel, 0)
    return tuple(x)
