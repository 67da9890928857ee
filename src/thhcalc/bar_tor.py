"""Reduced bar complex and Tor of a graded algebra over F_p.

For an augmented graded-commutative algebra A presented by an
:class:`~thhcalc.graded_hopf.AlgebraSpec`, the reduced bar complex in
homological degree s and internal degree t has basis the s-tuples of
positive-degree basis monomials whose degrees sum to t.  The differential
merges adjacent factors with alternating signs,

    d[m_1 | ... | m_s] = sum_{i=1..s-1} (-1)^i [m_1 | ... | m_i m_{i+1} | ... | m_s],

the outer face maps vanishing because the augmentation kills positive
degrees.  Its homology computes Tor^A(F_p, F_p) as a bigraded vector space.

Products of basis monomials are single terms (possibly zero), so the
differential matrices stay sparse; merging preserves internal degree, so a
degree cap on the algebra never corrupts a capped Tor computation.

`verify_tor_iso` compares the total-degree dimensions of Tor^A against the
Poincare series of a proposed answer algebra and reports the first mismatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import graded_hopf as gh
from . import fp_linalg
from .fp_linalg import ContractViolation, FpSparseMatrix, add_to

BarTuple = Tuple[gh.Monomial, ...]


class BarComplex:
    """Lazily-built reduced bar complex of an algebra, capped in degree."""

    def __init__(self, spec: gh.AlgebraSpec, p: int, max_internal_degree: int):
        if spec.degree_bound < max_internal_degree:
            raise ValueError(
                "algebra degree bound is below the requested internal degree cap"
            )
        self.spec = spec
        self.p = p
        self.max_internal_degree = max_internal_degree
        self._reduced: Dict[int, List[gh.Monomial]] = {}
        self._bases: Dict[Tuple[int, int], List[BarTuple]] = {}
        self._index: Dict[Tuple[int, int], Dict[BarTuple, int]] = {}
        self._diffs: Dict[Tuple[int, int], FpSparseMatrix] = {}
        self._ranks: Dict[Tuple[int, int], int] = {}
        self._square_checked: set = set()

    # -- bases --------------------------------------------------------------

    def reduced_basis(self, t: int) -> List[gh.Monomial]:
        """Basis monomials of positive internal degree t."""
        if t < 1 or t > self.max_internal_degree:
            return []
        if t not in self._reduced:
            self._reduced[t] = gh.basis(self.spec, t, self.p)
        return self._reduced[t]

    def basis(self, s: int, t: int) -> List[BarTuple]:
        if (s, t) in self._bases:
            return self._bases[(s, t)]
        out: List[BarTuple] = []
        if s == 0:
            if t == 0:
                out.append(())
        elif t >= s:
            acc: List[gh.Monomial] = []

            def rec(slots: int, remaining: int) -> None:
                if slots == 1:
                    for m in self.reduced_basis(remaining):
                        out.append(tuple(acc) + (m,))
                    return
                for d in range(1, remaining - slots + 2):
                    for m in self.reduced_basis(d):
                        acc.append(m)
                        rec(slots - 1, remaining - d)
                        acc.pop()

            rec(s, t)
        self._bases[(s, t)] = out
        self._index[(s, t)] = {b: i for i, b in enumerate(out)}
        return out

    # -- differential -------------------------------------------------------

    def differential(self, s: int, t: int) -> FpSparseMatrix:
        """The matrix of d from (s, t) to (s - 1, t)."""
        if (s, t) in self._diffs:
            return self._diffs[(s, t)]
        source = self.basis(s, t)
        target = self.basis(s - 1, t) if s >= 1 else []
        index = self._index[(s - 1, t)] if s >= 1 else {}
        entries: Dict[Tuple[int, int], int] = {}
        for j, word in enumerate(source):
            for i in range(s - 1):
                merged = gh.mul_monomials(self.spec, word[i], word[i + 1], self.p)
                if merged is None:
                    continue
                coeff, mon = merged
                tgt = word[:i] + (mon,) + word[i + 2 :]
                r = index[tgt]
                add_to(entries, (r, j), -coeff if (i + 1) % 2 else coeff, self.p)
        mat = FpSparseMatrix(len(target), len(source), entries)
        self._diffs[(s, t)] = mat
        return mat

    def rank(self, s: int, t: int) -> int:
        if (s, t) not in self._ranks:
            self._ranks[(s, t)] = fp_linalg.rank(self.differential(s, t), self.p)
        return self._ranks[(s, t)]

    def square_is_zero(self, s: int, t: int) -> bool:
        """Whether d_{s-1,t} after d_{s,t} vanishes (cached)."""
        if s < 2:
            return True
        if (s, t) in self._square_checked:
            return True
        composed = self.differential(s - 1, t).compose(self.differential(s, t), self.p)
        if not composed.is_zero(self.p):
            return False
        self._square_checked.add((s, t))
        return True

    def homology_dim(self, s: int, t: int) -> int:
        """dim Tor_{s,t} as the homology of the bar complex at (s, t)."""
        n = len(self.basis(s, t))
        if n == 0:
            return 0
        if not self.square_is_zero(s + 1, t):
            raise ContractViolation(f"bar differential fails d*d = 0 at {(s + 1, t)}")
        dim = n - self.rank(s, t) - self.rank(s + 1, t)
        if dim < 0:
            raise ContractViolation(f"negative homology dimension at {(s, t)}")
        return dim


# ---------------------------------------------------------------------------
# Tor tables and isomorphism checks
# ---------------------------------------------------------------------------


def tor_dims(spec: gh.AlgebraSpec, p: int, max_degree: int) -> Dict[Tuple[int, int], int]:
    """Nonzero dims of Tor_{s,t}(F_p, F_p) for internal degree t <= max_degree.

    Homological degree runs to t since every bar factor has degree >= 1.
    """
    bar = BarComplex(spec, p, max_degree)
    table: Dict[Tuple[int, int], int] = {}
    for t in range(0, max_degree + 1):
        for s in range(0, t + 1):
            dim = bar.homology_dim(s, t)
            if dim:
                table[(s, t)] = dim
    return table


def verify_tor_iso(
    source: gh.AlgebraSpec,
    answer: gh.AlgebraSpec,
    p: int,
    max_total_degree: int,
) -> Dict[str, object]:
    """Compare total-degree dims of Tor over `source` with `answer`'s series.

    Tor is graded by s + t; the check runs every total degree up to the cap
    and reports the first mismatch, if any.  The bar complex is only ever
    materialized where s + t stays within the cap (plus one incoming column
    block per bidegree), which keeps the cost polynomial in the cap.
    """
    bar = BarComplex(source, p, max_total_degree)
    expected = gh.poincare_series(answer, max_total_degree, p)
    got: List[int] = []
    first_mismatch: Optional[Dict[str, int]] = None
    for m in range(max_total_degree + 1):
        total = 0
        for s in range(m + 1):
            total += bar.homology_dim(s, m - s)
        got.append(total)
        if total != expected[m] and first_mismatch is None:
            first_mismatch = {"total_degree": m, "got": total, "expected": expected[m]}
    return {
        "source": [g.label for g in source.generators],
        "answer": [g.label for g in answer.generators],
        "p": p,
        "max_total_degree": max_total_degree,
        "got": got,
        "expected": expected,
        "first_mismatch": first_mismatch,
        "passed": first_mismatch is None,
    }
