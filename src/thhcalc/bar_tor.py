"""Tor of a graded algebra over F_p, from a minimal free resolution.

For an augmented graded-commutative algebra A presented by an
:class:`~thhcalc.graded_hopf.AlgebraSpec`, with p the spec's prime,
dim Tor^A_{s,t}(F_p, F_p) is the number of generators in bidegree (s, t)
of a minimal free A-resolution

    ... -> F_2 -> F_1 -> F_0 = A -> F_p.

`_resolve` builds that resolution one internal degree t at a time, as in
Bruner, "Calculation of large Ext modules" (1993).  F_s in degree t has basis
the pairs (generator g, basis monomial m) with |g| + |m| = t, and the
differential is A-linear, d(m g) = m d(g).  The generators new in (s, t) are
cycles of d_{s-1} in degree t that extend the span of d_s applied to the
older generators of F_s; their images lie in the augmentation ideal times
F_{s-1}, which makes the resolution minimal.  Each step takes one echelon
form, of the images of d_s followed by a basis of the cycles: the cycle
columns that are pivots are the new generators, and the kernel vectors on
the image columns alone are a basis of ker d_s, the next step's cycles.
A step where F_s and F_{s-1} are both zero in degree t has nothing to
eliminate, and is skipped before any index or matrix is built.
Internal degree t only uses A in degrees up to t: every routine here takes Tor
through the spec's `degree_bound`, exactly, at a cost polynomial in t.

Two exact bounds keep `_resolve` off cells that provably hold nothing.  Let
g be the gcd and c the least of the generator degrees up to the bound.

* Degree gcd: A, and every F_s, is zero in degrees not divisible by g, so
  t steps over multiples of g.  Proof: A's monomials have degrees that are
  sums of generator degrees (a generator above the bound reaches no degree
  up to it), and each generator of F_s sits in a degree where F_{s-1} is
  nonzero, a multiple of g by induction.
* Vanishing line: every generator of F_s has degree at least s c, so s
  stops at t // c.  Proof: A is zero in degrees 0 < i < c, and a minimal
  resolution maps each generator of F_s into the augmentation ideal times
  F_{s-1}, which starts in degree c + (s - 1) c by induction.

`tor_dims` and `verify_tor_iso` do not resolve the whole algebra.  Every
spec is a tensor product of one-generator algebras, and over a field
Tor^{A (x) B} = Tor^A (x) Tor^B as bigraded spaces (Cartan-Eilenberg,
ch. XI).  So `_kunneth` resolves each generator of degree up to the bound as
a one-generator spec, once for each (degree, kind), and convolves the
tables, adding homological and internal degrees.  A one-generator
resolution is a few small eliminations per degree, so the ladder
certificate reaches caps of several hundred, where the whole algebra's
grows past reach near cap 200.  The resolution of the whole algebra
remains the test oracle.

`BarComplex` is the reduced bar complex: in homological degree s and
internal degree t its basis is the s-tuples of positive-degree basis
monomials whose degrees sum to t, and the differential merges adjacent
factors with alternating signs,

    d[m_1 | ... | m_s] = sum_{i=1..s-1} (-1)^i [m_1 | ... | m_i m_{i+1} | ... | m_s],

the outer face maps vanishing because the augmentation kills positive
degrees.  Its homology is the same Tor, but degree t holds a number of tuples
that grows like the compositions of t; it is kept as the independent
reference that the tests compare the resolution and the factor route with.

`verify_tor_iso` compares the total-degree dimensions of Tor^A against the
Poincare series of a proposed answer algebra over the same prime, and
reports the first mismatch.  The check still sets two independent routes
against each other: the factors' resolutions, and the answer's generators,
which for the word-algebra ladder come from the next rung's word
enumeration.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import Callable, Dict, List, Optional, Tuple

from . import graded_hopf as gh
from . import fp_linalg
from .fp_linalg import ContractViolation, FpSparseMatrix, add_to

BarTuple = Tuple[gh.Monomial, ...]


class BarComplex:
    """Lazily-built reduced bar complex of an algebra, through its degree bound."""

    def __init__(self, spec: gh.AlgebraSpec):
        self.spec = spec
        self._reduced: Dict[int, List[gh.Monomial]] = {}
        self._bases: Dict[Tuple[int, int], List[BarTuple]] = {}
        self._index: Dict[Tuple[int, int], Dict[BarTuple, int]] = {}
        self._diffs: Dict[Tuple[int, int], FpSparseMatrix] = {}
        self._ranks: Dict[Tuple[int, int], int] = {}
        self._square_checked: set = set()

    # -- bases --------------------------------------------------------------

    def reduced_basis(self, t: int) -> List[gh.Monomial]:
        """Basis monomials of positive internal degree t."""
        if t < 1 or t > self.spec.degree_bound:
            return []
        if t not in self._reduced:
            self._reduced[t] = gh.basis(self.spec, t)
        return self._reduced[t]

    def basis(self, s: int, t: int) -> List[BarTuple]:
        if (s, t) in self._bases:
            return self._bases[(s, t)]
        out: List[BarTuple] = []
        if s == 0:
            if t == 0:
                out.append(())
        elif s <= t <= self.spec.degree_bound:
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
        p = self.spec.p
        entries: Dict[Tuple[int, int], int] = {}
        for j, word in enumerate(source):
            for i in range(s - 1):
                merged = gh.mul_monomials(self.spec, word[i], word[i + 1])
                if merged is None:
                    continue
                coeff, mon = merged
                tgt = word[:i] + (mon,) + word[i + 2 :]
                r = index[tgt]
                add_to(entries, (r, j), -coeff if (i + 1) % 2 else coeff, p)
        mat = FpSparseMatrix(len(target), len(source), entries)
        self._diffs[(s, t)] = mat
        return mat

    def rank(self, s: int, t: int) -> int:
        if (s, t) not in self._ranks:
            self._ranks[(s, t)] = fp_linalg.rank(self.differential(s, t), self.spec.p)
        return self._ranks[(s, t)]

    def square_is_zero(self, s: int, t: int) -> bool:
        """Whether d_{s-1,t} after d_{s,t} vanishes (cached)."""
        if s < 2:
            return True
        if (s, t) in self._square_checked:
            return True
        composed = self.differential(s - 1, t).compose(self.differential(s, t), self.spec.p)
        if not composed.is_zero(self.spec.p):
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
# the minimal resolution
# ---------------------------------------------------------------------------

# an element of F_s: {(generator index, monomial): coefficient}
FreeElement = Dict[Tuple[int, gh.Monomial], int]


def _resolve(spec: gh.AlgebraSpec, top: Callable[[int], int]) -> List[List[Tuple[int, FreeElement]]]:
    """Generators of a minimal resolution of F_p, for s <= top(t), t <= the degree bound.

    Entry s lists the (degree, image in F_{s-1}) of each generator of F_s,
    in order.  Generators in (s, t) need F_{s-1} and F_{s-2} in degree t and
    F_s below degree t, so any range that is closed under those steps gives
    exact counts.  Each new generator's image is checked to be a cycle.
    Cells off the degree gcd or above the vanishing line are never visited,
    so a level that could only stay empty is not opened.
    """
    p, bound = spec.p, spec.degree_bound
    gens: List[List[Tuple[int, FreeElement]]] = [[(0, {})]]
    degrees = [g.degree for g in spec.generators if g.degree <= bound]
    if not degrees:
        return gens
    # A and every F_s live in degrees divisible by step, and F_s starts in
    # degree s * least: the two bounds of the module docstring
    step, least = gcd(*degrees), min(degrees)
    bases = {t: gh.basis(spec, t) for t in range(0, bound + 1, step)}
    for t in range(step, bound + 1, step):
        # below: the basis pairs of F_{s-1} in degree t; below_images: d_{s-1}
        # of each; cycles: a basis of ker d_{s-1}.  F_0 = A, and the
        # augmentation kills all of it in positive degree.
        below = [(0, m) for m in bases[t]]
        below_images: List[Dict[int, int]] = [{} for _ in below]
        cycles: List[Dict[int, int]] = [{i: 1} for i in range(len(below))]
        for s in range(1, min(top(t), t // least) + 1):
            if len(gens) == s:
                gens.append([])
            pairs = [(g, m) for g, (deg, _) in enumerate(gens[s]) if deg < t for m in bases[t - deg]]
            if not pairs and not below:
                # F_s and F_{s-1} are zero in degree t: nothing here to eliminate
                cycles, below_images = [], []
                continue
            index = {pair: i for i, pair in enumerate(below)}
            images: List[Dict[int, int]] = []
            for g, m in pairs:
                image: Dict[int, int] = {}
                for (h, m2), c in gens[s][g][1].items():
                    product = gh.mul_monomials(spec, m, m2)
                    if product is not None:
                        add_to(image, index[(h, product[1])], c * product[0], p)
                images.append(image)
            # one echelon form of [images | cycles] gives both results.  A kernel
            # vector's last key is its free column, which lies in the span of the
            # columns before it: the cycles that are no vector's last key extend the
            # span of the images, and the vectors ending on an image column span
            # ker d_s, which lies on the old pairs as the new images are independent
            kernel: List[Dict[int, int]] = []
            if images or cycles:
                kernel = fp_linalg.kernel_basis(FpSparseMatrix.from_columns(len(below), images + cycles), p)
            free = {next(reversed(vec)) for vec in kernel}
            new = [z for i, z in enumerate(cycles, len(images)) if i not in free]
            for z in new:
                boundary: Dict[int, int] = {}
                for j, v in z.items():
                    for r, w in below_images[j].items():
                        add_to(boundary, r, v * w, p)
                if boundary:
                    raise ContractViolation(f"resolution generator image is not a cycle at {(s, t)}")
                gens[s].append((t, {below[j]: v for j, v in z.items()}))
            cycles = [vec for vec in kernel if next(reversed(vec)) < len(images)]
            below = pairs + [(g, gh.ONE) for g in range(len(gens[s]) - len(new), len(gens[s]))]
            below_images = images + new
    return gens


def _dims(gens: List[List[Tuple[int, FreeElement]]]) -> Dict[Tuple[int, int], int]:
    """Generator counts by bidegree (s, t): the nonzero dims of Tor_{s,t}."""
    return dict(Counter((s, t) for s, level in enumerate(gens) for t, _ in level))


# ---------------------------------------------------------------------------
# Tor tables and isomorphism checks
# ---------------------------------------------------------------------------


def _kunneth(spec: gh.AlgebraSpec, top: Callable[[int], int]) -> Dict[Tuple[int, int], int]:
    """Nonzero dims of Tor_{s,t} for t <= the degree bound and s <= top(t), one generator at a time.

    Each generator of degree <= the bound is resolved alone, as a
    one-generator spec at the spec's degree bound and prime, once for each
    (degree, kind); the tables are then convolved, adding s and t, keeping
    only the range.  Both ranges in use, s <= t and s + t <= bound, hold at
    every factor cell that feeds a kept cell (Tor_{s,t} = 0 for s > t), so
    each factor is resolved over the same range.
    """
    bound = spec.degree_bound
    tops = [top(t) for t in range(bound + 1)]
    factors: Dict[Tuple[int, str], Dict[Tuple[int, int], int]] = {}
    table = {(0, 0): 1}
    for g in spec.generators:
        if g.degree > bound:
            continue
        key = (g.degree, g.kind)
        if key not in factors:
            factors[key] = _dims(_resolve(gh.AlgebraSpec((g,), bound, spec.p), top))
        product: Dict[Tuple[int, int], int] = {}
        for (s1, t1), d1 in table.items():
            for (s2, t2), d2 in factors[key].items():
                t = t1 + t2
                if t <= bound and s1 + s2 <= tops[t]:
                    product[(s1 + s2, t)] = product.get((s1 + s2, t), 0) + d1 * d2
        table = product
    return table


def tor_dims(spec: gh.AlgebraSpec) -> Dict[Tuple[int, int], int]:
    """Nonzero dims of Tor_{s,t}(F_p, F_p) for internal degree t <= the spec's degree bound.

    Homological degree runs to t, since a minimal resolution's generators
    in homological degree s have internal degree at least s.
    """
    return _kunneth(spec, lambda t: t)


def verify_tor_iso(source: gh.AlgebraSpec, answer: gh.AlgebraSpec) -> Dict[str, object]:
    """Compare total-degree dims of Tor over `source` with `answer`'s series.

    Tor is graded by s + t; the check runs every total degree up to the
    degree bound and reports the first mismatch, if any.  Tor is computed
    only where s + t stays within the bound.  Both specs must carry the
    same prime and the same degree bound.
    """
    if source.p != answer.p:
        raise ValueError(f"source and answer specs differ in prime: {source.p} and {answer.p}")
    bound = source.degree_bound
    if answer.degree_bound != bound:
        raise ValueError(f"source and answer specs differ in degree bound: {bound} and {answer.degree_bound}")
    dims = _kunneth(source, lambda t: min(t, bound - t))
    expected = gh.poincare_series(answer, bound)
    got = [0] * (bound + 1)
    for (s, t), dim in dims.items():
        got[s + t] += dim
    first_mismatch: Optional[Dict[str, int]] = None
    for m in range(bound + 1):
        if got[m] != expected[m]:
            first_mismatch = {"total_degree": m, "got": got[m], "expected": expected[m]}
            break
    return {
        "got": got,
        "expected": expected,
        "first_mismatch": first_mismatch,
        "passed": first_mismatch is None,
    }
