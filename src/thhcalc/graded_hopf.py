"""Graded-commutative Hopf algebras over F_p, presented by generators.

An algebra is a tensor product of four kinds of one-generator pieces:

* exterior  E(x), |x| odd: x^2 = 0;
* polynomial P(x), |x| even: free commutative;
* truncated  P_h(x), |x| even: x^h = 0 for a height h >= 2 (default p);
* divided power Gamma(x), |x| even: basis gamma_k(x) with
  gamma_i gamma_j = binom(i+j, i) gamma_{i+j}.

Monomials are exponent maps; for a divided-power generator the exponent k
stands for gamma_k, so the degree contribution is k*|x| uniformly across all
kinds.  Elements are monomial -> coefficient dictionaries with coefficients
in F_p, and every computation stays below an explicit degree bound: products
that overflow either raise (strict mode) or are dropped (truncating mode).

The coproduct makes each algebra a Hopf algebra: exterior, polynomial and
truncated generators are primitive, while divided powers split as
psi(gamma_k) = sum_{i+j=k} gamma_i (x) gamma_j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .fp_linalg import FpSparseMatrix, add_to, kernel_basis, rank

EXTERIOR = "exterior"
POLYNOMIAL = "polynomial"
TRUNCATED = "truncated"
DIVIDED = "divided_power"

_KINDS = (EXTERIOR, POLYNOMIAL, TRUNCATED, DIVIDED)

STRICT = "strict"
TRUNCATING = "truncating"

# a monomial is a sorted tuple of (generator index, exponent>0) pairs
Monomial = Tuple[Tuple[int, int], ...]
Element = Dict[Monomial, int]
TensorSquare = Dict[Tuple[Monomial, Monomial], int]

ONE: Monomial = ()


class DegreeOverflow(Exception):
    """A product left the degree window of a strict-mode algebra."""


class DualizeError(Exception):
    """The algebra has a generator kind with no implemented graded dual."""


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator: label, degree, kind, and height for truncated kind.

    height=None on a truncated generator means "use p", resolved when an
    operation receives the prime.
    """

    label: str
    degree: int
    kind: str
    height: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.degree <= 0:
            raise ValueError("generator degree must be positive")
        if self.kind == EXTERIOR and self.degree % 2 == 0:
            raise ValueError("exterior generators must have odd degree")
        if self.kind != EXTERIOR and self.degree % 2 == 1:
            raise ValueError(f"{self.kind} generators must have even degree")
        if self.kind == TRUNCATED:
            if self.height is not None and self.height < 2:
                raise ValueError("truncation height must be at least 2")
        elif self.height is not None:
            raise ValueError("height is only meaningful for truncated generators")


def exterior(label: str, degree: int) -> GeneratorSpec:
    return GeneratorSpec(label, degree, EXTERIOR)


def polynomial(label: str, degree: int) -> GeneratorSpec:
    return GeneratorSpec(label, degree, POLYNOMIAL)


def truncated(label: str, degree: int, height: Optional[int] = None) -> GeneratorSpec:
    return GeneratorSpec(label, degree, TRUNCATED, height)


def divided(label: str, degree: int) -> GeneratorSpec:
    return GeneratorSpec(label, degree, DIVIDED)


@dataclass(frozen=True)
class AlgebraSpec:
    """A generator list, a degree bound, and an overflow mode."""

    generators: Tuple[GeneratorSpec, ...]
    degree_bound: int
    mode: str = TRUNCATING

    def __post_init__(self) -> None:
        if self.mode not in (STRICT, TRUNCATING):
            raise ValueError(f"unknown overflow mode {self.mode!r}")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        labels = [g.label for g in self.generators]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be distinct")


def algebra(gens: Iterable[GeneratorSpec], degree_bound: int, mode: str = TRUNCATING) -> AlgebraSpec:
    return AlgebraSpec(tuple(gens), degree_bound, mode)


def _height(g: GeneratorSpec, p: int) -> int:
    return g.height if g.height is not None else p


# ---------------------------------------------------------------------------
# monomials and elements
# ---------------------------------------------------------------------------


def monomial(spec: AlgebraSpec, pairs: Iterable[Tuple[int, int]]) -> Monomial:
    """Canonical monomial from (generator index, exponent) pairs."""
    acc: Dict[int, int] = {}
    for i, e in pairs:
        if not 0 <= i < len(spec.generators):
            raise ValueError("generator index out of range")
        if e < 0:
            raise ValueError("negative exponent")
        if e:
            acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def monomial_degree(spec: AlgebraSpec, mon: Monomial) -> int:
    return sum(spec.generators[i].degree * e for i, e in mon)


def add(a: Element, b: Element, p: int) -> Element:
    out = dict(a)
    for m, c in b.items():
        add_to(out, m, c, p)
    return out


def scalar_mul(c: int, a: Element, p: int) -> Element:
    c %= p
    if c == 0:
        return {}
    return {m: (c * v) % p for m, v in a.items() if (c * v) % p}


def _koszul_sign(spec: AlgebraSpec, m1: Monomial, m2: Monomial) -> int:
    """Sign for sorting the concatenation m1*m2 into canonical order."""
    odd1 = [i for i, _ in m1 if spec.generators[i].degree % 2]
    odd2 = [j for j, _ in m2 if spec.generators[j].degree % 2]
    inversions = sum(1 for i in odd1 for j in odd2 if j < i)
    return -1 if inversions % 2 else 1


def mul_monomials(spec: AlgebraSpec, m1: Monomial, m2: Monomial, p: int) -> Optional[Tuple[int, Monomial]]:
    """Product of two basis monomials: a coefficient and a monomial, or None.

    None covers genuine zeros (exterior squares, truncation heights, divided
    binomials divisible by p) and degree overflow in truncating mode; strict
    mode raises DegreeOverflow instead of dropping.
    """
    coeff = _koszul_sign(spec, m1, m2) % p
    exps = dict(m1)
    for i, e2 in m2:
        g = spec.generators[i]
        e1 = exps.get(i, 0)
        e = e1 + e2
        if g.kind == EXTERIOR:
            if e > 1:
                return None
        elif g.kind == TRUNCATED:
            if e >= _height(g, p):
                return None
        elif g.kind == DIVIDED:
            coeff = coeff * comb(e, e1) % p
            if coeff == 0:
                return None
        exps[i] = e
    mon = tuple(sorted(exps.items()))
    if monomial_degree(spec, mon) > spec.degree_bound:
        if spec.mode == STRICT:
            raise DegreeOverflow(
                f"product degree {monomial_degree(spec, mon)} exceeds bound {spec.degree_bound}"
            )
        return None
    return coeff, mon


def multiply(spec: AlgebraSpec, a: Element, b: Element, p: int) -> Element:
    out: Element = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            r = mul_monomials(spec, m1, m2, p)
            if r is None:
                continue
            coeff, mon = r
            add_to(out, mon, c1 * c2 * coeff, p)
    return out


def power(spec: AlgebraSpec, a: Element, n: int, p: int) -> Element:
    out: Element = {ONE: 1}
    for _ in range(n):
        out = multiply(spec, out, a, p)
    return out


def extend_derivation(
    spec: AlgebraSpec,
    elem: Element,
    p: int,
    image: Callable[[int], Optional[Element]],
    divided_shift: int,
) -> Element:
    """Extend generator images over products by the graded Leibniz rule.

    image(gi) is the image of generator gi (empty or None for zero); it is
    called once per factor, in monomial order, so it may raise on factors it
    cannot map.  A group-like factor differentiates as d(g^e) = e g^{e-1} d(g);
    a divided-power factor as d(gamma_e(g)) = gamma_{e-s}(g) d(g) with
    s = divided_shift, and to zero when e < s.  Each term carries the Koszul
    sign of the factors to its left.
    """
    out: Element = {}
    for mon, coeff in elem.items():
        prefix_degree = 0
        for j, (gi, e) in enumerate(mon):
            g = spec.generators[gi]
            img = image(gi)
            if g.kind == DIVIDED:
                drop, factor = divided_shift, int(e >= divided_shift)
            else:
                drop, factor = 1, e % p
            if img and factor:
                head = mon[:j] + (((gi, e - drop),) if e > drop else ())
                term = multiply(spec, multiply(spec, {head: 1}, img, p), {mon[j + 1 :]: 1}, p)
                scale = -coeff * factor if prefix_degree % 2 else coeff * factor
                for m, v in term.items():
                    add_to(out, m, scale * v, p)
            prefix_degree += e * g.degree
    return out


# ---------------------------------------------------------------------------
# coproduct
# ---------------------------------------------------------------------------


def _single(i: int, e: int) -> Monomial:
    return ((i, e),) if e else ONE


def _gen_coproduct(spec: AlgebraSpec, i: int, e: int, p: int) -> TensorSquare:
    g = spec.generators[i]
    out: TensorSquare = {}
    if g.kind == DIVIDED:
        for a in range(e + 1):
            out[(_single(i, a), _single(i, e - a))] = 1
    else:
        for a in range(e + 1):
            c = comb(e, a) % p
            if c:
                out[(_single(i, a), _single(i, e - a))] = c
    return out


def tensor_multiply(spec: AlgebraSpec, t1: TensorSquare, t2: TensorSquare, p: int) -> TensorSquare:
    """Multiply in A (x) A with the Koszul sign (-1)^{|b||c|} on (a(x)b)(c(x)d)."""
    out: TensorSquare = {}
    terms2 = [(x, y, c2, monomial_degree(spec, x) % 2) for (x, y), c2 in t2.items()]
    for (a, b), c1 in t1.items():
        b_odd = monomial_degree(spec, b) % 2
        for x, y, c2, x_odd in terms2:
            left = mul_monomials(spec, a, x, p)
            if left is None:
                continue
            right = mul_monomials(spec, b, y, p)
            if right is None:
                continue
            cl, ml = left
            cr, mr = right
            sign = -1 if b_odd and x_odd else 1
            add_to(out, (ml, mr), sign * c1 * c2 * cl * cr, p)
    return out


def coproduct(spec: AlgebraSpec, a: Element, p: int) -> TensorSquare:
    out: TensorSquare = {}
    for mon, c in a.items():
        part: TensorSquare = {(ONE, ONE): 1}
        for i, e in mon:
            part = tensor_multiply(spec, part, _gen_coproduct(spec, i, e, p), p)
        for key, v in part.items():
            add_to(out, key, c * v, p)
    return out


def reduced_coproduct(spec: AlgebraSpec, a: Element, p: int) -> TensorSquare:
    """psi(a) - a(x)1 - 1(x)a, the interesting part on positive degrees."""
    out = coproduct(spec, a, p)
    for mon, c in a.items():
        for key in ((mon, ONE), (ONE, mon)):
            add_to(out, key, -c, p)
    return out


# ---------------------------------------------------------------------------
# bases and dimension series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _basis_cached(spec: AlgebraSpec, t: int, p: int) -> Tuple[Monomial, ...]:
    if t == 0:
        return (ONE,)
    if t < 0:
        return ()

    gens = spec.generators
    out: List[Monomial] = []

    def rec(idx: int, remaining: int, acc: List[Tuple[int, int]]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx == len(gens):
            return
        g = gens[idx]
        max_e = remaining // g.degree
        if g.kind == EXTERIOR:
            max_e = min(max_e, 1)
        elif g.kind == TRUNCATED:
            max_e = min(max_e, _height(g, p) - 1)
        for e in range(0, max_e + 1):
            if e:
                acc.append((idx, e))
            rec(idx + 1, remaining - e * g.degree, acc)
            if e:
                acc.pop()

    rec(0, t, [])
    return tuple(out)


def basis(spec: AlgebraSpec, t: int, p: int) -> List[Monomial]:
    """All monomials of degree exactly t, in a fixed lexicographic order."""
    return list(_basis_cached(spec, t, p))


def _gen_series(g: GeneratorSpec, limit: int, p: int) -> List[int]:
    series = [0] * (limit + 1)
    if g.kind == EXTERIOR:
        series[0] = 1
        if g.degree <= limit:
            series[g.degree] = 1
    elif g.kind == TRUNCATED:
        h = _height(g, p)
        for k in range(0, h):
            if k * g.degree > limit:
                break
            series[k * g.degree] = 1
    else:  # polynomial and divided power have identical dimension series
        k = 0
        while k * g.degree <= limit:
            series[k * g.degree] = 1
            k += 1
    return series


def compositions(total: int, parts: int, least: int = 0) -> List[Tuple[int, ...]]:
    """Ordered ways to write total as `parts` parts, each >= least (parts >= 1).

    Stars and bars: each choice of bar positions, taken in lexicographic
    order, cuts the spare stars into parts, so the parts also come out in
    lexicographic order.
    """
    if total < parts * least:
        return []
    slots = total - parts * least + parts - 1
    out: List[Tuple[int, ...]] = []
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1,) + bars + (slots,)
        out.append(tuple(hi - lo - 1 + least for lo, hi in zip(edges, edges[1:])))
    return out


def convolve(a: List[int], b: List[int]) -> List[int]:
    """Product of two dimension series, truncated to the length of a."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def poincare_series(spec: AlgebraSpec, limit: int, p: int) -> List[int]:
    """Dimensions of the graded pieces in degrees 0..limit."""
    series = [1] + [0] * limit
    for g in spec.generators:
        series = convolve(series, _gen_series(g, limit, p))
    return series


# ---------------------------------------------------------------------------
# primitives, indecomposables, duals
# ---------------------------------------------------------------------------


def primitive_basis(spec: AlgebraSpec, t: int, p: int) -> List[Element]:
    """Basis of the primitives in degree t: kernel of the reduced coproduct."""
    if t <= 0:
        return []
    cols = basis(spec, t, p)
    if not cols:
        return []
    row_index: Dict[Tuple[Monomial, Monomial], int] = {}
    for u in range(1, t):
        for m1 in basis(spec, u, p):
            for m2 in basis(spec, t - u, p):
                row_index[(m1, m2)] = len(row_index)
    columns: List[Dict[int, int]] = []
    for mon in cols:
        red = reduced_coproduct(spec, {mon: 1}, p)
        columns.append({row_index[key]: v for key, v in red.items()})
    matrix = FpSparseMatrix.from_columns(len(row_index), columns)
    out: List[Element] = []
    for vec in kernel_basis(matrix, p):
        out.append({cols[i]: v for i, v in enumerate(vec) if v})
    return out


def indecomposable_dims(spec: AlgebraSpec, limit: int, p: int) -> List[int]:
    """dim of (positive-degree part / products) in degrees 0..limit."""
    dims = poincare_series(spec, limit, p)
    out = [0] * (limit + 1)
    for t in range(1, limit + 1):
        target = {m: i for i, m in enumerate(basis(spec, t, p))}
        if not target:
            continue
        columns: List[Dict[int, int]] = []
        for u in range(1, t):
            for m1 in basis(spec, u, p):
                for m2 in basis(spec, t - u, p):
                    r = mul_monomials(spec, m1, m2, p)
                    if r is not None:
                        coeff, mon = r
                        columns.append({target[mon]: coeff})
        decomposable = rank(FpSparseMatrix.from_columns(len(target), columns), p)
        out[t] = dims[t] - decomposable
    return out


def dualize(spec: AlgebraSpec) -> AlgebraSpec:
    """Graded dual presentation: E(x) -> E(x*), Gamma(y) -> P(y*)."""
    gens: List[GeneratorSpec] = []
    for g in spec.generators:
        if g.kind == EXTERIOR:
            gens.append(GeneratorSpec(g.label + "*", g.degree, EXTERIOR))
        elif g.kind == DIVIDED:
            gens.append(GeneratorSpec(g.label + "*", g.degree, POLYNOMIAL))
        else:
            raise DualizeError(f"no dual presentation for {g.kind} generator {g.label!r}")
    return AlgebraSpec(tuple(gens), spec.degree_bound, spec.mode)


# ---------------------------------------------------------------------------
# randomized-element helper for property suites
# ---------------------------------------------------------------------------


def random_homogeneous(spec: AlgebraSpec, t: int, p: int, rng, max_terms: int = 3) -> Element:
    """A random homogeneous element of degree t (possibly zero)."""
    pool = basis(spec, t, p)
    if not pool:
        return {}
    out: Element = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mon = pool[rng.randrange(len(pool))]
        add_to(out, mon, rng.randrange(1, p), p)
    return out
