"""Graded-commutative Hopf algebras over F_p, presented by generators.

An algebra is a tensor product of four kinds of one-generator pieces:

* exterior  E(x), |x| odd: x^2 = 0;
* polynomial P(x), |x| even: free commutative;
* truncated  P_p(x), |x| even: x^p = 0;
* divided power Gamma(x), |x| even: basis gamma_k(x) with
  gamma_i gamma_j = binom(i+j, i) gamma_{i+j}.

Monomials are exponent maps; for a divided-power generator the exponent k
stands for gamma_k, so the degree contribution is k*|x| uniformly across all
kinds.  Elements are monomial -> coefficient dictionaries with coefficients
in F_p, and every computation stays below an explicit degree bound: a
product or coproduct term that overflows it is dropped.

The coproduct makes each algebra a Hopf algebra: exterior, polynomial and
truncated generators are primitive, while divided powers split as
psi(gamma_k) = sum_{i+j=k} gamma_i (x) gamma_j.  `coproduct` evaluates the
closed form of that product on each monomial, with no monomial products,
so checking psi(ab) = psi(a) psi(b) compares it with `tensor_multiply`.

Every spec is a Hopf algebra because the truncation height is p.  A free
height h would break this: psi(x)^h = sum C(h, i) x^i (x) x^(h-i) vanishes,
as x^h does, only when p divides every C(h, i) with 0 < i < h, that is when
h is a power of p.  At p = 5 and height 3, psi(u u^2) = 0 while
psi(u) psi(u^2) = 3 u^2 (x) u + 3 u (x) u^2.

A spec is its generators, its degree bound and its prime p.  Every
operation on a spec works over F_p for that p, so a spec cannot be used at
another prime.  Specs are named tuples that check their fields on
construction: two specs with equal fields are equal, and hash in C like the
tuple of their fields.
Monomial arithmetic reads a per-generator table instead of the generator
specs: `AlgebraSpec.table`, tuples of degrees and kinds.  It is built on
first use and kept in the spec's instance dict, outside the read-only
fields, so it plays no part in equality or hashing.  `mul_monomials` merges
its two sorted factor lists in one pass over this table, summing the
product degree and the Koszul sign as it goes; `monomial_degree` and,
through it, `tensor_multiply` read the same degrees.

`multiply`, `power` and `tensor_multiply` take an optional `ProductTable`:
its (m1, m2) -> `mul_monomials` dict, and beside it each distinct nonzero
product once, which every pair with that product shares.  A caller creates
the table for one spec, passes it through its loops and then drops it.
Nothing keeps one at module level or on the spec, whose bases can reach
100,000 monomials; `tensor_multiply` without one uses a table local to the
call.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import comb
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .fp_linalg import MAX_PRIME, FpSparseMatrix, add_to, is_prime, kernel_basis

EXTERIOR = "exterior"
POLYNOMIAL = "polynomial"
TRUNCATED = "truncated"
DIVIDED = "divided_power"

_KINDS = (EXTERIOR, POLYNOMIAL, TRUNCATED, DIVIDED)

# a monomial is a sorted tuple of (generator index, exponent>0) pairs
Monomial = Tuple[Tuple[int, int], ...]
Element = Dict[Monomial, int]
TensorSquare = Dict[Tuple[Monomial, Monomial], int]
Product = Tuple[int, Monomial]  # a nonzero product: its coefficient and monomial

ONE: Monomial = ()


class DualizeError(Exception):
    """The algebra has a generator kind with no implemented graded dual."""


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


class _GeneratorFields(NamedTuple):
    label: str
    degree: int
    kind: str


class GeneratorSpec(_GeneratorFields):
    """One generator: label, degree and kind, checked on construction.

    A truncated generator x has x^p = 0 for the prime of its algebra spec.
    """

    __slots__ = ()

    def __new__(cls, label: str, degree: int, kind: str) -> "GeneratorSpec":
        if kind not in _KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if degree <= 0:
            raise ValueError("generator degree must be positive")
        if kind == EXTERIOR and degree % 2 == 0:
            raise ValueError("exterior generators must have odd degree")
        if kind != EXTERIOR and degree % 2 == 1:
            raise ValueError(f"{kind} generators must have even degree")
        return super().__new__(cls, label, degree, kind)


def exterior(label: str, degree: int) -> GeneratorSpec:
    return GeneratorSpec(label, degree, EXTERIOR)


def polynomial(label: str, degree: int) -> GeneratorSpec:
    return GeneratorSpec(label, degree, POLYNOMIAL)


def truncated(label: str, degree: int) -> GeneratorSpec:
    return GeneratorSpec(label, degree, TRUNCATED)


def divided(label: str, degree: int) -> GeneratorSpec:
    return GeneratorSpec(label, degree, DIVIDED)


class GeneratorTable(NamedTuple):
    """Per-generator facts indexed by generator position."""

    degrees: Tuple[int, ...]
    kinds: Tuple[str, ...]


class _AlgebraFields(NamedTuple):
    generators: Tuple[GeneratorSpec, ...]
    degree_bound: int
    p: int


class AlgebraSpec(_AlgebraFields):
    """A generator list, a degree bound above which terms are dropped, and p.

    Coefficients lie in F_p, so p must be prime, and at most `MAX_PRIME` to
    keep the primality test fast; truncated generators stop below x^p.  The
    fields are read-only; the instance dict holds only `table`.
    """

    def __new__(cls, generators: Tuple[GeneratorSpec, ...], degree_bound: int, p: int) -> "AlgebraSpec":
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        if p < 2:
            raise ValueError("the prime must be at least 2")
        if p > MAX_PRIME:
            raise ValueError(f"the prime must be at most {MAX_PRIME}, got {p}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        labels = [g.label for g in generators]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be distinct")
        return super().__new__(cls, generators, degree_bound, p)

    @cached_property
    def table(self) -> GeneratorTable:
        """The generators as flat tuples, built on first use and kept."""
        gens = self.generators
        return GeneratorTable(tuple(g.degree for g in gens), tuple(g.kind for g in gens))


def algebra(gens: Iterable[GeneratorSpec], degree_bound: int, p: int) -> AlgebraSpec:
    return AlgebraSpec(tuple(gens), degree_bound, p)


# ---------------------------------------------------------------------------
# monomials and elements
# ---------------------------------------------------------------------------


def monomial_degree(spec: AlgebraSpec, mon: Monomial) -> int:
    degrees = spec.table.degrees
    return sum(degrees[i] * e for i, e in mon)


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


def mul_monomials(spec: AlgebraSpec, m1: Monomial, m2: Monomial) -> Optional[Product]:
    """Product of two basis monomials: a coefficient and a monomial, or None.

    None covers genuine zeros (exterior squares, p-th truncated powers, divided
    binomials divisible by p) and products above the degree bound.  Zeros
    are found during the merge, before the degree is checked.

    One pass merges the two sorted factor lists.  It adds up the degree and
    the Koszul sign on the way: each odd factor of m1 moves past the odd
    factors of m2 merged before it.  Odd generators are exactly the exterior
    ones, so the kind decides the parity.
    """
    degrees, kinds = spec.table
    p = spec.p
    out: List[Tuple[int, int]] = []
    degree = 0
    coeff = 1
    inversions = 0
    odd2 = 0  # odd factors of m2 merged so far
    a, n1 = 0, len(m1)
    for j, e2 in m2:
        e1 = 0
        while a < n1:
            factor = m1[a]
            i = factor[0]
            if i > j:
                break
            a += 1
            if i == j:
                e1 = factor[1]
                break
            out.append(factor)
            degree += degrees[i] * factor[1]
            if odd2 and kinds[i] == EXTERIOR:
                inversions += odd2
        e = e1 + e2
        kind = kinds[j]
        if kind == EXTERIOR:
            if e > 1:
                return None
            odd2 += 1
        elif kind == TRUNCATED:
            if e >= p:
                return None
        elif kind == DIVIDED:
            coeff = coeff * comb(e, e1) % p
            if coeff == 0:
                return None
        out.append((j, e))
        degree += degrees[j] * e
    for factor in m1[a:]:
        i = factor[0]
        out.append(factor)
        degree += degrees[i] * factor[1]
        if odd2 and kinds[i] == EXTERIOR:
            inversions += odd2
    if degree > spec.degree_bound:
        return None
    if inversions % 2:
        coeff = -coeff % p
    return coeff, tuple(out)


class ProductTable:
    """Monomial products of one spec, made by a caller and dropped by it.

    `pairs` maps (m1, m2) to `mul_monomials(spec, m1, m2)`, None for a zero
    product.  Many pairs have equal products, so `results` keeps each
    distinct nonzero product once and the pairs share it: at p = 5,
    `checks.core_properties` makes 9,298 nonzero products of 632 monomials.
    A caller creates one table for one spec, passes it through its loops
    and then drops it, and both dicts go with it.
    """

    __slots__ = ("pairs", "results")

    def __init__(self) -> None:
        self.pairs: Dict[Tuple[Monomial, Monomial], Optional[Product]] = {}
        self.results: Dict[Product, Product] = {}

    def store(self, spec: AlgebraSpec, key: Tuple[Monomial, Monomial]) -> Optional[Product]:
        """Multiply the pair key = (m1, m2), keep its product and return it."""
        r = mul_monomials(spec, *key)
        if r is not None:
            r = self.results.setdefault(r, r)
        self.pairs[key] = r
        return r


def multiply(spec: AlgebraSpec, a: Element, b: Element, products: Optional[ProductTable] = None) -> Element:
    """a * b; with `products`, each monomial product is looked up there first.

    A lookup is one `get` with the default 0: the table stores None for a
    zero product, so 0 can only mean a pair not yet multiplied.
    """
    p = spec.p
    pairs = None if products is None else products.pairs
    out: Element = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if pairs is None:
                r = mul_monomials(spec, m1, m2)
            else:
                key = (m1, m2)
                r = pairs.get(key, 0)
                if r == 0:
                    r = products.store(spec, key)
            if r is None:
                continue
            coeff, mon = r
            add_to(out, mon, c1 * c2 * coeff, p)
    return out


def power(spec: AlgebraSpec, a: Element, n: int, products: Optional[ProductTable] = None) -> Element:
    out: Element = {ONE: 1}
    for _ in range(n):
        out = multiply(spec, out, a, products)
    return out


def extend_derivation(
    spec: AlgebraSpec,
    elem: Element,
    image: Callable[[int], Optional[Element]],
    divided_shift: int,
) -> Element:
    """Extend generator images over products by the graded Leibniz rule.

    image(gi) is the image of generator gi (empty or None for zero); it is
    called once per factor, in monomial order, so it may raise on factors it
    cannot map, and it is only read, so it may return a shared element.  A
    group-like factor differentiates as d(g^e) = e g^{e-1} d(g); a
    divided-power factor as d(gamma_e(g)) = gamma_{e-s}(g) d(g) with
    s = divided_shift, and to zero when e < s.  Each term carries the Koszul
    sign of the factors to its left.

    Each term is built from two monomial products, the head (the factors to
    the left and what is left of the differentiated one) times one monomial
    of the image, then times the tail.  Distinct image monomials give
    distinct products, so no term needs the sum of the others first.
    """
    p = spec.p
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
                tail = mon[j + 1 :]
                scale = -coeff * factor if prefix_degree % 2 else coeff * factor
                for m, v in img.items():
                    left = mul_monomials(spec, head, m)
                    if left is None:
                        continue
                    term = mul_monomials(spec, left[1], tail)
                    if term is not None:
                        add_to(out, term[1], scale * v * left[0] * term[0], p)
            prefix_degree += e * g.degree
    return out


# ---------------------------------------------------------------------------
# coproduct
# ---------------------------------------------------------------------------


def tensor_multiply(
    spec: AlgebraSpec, t1: TensorSquare, t2: TensorSquare, products: Optional[ProductTable] = None
) -> TensorSquare:
    """Multiply in A (x) A with the Koszul sign (-1)^{|b||c|} on (a(x)b)(c(x)d).

    With `products`, each monomial product is looked up there first, by one
    `get` as in `multiply`: a cached zero is None, a miss the default 0.
    """
    if products is None:
        products = ProductTable()  # the same pair recurs across terms even within one call
    pairs = products.pairs
    p = spec.p
    out: TensorSquare = {}
    terms2 = [(x, y, c2, monomial_degree(spec, x) % 2) for (x, y), c2 in t2.items()]
    for (a, b), c1 in t1.items():
        b_odd = monomial_degree(spec, b) % 2
        for x, y, c2, x_odd in terms2:
            key = (a, x)
            left = pairs.get(key, 0)
            if left == 0:
                left = products.store(spec, key)
            if left is None:
                continue
            key = (b, y)
            right = pairs.get(key, 0)
            if right == 0:
                right = products.store(spec, key)
            if right is None:
                continue
            cl, ml = left
            cr, mr = right
            sign = -1 if b_odd and x_odd else 1
            add_to(out, (ml, mr), sign * c1 * c2 * cl * cr, p)
    return out


def _single(i: int, e: int) -> Monomial:
    return ((i, e),) if e else ONE


def _monomial_coproduct(spec: AlgebraSpec, mon: Monomial) -> TensorSquare:
    """psi of one monomial in closed form.

    The generators of a monomial are distinct, so psi(prod g_i^{e_i}) is the
    sum over a <= e of prod c_i * g_i^{a_i} (x) g_i^{e_i - a_i}, with
    c_i = 1 for a divided power and C(e_i, a_i) mod p otherwise; no
    product is formed.  The Koszul sign counts the pairs i < k with an odd
    part of g_i kept on the right and an odd part of g_k moved to the left,
    which is what multiplying the factors' coproducts in order gives.  A
    term with a side above the degree bound is dropped, which can only
    happen when the monomial itself lies above it.

    The terms are built factor by factor: each partial term over the
    factors so far is extended by every split of the next factor, and it
    carries the number of odd parts it has kept on the right.
    """
    kinds = spec.table.kinds
    p = spec.p
    # partial terms: (left, right, coefficient, odd parts kept right)
    terms: List[Tuple[Monomial, Monomial, int, int]] = [(ONE, ONE, 1, 0)]
    for i, e in mon:
        odd = kinds[i] == EXTERIOR
        divided = kinds[i] == DIVIDED
        # (left part, right part, coefficient, odd part moved left, odd part kept right)
        splits = []
        for a in range(e + 1):
            c = 1 if divided else comb(e, a) % p
            if c:
                splits.append((_single(i, a), _single(i, e - a), c, odd and a % 2, odd and (e - a) % 2))
        terms = [
            (left + lf, right + rf, -coeff * c if moved and kept_so_far % 2 else coeff * c, kept_so_far + kept)
            for left, right, coeff, kept_so_far in terms
            for lf, rf, c, moved, kept in splits
        ]
    bound = spec.degree_bound
    over = monomial_degree(spec, mon) > bound
    return {
        (left, right): coeff % p
        for left, right, coeff, _ in terms
        if not over or max(monomial_degree(spec, left), monomial_degree(spec, right)) <= bound
    }


def coproduct(spec: AlgebraSpec, a: Element) -> TensorSquare:
    p = spec.p
    out: TensorSquare = {}
    for mon, c in a.items():
        for key, v in _monomial_coproduct(spec, mon).items():
            add_to(out, key, c * v, p)
    return out


def reduced_coproduct(spec: AlgebraSpec, a: Element) -> TensorSquare:
    """psi(a) - a(x)1 - 1(x)a, the interesting part on positive degrees."""
    out = coproduct(spec, a)
    for mon, c in a.items():
        for key in ((mon, ONE), (ONE, mon)):
            add_to(out, key, -c, spec.p)
    return out


# ---------------------------------------------------------------------------
# bases and dimension series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _basis_cached(spec: AlgebraSpec, t: int) -> Tuple[Monomial, ...]:
    """The degree-t monomials, in ascending lexicographic order of exponent vectors.

    Each recursion level picks the next nonzero factor, so the depth is the
    number of factors, not of generators.  A later first factor leaves more
    leading zeros, so the generators are scanned from last to first.
    """
    if t < 0:
        return ()
    gens = spec.generators
    tops = [{EXTERIOR: 1, TRUNCATED: spec.p - 1}.get(g.kind, t) for g in gens]  # largest exponents
    out: List[Monomial] = []

    def rec(start: int, remaining: int, acc: List[Tuple[int, int]]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for i in range(len(gens) - 1, start - 1, -1):
            d = gens[i].degree
            for e in range(1, min(remaining // d, tops[i]) + 1):
                acc.append((i, e))
                rec(i + 1, remaining - e * d, acc)
                acc.pop()

    rec(0, t, [])
    return tuple(out)


def basis(spec: AlgebraSpec, t: int) -> List[Monomial]:
    """All monomials of degree exactly t, in a fixed lexicographic order."""
    return list(_basis_cached(spec, t))


def compositions(total: int, parts: int) -> List[Tuple[int, ...]]:
    """Ordered ways to write total >= 0 as `parts` nonnegative parts (parts >= 1).

    Stars and bars: each choice of bar positions, taken in lexicographic
    order, cuts the stars into parts, so the parts also come out in
    lexicographic order.
    """
    slots = total + parts - 1
    out: List[Tuple[int, ...]] = []
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1,) + bars + (slots,)
        out.append(tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:])))
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


def poincare_series(spec: AlgebraSpec, limit: int) -> List[int]:
    """Dimensions of the graded pieces in degrees 0..limit.

    Each generator of degree d multiplies the series in place, in O(limit):
    by 1 / (1 - t^d), and then, at a height h (2 for an exterior generator,
    p for a truncated one), by 1 - t^(hd).
    """
    out = [1] + [0] * limit
    for g in spec.generators:
        d = g.degree
        # bottom up, so each out[i - d] already holds the quotient
        for i in range(d, limit + 1):
            out[i] += out[i - d]
        height = {EXTERIOR: 2, TRUNCATED: spec.p}.get(g.kind)
        if height:
            # top down, so each out[i - hd] is still the quotient
            hd = height * d
            for i in range(limit, hd - 1, -1):
                out[i] -= out[i - hd]
    return out


# ---------------------------------------------------------------------------
# primitives and duals
# ---------------------------------------------------------------------------


def primitive_basis(spec: AlgebraSpec, t: int) -> List[Element]:
    """Basis of the primitives in degree t: kernel of the reduced coproduct."""
    if t <= 0:
        return []
    cols = basis(spec, t)
    if not cols:
        return []
    row_index: Dict[Tuple[Monomial, Monomial], int] = {}
    for u in range(1, t):
        for m1 in basis(spec, u):
            for m2 in basis(spec, t - u):
                row_index[(m1, m2)] = len(row_index)
    columns: List[Dict[int, int]] = []
    for mon in cols:
        red = reduced_coproduct(spec, {mon: 1})
        columns.append({row_index[key]: v for key, v in red.items()})
    matrix = FpSparseMatrix.from_columns(len(row_index), columns)
    return [{cols[i]: v for i, v in vec.items()} for vec in kernel_basis(matrix, spec.p)]


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
    return AlgebraSpec(tuple(gens), spec.degree_bound, spec.p)


# ---------------------------------------------------------------------------
# randomized-element helper for property suites
# ---------------------------------------------------------------------------


def random_homogeneous(spec: AlgebraSpec, t: int, rng) -> Element:
    """A random homogeneous element of degree t (possibly zero), of one to three terms."""
    pool = basis(spec, t)
    if not pool:
        return {}
    out: Element = {}
    for _ in range(rng.randrange(1, 4)):
        mon = pool[rng.randrange(len(pool))]
        add_to(out, mon, rng.randrange(1, spec.p), spec.p)
    return out
