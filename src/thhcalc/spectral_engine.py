"""Multiplicative spectral-sequence pages over F_p and their differentials.

A page is an algebra (an :class:`~thhcalc.graded_hopf.AlgebraSpec`) together
with a filtration weight per generator; a monomial sits in bidegree
(s, t) with s the exponent-weighted filtration sum and t the complementary
internal degree, so s + t is the algebra degree.  A differential on page r
maps (s, t) to (s - r, t + r - 1), is a graded derivation, and is described
by one image per generator: group-like powers differentiate as
d(g^e) = e g^{e-1} d(g), while divided-power towers shift their index by p,

    d(gamma_a(g)) = gamma_{a-p}(g) * value(g)     (zero for a < p),

which is a derivation mod p because the defining binomials agree with their
index-shifted counterparts.  d o d = 0 is a genuine check, not a formality.

The module computes page homology bidegree by bidegree, verifies the
standard truncated-polynomial answer for height-p differentials on divided
towers, certifies the divided-power change of basis that turns a twisted
cycle into honest divided powers, locates where a shortest nonzero
differential could live (indecomposable sources, primitive targets), and
runs the two-column fixed-point page whose degree-2 differential is the sum
of coordinate suspensions — including the power-class hitting problem it
poses in weight p^{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import admissible_words as aw
from . import fp_linalg
from . import graded_hopf as gh
from . import torus_model as tm
from .fp_linalg import ContractViolation, FpSparseMatrix


@dataclass
class SSTerm:
    """An algebra page with a filtration weight per generator."""

    spec: gh.AlgebraSpec
    p: int
    filtration: Dict[str, int]

    def __post_init__(self) -> None:
        for g in self.spec.generators:
            if g.label not in self.filtration:
                raise ValueError(f"generator {g.label!r} has no filtration weight")

    def weight(self, gi: int) -> int:
        return self.filtration[self.spec.generators[gi].label]

    def bidegree(self, mon: gh.Monomial) -> Tuple[int, int]:
        s = sum(e * self.weight(gi) for gi, e in mon)
        return s, gh.monomial_degree(self.spec, mon) - s


@dataclass
class DifferentialSpec:
    """Page index and generator images; absent labels map to zero."""

    r: int
    values: Dict[str, gh.Element] = field(default_factory=dict)


def bn_ss_term(n: int, p: int, max_degree: int) -> SSTerm:
    """The length-n word algebra, every generator in filtration n."""
    spec = aw.word_algebra(n, p, max_degree)
    return SSTerm(spec, p, {g.label: n for g in spec.generators})


# ---------------------------------------------------------------------------
# applying a differential
# ---------------------------------------------------------------------------


def apply_differential(term: SSTerm, dspec: DifferentialSpec, elem: gh.Element) -> gh.Element:
    """Extend the generator images over products as a graded derivation."""
    gens = term.spec.generators
    return gh.extend_derivation(
        term.spec, elem, term.p, lambda gi: dspec.values.get(gens[gi].label), term.p
    )


def validate_differential(term: SSTerm, dspec: DifferentialSpec) -> Dict[str, object]:
    """Bidegree legality of every generator image, plus d o d = 0.

    A group-like generator g must map into bidegree (s - r, t + r - 1)
    relative to g itself; a divided tower is pinned at gamma_p, whose image
    is the stored value.  The square is then checked on every basis monomial
    within the degree bound.
    """
    spec, p = term.spec, term.p
    bad_bidegrees: List[str] = []
    for label, value in dspec.values.items():
        gi = next(i for i, g in enumerate(spec.generators) if g.label == label)
        g = spec.generators[gi]
        src = ((gi, p),) if g.kind == gh.DIVIDED else ((gi, 1),)
        s0, t0 = term.bidegree(src)
        want = (s0 - dspec.r, t0 + dspec.r - 1)
        for mon in value:
            if term.bidegree(mon) != want:
                bad_bidegrees.append(label)
                break
    square_failures: List[gh.Monomial] = []
    for m in range(0, spec.degree_bound + 1):
        for mon in gh.basis(spec, m, p):
            once = apply_differential(term, dspec, {mon: 1})
            twice = apply_differential(term, dspec, once)
            if twice:
                square_failures.append(mon)
    return {
        "bad_bidegrees": bad_bidegrees,
        "square_failures": square_failures,
        "passed": not bad_bidegrees and not square_failures,
    }


# ---------------------------------------------------------------------------
# page homology
# ---------------------------------------------------------------------------


def _bidegree_buckets(
    term: SSTerm, max_total: int
) -> Dict[Tuple[int, int], List[gh.Monomial]]:
    buckets: Dict[Tuple[int, int], List[gh.Monomial]] = {}
    for m in range(0, max_total + 1):
        for mon in gh.basis(term.spec, m, term.p):
            buckets.setdefault(term.bidegree(mon), []).append(mon)
    return buckets


def page_homology(
    term: SSTerm, dspec: DifferentialSpec, max_total: int
) -> Dict[Tuple[int, int], int]:
    """Nonzero homology dimensions per bidegree, up to total degree max_total.

    Bases extend one degree past the cap so that incoming differentials at
    the boundary are counted.  Any image monomial that misses the expected
    target bidegree trips a contract violation.
    """
    buckets = _bidegree_buckets(term, max_total + 1)
    index = {
        key: {mon: i for i, mon in enumerate(mons)} for key, mons in buckets.items()
    }
    r = dspec.r

    def matrix(src: Tuple[int, int]) -> FpSparseMatrix:
        tgt = (src[0] - r, src[1] + r - 1)
        source = buckets.get(src, [])
        target_index = index.get(tgt, {})
        entries: Dict[Tuple[int, int], int] = {}
        for j, mon in enumerate(source):
            image = apply_differential(term, dspec, {mon: 1})
            for m2, c in image.items():
                if m2 not in target_index:
                    raise ContractViolation(
                        f"differential image at {term.bidegree(m2)}, expected {tgt}"
                    )
                entries[(target_index[m2], j)] = c
        return FpSparseMatrix(len(buckets.get(tgt, [])), len(source), entries)

    ranks: Dict[Tuple[int, int], int] = {}

    def rank_at(key: Tuple[int, int]) -> int:
        if key not in ranks:
            ranks[key] = fp_linalg.rank(matrix(key), term.p)
        return ranks[key]

    out: Dict[Tuple[int, int], int] = {}
    for key, mons in buckets.items():
        if key[0] + key[1] > max_total:
            continue
        incoming = (key[0] + r, key[1] - r + 1)
        dim = len(mons) - rank_at(key) - rank_at(incoming)
        if dim < 0:
            raise ContractViolation(f"negative page homology at {key}")
        if dim:
            out[key] = dim
    return out


def collapse_dims(term: SSTerm, max_total: int) -> List[int]:
    """Total-degree dimensions when no differential survives.

    Bidegrees sum along s + t = algebra degree, so a collapsed page
    contributes exactly its dimension series to the abutment.
    """
    return gh.poincare_series(term.spec, max_total, term.p)


# ---------------------------------------------------------------------------
# height-p differentials on divided towers
# ---------------------------------------------------------------------------


def verify_p_term(p: int, x_degrees: Sequence[int], max_total: int) -> Dict[str, object]:
    """Homology of (divided tower) x (exterior partner) per tower is height-p.

    Each even generator x_i carries a divided tower whose index-p shift hits
    the exterior class y_{i+1} of degree p |x_i| - 1; everything sits in
    filtration 1.  The homology must match the truncated-height-p polynomial
    algebra on the x_i, bidegree by bidegree.
    """
    if any(d % 2 for d in x_degrees):
        raise ValueError("tower generators must have even degree")
    gens: List[gh.GeneratorSpec] = []
    values: Dict[str, gh.Element] = {}
    trunc_gens: List[gh.GeneratorSpec] = []
    for i, d in enumerate(x_degrees):
        gens.append(gh.divided(f"x{i}", d))
        gens.append(gh.exterior(f"y{i + 1}", p * d - 1))
        trunc_gens.append(gh.truncated(f"x{i}", d))
    spec = gh.AlgebraSpec(tuple(gens), max_total + 1, gh.TRUNCATING)
    term = SSTerm(spec, p, {g.label: 1 for g in gens})
    for i in range(len(x_degrees)):
        yi = next(k for k, g in enumerate(spec.generators) if g.label == f"y{i + 1}")
        values[f"x{i}"] = {((yi, 1),): 1}
    dspec = DifferentialSpec(p - 1, values)

    check = validate_differential(term, dspec)
    if not check["passed"]:
        return {"passed": False, "differential_check": check}

    homology = page_homology(term, dspec, max_total)

    closed_spec = gh.AlgebraSpec(tuple(trunc_gens), max_total + 1, gh.TRUNCATING)
    closed_term = SSTerm(closed_spec, p, {g.label: 1 for g in trunc_gens})
    expected: Dict[Tuple[int, int], int] = {}
    for m in range(0, max_total + 1):
        for mon in gh.basis(closed_spec, m, p):
            key = closed_term.bidegree(mon)
            expected[key] = expected.get(key, 0) + 1

    return {
        "p": p,
        "x_degrees": list(x_degrees),
        "max_total": max_total,
        "homology": homology,
        "expected": expected,
        "passed": homology == expected,
    }


# ---------------------------------------------------------------------------
# divided-power change of basis
# ---------------------------------------------------------------------------


def change_basis_cycles(
    p: int,
    k_max: int,
    r_coeffs: Sequence[int],
    gen_degree: int = 2,
    exchange_cap: Optional[int] = None,
) -> Dict[str, object]:
    """Certify the twisted divided tower's replacement generators.

    The page is divided towers on x_0..x_{L-1} and z (all of one even
    degree) with exterior partners y_1..y_L; each x_i hits y_{i+1} and z
    hits the combination sum_l r_l y_{l+1}.  The replacement

        gamma_{p^k}(z') = sum_j (-1)^j gamma_{p^k - p j}(z) *
                          sum_{|a| = j} prod_i r_i^{a_i} gamma_{p a_i}(x_i)

    must be a cycle for every k <= k_max, have vanishing p-th power, and the
    induced map gamma_a(z) -> gamma_a(z') (digitwise products of the p-power
    replacements) must stay invertible degree by degree.
    """
    if gen_degree % 2:
        raise ValueError("tower generators must have even degree")
    L = len(r_coeffs)
    if L < 1:
        raise ValueError("need at least one twisting coefficient")
    bound = p ** (k_max + 1) * gen_degree
    gens: List[gh.GeneratorSpec] = [gh.divided("z", gen_degree)]
    for i in range(L):
        gens.append(gh.divided(f"x{i}", gen_degree))
        gens.append(gh.exterior(f"y{i + 1}", p * gen_degree - 1))
    spec = gh.AlgebraSpec(tuple(gens), bound, gh.TRUNCATING)
    term = SSTerm(spec, p, {g.label: 1 for g in gens})
    label_index = {g.label: i for i, g in enumerate(gens)}

    def y_elem(i: int) -> gh.Element:
        return {((label_index[f"y{i + 1}"], 1),): 1}

    values: Dict[str, gh.Element] = {}
    z_image: gh.Element = {}
    for i in range(L):
        values[f"x{i}"] = y_elem(i)
        z_image = gh.add(z_image, gh.scalar_mul(r_coeffs[i], y_elem(i), p), p)
    values["z"] = z_image
    dspec = DifferentialSpec(p - 1, values)

    def gamma(label: str, e: int) -> gh.Element:
        return {gh.ONE: 1} if e == 0 else {((label_index[label], e),): 1}

    def replacement(k: int) -> gh.Element:
        out: gh.Element = {}
        for j in range(p ** (k - 1) + 1):
            for alpha in gh.compositions(j, L):
                piece = gamma("z", p**k - p * j)
                coeff = (-1) ** j
                for i, a in enumerate(alpha):
                    coeff *= pow(r_coeffs[i], a, p)
                    piece = gh.multiply(spec, piece, gamma(f"x{i}", p * a), p)
                out = gh.add(out, gh.scalar_mul(coeff, piece, p), p)
        return out

    cycle_checks: List[Tuple[int, bool]] = []
    power_checks: List[Tuple[int, bool]] = []
    reps: Dict[int, gh.Element] = {}
    for k in range(1, k_max + 1):
        zk = replacement(k)
        reps[k] = zk
        cycle_checks.append((k, apply_differential(term, dspec, zk) == {}))
        power_checks.append((k, gh.power(spec, zk, p, p) == {}))

    def replaced(a: int) -> gh.Element:
        # digits a = sum a_k p^k: gamma_a(z') = prod gamma_{p^k}(z')^{a_k},
        # with the k = 0 digit staying on z itself (z' = z in low indices)
        out: gh.Element = {gh.ONE: 1}
        k = 0
        rest = a
        while rest:
            rest, digit = divmod(rest, p)
            if digit:
                base = gamma("z", 1) if k == 0 else reps[k]
                piece = {gh.ONE: 1}
                for _ in range(digit):
                    piece = gh.multiply(spec, piece, base, p)
                out = gh.multiply(spec, out, piece, p)
            k += 1
        return out

    cap = exchange_cap if exchange_cap is not None else p**k_max * gen_degree
    exchange_ok = True
    exchange_checked = []
    for t in range(0, cap + 1):
        basis = gh.basis(spec, t, p)
        if not basis:
            continue
        index = {mon: i for i, mon in enumerate(basis)}
        columns: List[Dict[int, int]] = []
        for mon in basis:
            z_exp = 0
            rest = []
            for gi, e in mon:
                if gi == label_index["z"]:
                    z_exp = e
                else:
                    rest.append((gi, e))
            if z_exp and z_exp < p ** (k_max + 1):
                image = gh.multiply(spec, replaced(z_exp), {tuple(rest): 1}, p)
            else:
                image = {mon: 1}
            columns.append({index[m2]: c for m2, c in image.items()})
        mat = FpSparseMatrix.from_columns(len(basis), columns)
        full = fp_linalg.rank(mat, p) == len(basis)
        exchange_checked.append(t)
        exchange_ok = exchange_ok and full

    passed = (
        all(ok for _, ok in cycle_checks)
        and all(ok for _, ok in power_checks)
        and exchange_ok
    )
    return {
        "p": p,
        "k_max": k_max,
        "r_coeffs": list(r_coeffs),
        "labels": [g.label for g in gens],
        "replacements": reps,
        "cycle_checks": cycle_checks,
        "power_checks": power_checks,
        "exchange_degrees": exchange_checked,
        "exchange_invertible": exchange_ok,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# shortest-differential candidates
# ---------------------------------------------------------------------------


def shortest_candidates(term: SSTerm, max_total: int) -> Dict[str, object]:
    """Bidegrees where a first nonzero differential could start and end.

    On a multiplicative page the first nonzero differential kills a
    primitive and is detected on an indecomposable, so every candidate pairs
    an indecomposable-supporting source with a primitive-supporting target
    at stride (s, t) -> (s - r, t + r - 1), r >= 2.
    """
    spec, p = term.spec, term.p
    decomposable: Set[gh.Monomial] = set()
    for m in range(2, max_total + 1):
        for m1 in range(1, m):
            for mon1 in gh.basis(spec, m1, p):
                for mon2 in gh.basis(spec, m - m1, p):
                    r = gh.mul_monomials(spec, mon1, mon2, p)
                    if r is not None:
                        decomposable.add(r[1])
    indec_support: Set[Tuple[int, int]] = set()
    for m in range(1, max_total + 1):
        for mon in gh.basis(spec, m, p):
            if mon not in decomposable:
                indec_support.add(term.bidegree(mon))
    prim_support: Set[Tuple[int, int]] = set()
    for m in range(1, max_total + 1):
        for elem in gh.primitive_basis(spec, m, p):
            for mon in elem:
                prim_support.add(term.bidegree(mon))
    candidates = []
    for (s1, t1) in sorted(indec_support):
        for (s2, t2) in sorted(prim_support):
            r = s1 - s2
            if r >= 2 and t2 == t1 + r - 1:
                candidates.append({"source": (s1, t1), "target": (s2, t2), "r": r})
    return {
        "max_total": max_total,
        "indecomposable_support": sorted(indec_support),
        "primitive_support": sorted(prim_support),
        "candidates": candidates,
        "collapsed": not candidates,
    }


# ---------------------------------------------------------------------------
# the two-column fixed-point page
# ---------------------------------------------------------------------------


@dataclass
class TwoColumnTerm:
    """A page with columns 0 and -2, differential = sum of suspensions.

    Column classes t_i (one per torus coordinate, bidegree (-2, 0)) multiply
    freely; the degree-2 differential sends x to sum_i sigma_i(x) t_i, so it
    is stored componentwise: d2(x)[i] is the coefficient of t_i.
    """

    torus: tm.TorusAlgebra

    def d2(self, elem: gh.Element) -> Dict[int, gh.Element]:
        out: Dict[int, gh.Element] = {}
        for i in range(1, self.torus.n + 1):
            component = tm.sigma(self.torus, i, elem)
            if component:
                out[i] = component
        return out


def rognes_check(p: int, n: int, include_witness: bool = False) -> Dict[str, object]:
    """Can the top power classes be hit on the two-column page?

    The target is sum_i mu_i^{p^(n-1)} t_i, the candidate sources are
    m tau_j with j <= n - 2 and m a monomial of complementary weight; modulo
    the ideal of non-power classes, d2(m tau_j) = sum_i m mu_i^{p^j} t_i.
    The system is solved exactly; with `include_witness` the tau_{n-1}
    column itself joins the search and the canonical witness is verified
    through the page differential.
    """
    if n < 2:
        raise ValueError("need at least two coordinates")
    weight = p ** (n - 1)

    def monomials(w: int) -> List[Tuple[int, ...]]:
        return gh.compositions(w, n)

    rows: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    for i in range(1, n + 1):
        for mon in monomials(weight):
            rows[(i, mon)] = len(rows)

    columns: List[Dict[int, int]] = []
    col_tags: List[Tuple[int, Tuple[int, ...]]] = []
    js = list(range(n - 1)) + ([n - 1] if include_witness else [])
    for j in js:
        for mon in monomials(weight - p**j):
            col: Dict[int, int] = {}
            for i in range(1, n + 1):
                bumped = list(mon)
                bumped[i - 1] += p**j
                col[rows[(i, tuple(bumped))]] = 1
            columns.append(col)
            col_tags.append((j, mon))

    mat = FpSparseMatrix.from_columns(len(rows), columns)
    rhs = [0] * len(rows)
    for i in range(1, n + 1):
        target = [0] * n
        target[i - 1] = weight
        rhs[rows[(i, tuple(target))]] = 1

    solution = fp_linalg.solve_membership(mat, rhs, p)
    base_rank = fp_linalg.rank(mat, p)
    aug = FpSparseMatrix(
        mat.rows,
        mat.cols + 1,
        dict(mat.entries) | {(r, mat.cols): v for r, v in enumerate(rhs) if v},
    )
    aug_rank = fp_linalg.rank(aug, p)

    report: Dict[str, object] = {
        "p": p,
        "n": n,
        "rows": len(rows),
        "cols": len(columns),
        "obstructed": solution is None,
        "rank": base_rank,
        "rank_gap": aug_rank - base_rank,
        "witness_included": include_witness,
    }
    if include_witness and solution is not None:
        report["witness"] = {col_tags[c]: v for c, v in enumerate(solution) if v}
        zero = tuple([0] * n)
        canonical_index = col_tags.index((n - 1, zero))
        # any solution must use the extra column with coefficient exactly 1,
        # and that column alone already matches the right-hand side
        report["witness_coefficient"] = solution[canonical_index]
        report["canonical_solves"] = columns[canonical_index] == {
            r: v for r, v in enumerate(rhs) if v
        }
        bound = 2 * weight
        torus = tm.build_torus(n, p, bound, tm.SteenrodSpec())
        page = TwoColumnTerm(torus)
        tau = torus.index[f"tau{n - 1}"]
        image = page.d2({((tau, 1),): 1})
        expected = {
            i: {((torus.index[f"mu_{i}"], weight),): 1} for i in range(1, n + 1)
        }
        report["witness_verified"] = image == expected
    return report
