"""Multiplicative spectral-sequence pages over F_p and their differentials.

A page is an algebra (an :class:`~thhcalc.graded_hopf.AlgebraSpec`, which
fixes p) together with a filtration weight per generator; a monomial sits in bidegree
(s, t) with s the exponent-weighted filtration sum and t the complementary
internal degree, so s + t is the algebra degree.  A differential on page r
maps (s, t) to (s - r, t + r - 1), is a graded derivation, and is described
by one image per generator: group-like powers differentiate as
d(g^e) = e g^{e-1} d(g), while divided-power towers shift their index by p,

    d(gamma_a(g)) = gamma_{a-p}(g) * value(g)     (zero for a < p),

which is a derivation mod p because the defining binomials agree with their
index-shifted counterparts.  d o d = 0 is a genuine check, not a formality.

The module computes page homology bidegree by bidegree; `page_homology` is
the one place that checks the page contract, taking each monomial's image
once to check that it lands in the target bidegree and that d o d vanishes
on it, before ranking the differential.  It also verifies the
standard truncated-polynomial answer for height-p differentials on divided
towers, certifies the divided-power change of basis that turns a twisted
cycle into honest divided powers (the exchange map is triangular in the
exponent of z, so each replacement's leading term decides its
invertibility), and runs the two-column fixed-point page
whose degree-2 differential is the sum of coordinate suspensions —
including the power-class hitting problem it poses in weight p^{n-1}.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import fp_linalg
from . import graded_hopf as gh
from . import torus_model as tm
from .fp_linalg import ContractViolation, FpSparseMatrix


class _SSTermFields(NamedTuple):
    spec: gh.AlgebraSpec
    filtration: Dict[str, int]


class SSTerm(_SSTermFields):
    """An algebra page with a filtration weight per generator, over the spec's prime.

    The spec's degree bound is the page's window: `page_homology` reports total
    degrees through bound - 1, since a class there is hit from one degree higher.
    """

    __slots__ = ()

    def __new__(cls, spec: gh.AlgebraSpec, filtration: Dict[str, int]) -> "SSTerm":
        for g in spec.generators:
            if g.label not in filtration:
                raise ValueError(f"generator {g.label!r} has no filtration weight")
        return super().__new__(cls, spec, filtration)

    def weight(self, gi: int) -> int:
        return self.filtration[self.spec.generators[gi].label]

    def bidegree(self, mon: gh.Monomial) -> Tuple[int, int]:
        s = sum(e * self.weight(gi) for gi, e in mon)
        return s, gh.monomial_degree(self.spec, mon) - s


class DifferentialSpec(NamedTuple):
    """Page index and generator images; absent labels map to zero."""

    r: int
    values: Dict[str, gh.Element]


# ---------------------------------------------------------------------------
# applying a differential
# ---------------------------------------------------------------------------


def apply_differential(term: SSTerm, dspec: DifferentialSpec, elem: gh.Element) -> gh.Element:
    """Extend the generator images over products; divided towers shift by p."""
    gens = term.spec.generators
    return gh.extend_derivation(term.spec, elem, lambda gi: dspec.values.get(gens[gi].label), term.spec.p)


# ---------------------------------------------------------------------------
# page homology
# ---------------------------------------------------------------------------


def _bidegree_buckets(term: SSTerm) -> Dict[Tuple[int, int], List[gh.Monomial]]:
    buckets: Dict[Tuple[int, int], List[gh.Monomial]] = {}
    for m in range(0, term.spec.degree_bound + 1):
        for mon in gh.basis(term.spec, m):
            buckets.setdefault(term.bidegree(mon), []).append(mon)
    return buckets


def page_homology(term: SSTerm, dspec: DifferentialSpec) -> Dict[Tuple[int, int], int]:
    """Nonzero homology dimensions per bidegree, through total degree degree_bound - 1.

    Bases run to the spec's degree bound, one past that range, so incoming
    differentials at its top are counted, and every image lies below the
    bound, where the spec's products are exact.  Every monomial is checked
    against the page contract as its differential is ranked: an image
    monomial outside the target bidegree (s - r, t + r - 1), or an image
    whose own differential is nonzero (d o d != 0), trips a contract violation.
    """
    buckets = _bidegree_buckets(term)
    index = {
        key: {mon: i for i, mon in enumerate(mons)} for key, mons in buckets.items()
    }
    r = dspec.r

    def column(
        mon: gh.Monomial, tgt: Tuple[int, int], target_index: Dict[gh.Monomial, int]
    ) -> Dict[int, int]:
        image = apply_differential(term, dspec, {mon: 1})
        col: Dict[int, int] = {}
        for m2, c in image.items():
            if m2 not in target_index:
                raise ContractViolation(f"differential image at {term.bidegree(m2)}, expected {tgt}")
            col[target_index[m2]] = c
        if apply_differential(term, dspec, image):
            raise ContractViolation(f"d o d is nonzero at {term.bidegree(mon)}")
        return col

    # one image at a time: holding every column, or every image, costs memory
    def rank_of(src: Tuple[int, int]) -> int:
        tgt = (src[0] - r, src[1] + r - 1)
        target_index = index.get(tgt, {})
        columns = (column(mon, tgt, target_index) for mon in buckets[src])
        return fp_linalg.rank(FpSparseMatrix.from_columns(len(target_index), columns), term.spec.p)

    ranks = {key: rank_of(key) for key in buckets}
    out: Dict[Tuple[int, int], int] = {}
    for key, mons in buckets.items():
        if key[0] + key[1] >= term.spec.degree_bound:
            continue
        incoming = (key[0] + r, key[1] - r + 1)
        dim = len(mons) - ranks[key] - ranks.get(incoming, 0)
        if dim < 0:
            raise ContractViolation(f"negative page homology at {key}")
        if dim:
            out[key] = dim
    return out


# ---------------------------------------------------------------------------
# height-p differentials on divided towers
# ---------------------------------------------------------------------------


def p_term_spec(p: int, x_degrees: Sequence[int], max_total: int) -> gh.AlgebraSpec:
    """The page algebra of `verify_p_term` over F_p: x_i and y_{i+1} per tower, bound max_total + 1."""
    gens: List[gh.GeneratorSpec] = []
    for i, d in enumerate(x_degrees):
        gens.append(gh.divided(f"x{i}", d))
        gens.append(gh.exterior(f"y{i + 1}", p * d - 1))
    return gh.AlgebraSpec(tuple(gens), max_total + 1, p)


def verify_p_term(p: int, x_degrees: Sequence[int], max_total: int) -> Dict[str, object]:
    """Homology of (divided tower) x (exterior partner) per tower is height-p.

    Each even generator x_i carries a divided tower whose index-p shift hits
    the exterior class y_{i+1} of degree p |x_i| - 1; everything sits in
    filtration 1.  The homology must match the truncated-height-p polynomial
    algebra on the x_i, bidegree by bidegree through total degree max_total.
    """
    if any(d % 2 for d in x_degrees):
        raise ValueError("tower generators must have even degree")
    spec = p_term_spec(p, x_degrees, max_total)
    values: Dict[str, gh.Element] = {}
    trunc_gens = [gh.truncated(f"x{i}", d) for i, d in enumerate(x_degrees)]
    term = SSTerm(spec, {g.label: 1 for g in spec.generators})
    for i in range(len(x_degrees)):
        yi = next(k for k, g in enumerate(spec.generators) if g.label == f"y{i + 1}")
        values[f"x{i}"] = {((yi, 1),): 1}
    dspec = DifferentialSpec(p - 1, values)

    homology = page_homology(term, dspec)

    closed_spec = gh.AlgebraSpec(tuple(trunc_gens), max_total, p)
    closed_term = SSTerm(closed_spec, {g.label: 1 for g in trunc_gens})
    expected = {key: len(mons) for key, mons in _bidegree_buckets(closed_term).items()}
    return {"homology": homology, "expected": expected, "passed": homology == expected}


# ---------------------------------------------------------------------------
# divided-power change of basis
# ---------------------------------------------------------------------------


def change_basis_spec(p: int, k_max: int, n_coeffs: int) -> gh.AlgebraSpec:
    """The page algebra of `change_basis_cycles`: z, then `p_term_spec`'s degree-2 towers."""
    towers = p_term_spec(p, [2] * n_coeffs, 2 * p ** (k_max + 1) - 1)
    return gh.AlgebraSpec((gh.divided("z", 2),) + towers.generators, towers.degree_bound, p)


def change_basis_cycles(p: int, k_max: int, r_coeffs: Sequence[int]) -> Dict[str, object]:
    """Certify the twisted divided tower's replacement generators.

    The page is divided towers on x_0..x_{L-1} and z (all of degree 2)
    with exterior partners y_1..y_L; each x_i hits y_{i+1} and z
    hits the combination sum_l r_l y_{l+1}.  The replacement

        gamma_{p^k}(z') = sum_j (-1)^j gamma_{p^k - p j}(z) *
                          sum_{|a| = j} prod_i r_i^{a_i} gamma_{p a_i}(x_i)

    must be a cycle for every k <= k_max and have vanishing p-th power, and
    the induced map gamma_a(z) m -> gamma_a(z') m (m free of z, gamma_a(z')
    the digitwise product of the p-power replacements) must be invertible
    up to degree 2p^{k_max}.  That map is triangular in the exponent of z,
    and the certificate reads it off each replacement: gamma_a(z') must be
    c_a gamma_a(z) with c_a != 0 plus terms of z exponent below a, for
    every a <= p^{k_max}.  Then each block of one z exponent is c_a times
    the identity.
    """
    L = len(r_coeffs)
    if L < 1:
        raise ValueError("need at least one twisting coefficient")
    spec = change_basis_spec(p, k_max, L)
    gens = spec.generators
    term = SSTerm(spec, {g.label: 1 for g in gens})
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
                    piece = gh.multiply(spec, piece, gamma(f"x{i}", p * a))
                out = gh.add(out, gh.scalar_mul(coeff, piece, p), p)
        return out

    cycle_checks: List[Tuple[int, bool]] = []
    power_checks: List[Tuple[int, bool]] = []
    reps: Dict[int, gh.Element] = {}
    for k in range(1, k_max + 1):
        zk = replacement(k)
        reps[k] = zk
        cycle_checks.append((k, apply_differential(term, dspec, zk) == {}))
        power_checks.append((k, gh.power(spec, zk, p) == {}))

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
                out = gh.multiply(spec, out, gh.power(spec, base, digit))
            k += 1
        return out

    def leads_triangularly(a: int) -> bool:
        # gamma_a(z') is c_a gamma_a(z), c_a != 0, plus terms of z exponent below a
        z = label_index["z"]
        image = replaced(a)
        lead = ((z, a),)
        return lead in image and all(mon == lead or dict(mon).get(z, 0) < a for mon in image)

    exchange_ok = all(leads_triangularly(a) for a in range(1, p**k_max + 1))
    passed = all(ok for _, ok in cycle_checks + power_checks) and exchange_ok
    return {
        "replacements": reps,
        "cycle_checks": cycle_checks,
        "power_checks": power_checks,
        "exchange_invertible": exchange_ok,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# the two-column fixed-point page
# ---------------------------------------------------------------------------


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

    # the right-hand side sum_i mu_i^{p^(n-1)} t_i as one more column
    target: Dict[int, int] = {}
    for i in range(1, n + 1):
        top = [0] * n
        top[i - 1] = weight
        target[rows[(i, tuple(top))]] = 1

    # appended last, the target is hit exactly when the final kernel vector
    # ends on its column, and that vector is (-solution, 1)
    kernel = fp_linalg.kernel_basis(FpSparseMatrix.from_columns(len(rows), columns + [target]), p)
    solution = None
    if kernel and len(columns) in kernel[-1]:
        solution = [-kernel[-1].get(c, 0) % p for c in range(len(columns))]

    report: Dict[str, object] = {
        "rows": len(rows),
        "cols": len(columns),
        "obstructed": solution is None,
        # the right-hand side raises the rank by one exactly when it is not hit
        "rank_gap": int(solution is None),
        "witness_included": include_witness,
    }
    if include_witness and solution is not None:
        report["witness"] = {col_tags[c]: v for c, v in enumerate(solution) if v}
        zero = tuple([0] * n)
        canonical_index = col_tags.index((n - 1, zero))
        # any solution must use the extra column with coefficient exactly 1,
        # and that column alone already matches the right-hand side
        report["witness_coefficient"] = solution[canonical_index]
        report["canonical_solves"] = columns[canonical_index] == target
        # the page differential sends x to sum_i sigma_i(x) t_i; compare it
        # componentwise, the coefficient of t_i at key i
        torus = tm.build_torus(n, p, 2 * weight, coaction=True)
        tau = {((torus.index[f"tau{n - 1}"], 1),): 1}
        image = {i: tm.sigma(torus, i, tau) for i in range(1, n + 1)}
        expected = {
            i: {((torus.index[f"mu_{i}"], weight),): 1} for i in range(1, n + 1)
        }
        report["witness_verified"] = image == expected
    return report
