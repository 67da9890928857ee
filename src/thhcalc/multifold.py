"""Coassociativity constraints on coproducts of power classes mod p.

A degree-2N class x whose reduced coproduct lives on the powers of a single
degree-2 class m,

    psi~(x) = sum_{0 < a < N} r_a m^a (x) m^{N-a},

is coassociative exactly when the coefficient vector r satisfies

    C(a+b, b) r_{a+b} = C(b+c, b) r_a   for all a, b, c >= 1, a+b+c = N,

with binomials mod p given by Lucas' theorem.  The solution space is
classified by the p-adic shape of N:

* N a p-power p^{m+1}: one dimension, spanned by the divided binomial row
  k -> (C(N, k) / p) mod p;
* N a sum of two distinct p-powers: two dimensions, spanned by the unit
  vectors at those powers;
* anything else: one dimension, spanned by the Lucas row k -> C(N, k).

`decompose_coproduct` inverts this: given a coefficient table it either
rejects with a failed relation or expresses the table in the canonical
basis (a round part on the Lucas row plus, in the two-power case, a skew
part at the smaller power).

The same apparatus drives the several-directions version: a class in a
polynomial algebra on direction-indexed degree-2 classes, with one
coproduct per direction.  `multifold_solution_space` assembles the combined
constraint system (coassociativity per direction plus cross-direction
compatibility), solves it, and checks the solution space against the
predicted spanning families.  `cube_psi` implements the underlying
coordinate pinch maps so their order-independence can be tested directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .fp_linalg import FpSparseMatrix, add_to, kernel_basis, rank
from .graded_hopf import compositions, convolve


# ---------------------------------------------------------------------------
# binomials mod p
# ---------------------------------------------------------------------------


def digits(n: int, p: int) -> List[int]:
    """Base-p digits of n, least significant first ([] for 0)."""
    out: List[int] = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def lucas(n: int, k: int, p: int) -> int:
    """C(n, k) mod p via digitwise binomials."""
    if k < 0 or k > n:
        return 0
    out = 1
    while k or n:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        out = out * comb(nd, kd) % p
        if not out:
            return 0
    return out


def binom_div_p(n: int, k: int, p: int) -> int:
    """(C(n, k) / p) mod p for n a positive power of p and 0 < k < n.

    Every such binomial is divisible by p; the quotient mod p is the divided
    analogue of the Lucas row, nonzero exactly when k has p-adic valuation
    one below n's.
    """
    if n < p or any(d for d in digits(n, p)[:-1]) or digits(n, p)[-1] != 1:
        raise ValueError(f"{n} is not a positive power of {p}")
    if not 0 < k < n:
        raise ValueError("k must lie strictly between 0 and n")
    c = comb(n, k)
    if c % p:
        raise ArithmeticError("binomial unexpectedly prime to p")
    return (c // p) % p


def is_p_power(v: int, p: int) -> bool:
    """Whether v is p^m with m >= 1."""
    if v < p:
        return False
    while v % p == 0:
        v //= p
    return v == 1


def two_power_split(v: int, p: int) -> Optional[Tuple[int, int]]:
    """(larger, smaller) if v is a sum of two distinct p-powers, else None.

    p^0 counts as a power, so p + 1 qualifies; 2 p^m (equal powers) does not.
    """
    ds = digits(v, p)
    ones = [i for i, d in enumerate(ds) if d == 1]
    if len(ones) == 2 and all(d in (0, 1) for d in ds):
        return p ** ones[1], p ** ones[0]
    return None


P_POWER = "p_power"
TWO_POWERS = "two_powers"
GENERIC = "generic"
UNIT = "unit"


def classify_weight(v: int, p: int) -> str:
    if v == 1:
        return UNIT
    if is_p_power(v, p):
        return P_POWER
    if two_power_split(v, p) is not None:
        return TWO_POWERS
    return GENERIC


# ---------------------------------------------------------------------------
# the one-direction relation module
# ---------------------------------------------------------------------------


def relation_matrix(N: int, p: int) -> FpSparseMatrix:
    """Coassociativity constraints on (r_1, ..., r_{N-1})."""
    entries: Dict[Tuple[int, int], int] = {}
    row = 0
    for a in range(1, N - 1):
        for b in range(1, N - a):
            c = N - a - b
            if c < 1:
                break
            # each row has two distinct columns, so nothing accumulates
            left, right = lucas(a + b, b, p), lucas(b + c, b, p)
            if left:
                entries[(row, a + b - 1)] = left
            if right:
                entries[(row, a - 1)] = -right % p
            row += 1
    return FpSparseMatrix(row, N - 1, entries)


def closed_form_vectors(N: int, p: int) -> Tuple[str, List[List[int]], Dict[str, object]]:
    """(type, claimed kernel basis, normal-form descriptor) for weight N."""
    kind = classify_weight(N, p)
    if kind == P_POWER:
        vec = [binom_div_p(N, k, p) for k in range(1, N)]
        pivot = N // p
        return kind, [vec], {"pivot": pivot, "pivot_value": vec[pivot - 1]}
    if kind == TWO_POWERS:
        hi, lo = two_power_split(N, p)
        e_hi = [1 if k == hi else 0 for k in range(1, N)]
        e_lo = [1 if k == lo else 0 for k in range(1, N)]
        return kind, [e_hi, e_lo], {"pivots": (hi, lo)}
    ds = digits(N, p)
    top = len(ds) - 1
    inv = pow(ds[top], -1, p)
    vec = [lucas(N, k, p) * inv % p for k in range(1, N)]
    return kind, [vec], {"pivot": p**top, "pivot_value": vec[p**top - 1]}


def relation_module(N: int, p: int) -> Dict[str, object]:
    """Solve the weight-N constraint system and verify the closed form.

    Returns the computed kernel dimension, the classified type, and whether
    the closed-form spanning set matches the kernel exactly (membership,
    independence and span all checked through ranks).
    """
    if N < 3:
        raise ValueError("weights below 3 carry no constraints worth solving")
    mat = relation_matrix(N, p)
    kernel = kernel_basis(mat, p)
    kind, claimed, normal = closed_form_vectors(N, p)
    member = all(
        all(v % p == 0 for v in mat.mul_vec(vec, p)) for vec in claimed
    )
    claimed_rank = rank(FpSparseMatrix.from_dense(claimed), p)
    joint = rank(FpSparseMatrix.from_dense(claimed + kernel), p)
    agrees = (
        member
        and len(kernel) == len(claimed) == claimed_rank == joint
    )
    return {
        "N": N,
        "p": p,
        "type": kind,
        "dimension": len(kernel),
        "normal_form": normal,
        "agrees": agrees,
    }


# ---------------------------------------------------------------------------
# decomposing a concrete coefficient table
# ---------------------------------------------------------------------------


@dataclass
class CoproductTable:
    """Reduced-coproduct coefficients of a single class of weight N."""

    N: int
    coeffs: Dict[int, int] = field(default_factory=dict)

    def __getitem__(self, a: int) -> int:
        return self.coeffs.get(a, 0)


def decompose_coproduct(table: CoproductTable, p: int) -> Dict[str, object]:
    """Reject an incoassociative table or split it into canonical parts.

    The relations are scanned in lexicographic (a, b) order and the first
    failure is reported as a witness triple.  A consistent table is then
    written in the canonical basis for its weight class: a round multiple
    of the Lucas row (or of the divided row for p-power weights), plus a
    skew unit at the smaller power for two-power weights.
    """
    N = table.N
    for a in range(1, N - 1):
        for b in range(1, N - a):
            c = N - a - b
            if c < 1:
                break
            lhs = lucas(a + b, b, p) * table[a + b] % p
            rhs = lucas(b + c, b, p) * table[a] % p
            if lhs != rhs:
                return {
                    "N": N,
                    "p": p,
                    "consistent": False,
                    "witness": (a, b, c),
                }
    kind = classify_weight(N, p)
    result: Dict[str, object] = {"N": N, "p": p, "consistent": True, "type": kind}
    if kind == P_POWER:
        r = table[N // p]
        for k in range(1, N):
            if table[k] != r * binom_div_p(N, k, p) % p:
                return {"N": N, "p": p, "consistent": False, "witness": ("pattern", k)}
        result["p_part"] = r
        return result
    if kind == TWO_POWERS:
        hi, lo = two_power_split(N, p)
        r = table[hi]
        t = (table[lo] - r) % p
        for k in range(1, N):
            expected = (r * lucas(N, k, p) + (t if k == lo else 0)) % p
            if table[k] != expected:
                return {"N": N, "p": p, "consistent": False, "witness": ("pattern", k)}
        result["round"] = r
        result["skew"] = t
        result["skew_position"] = lo
        return result
    ds = digits(N, p)
    top = len(ds) - 1
    r = table[p**top] * pow(ds[top], -1, p) % p
    for k in range(1, N):
        if table[k] != r * lucas(N, k, p) % p:
            return {"N": N, "p": p, "consistent": False, "witness": ("pattern", k)}
    result["round"] = r
    return result


# ---------------------------------------------------------------------------
# pinched-cube coordinate algebra
# ---------------------------------------------------------------------------

# A variable is (direction, part): part -1 before pinching, parts 0 and 1
# after.  Monomials are sorted ((variable, exponent), ...) tuples with
# positive exponents; elements map monomials to nonzero scalars mod p.

CubeVar = Tuple[int, int]
CubeMonomial = Tuple[Tuple[CubeVar, int], ...]
CubeElement = Dict[CubeMonomial, int]


def cube_monomial(pairs: Sequence[Tuple[CubeVar, int]]) -> CubeMonomial:
    return tuple(sorted((v, e) for v, e in pairs if e > 0))


def cube_psi(direction: int, elem: CubeElement, p: int) -> CubeElement:
    """Pinch one unpinched direction, expanding its exponents binomially.

    The coordinate class m_d of the pinched direction maps to the sum of the
    two branch classes, so m_d^e spreads as sum_j C(e, j) over the branches.
    Directions already pinched must not be pinched again.
    """
    out: CubeElement = {}
    for mon, coeff in elem.items():
        exp = 0
        rest: List[Tuple[CubeVar, int]] = []
        for var, e in mon:
            if var == (direction, -1):
                exp = e
            elif var[0] == direction:
                raise ValueError(f"direction {direction} is already pinched")
            else:
                rest.append((var, e))
        for j in range(exp + 1):
            c = coeff * comb(exp, j) % p
            if c:
                new = cube_monomial(rest + [((direction, 0), j), ((direction, 1), exp - j)])
                add_to(out, new, c, p)
    return out


def cube_psi_seq(directions: Sequence[int], elem: CubeElement, p: int) -> CubeElement:
    for d in directions:
        elem = cube_psi(d, elem, p)
    return elem


def pinch_order_report(n_directions: int, max_degree: int, p: int) -> Dict[str, object]:
    """Pinch every monomial in every direction order and compare results.

    Monomials of the unpinched algebra (degree-2 coordinate classes) up to
    the degree cap are pinched along each permutation of the directions; the
    outcomes must agree exactly.
    """
    cap = max_degree // 2
    dirs = list(range(n_directions))
    checked = 0
    failures: List[Tuple[int, ...]] = []
    for exps in itertools.product(range(cap + 1), repeat=n_directions):
        if sum(exps) > cap:
            continue
        checked += 1
        mon = cube_monomial([((d, -1), e) for d, e in zip(dirs, exps)])
        base: CubeElement = {mon: 1}
        reference: Optional[CubeElement] = None
        for order in itertools.permutations(dirs):
            got = cube_psi_seq(order, base, p)
            if reference is None:
                reference = got
            elif got != reference:
                failures.append(exps)
                break
    return {
        "directions": n_directions,
        "max_degree": max_degree,
        "p": p,
        "monomials_checked": checked,
        "orders_per_monomial": len(list(itertools.permutations(dirs))),
        "failures": failures,
        "passed": not failures,
    }


def pushout_series_report(
    unpinched: int, pinched: int, max_degree: int
) -> Dict[str, object]:
    """Dimension count for pinching one more direction via a flat pushout.

    With a = unpinched + 2 * pinched polynomial classes of degree 2, pinching
    one direction glues two copies of the algebra over the algebra missing
    that direction, so the series must satisfy P_a^2 / P_{a-1} = P_{a+1}.
    Verified coefficientwise up to the cap.
    """
    if unpinched < 1:
        raise ValueError("need an unpinched direction to pinch")
    a = unpinched + 2 * pinched

    def poly_series(nvars: int) -> List[int]:
        out = [0] * (max_degree + 1)
        half = max_degree // 2
        for j in range(half + 1):
            out[2 * j] = comb(nvars + j - 1, j) if nvars else (1 if j == 0 else 0)
        return out

    top = poly_series(a)
    square = convolve(top, top)
    below = poly_series(a - 1)
    quotient = [0] * (max_degree + 1)
    for t in range(max_degree + 1):
        acc = square[t] - sum(below[t - i] * quotient[i] for i in range(t))
        if acc % below[0]:
            raise ArithmeticError("series division left a remainder")
        quotient[t] = acc // below[0]
    target = poly_series(a + 1)
    return {
        "vars": a,
        "max_degree": max_degree,
        "quotient": quotient,
        "target": target,
        "passed": quotient == target,
    }


# ---------------------------------------------------------------------------
# several directions at once
# ---------------------------------------------------------------------------


def expected_local_dimension(b: Tuple[int, ...], p: int) -> int:
    """Predicted solution dimension for one weight vector.

    Units contribute nothing; all p-powers give one dimension each; a single
    two-power weight among powers adds a skew direction; two or more
    two-power weights, or any generic weight, lock everything to the single
    round family.
    """
    kinds = [classify_weight(v, p) for v in b]
    if all(k == UNIT for k in kinds):
        return 0
    if any(k == GENERIC for k in kinds):
        return 1
    two = kinds.count(TWO_POWERS)
    if two == 0:
        return kinds.count(P_POWER)
    if two == 1:
        return 2
    return 1


def _family_vectors(
    b: Tuple[int, ...], var_index: Dict[Tuple[int, Tuple[int, ...], int], int], nvars: int, p: int
) -> List[List[int]]:
    """The claimed spanning vectors supported on one weight vector."""
    out: List[List[int]] = []
    kinds = [classify_weight(v, p) for v in b]
    active = [s for s, v in enumerate(b) if v >= 2]
    if not active:
        return out

    def blank() -> List[int]:
        return [0] * nvars

    round_vec = blank()
    nonzero = False
    for s in active:
        for a in range(1, b[s]):
            c = lucas(b[s], a, p)
            if c:
                round_vec[var_index[(s, b, a)]] = c
                nonzero = True
    if nonzero:
        out.append(round_vec)

    powers_only = all(k in (UNIT, P_POWER) for k in kinds)
    if powers_only:
        for s in active:
            vec = blank()
            for a in range(1, b[s]):
                c = binom_div_p(b[s], a, p)
                if c:
                    vec[var_index[(s, b, a)]] = c
            out.append(vec)

    for s in active:
        if kinds[s] != TWO_POWERS:
            continue
        others = [classify_weight(v, p) for w, v in enumerate(b) if w != s]
        if all(k in (UNIT, P_POWER) for k in others):
            vec = blank()
            _, lo = two_power_split(b[s], p)
            vec[var_index[(s, b, lo)]] = 1
            out.append(vec)
    return out


def multifold_solution_space(
    n_directions: int, target_degree: int, p: int
) -> Dict[str, object]:
    """Solve the several-direction coproduct constraints at one degree.

    Unknowns are the direction-s coproduct coefficients of a candidate class
    spread over all full-support multiweights b of total weight
    target_degree / 2.  Constraints are coassociativity within each
    direction and Lucas-weighted compatibility between directions.  The
    computed kernel is compared against the claimed spanning families and
    against the per-weight dimension predictions.
    """
    if not 1 <= n_directions <= 3:
        raise ValueError("between one and three directions are supported")
    if target_degree % 2:
        raise ValueError("target degree must be even")
    N = target_degree // 2
    if N < n_directions:
        return {
            "directions": n_directions,
            "p": p,
            "target_degree": target_degree,
            "dimension": 0,
            "agrees": True,
            "per_weight": [],
            "invisible_weights": [],
            "passed": True,
        }

    weights = compositions(N, n_directions, least=1)
    var_index: Dict[Tuple[int, Tuple[int, ...], int], int] = {}
    for b in weights:
        for s in range(n_directions):
            for a in range(1, b[s]):
                var_index[(s, b, a)] = len(var_index)
    nvars = len(var_index)

    entries: Dict[Tuple[int, int], int] = {}
    row = 0
    for b in weights:
        for s in range(n_directions):
            for a in range(1, b[s] - 1):
                for beta in range(1, b[s] - a):
                    c = b[s] - a - beta
                    if c < 1:
                        break
                    add_to(entries, (row, var_index[(s, b, a + beta)]), lucas(a + beta, beta, p), p)
                    add_to(entries, (row, var_index[(s, b, a)]), -lucas(beta + c, beta, p), p)
                    row += 1
        for i in range(n_directions):
            if b[i] < 2:
                continue
            for k in range(i + 1, n_directions):
                if b[k] < 2:
                    continue
                for ai in range(1, b[i]):
                    for ak in range(1, b[k]):
                        add_to(entries, (row, var_index[(i, b, ai)]), lucas(b[k], ak, p), p)
                        add_to(entries, (row, var_index[(k, b, ak)]), -lucas(b[i], ai, p), p)
                        row += 1

    mat = FpSparseMatrix(row, nvars, entries)
    kernel = kernel_basis(mat, p)

    families: List[List[int]] = []
    per_weight = []
    invisible = []
    total_expected = 0
    for b in weights:
        local = _family_vectors(b, var_index, nvars, p)
        families.extend(local)
        expected = expected_local_dimension(b, p)
        total_expected += expected
        per_weight.append(
            {
                "weight": b,
                "classes": [classify_weight(v, p) for v in b],
                "expected_dimension": expected,
            }
        )
        if all(v == 1 for v in b):
            invisible.append(b)

    member = all(
        all(v % p == 0 for v in mat.mul_vec(vec, p)) for vec in families
    )
    fam_rank = rank(FpSparseMatrix.from_dense(families), p) if families else 0
    joint = (
        rank(FpSparseMatrix.from_dense(families + kernel), p)
        if families or kernel
        else 0
    )
    agrees = (
        member
        and fam_rank == len(kernel) == joint
        and total_expected == len(kernel)
    )
    return {
        "directions": n_directions,
        "p": p,
        "target_degree": target_degree,
        "dimension": len(kernel),
        "family_rank": fam_rank,
        "expected_dimension": total_expected,
        "per_weight": per_weight,
        "invisible_weights": invisible,
        "agrees": agrees,
        "passed": agrees,
    }


# ---------------------------------------------------------------------------
# Lucas against Pascal
# ---------------------------------------------------------------------------


def lucas_row(n: int, p: int) -> List[int]:
    """[C(n, k) mod p for k in 0..n] built digitwise in O(n)."""
    row = [1]
    value = 0
    for d in reversed(digits(n, p)):
        value = value * p + d
        new = [0] * (value + 1)
        for i, c in enumerate(row):
            if not c:
                continue
            base = i * p
            for j in range(d + 1):
                if base + j <= value:
                    new[base + j] = c * comb(d, j) % p
        row = new
    return row


def lucas_vs_pascal(p: int, n_max: int) -> Dict[str, object]:
    """Compare the digitwise rows with iteratively built Pascal rows mod p."""
    pascal = [1]
    first_mismatch: Optional[Tuple[int, int]] = None
    for n in range(n_max + 1):
        if n:
            prev = pascal
            pascal = [1] + [(prev[k - 1] + prev[k]) % p for k in range(1, n)] + [1]
        if lucas_row(n, p) != pascal and first_mismatch is None:
            row = lucas_row(n, p)
            k = next(i for i in range(n + 1) if row[i] != pascal[i])
            first_mismatch = (n, k)
    return {
        "p": p,
        "n_max": n_max,
        "first_mismatch": first_mismatch,
        "passed": first_mismatch is None,
    }
