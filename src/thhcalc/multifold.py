"""Coassociativity constraints on coproducts of power classes mod p.

A degree-2N class x whose reduced coproduct lives on the powers of a single
degree-2 class m,

    psi~(x) = sum_{0 < a < N} r_a m^a (x) m^{N-a},

is coassociative exactly when the coefficient vector r satisfies

    C(a+b, b) r_{a+b} = C(b+c, b) r_a   for all a, b, c >= 1, a+b+c = N,

with binomials mod p given by Lucas' theorem.  Each relation has at most two
terms, and most of them say less than that: over half read 0 = 0 mod p,
and most of the rest force one unknown to zero that other relations force
again.  So `relation_rows` streams only the distinct constraints: every
relation with two nonzero coefficients, then one x_i = 0 per forced
unknown.  It visits only the (a, b) whose relation says something: the
Lucas support of C(N - a, .) and the b that add to a without a carry in
base p, both listed in `lucas_tables`, which a caller solving many weights
builds once per prime.  The relations feed `fp_linalg.two_term_kernel`, a
union-find that solves them without a matrix, and the claimed closed-form
vectors are evaluated on every one of them as it passes.  The solution space is classified by
the p-adic shape of N:

* N a p-power p^{m+1}: one dimension, spanned by the divided binomial row
  k -> (C(N, k) / p) mod p;
* N a sum of two distinct p-powers: two dimensions, spanned by the unit
  vectors at those powers;
* anything else: one dimension, spanned by the Lucas row k -> C(N, k).

`decompose_coproduct` inverts this: given a coefficient table it either
rejects with a failed relation or checks the table against the claimed
basis from `closed_form_vectors`, the one statement of the closed forms,
and reads its canonical parts off the coordinates (a round part on the
Lucas row plus, in the two-power case, a skew part at the smaller power).

`cube_psi` implements the coordinate pinch maps of a polynomial algebra on
direction-indexed degree-2 classes, so that their order-independence can be
tested directly.  The branch variables sort where the pinched one stood, so
each new monomial is spliced from slices of the old one, with no sort.

The per-entry work of the digit kernels runs in C: `lucas_row` fills each
digit step of a row by slice assignment, `lucas_tables` reads each row's
support with `itertools.compress`, and `lucas_vs_pascal` holds each
Pascal row mod p as one int with a byte per entry, so one shift, one add
and a masked subtraction build the next row (p < 128).
"""

from __future__ import annotations

import itertools
from math import comb, factorial
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .fp_linalg import two_term_kernel

# a two-term relation (i, u, j, v): u x_i = v x_j, either coefficient may be 0
Relation = Tuple[int, int, int, int]


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


def binom_div_p(n: int, k: int, p: int) -> int:
    """(C(n, k) / p) mod p for n a positive power of p and 0 < k < n.

    Every such binomial is divisible by p; the quotient mod p is the divided
    analogue of the Lucas row, nonzero exactly when k has p-adic valuation
    one below n's.
    """
    if n < p or classify_weight(n, p)[0] != P_POWER:
        raise ValueError(f"{n} is not a positive power of {p}")
    if not 0 < k < n:
        raise ValueError("k must lie strictly between 0 and n")
    c = comb(n, k)
    if c % p:
        raise ArithmeticError("binomial unexpectedly prime to p")
    return (c // p) % p


P_POWER = "p_power"
TWO_POWERS = "two_powers"
GENERIC = "generic"


def classify_weight(v: int, p: int) -> Tuple[str, Tuple[int, ...]]:
    """The p-adic class of a weight v >= 2 and the p-powers that shape it.

    (P_POWER, (v,)) for v = p^m with m >= 1; (TWO_POWERS, (larger, smaller))
    for a sum of two distinct p-powers, where p^0 counts, so p + 1 qualifies
    and 2 p^m does not; otherwise (GENERIC, (p^top,)) with p^top <= v < p^(top+1).
    """
    ds = digits(v, p)
    powers = tuple(p**i for i in reversed(range(len(ds))) if ds[i])
    if max(ds) == 1 and len(powers) == 1 and v > 1:
        return P_POWER, powers
    if max(ds) == 1 and len(powers) == 2:
        return TWO_POWERS, powers
    return GENERIC, powers[:1]


# ---------------------------------------------------------------------------
# the one-direction relation module
# ---------------------------------------------------------------------------


class LucasTables(NamedTuple):
    """Binomials mod p below one weight, shared by every relation system below it.

    rows[n] is lucas_row(n, p); support[n] lists the 0 < k < n with
    C(n, k) nonzero mod p, in increasing order; for a >= 1, carry_free[a]
    lists the b >= 1 with a + b below the weight and C(a + b, b) nonzero mod
    p (no carry when a and b are added in base p), in increasing order, and
    carry_free[0] is empty.
    """

    rows: List[List[int]]
    support: List[List[int]]
    carry_free: List[List[int]]


def lucas_tables(weight: int, p: int) -> LucasTables:
    """The `LucasTables` of every n below weight, read by `relation_rows` for weights up to it.

    The supports are read off the rows by `itertools.compress`, in C.  A
    pair (n, k) in the support of row n is the pair (a, b) = (n - k, k), so
    walking the rows in order appends each carry_free[a] in increasing b.
    """
    rows = [lucas_row(n, p) for n in range(weight)]
    support = [list(itertools.compress(range(1, n), row[1:n])) for n, row in enumerate(rows)]
    carry_free: List[List[int]] = [[] for _ in range(weight)]
    for n, ks in enumerate(support):
        for k in ks:
            carry_free[n - k].append(k)
    return LucasTables(rows, support, carry_free)


def relation_rows(N: int, p: int, tables: Optional[LucasTables] = None) -> Iterator[Relation]:
    """The distinct coassociativity constraints on (r_1, ..., r_{N-1}).

    Each (a, b) gives C(a+b, b) r_{a+b} = C(b+c, b) r_a with c = N - a - b,
    a relation (i, u, j, v), u x_i = v x_j, on the unknowns x_{k-1} = r_k.
    Those with both coefficients nonzero mod p are yielded in (a, b) order.
    Those with none say 0 = 0 and are dropped.  Those with one force its
    unknown to 0; after the loop each forced unknown is yielded once, in
    increasing order, as (i, 1, i, 0).  A vector satisfies every yielded
    relation exactly when it satisfies every (a, b) relation.

    Most (a, b) say 0 = 0, so only the others are walked: for each a, the b
    in the support of C(N - a, .), which give the two-term relations and
    forced x_{a-1}, and the b carry-free with a, which force x_{a+b-1}
    where C(N - a, b) vanishes.  tables must be lucas_tables(M, p) for some
    M >= N; callers solving many weights build them once and pass them.
    """
    rows, support, carry_free = lucas_tables(N, p) if tables is None else tables
    forced = set()
    for a in range(1, N - 1):
        outer = rows[N - a]  # C(b + c, b) with c = N - a - b >= 1
        for b in support[N - a]:
            u = rows[a + b][b]
            if u:
                yield a + b - 1, u, a - 1, outer[b]
            else:
                forced.add(a - 1)
        for b in carry_free[a]:
            if b >= N - a:
                break
            if not outer[b]:
                forced.add(a + b - 1)
    for i in sorted(forced):
        yield i, 1, i, 0


def _checked(
    relations: Iterable[Relation], vectors: Sequence[List[int]], p: int, broken: List[Relation]
) -> Iterator[Relation]:
    """Pass the relations through, recording each one that some vector breaks.

    Vectors are dense lists, entry i the value of unknown i, as
    `closed_form_vectors` states them; the relations are evaluated on them
    directly, so the claimed vectors are tested independently of whatever
    solves the system.
    """
    for rel in relations:
        i, u, j, v = rel
        for vec in vectors:
            if (u * vec[i] - v * vec[j]) % p:
                broken.append(rel)
                break
        yield rel


def closed_form_vectors(N: int, p: int) -> Tuple[str, List[List[int]], Dict[str, object]]:
    """(type, claimed kernel basis, normal-form descriptor) for weight N.

    Each claimed vector is 1 at its own pivot and 0 at the other pivots.
    """
    kind, powers = classify_weight(N, p)
    if kind == P_POWER:
        vec = [binom_div_p(N, k, p) for k in range(1, N)]
        pivot = N // p
        return kind, [vec], {"pivot": pivot, "pivot_value": vec[pivot - 1]}
    if kind == TWO_POWERS:
        return kind, [[int(k == pivot) for k in range(1, N)] for pivot in powers], {"pivots": powers}
    (top,) = powers
    row = lucas_row(N, p)
    inv = pow(row[top], -1, p)
    vec = [c * inv % p for c in row[1:N]]
    return kind, [vec], {"pivot": top, "pivot_value": vec[top - 1]}


def _pivots(kind: str, normal: Dict[str, object]) -> Tuple[int, ...]:
    """The pivot positions of `closed_form_vectors`' claimed basis, one per vector."""
    return normal["pivots"] if kind == TWO_POWERS else (normal["pivot"],)


def relation_module(N: int, p: int, tables: Optional[LucasTables] = None) -> Dict[str, object]:
    """Solve the weight-N constraint system and verify the closed form.

    Returns the computed kernel dimension, the classified type, and whether
    the closed-form spanning set matches the kernel exactly: membership is
    evaluated on every constraint, and the claimed vectors must be as many
    as the kernel's dimension and in the pivot form that
    `decompose_coproduct` reads coordinates off (each 1 at its own pivot, 0
    at the others), which makes them independent.  tables is passed to
    `relation_rows`.
    """
    if N < 3:
        raise ValueError("weights below 3 carry no constraints worth solving")
    kind, claimed, normal = closed_form_vectors(N, p)
    broken: List[Relation] = []
    kernel = two_term_kernel(N - 1, _checked(relation_rows(N, p, tables), claimed, p, broken), p)
    pivots = _pivots(kind, normal)
    pivot_form = all(vec[k - 1] == int(k == own) for own, vec in zip(pivots, claimed) for k in pivots)
    agrees = not broken and pivot_form and len(kernel) == len(claimed) == len(pivots)
    return {
        "type": kind,
        "dimension": len(kernel),
        "normal_form": normal,
        "agrees": agrees,
    }


# ---------------------------------------------------------------------------
# decomposing a concrete coefficient table
# ---------------------------------------------------------------------------


def decompose_coproduct(N: int, coeffs: Dict[int, int], p: int) -> Dict[str, object]:
    """Reject an incoassociative table or split it into canonical parts.

    coeffs maps positions 1..N-1 to coefficients, read mod p; absent ones
    are 0.  The relations are scanned in lexicographic (a, b) order and the
    first failure is reported as a witness triple.  A consistent table is
    then checked against the claimed basis from `closed_form_vectors`: its
    values at the pivots are its coordinates, and the first position where
    the table leaves their span is a ("pattern", k) witness.  The parts are
    read off the coordinates: a p_part on the divided row for p-power
    weights, otherwise a round multiple of the Lucas row plus, for
    two-power weights, a skew unit at the smaller power.  Every reported
    part lies in 0..p-1.
    """
    table = [coeffs.get(k, 0) % p for k in range(N)]
    binoms = [lucas_row(n, p) for n in range(N)]
    for a in range(1, N - 1):
        outer = binoms[N - a]  # C(b + c, b) with c = N - a - b >= 1
        for b in range(1, N - a):
            if binoms[a + b][b] * table[a + b] % p != outer[b] * table[a] % p:
                return {"N": N, "p": p, "consistent": False, "witness": (a, b, N - a - b)}
    kind, claimed, normal = closed_form_vectors(N, p)
    pivots = _pivots(kind, normal)
    coords = [table[k] for k in pivots]
    for k in range(1, N):
        if table[k] != sum(x * vec[k - 1] for x, vec in zip(coords, claimed)) % p:
            return {"N": N, "p": p, "consistent": False, "witness": ("pattern", k)}
    result: Dict[str, object] = {"N": N, "p": p, "consistent": True, "type": kind}
    if kind == P_POWER:
        result["p_part"] = coords[0]
        return result
    # the Lucas row is C(N, top) = N // top times the vector of the leading
    # power top, and for two-power weights it is the sum of both unit vectors
    result["round"] = coords[0] * pow(N // pivots[0], -1, p) % p
    if kind == TWO_POWERS:
        result["skew"] = (coords[1] - coords[0]) % p
        result["skew_position"] = pivots[1]
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
    Monomials must be sorted as `cube_monomial` builds them.  The branch
    variables (d, 0) < (d, 1) sort exactly where (d, -1) stood, so each new
    monomial is spliced from slices of the old one without sorting, and
    distinct (monomial, j) pairs give distinct monomials, so no two terms
    meet.  Directions already pinched must not be pinched again.
    """
    lo, hi = (direction, 0), (direction, 1)
    # exponent e -> [(branch part of m_d^e's j-th term, C(e, j) mod p) for C(e, j) != 0];
    # the slice drops the branch whose exponent is 0
    spreads: Dict[int, List[Tuple[CubeMonomial, int]]] = {}
    out: CubeElement = {}
    for mon, coeff in elem.items():
        i = 0
        while i < len(mon) and mon[i][0][0] < direction:
            i += 1
        head, exp = mon[:i], 0
        if i < len(mon) and mon[i][0] == (direction, -1):
            exp = mon[i][1]
            i += 1
        tail = mon[i:]
        if tail and tail[0][0][0] == direction:
            raise ValueError(f"direction {direction} is already pinched")
        if exp not in spreads:
            spreads[exp] = [
                (((lo, j), (hi, exp - j))[j == 0 : 1 + (j < exp)], c)
                for j in range(exp + 1)
                if (c := comb(exp, j) % p)
            ]
        for mid, c in spreads[exp]:
            c = coeff * c % p
            if c:
                out[head + mid + tail] = c
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
        "monomials_checked": checked,
        "orders_per_monomial": factorial(n_directions),
        "failures": failures,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# Lucas against Pascal
# ---------------------------------------------------------------------------


def lucas_row(n: int, p: int) -> List[int]:
    """[C(n, k) mod p for k in 0..n] built digitwise in O(n).

    Each base-p digit d of n, most significant first, turns the row R of the
    prefix value v into the row of v * p + d, whose entry i * p + j is
    C(d, j) R[i] (Lucas).  So every digit step fills the slice new[j::p]
    with R, or with a copy of R scaled by C(d, j) mod p, in one slice
    assignment.
    The row stays a list for every prime: entries reach p - 1, which no
    byte holds once p > 256.
    """
    row = [1]
    value = 0
    for d in reversed(digits(n, p)):
        value = value * p + d
        new = [0] * (value + 1)
        scaled = {1: row}  # C(d, j) = C(d, d - j): each distinct factor is scaled once
        for j in range(d + 1):
            b = comb(d, j) % p
            if b not in scaled:
                scaled[b] = [c * b % p for c in row]
            new[j::p] = scaled[b]
        row = new
    return row


def lucas_vs_pascal(p: int, n_max: int) -> Dict[str, object]:
    """Compare the digitwise rows with iteratively built Pascal rows mod p.

    Pascal row n is packed into one int, one byte per entry C(n, k) mod p at
    byte k.  Row n + 1 is x = row + (row << 8), each byte the sum of two
    entries, and every byte at least p loses p: x + bias sets bit 7 of
    exactly those bytes, bias holding 128 - p in every byte.  That needs
    2(p - 1) + 128 - p < 256, or a byte would carry into its neighbour, so
    primes p >= 128 are refused.
    """
    if p >= 128:
        raise ValueError(f"packed Pascal rows need p < 128, got {p}")
    ones = int.from_bytes(b"\x01" * (n_max + 1), "little")
    bias, hi = (128 - p) * ones, 0x80 * ones
    pascal = 1
    first_mismatch: Optional[Tuple[int, int]] = None
    for n in range(n_max + 1):
        if n:
            x = pascal + (pascal << 8)
            pascal = x - (((x + bias) & hi) >> 7) * p
        row = bytes(lucas_row(n, p))
        packed = pascal.to_bytes(n + 1, "little")
        if row != packed and first_mismatch is None:
            k = next(i for i in range(n + 1) if row[i] != packed[i])
            first_mismatch = (n, k)
    return {
        "first_mismatch": first_mismatch,
        "passed": first_mismatch is None,
    }
