"""The acceptance suite: each check certifies one verified claim.

Every function returns a :class:`CheckResult` whose ``details`` are plain
JSON-safe data, so the CLI's ``verify-all`` report and the test suite consume
the same objects.  Each check fixes the suite's contractual values and
records them in ``params``; ``run_all`` executes the whole battery in a
fixed order.  Randomized checks take an explicit seed and record it,
making reports reproducible byte for byte.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import admissible_words as aw
from . import bar_tor
from . import graded_hopf as gh
from . import multifold as mf
from . import spectral_engine as se
from . import torus_model as tm
from .fp_linalg import add_to


class CheckResult(NamedTuple):
    id: str
    params: Dict[str, object]
    passed: bool
    details: Dict[str, object]


# ---------------------------------------------------------------------------
# Tor oracle vs the word-algebra ladder
# ---------------------------------------------------------------------------


def tor_ladder(p: int) -> CheckResult:
    """Tor over each rung of the word-algebra ladder matches the next rung."""
    rungs = [(1, 2, 30), (2, 3, 24), (3, 4, 2 + 4 * p)]
    details = []
    passed = True
    for n, m, bound in rungs:
        report = bar_tor.verify_tor_iso(aw.word_algebra(n, p, bound), aw.word_algebra(m, p, bound))
        details.append(
            {
                "rung": f"{n}->{m}",
                "max_degree": bound,
                "passed": report["passed"],
                "first_mismatch": report["first_mismatch"],
            }
        )
        passed = passed and report["passed"]
    return CheckResult("tor.iso", {"p": p}, passed, {"rungs": details})


# ---------------------------------------------------------------------------
# word combinatorics
# ---------------------------------------------------------------------------


def word_laws(p: int) -> CheckResult:
    max_length, bound = 8, 2 * p * p
    report = aw.check_word_laws(p, max_length, bound)
    return CheckResult(
        "word-structure.parts",
        {"p": p, "max_length": max_length, "max_degree": bound},
        report["passed"],
        {
            "words_checked": report["words_checked"],
            "monic_checked": report["monic_checked"],
            "failures": report["failures"],
        },
    )


def primitive_routes(spec: gh.AlgebraSpec) -> List[Tuple[int, int, int]]:
    """(degree, coproduct-kernel dimension, monic-word count) for degrees 1..degree_bound.

    spec is a word algebra, from `aw.word_algebra`.  The two counts are
    independent routes to its primitives and must agree in every degree.
    The words are enumerated once, when the spec is built: its generators
    are the monic words (for length 1, mu).
    """
    word_counts = Counter(g.degree for g in spec.generators)
    return [(t, len(gh.primitive_basis(spec, t)), word_counts[t]) for t in range(1, spec.degree_bound + 1)]


def primitive_gap(p: int) -> CheckResult:
    """Primitives of the word algebras vanish in the forbidden degree pairs.

    Certified two independent ways per algebra: coproduct-kernel dimensions
    and monic-word counts — which must also agree in every degree.
    """
    bound = 12 * p
    gap_degrees = []
    i = 2
    while 2 * p * i <= bound:
        gap_degrees.extend([2 * p * i - 1, 2 * p * i])
        i += 1
    per_n = []
    passed = True
    for n in range(2, 2 * p + 1):
        routes = primitive_routes(aw.word_algebra(n, p, bound))
        agree = all(kdim == wcount for _, kdim, wcount in routes)
        gap_ok = all(not kdim and not wcount for t, kdim, wcount in routes if t in gap_degrees)
        per_n.append(
            {
                "n": n,
                "routes_agree": agree,
                "gap_clear": gap_ok,
                "primitive_degrees": [t for t, kdim, _ in routes if kdim],
            }
        )
        passed = passed and agree and gap_ok
    return CheckResult(
        "primitives.gap",
        {"p": p, "max_degree": bound, "gap_degrees": gap_degrees},
        passed,
        {"per_n": per_n},
    )


def digit_sum_words(p: int) -> CheckResult:
    report = aw.digit_sum_checks(p, p, 2 * p * p)
    return CheckResult(
        "digit-sum.words",
        {"p": p, "max_length": p, "max_degree": 2 * p * p},
        report["passed"],
        {
            "generators_checked": report["generators_checked"],
            "product_checked": report["product_checked"],
            "comult_checked": report["comult_checked"],
            "failures": report["failures"],
        },
    )


def digit_sum_degree_sets(p: int) -> CheckResult:
    per_n = []
    passed = True
    for n in range(2, p + 1):
        report = tm.multifold_primitive_degree_check(n, p, 2 * p * p)
        per_n.append(
            {
                "n": n,
                "passed": report["passed"],
                "words_checked": report["words_checked"],
                "violations": report["violations"],
            }
        )
        passed = passed and report["passed"]
    return CheckResult(
        "digit-sum.degree-sets",
        {"p": p, "max_degree": 2 * p * p},
        passed,
        {"per_n": per_n},
    )


# ---------------------------------------------------------------------------
# binomial arithmetic and relation modules
# ---------------------------------------------------------------------------


def lucas_pascal() -> CheckResult:
    n_max, primes = 2000, (3, 5, 7)
    per_p = []
    passed = True
    for p in primes:
        report = mf.lucas_vs_pascal(p, n_max)
        per_p.append({"p": p, "first_mismatch": report["first_mismatch"]})
        passed = passed and report["passed"]
    return CheckResult(
        "lucas.pascal", {"n_max": n_max, "primes": list(primes)}, passed, {"per_p": per_p}
    )


def relation_forms(p: int) -> CheckResult:
    n_max = 200
    failures = []
    by_type: Dict[str, int] = {}
    # every weight reads the same Lucas rows; build them once for this call
    binoms = [mf.lucas_row(n, p) for n in range(n_max)]
    for big_n in range(3, n_max + 1):
        report = mf.relation_module(big_n, p, binoms)
        by_type[report["type"]] = by_type.get(report["type"], 0) + 1
        if not report["agrees"]:
            failures.append(big_n)
    return CheckResult(
        "relations.closed-forms",
        {"p": p, "weights": f"3..{n_max}"},
        not failures,
        {"by_type": by_type, "failures": failures},
    )


# ---------------------------------------------------------------------------
# spectral engine certificates
# ---------------------------------------------------------------------------


def p_term() -> CheckResult:
    configs = [(3, [2], 30), (3, [2, 2], 30), (5, [2], 50)]
    details = []
    passed = True
    for p, degrees, bound in configs:
        report = se.verify_p_term(p, degrees, bound)
        details.append(
            {
                "p": p,
                "x_degrees": degrees,
                "max_total": bound,
                "passed": report["passed"],
            }
        )
        passed = passed and report["passed"]
    return CheckResult("pterm.closed-form", {"configs": len(configs)}, passed, {"configs": details})


def change_basis() -> CheckResult:
    configs = [
        (3, 2, (1,)),
        (3, 2, (2, 2)),
        (5, 1, (1,)),
        (5, 1, (3, 1, 4)),
    ]
    details = []
    passed = True
    for p, k_max, coeffs in configs:
        report = se.change_basis_cycles(p, k_max, coeffs)
        details.append(
            {
                "p": p,
                "k_max": k_max,
                "r_coeffs": list(coeffs),
                "cycles": report["cycle_checks"],
                "pth_powers": report["power_checks"],
                "exchange_invertible": report["exchange_invertible"],
                "passed": report["passed"],
            }
        )
        passed = passed and report["passed"]
    return CheckResult("changebasis.cycles", {"configs": len(configs)}, passed, {"configs": details})


def rognes_passed(report: Dict[str, object]) -> bool:
    """Verdict on one `rognes_check` report.

    Without the witness column the power classes must be obstructed; with
    it they must be hit, by the canonical column with coefficient 1,
    verified on the page.
    """
    if report["witness_included"]:
        return (
            not report["obstructed"]
            and report["witness_coefficient"] == 1
            and report["canonical_solves"]
            and report["witness_verified"]
        )
    return report["obstructed"]


def rognes() -> CheckResult:
    details = []
    passed = True
    for p, n in [(3, 2), (5, 2), (5, 3)]:
        plain = se.rognes_check(p, n)
        control = se.rognes_check(p, n, include_witness=True)
        ok = rognes_passed(plain) and rognes_passed(control)
        details.append(
            {
                "p": p,
                "n": n,
                "obstructed": plain["obstructed"],
                "rank_gap": plain["rank_gap"],
                "rows": plain["rows"],
                "cols": plain["cols"],
                "control_hit": not control["obstructed"],
                "control_verified": bool(control.get("witness_verified")),
                "passed": ok,
            }
        )
        passed = passed and ok
    return CheckResult("rognes.obstruction", {"pairs": [[3, 2], [5, 2], [5, 3]]}, passed, {"pairs": details})


def cube_order() -> CheckResult:
    report = mf.pinch_order_report(3, 20, 5)
    return CheckResult(
        "cubes.order-independence",
        {"directions": 3, "max_degree": 20, "p": 5},
        report["passed"],
        {
            "monomials_checked": report["monomials_checked"],
            "orders_per_monomial": report["orders_per_monomial"],
            "failures": report["failures"],
        },
    )


# ---------------------------------------------------------------------------
# torus dimension bookkeeping
# ---------------------------------------------------------------------------


def torus_poincare(p: int) -> CheckResult:
    per_n = []
    passed = True
    for n in range(1, 4):
        report = tm.torus_poincare_report(n, p, 4 * p)
        per_n.append({"n": n, "passed": report["passed"], "series": report["series"]})
        passed = passed and report["passed"]
    return CheckResult(
        "poincare.factorization", {"p": p, "max_degree": 4 * p}, passed, {"per_n": per_n}
    )


# ---------------------------------------------------------------------------
# suspension operator contract
# ---------------------------------------------------------------------------


def _word_labels_below(torus: tm.TorusAlgebra, mon: gh.Monomial, v: int) -> bool:
    """Whether every word factor of `mon` carries labels below v; xi and tau factors carry none."""
    for gi, _ in mon:
        tag = torus.info[gi]
        if tag[0] == tm.WORD and max(tag[1]) >= v:
            return False
    return True


def _random_bounded(mons: Sequence[gh.Monomial], p: int, rng: random.Random) -> gh.Element:
    """Up to three distinct monomials of the pool with random nonzero coefficients."""
    if not mons:
        return {}
    out: gh.Element = {}
    for mon in rng.sample(mons, min(3, len(mons))):
        out[mon] = rng.randrange(1, p)
    return out


def sigma_contract(p: int, seed: int) -> CheckResult:
    """Derivation law, image ideal membership, and top-cell projections."""
    pairs = 1000
    bound = 4 * p + 2
    rng = random.Random(seed)
    tori = {n: tm.build_torus(n, p, bound) for n in (2, 3, 4)}

    # the draw pool of each (n, t): nonconstant degree-t monomials of torus n
    # whose word labels stay below n, filtered once for this call
    pools: Dict[Tuple[int, int], List[gh.Monomial]] = {}

    def pool(n: int, t: int) -> List[gh.Monomial]:
        if (n, t) not in pools:
            torus = tori[n]
            pools[n, t] = [
                m for m in gh.basis(torus.spec, t) if m and _word_labels_below(torus, m, n)
            ]
        return pools[n, t]

    derivation_failures = 0
    checked = 0
    while checked < pairs:
        n = rng.choice((2, 3, 4))
        torus = tori[n]
        da = rng.randrange(1, bound // 2)
        db = rng.randrange(1, bound // 2)
        a = _random_bounded(pool(n, da), p, rng)
        b = _random_bounded(pool(n, db), p, rng)
        if not a or not b:
            continue
        lhs = tm.sigma(torus, n, gh.multiply(torus.spec, a, b))
        rhs = gh.add(
            gh.multiply(torus.spec, tm.sigma(torus, n, a), b),
            gh.scalar_mul((-1) ** da, gh.multiply(torus.spec, a, tm.sigma(torus, n, b)), p),
            p,
        )
        if lhs != rhs:
            derivation_failures += 1
        checked += 1

    ideal_checked = 0
    ideal_failures: List[str] = []
    for n, torus in tori.items():
        for gi, g in enumerate(torus.spec.generators):
            tag, payload, _word = torus.info[gi]
            if tag != tm.WORD:
                continue
            for v in range(max(payload) + 1, n + 1):
                image = tm.sigma(torus, v, {((gi, 1),): 1})
                ideal_checked += 1
                if not tm.in_p_ideal(torus, image):
                    ideal_failures.append(f"n={n} v={v} {g.label}")

    topcell_checked = 0
    topcell_failures: List[str] = []
    for n, torus in tori.items():
        full = tuple(range(1, n))
        for gi, g in enumerate(torus.spec.generators):
            tag, payload, word = torus.info[gi]
            if tag != tm.WORD or n in payload:
                continue
            image = tm.sigma(torus, n, {((gi, 1),): 1})
            projected = tm.project_top_cell(torus, image)
            if tuple(sorted(payload)) == full:
                prefix = aw.rho_sup(0) if g.degree % 2 else aw.L_RHO
                label = aw.labeled_render(
                    (prefix,) + word, tuple(sorted(payload + (n,)))
                )
                expected: gh.Element = {}
                if label in torus.index and g.degree + 1 <= bound:
                    expected = {((torus.index[label], 1),): 1}
            else:
                expected = {}
            topcell_checked += 1
            if projected != expected:
                topcell_failures.append(f"n={n} {g.label}")

    passed = not derivation_failures and not ideal_failures and not topcell_failures
    return CheckResult(
        "sigma.contract",
        {"p": p, "seed": seed, "pairs": pairs, "max_degree": bound},
        passed,
        {
            "derivation_checked": checked,
            "derivation_failures": derivation_failures,
            "ideal_checked": ideal_checked,
            "ideal_failures": ideal_failures,
            "topcell_checked": topcell_checked,
            "topcell_failures": topcell_failures,
        },
    )


# ---------------------------------------------------------------------------
# algebra core property battery
# ---------------------------------------------------------------------------


def _coproduct_on_side(
    spec: gh.AlgebraSpec,
    ts: gh.TensorSquare,
    side: int,
    table: Dict[gh.Monomial, gh.TensorSquare],
):
    """(psi (x) 1) ts for side 0, (1 (x) psi) ts for side 1, in A (x) A (x) A.

    table maps each side monomial already expanded to its coproduct and
    gains the new ones; each monomial is looked up there by one `get`.
    """
    p = spec.p
    out: Dict[Tuple[gh.Monomial, gh.Monomial, gh.Monomial], int] = {}
    for pair, c in ts.items():
        mon = pair[side]
        splits = table.get(mon)
        if splits is None:
            splits = table[mon] = gh.coproduct(spec, {mon: 1})
        for split, d in splits.items():
            add_to(out, pair[:side] + split + pair[side + 1 :], c * d, p)
    return out


def _core_config(p: int) -> gh.AlgebraSpec:
    return gh.algebra(
        [
            gh.exterior("a", 3),
            gh.polynomial("m", 2),
            gh.divided("g", 2),
            gh.truncated("u", 4),
        ],
        4 * p + 10,
        p,
    )


def core_properties(p: int, seed: int) -> CheckResult:
    """Six structural laws, each on 1000 random homogeneous draws."""
    cases = 1000
    spec = _core_config(p)
    bound = spec.degree_bound
    rng = random.Random(seed)
    counts: Dict[str, int] = {}
    failures: Dict[str, int] = {}

    def draw(max_t: int, even: bool = False) -> Tuple[int, gh.Element]:
        while True:
            t = rng.randrange(1, max_t + 1)
            if even:
                t = 2 * ((t + 1) // 2)
            e = gh.random_homogeneous(spec, t, rng)
            if e:
                return t, e

    def tally(law: str, ok: bool) -> None:
        counts[law] = counts.get(law, 0) + 1
        if not ok:
            failures[law] = failures.get(law, 0) + 1

    # monomial products recur across draws; the table lives for this call only
    products = gh.ProductTable()

    def mul(x: gh.Element, y: gh.Element) -> gh.Element:
        return gh.multiply(spec, x, y, products)

    third = bound // 3
    for _ in range(cases):
        _, a = draw(third)
        _, b = draw(third)
        _, c = draw(third)
        tally("associativity", mul(mul(a, b), c) == mul(a, mul(b, c)))

    for _ in range(cases):
        ta, a = draw(bound // 2)
        tb, b = draw(bound // 2)
        sign = -1 if (ta * tb) % 2 else 1
        tally("graded-commutativity", mul(a, b) == gh.scalar_mul(sign, mul(b, a), p))

    # the side monomials of the coassociativity law recur across draws;
    # their coproducts are kept for this law only
    sides: Dict[gh.Monomial, gh.TensorSquare] = {}
    for _ in range(cases):
        _, a = draw(bound // 2)
        ts = gh.coproduct(spec, a)
        tally("coassociativity", _coproduct_on_side(spec, ts, 0, sides) == _coproduct_on_side(spec, ts, 1, sides))
    del sides

    # the closed-form coproduct against products in A and in A (x) A
    for _ in range(cases):
        _, a = draw(bound // 2)
        _, b = draw(bound // 2)
        lhs = gh.coproduct(spec, mul(a, b))
        rhs = gh.tensor_multiply(spec, gh.coproduct(spec, a), gh.coproduct(spec, b), products)
        tally("comultiplication", lhs == rhs)

    for _ in range(cases):
        _, a = draw(bound // p, even=True)
        _, b = draw(bound // p, even=True)
        lhs = gh.power(spec, gh.add(a, b, p), p, products)
        rhs = gh.add(gh.power(spec, a, p, products), gh.power(spec, b, p, products), p)
        tally("frobenius", lhs == rhs)

    kinds = [
        lambda lab, d: gh.exterior(lab, 2 * d + 1),
        lambda lab, d: gh.divided(lab, 2 * d),
    ]
    for _ in range(cases):
        gens = [
            rng.choice(kinds)(f"v{i}", rng.randrange(1, 4))
            for i in range(rng.randrange(1, 4))
        ]
        small = gh.algebra(gens, 10, p)
        tally("dualize-dimensions", gh.poincare_series(gh.dualize(small), 10) == gh.poincare_series(small, 10))

    return CheckResult(
        "algebra.core",
        {"p": p, "seed": seed, "cases": cases},
        not failures,
        {"counts": counts, "failures": failures},
    )


# ---------------------------------------------------------------------------
# the full battery
# ---------------------------------------------------------------------------


def run_all(seed: int = 0) -> List[CheckResult]:
    """Every acceptance check, in a fixed order."""
    results: List[CheckResult] = []
    for p in (3, 5):
        results.append(tor_ladder(p))
    for p in (3, 5):
        results.append(word_laws(p))
    for p in (3, 5):
        results.append(primitive_gap(p))
    for p in (3, 5):
        results.append(digit_sum_words(p))
        results.append(digit_sum_degree_sets(p))
    results.append(lucas_pascal())
    for p in (3, 5):
        results.append(relation_forms(p))
    results.append(p_term())
    results.append(change_basis())
    results.append(rognes())
    results.append(cube_order())
    for p in (3, 5):
        results.append(torus_poincare(p))
    for p in (3, 5):
        results.append(sigma_contract(p, seed))
    for p in (3, 5):
        results.append(core_properties(p, seed))
    return results
