"""The acceptance suite: each check certifies one verified claim.

Every function returns a :class:`CheckResult` whose ``details`` are plain
JSON-safe data, so the CLI's ``verify-all`` report and the test suite consume
the same objects.  Parameters default to the suite's contractual values;
``run_all`` executes the whole battery in a fixed order.  Randomized checks
take an explicit seed and record it, making reports reproducible byte for
byte.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import admissible_words as aw
from . import bar_tor
from . import graded_hopf as gh
from . import multifold as mf
from . import spectral_engine as se
from . import torus_model as tm
from .fp_linalg import add_to


@dataclass
class CheckResult:
    id: str
    params: Dict[str, object]
    passed: bool
    details: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Tor oracle vs the word-algebra ladder
# ---------------------------------------------------------------------------


def tor_ladder(p: int) -> CheckResult:
    """Tor over each rung of the word-algebra ladder matches the next rung."""
    rungs = [(1, 2, 30), (2, 3, 24), (3, 4, 2 + 4 * p)]
    details = []
    passed = True
    for n, m, bound in rungs:
        report = bar_tor.verify_tor_iso(
            aw.word_algebra(n, p, bound), aw.word_algebra(m, p, bound), p, bound
        )
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


def word_laws(p: int, max_length: int = 8, max_degree: Optional[int] = None) -> CheckResult:
    bound = 2 * p * p if max_degree is None else max_degree
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


def primitive_routes(n: int, p: int, bound: int, mode: str = gh.TRUNCATING) -> List[Tuple[int, int, int]]:
    """(degree, coproduct-kernel dimension, monic-word count) for degrees 1..bound.

    The two counts are independent routes to the primitives of the length-n
    word algebra and must agree in every degree.
    """
    spec = aw.word_algebra(n, p, bound, mode=mode)
    word_counts = Counter(aw.degree(w, p) for w in aw.enumerate_monic(n, p, bound))
    return [(t, len(gh.primitive_basis(spec, t, p)), word_counts[t]) for t in range(1, bound + 1)]


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
        routes = primitive_routes(n, p, bound)
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


def lucas_pascal(n_max: int = 2000, primes: Sequence[int] = (3, 5, 7)) -> CheckResult:
    per_p = []
    passed = True
    for p in primes:
        report = mf.lucas_vs_pascal(p, n_max)
        per_p.append({"p": p, "first_mismatch": report["first_mismatch"]})
        passed = passed and report["passed"]
    return CheckResult(
        "lucas.pascal", {"n_max": n_max, "primes": list(primes)}, passed, {"per_p": per_p}
    )


def relation_forms(p: int, n_max: int = 200) -> CheckResult:
    failures = []
    by_type: Dict[str, int] = {}
    for big_n in range(3, n_max + 1):
        report = mf.relation_module(big_n, p)
        by_type[report["type"]] = by_type.get(report["type"], 0) + 1
        two_power = report["type"] == mf.TWO_POWERS
        if not report["agrees"] or (report["dimension"] == 2) != two_power:
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

    Without the witness column the power classes must be obstructed, the
    right-hand side raising the rank by exactly one; with it they must be
    hit, by the canonical column with coefficient 1, verified on the page.
    """
    if report["witness_included"]:
        return (
            not report["obstructed"]
            and report["witness_coefficient"] == 1
            and report["canonical_solves"]
            and report["witness_verified"]
        )
    return report["obstructed"] and report["rank_gap"] == 1


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
    for gi, _ in mon:
        tag, payload, _word = torus.info[gi]
        if tag == tm.WORD and max(payload) >= v:
            return False
    return True


def _random_bounded(torus: tm.TorusAlgebra, t: int, v: int, rng: random.Random) -> gh.Element:
    mons = [
        m
        for m in gh.basis(torus.spec, t, torus.p)
        if m and _word_labels_below(torus, m, v)
    ]
    if not mons:
        return {}
    out: gh.Element = {}
    for mon in rng.sample(mons, min(3, len(mons))):
        out[mon] = rng.randrange(1, torus.p)
    return out


def sigma_contract(p: int, seed: int, pairs: int = 1000) -> CheckResult:
    """Derivation law, image ideal membership, and top-cell projections."""
    bound = 4 * p + 2
    rng = random.Random(seed)
    tori = {n: tm.build_torus(n, p, bound) for n in (2, 3, 4)}

    derivation_failures = 0
    checked = 0
    while checked < pairs:
        n = rng.choice((2, 3, 4))
        torus = tori[n]
        da = rng.randrange(1, bound // 2)
        db = rng.randrange(1, bound // 2)
        a = _random_bounded(torus, da, n, rng)
        b = _random_bounded(torus, db, n, rng)
        if not a or not b:
            continue
        lhs = tm.sigma(torus, n, gh.multiply(torus.spec, a, b, p))
        rhs = gh.add(
            gh.multiply(torus.spec, tm.sigma(torus, n, a), b, p),
            gh.scalar_mul(
                (-1) ** da, gh.multiply(torus.spec, a, tm.sigma(torus, n, b), p), p
            ),
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


def _coproduct_on_side(spec: gh.AlgebraSpec, ts: gh.TensorSquare, p: int, side: int):
    """(psi (x) 1) ts for side 0, (1 (x) psi) ts for side 1, in A (x) A (x) A."""
    out: Dict[Tuple[gh.Monomial, gh.Monomial, gh.Monomial], int] = {}
    for pair, c in ts.items():
        for split, d in gh.coproduct(spec, {pair[side]: 1}, p).items():
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
    )


def core_properties(p: int, seed: int, cases: int = 1000) -> CheckResult:
    """Six structural laws, each on >= `cases` random homogeneous draws."""
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
            e = gh.random_homogeneous(spec, t, p, rng)
            if e:
                return t, e

    def tally(law: str, ok: bool) -> None:
        counts[law] = counts.get(law, 0) + 1
        if not ok:
            failures[law] = failures.get(law, 0) + 1

    third = bound // 3
    for _ in range(cases):
        _, a = draw(third)
        _, b = draw(third)
        _, c = draw(third)
        lhs = gh.multiply(spec, gh.multiply(spec, a, b, p), c, p)
        rhs = gh.multiply(spec, a, gh.multiply(spec, b, c, p), p)
        tally("associativity", lhs == rhs)

    for _ in range(cases):
        ta, a = draw(bound // 2)
        tb, b = draw(bound // 2)
        sign = -1 if (ta * tb) % 2 else 1
        tally(
            "graded-commutativity",
            gh.multiply(spec, a, b, p)
            == gh.scalar_mul(sign, gh.multiply(spec, b, a, p), p),
        )

    for _ in range(cases):
        _, a = draw(bound // 2)
        ts = gh.coproduct(spec, a, p)
        tally(
            "coassociativity",
            _coproduct_on_side(spec, ts, p, 0) == _coproduct_on_side(spec, ts, p, 1),
        )

    for _ in range(cases):
        _, a = draw(bound // 2)
        _, b = draw(bound // 2)
        lhs = gh.coproduct(spec, gh.multiply(spec, a, b, p), p)
        rhs = gh.tensor_multiply(
            spec, gh.coproduct(spec, a, p), gh.coproduct(spec, b, p), p
        )
        tally("comultiplication", lhs == rhs)

    for _ in range(cases):
        _, a = draw(bound // p, even=True)
        _, b = draw(bound // p, even=True)
        lhs = gh.power(spec, gh.add(a, b, p), p, p)
        rhs = gh.add(gh.power(spec, a, p, p), gh.power(spec, b, p, p), p)
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
        small = gh.algebra(gens, 10)
        tally(
            "dualize-dimensions",
            gh.poincare_series(gh.dualize(small), 10, p)
            == gh.poincare_series(small, 10, p),
        )

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
