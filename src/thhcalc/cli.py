"""Command-line front end: one verb per verification family.

Every invocation produces a machine-readable report — JSON (the default,
schema string ``thhcalc/1``) or CSV — written to stdout or ``--out``.  The
same configuration and seed always produce byte-identical bytes: reports
carry no timestamps, dictionary keys are emitted sorted, and every random
draw is seeded.  The exit status is 0 exactly when every check the verb ran
passed, 1 when one failed, 2 for invalid configuration (including an input
above a cost guard), and 3 when the program itself failed: any exception
other than a configuration error, such as a `ContractViolation`, is printed
as one ``internal error:`` line on stderr, without a traceback.

Each verb registers only the flags its handler reads, so a flag that would
do nothing is a usage error (argparse, exit 2).

Cost guards refuse, with exit 2 and before anything is built, an input whose
cost would run to hours: `--p` above `MAX_PRIME`, `relations` and
`decompose` above weight `MAX_WEIGHT`, `rognes` above
`MAX_ROGNES_COMPOSITIONS` compositions of p^(n-1) into n parts,
`changebasis` when its replacements are built in more than
`MAX_BASIS_MONOMIALS` monomials or its p-th-power check makes more than
`MAX_POWER_PRODUCTS` monomial products, `primitives` when its coproduct
kernels have more than `MAX_BASIS_MONOMIALS` rows in all,
`pterm` when its page has more than that many of degree <= max_degree + 1,
`cubes` when one pinch order over its monomials gives more than that
many, and `words` when it would list more than that many words (with or
without `--monic`, whose filter runs after every word is walked), counted
length by length before any word is built, or when `--n` is above that
many letters, since the count and the walk are linear in the length.

Importing this module loads only what the `words`, `poincare`, `tor` and
`tor-check` verbs read: `admissible_words`, `graded_hopf` and `bar_tor`,
and `fp_linalg` through them.  Every verb runs in a process of its own, and
these verbs compute for milliseconds, so loading the rest would cost them
more than their work.  The other handlers import what they read on first
use: `checks` (`primitives`, `rognes`, `verify-all`), `multifold`
(`relations`, `decompose`, `cubes`) and `spectral_engine` (`pterm`,
`changebasis`, `rognes`), with `torus_model` behind the last two.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache
from math import comb
from typing import Callable, Dict, Iterable, Optional, Sequence

from . import admissible_words as aw
from . import bar_tor
from . import graded_hopf as gh
from .fp_linalg import MAX_PRIME, is_prime

SCHEMA = "thhcalc/1"

# Cost guards: larger inputs are refused at once with exit 2.
MAX_WEIGHT = 1000  # relations and decompose --n; each holds about N^2/2 numbers
MAX_ROGNES_COMPOSITIONS = 5000  # compositions of p^(n-1) into n parts
MAX_BASIS_MONOMIALS = 100_000  # changebasis and pterm pages, cubes pinches, words, primitives kernel rows
MAX_POWER_PRODUCTS = 500_000  # changebasis p-th-power check; about 1 s


class CLIError(Exception):
    """Invalid configuration; reported on stderr with exit status 2."""


def _require_odd_prime(p: int) -> int:
    if p > MAX_PRIME:
        raise CLIError(f"--p must be at most {MAX_PRIME}, got {p}")
    if p < 3 or not is_prime(p):
        raise CLIError(f"--p must be an odd prime, got {p}")
    return p


def _check_dict(
    check_id: str, params: Dict[str, object], passed: bool, details: Dict[str, object]
) -> Dict[str, object]:
    return {"id": check_id, "params": params, "verdict": "pass" if passed else "fail", "details": details}


def _stringify_keys(table: Dict) -> Dict[str, object]:
    return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): v for k, v in table.items()}


# ---------------------------------------------------------------------------
# verb handlers: each returns an envelope dict
# ---------------------------------------------------------------------------


def _envelope(verb: str, params: Dict[str, object], *, rows=None, columns=None, check_list=None) -> Dict[str, object]:
    check_list = check_list or []
    return {
        "schema": SCHEMA,
        "verb": verb,
        "params": params,
        "columns": columns or [],
        "rows": rows or [],
        "checks": check_list,
        "passed": all(c["verdict"] == "pass" for c in check_list),
    }


def _run_words(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if args.n < 1 or args.max_degree < 2:
        raise CLIError("--n must be >= 1 and --max-degree >= 2")
    # counting and listing are linear in the length, even when one word survives
    if args.n > MAX_BASIS_MONOMIALS:
        raise CLIError(f"--n must be at most {MAX_BASIS_MONOMIALS}, got {args.n}")
    if aw.count_words(args.n, p, args.max_degree, MAX_BASIS_MONOMIALS) > MAX_BASIS_MONOMIALS:
        raise CLIError(
            f"--p {p} --n {args.n} --max-degree {args.max_degree} lists more than {MAX_BASIS_MONOMIALS} words"
        )
    words = aw.enumerate_words(args.n, p, args.max_degree, monic_only=args.monic)
    rows = [
        [
            aw.render(w),
            len(w),
            aw.degree(w, p),
            aw.is_monic(w),
            "odd" if aw.degree(w, p) % 2 else "even",
        ]
        for w in words
    ]
    params = {"p": p, "n": args.n, "max_degree": args.max_degree, "monic": args.monic, "seed": args.seed}
    return _envelope("words", params, rows=rows, columns=["word", "length", "degree", "monic", "parity"])


def _run_poincare(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if args.n < 1 or args.max_degree < 2:
        raise CLIError("--n must be >= 1 and --max-degree >= 2")
    spec = aw.word_algebra(args.n, p, args.max_degree)
    series = gh.poincare_series(spec, args.max_degree)
    rows = [[t, d] for t, d in enumerate(series)]
    params = {"p": p, "n": args.n, "max_degree": args.max_degree, "seed": args.seed}
    return _envelope("poincare", params, rows=rows, columns=["degree", "dimension"])


def _run_tor(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if args.n < 1 or args.max_degree < 2:
        raise CLIError("--n must be >= 1 and --max-degree >= 2")
    spec = aw.word_algebra(args.n, p, args.max_degree)
    dims = bar_tor.tor_dims(spec)
    rows = [[s, t, d] for (s, t), d in sorted(dims.items())]
    params = {"p": p, "n": args.n, "max_degree": args.max_degree, "seed": args.seed}
    return _envelope("tor", params, rows=rows, columns=["s", "t", "dim"])


def _parse_rung(text: str) -> int:
    tag = text.lower().removeprefix("b")
    if not tag.isdecimal() or int(tag) < 1:
        raise CLIError(f"expected a word-algebra tag like b2, got {text!r}")
    return int(tag)


def _run_tor_check(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    src = _parse_rung(args.source)
    dst = _parse_rung(args.target)
    if args.max_degree < 2:
        raise CLIError("--max-degree must be >= 2")
    report = bar_tor.verify_tor_iso(aw.word_algebra(src, p, args.max_degree), aw.word_algebra(dst, p, args.max_degree))
    params = {"p": p, "from": f"b{src}", "to": f"b{dst}", "max_degree": args.max_degree, "seed": args.seed}
    details = {key: report[key] for key in ("got", "expected", "first_mismatch")}
    check = _check_dict("tor.iso", params, report["passed"], details)
    return _envelope("tor-check", params, check_list=[check])


def _tensor_square_size(series: Sequence[int]) -> int:
    """Pairs (m1, m2) of positive degrees summing to a degree t that has monomials.

    series is an algebra's dimension series up to its top degree; the pairs
    are the rows of `gh.primitive_basis` in every degree up to there.  The
    count stops soon after it passes `MAX_BASIS_MONOMIALS`.
    """
    top = len(series) - 1
    pieces = [(t, d) for t, d in enumerate(series) if t and d]
    total = 0
    for u, du in pieces:
        for v, dv in pieces:
            if u + v > top:
                break
            if series[u + v]:
                total += du * dv
        if total > MAX_BASIS_MONOMIALS:
            break
    return total


def _run_primitives(args) -> Dict[str, object]:
    from . import checks

    p = _require_odd_prime(args.p)
    if args.n < 1 or args.max_degree < 2:
        raise CLIError("--n must be >= 1 and --max-degree >= 2")
    spec = aw.word_algebra(args.n, p, args.max_degree)
    # the coproduct kernel in degree t has a row per pair (m1, m2) of positive
    # degrees summing to t: the tensor square's basis, which sets the cost.
    # Two distinct generators of degree at most half the cap multiply to a
    # monomial, so they give two rows; counting them first stops an algebra
    # of many generators before its series, generators times cap, is summed
    half = sum(2 * g.degree <= args.max_degree for g in spec.generators)
    _require_small_basis(
        f"--p {p} --n {args.n} --max-degree {args.max_degree}",
        "tensor-square",
        (half * (half - 1),),
        lambda: _tensor_square_size(gh.poincare_series(spec, args.max_degree)),
    )
    routes = checks.primitive_routes(spec)
    rows = [[t, kdim, wcount] for t, kdim, wcount in routes if kdim or wcount]
    agree = all(kdim == wcount for _, kdim, wcount in routes)
    params = {"p": p, "n": args.n, "max_degree": args.max_degree, "seed": args.seed}
    check_list = []
    if args.n >= 2:
        check_list.append(_check_dict("primitives.gap", params, agree, {"routes_agree": agree}))
    return _envelope(
        "primitives", params, rows=rows, columns=["degree", "kernel_dim", "word_count"], check_list=check_list
    )


def _run_relations(args) -> Dict[str, object]:
    from . import multifold as mf

    p = _require_odd_prime(args.p)
    if not 3 <= args.n <= MAX_WEIGHT:
        raise CLIError(f"--n (the weight) must be in 3..{MAX_WEIGHT}")
    report = mf.relation_module(args.n, p)
    params = {"p": p, "n": args.n, "seed": args.seed}
    rows = [[args.n, p, report["type"], report["dimension"], report["agrees"]]]
    details = {
        "type": report["type"],
        "dimension": report["dimension"],
        "normal_form": _stringify_keys(report["normal_form"]),
    }
    check = _check_dict("relations.closed-forms", params, report["agrees"], details)
    return _envelope(
        "relations", params, rows=rows, columns=["N", "p", "type", "dimension", "agrees"], check_list=[check]
    )


def _parse_table(text: str, weight: int) -> Dict[int, int]:
    coeffs: Dict[int, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            pos_text, val_text = item.split(":")
            pos, val = int(pos_text), int(val_text)
        except ValueError as exc:
            raise CLIError(f"--table entries must look like pos:coeff, got {item!r}") from exc
        if not 1 <= pos <= weight - 1:
            raise CLIError(f"--table position {pos} outside 1..{weight - 1}")
        if pos in coeffs:
            raise CLIError(f"--table position {pos} given twice")
        coeffs[pos] = val
    return coeffs


def _run_decompose(args) -> Dict[str, object]:
    from . import multifold as mf

    p = _require_odd_prime(args.p)
    if not 2 <= args.n <= MAX_WEIGHT:
        raise CLIError(f"--n (the weight) must be in 2..{MAX_WEIGHT}")
    if args.table is None:
        row = mf.lucas_row(args.n, p)
        table = {k: row[k] for k in range(1, args.n)}
    else:
        table = _parse_table(args.table, args.n)
    report = mf.decompose_coproduct(args.n, table, p)
    params = {"p": p, "n": args.n, "table": sorted(table.items()), "seed": args.seed}
    check = _check_dict("decompose.normal-form", params, report["consistent"], dict(report))
    return _envelope("decompose", params, check_list=[check])


def _run_cubes(args) -> Dict[str, object]:
    from . import multifold as mf

    p = _require_odd_prime(args.p)
    if not 1 <= args.n <= 3:
        raise CLIError("--n (pinch directions) must be 1..3")
    if args.max_degree < 0:
        raise CLIError("--max-degree must be >= 0")
    # one pinch order over the monomials of degree <= h gives C(h + 2n, 2n)
    h = args.max_degree // 2
    _require_small_basis(
        f"--n {args.n} --max-degree {args.max_degree}", "pinched", (), lambda: comb(h + 2 * args.n, 2 * args.n)
    )
    report = mf.pinch_order_report(args.n, args.max_degree, p)
    params = {"p": p, "n": args.n, "max_degree": args.max_degree, "seed": args.seed}
    details = {key: report[key] for key in ("monomials_checked", "orders_per_monomial", "failures")}
    check = _check_dict("cubes.order-independence", params, report["passed"], details)
    return _envelope("cubes", params, check_list=[check])


def _run_pterm(args) -> Dict[str, object]:
    from . import spectral_engine as se

    p = _require_odd_prime(args.p)
    towers, cap = args.towers, args.max_degree
    if towers < 1 or cap < 2:
        raise CLIError("--towers must be >= 1 and --max-degree >= 2")
    # the page walks every monomial of degree <= cap + 1; its towers of
    # degree 2 alone give C(h + k, k) of them for k towers, h = (cap + 1) // 2
    _require_small_basis(
        f"--p {p} --towers {towers} --max-degree {cap}",
        "page",
        (comb((cap + 1) // 2 + k, k) for k in range(1, towers + 1)),
        lambda: sum(gh.poincare_series(se.p_term_spec(p, [2] * towers, cap), cap + 1)),
    )
    report = se.verify_p_term(p, [2] * towers, cap)
    params = {"p": p, "towers": args.towers, "max_degree": args.max_degree, "seed": args.seed}
    details = {
        "homology": _stringify_keys(report["homology"]),
        "expected": _stringify_keys(report["expected"]),
    }
    check = _check_dict("pterm.closed-form", params, report["passed"], details)
    return _envelope("pterm", params, check_list=[check])


def _require_small_basis(what: str, basis: str, lower_bounds: Iterable[int], count: Callable[[], int]) -> None:
    """Refuse a run that walks more than `MAX_BASIS_MONOMIALS` basis monomials.

    lower_bounds are cheap closed forms, each at most the count, that grow
    with the input: checking them in order stops a huge input at the first
    one above the limit, before any algebra is built.  count() is then the
    exact figure, such as the sum of the algebra's dimension series.
    """
    if any(b > MAX_BASIS_MONOMIALS for b in lower_bounds) or count() > MAX_BASIS_MONOMIALS:
        raise CLIError(f"{what} needs more than {MAX_BASIS_MONOMIALS} {basis} monomials")


def _power_check_products(p: int, depth: int, n: int) -> int:
    """Monomial products of the check that the top replacement's p-th power vanishes.

    The replacement gamma_{p^k}(z') has C(p^(k-1) + n, n) terms for n
    coefficients, and its i-th power at most C(i p^(k-1) + n, n); the check
    multiplies each power by the replacement once.  Measured, the checks at
    every depth up to k make within 15 % of this many products, and they
    take most of the verb's time whenever there are two coefficients or
    more.  The sum stops once it passes `MAX_POWER_PRODUCTS`.
    """
    q = p ** (depth - 1)
    terms = comb(q + n, n)
    total = terms
    for i in range(1, p):
        total += terms * comb(i * q + n, n)
        if total > MAX_POWER_PRODUCTS:
            break
    return total


def _run_changebasis(args) -> Dict[str, object]:
    from . import spectral_engine as se

    p = _require_odd_prime(args.p)
    depth = args.depth if args.depth is not None else (2 if p == 3 else 1)
    try:
        coeffs = tuple(int(x) for x in args.r.split(",")) if args.r is not None else (1,)
    except ValueError as exc:
        raise CLIError(f"--r must be comma-separated integers, got {args.r!r}") from exc
    if depth < 1:
        raise CLIError("--k must be >= 1")
    # the exchange certificate builds gamma_a(z') for every a <= p^k out of
    # z, x_0 .. x_{L-1}, all of degree 2: C(p^k + L + 1, L + 1) monomials of
    # degree <= 2p^k; checking the smaller depths first stops a large --k
    # before p^k is formed
    n = len(coeffs)
    what = f"--p {p} --k {depth} with {n} --r coefficient(s)"
    _require_small_basis(
        what,
        "exchange-basis",
        (comb(p**k + n + 1, n + 1) for k in range(1, depth)),
        lambda: comb(p**depth + n + 1, n + 1),
    )
    if _power_check_products(p, depth, n) > MAX_POWER_PRODUCTS:
        raise CLIError(f"{what} needs more than {MAX_POWER_PRODUCTS} monomial products in its p-th-power check")
    report = se.change_basis_cycles(p, depth, coeffs)
    params = {"p": p, "k": depth, "r": list(coeffs), "seed": args.seed}
    details = {
        "cycles": report["cycle_checks"],
        "pth_powers": report["power_checks"],
        "exchange_invertible": report["exchange_invertible"],
    }
    check = _check_dict("changebasis.cycles", params, report["passed"], details)
    return _envelope("changebasis", params, check_list=[check])


def _run_rognes(args) -> Dict[str, object]:
    from . import checks
    from . import spectral_engine as se

    p = _require_odd_prime(args.p)
    if args.n < 2:
        raise CLIError("--n must be >= 2")
    # the system has n blocks of C(p^(n-1)+n-1, n-1) rows; the count grows
    # with n, so this loop stops at a small n before any large power
    for k in range(2, args.n + 1):
        if comb(p ** (k - 1) + k - 1, k - 1) > MAX_ROGNES_COMPOSITIONS:
            raise CLIError(
                f"--n {args.n} at --p {p} needs more than {MAX_ROGNES_COMPOSITIONS} "
                "compositions of p^(n-1) into n parts"
            )
    report = se.rognes_check(p, args.n, include_witness=args.control)
    params = {"p": p, "n": args.n, "control": args.control, "seed": args.seed}
    details = {
        "verdict": "obstructed" if report["obstructed"] else "hit",
        "rows": report["rows"],
        "cols": report["cols"],
        "rank_gap": report["rank_gap"],
    }
    if args.control and not report["obstructed"]:
        details["witness"] = sorted(
            [list(tag[1]), tag[0], coeff] for tag, coeff in report["witness"].items()
        )
        details["witness_verified"] = report["witness_verified"]
    check = _check_dict("rognes.obstruction", params, checks.rognes_passed(report), details)
    return _envelope("rognes", params, check_list=[check])


def _run_verify_all(args) -> Dict[str, object]:
    from . import checks

    results = checks.run_all(args.seed)
    params = {"seed": args.seed}
    check_list = [_check_dict(r.id, r.params, r.passed, r.details) for r in results]
    return _envelope("verify-all", params, check_list=check_list)


_HANDLERS = {
    "words": _run_words,
    "poincare": _run_poincare,
    "tor": _run_tor,
    "tor-check": _run_tor_check,
    "primitives": _run_primitives,
    "relations": _run_relations,
    "decompose": _run_decompose,
    "cubes": _run_cubes,
    "pterm": _run_pterm,
    "changebasis": _run_changebasis,
    "rognes": _run_rognes,
    "verify-all": _run_verify_all,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_json(envelope: Dict[str, object]) -> str:
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def _render_csv(envelope: Dict[str, object]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if envelope["rows"]:
        writer.writerow(envelope["columns"])
        for row in envelope["rows"]:
            writer.writerow(row)
    else:
        writer.writerow(["check", "verdict"])
        for check in envelope["checks"]:
            writer.writerow([check["id"], check["verdict"]])
    return buf.getvalue()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write --out {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Building it costs far more than a parse, so every `main` call in a
    process reuses the one parser; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="thhcalc",
        description="Exact-arithmetic verification of word-algebra, Tor, and page computations over F_p.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, summary, *, n=None, degree=True, p=True):
        """A verb's parser with only the shared flags its handler reads; n is --n's help."""
        sp = sub.add_parser(name, help=summary)
        if p:
            sp.add_argument("--p", type=int, default=3, help="odd prime (default 3)")
        if n:
            sp.add_argument("--n", type=int, default=2, help=n)
        if degree:
            sp.add_argument("--max-degree", type=int, default=20, help="degree cap (default 20)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
        sp.add_argument("--out", type=str, default=None, help="write the report to this path")
        return sp

    sp = verb("words", "enumerate admissible words", n="word length")
    sp.add_argument("--monic", action="store_true", help="restrict to monic words")

    verb("poincare", "dimension series of a word algebra", n="word length")
    verb("tor", "Tor dimensions over a word algebra, by bidegree", n="word length")

    sp = verb("tor-check", "Tor over one word algebra vs the next")
    sp.add_argument("--from", dest="source", type=str, required=True, help="source algebra tag, e.g. b2")
    sp.add_argument("--to", dest="target", type=str, required=True, help="expected answer tag, e.g. b3")

    verb("primitives", "primitive dimensions vs monic word counts", n="word length")
    verb("relations", "coproduct relation module at one weight", n=f"weight N, 3..{MAX_WEIGHT}", degree=False)

    sp = verb("decompose", "classify a coproduct coefficient table", n=f"weight N, 2..{MAX_WEIGHT}", degree=False)
    sp.add_argument("--table", type=str, default=None, help="comma-separated pos:coeff entries")

    sp = verb("cubes", "pinch-order independence of iterated coproducts", n="pinch directions")
    sp.set_defaults(n=3, max_degree=20, p=5)

    sp = verb("pterm", "height-p differential homology vs closed form")
    sp.add_argument("--towers", type=int, default=1, help="number of divided towers")

    sp = verb("changebasis", "certify divided-power replacement generators", degree=False)
    sp.add_argument("--k", dest="depth", type=int, default=None, help="tower depth (default 2 at p=3, else 1)")
    sp.add_argument("--r", type=str, default=None, help="comma-separated twisting coefficients")

    sp = verb("rognes", "two-column hitting problem for the power classes", n="torus coordinates", degree=False)
    sp.add_argument("--control", action="store_true", help="include the canonical witness column")

    verb("verify-all", "run the full acceptance battery", degree=False, p=False)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        envelope = _HANDLERS[args.verb](args)
        text = _render_csv(envelope) if args.format == "csv" else _render_json(envelope)
        _emit(text, args.out)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 3
    return 0 if envelope["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
