"""Command-line front end: one verb per verification family.

Every invocation produces a machine-readable report — JSON (the default,
schema string ``thhcalc/1``) or CSV — written to stdout or ``--out``.  The
same configuration and seed always produce byte-identical bytes: reports
carry no timestamps, dictionary keys are emitted sorted, and every random
draw is seeded.  The exit status is 0 exactly when every check the verb ran
passed, 1 when one failed, and 2 for invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Dict, Optional, Sequence

from . import admissible_words as aw
from . import bar_tor
from . import checks
from . import graded_hopf as gh
from . import multifold as mf
from . import spectral_engine as se

SCHEMA = "thhcalc/1"

_VERBS = (
    "words",
    "poincare",
    "tor",
    "tor-check",
    "primitives",
    "relations",
    "decompose",
    "cubes",
    "pterm",
    "changebasis",
    "rognes",
    "verify-all",
)


class CLIError(Exception):
    """Invalid configuration; reported on stderr with exit status 2."""


def _require_odd_prime(p: int) -> int:
    if p < 3 or p % 2 == 0 or any(p % q == 0 for q in range(3, int(p**0.5) + 1, 2)):
        raise CLIError(f"--p must be an odd prime, got {p}")
    return p


def _mode(args: argparse.Namespace) -> str:
    return gh.STRICT if args.strict else gh.TRUNCATING


def _check_dict(result: checks.CheckResult) -> Dict[str, object]:
    return {
        "id": result.id,
        "params": result.params,
        "verdict": "pass" if result.passed else "fail",
        "details": result.details,
    }


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
    spec = aw.word_algebra(args.n, p, args.max_degree, mode=_mode(args))
    series = gh.poincare_series(spec, args.max_degree, p)
    rows = [[t, d] for t, d in enumerate(series)]
    params = {"p": p, "n": args.n, "max_degree": args.max_degree, "seed": args.seed}
    return _envelope("poincare", params, rows=rows, columns=["degree", "dimension"])


def _run_tor(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if args.n < 1 or args.max_degree < 2:
        raise CLIError("--n must be >= 1 and --max-degree >= 2")
    spec = aw.word_algebra(args.n, p, args.max_degree, mode=_mode(args))
    dims = bar_tor.tor_dims(spec, p, args.max_degree)
    rows = [[s, t, d] for (s, t), d in sorted(dims.items())]
    params = {"p": p, "n": args.n, "max_degree": args.max_degree, "seed": args.seed}
    return _envelope("tor", params, rows=rows, columns=["s", "t", "dim"])


def _parse_rung(text: str) -> int:
    tag = text.lower().lstrip("b")
    if not tag.isdigit() or int(tag) < 1:
        raise CLIError(f"expected a word-algebra tag like b2, got {text!r}")
    return int(tag)


def _run_tor_check(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    src = _parse_rung(args.source)
    dst = _parse_rung(args.target)
    if args.max_degree < 2:
        raise CLIError("--max-degree must be >= 2")
    report = bar_tor.verify_tor_iso(
        aw.word_algebra(src, p, args.max_degree),
        aw.word_algebra(dst, p, args.max_degree),
        p,
        args.max_degree,
    )
    params = {"p": p, "from": f"b{src}", "to": f"b{dst}", "max_degree": args.max_degree, "seed": args.seed}
    details = {key: report[key] for key in ("got", "expected", "first_mismatch")}
    check = _check_dict(checks.CheckResult("tor.iso", params, report["passed"], details))
    return _envelope("tor-check", params, check_list=[check])


def _run_primitives(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if args.n < 1 or args.max_degree < 2:
        raise CLIError("--n must be >= 1 and --max-degree >= 2")
    routes = checks.primitive_routes(args.n, p, args.max_degree, _mode(args))
    rows = [[t, kdim, wcount] for t, kdim, wcount in routes if kdim or wcount]
    agree = all(kdim == wcount for _, kdim, wcount in routes)
    params = {"p": p, "n": args.n, "max_degree": args.max_degree, "seed": args.seed}
    check_list = []
    if args.n >= 2:
        check_list.append(_check_dict(checks.CheckResult("primitives.gap", params, agree, {"routes_agree": agree})))
    return _envelope(
        "primitives", params, rows=rows, columns=["degree", "kernel_dim", "word_count"], check_list=check_list
    )


def _run_relations(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if args.n < 3:
        raise CLIError("--n (the weight) must be >= 3")
    report = mf.relation_module(args.n, p)
    params = {"p": p, "n": args.n, "seed": args.seed}
    rows = [[args.n, p, report["type"], report["dimension"], report["agrees"]]]
    details = {
        "type": report["type"],
        "dimension": report["dimension"],
        "normal_form": _stringify_keys(report["normal_form"]),
    }
    check = _check_dict(checks.CheckResult("relations.closed-forms", params, report["agrees"], details))
    return _envelope(
        "relations", params, rows=rows, columns=["N", "p", "type", "dimension", "agrees"], check_list=[check]
    )


def _parse_table(text: str, weight: int) -> mf.CoproductTable:
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
        coeffs[pos] = val
    return mf.CoproductTable(weight, coeffs)


def _run_decompose(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if args.n < 2:
        raise CLIError("--n (the weight) must be >= 2")
    if args.table is None:
        table = mf.CoproductTable(args.n, {k: mf.lucas(args.n, k, p) for k in range(1, args.n)})
    else:
        table = _parse_table(args.table, args.n)
    report = mf.decompose_coproduct(table, p)
    params = {"p": p, "n": args.n, "table": sorted(table.coeffs.items()), "seed": args.seed}
    check = _check_dict(checks.CheckResult("decompose.normal-form", params, report["consistent"], dict(report)))
    return _envelope("decompose", params, check_list=[check])


def _run_cubes(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if not 1 <= args.n <= 3:
        raise CLIError("--n (pinch directions) must be 1..3")
    report = mf.pinch_order_report(args.n, args.max_degree, p)
    params = {"p": p, "n": args.n, "max_degree": args.max_degree, "seed": args.seed}
    details = {key: report[key] for key in ("monomials_checked", "orders_per_monomial", "failures")}
    check = _check_dict(checks.CheckResult("cubes.order-independence", params, report["passed"], details))
    return _envelope("cubes", params, check_list=[check])


def _run_pterm(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if args.towers < 1 or args.max_degree < 0:
        raise CLIError("--towers must be >= 1 and --max-degree >= 0")
    report = se.verify_p_term(p, [2] * args.towers, args.max_degree)
    params = {"p": p, "towers": args.towers, "max_degree": args.max_degree, "seed": args.seed}
    details = {
        "homology": _stringify_keys(report.get("homology", {})),
        "expected": _stringify_keys(report.get("expected", {})),
    }
    check = _check_dict(checks.CheckResult("pterm.closed-form", params, report["passed"], details))
    return _envelope("pterm", params, check_list=[check])


def _run_changebasis(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    depth = args.depth if args.depth is not None else (2 if p == 3 else 1)
    try:
        coeffs = tuple(int(x) for x in args.r.split(",")) if args.r is not None else (1,)
    except ValueError as exc:
        raise CLIError(f"--r must be comma-separated integers, got {args.r!r}") from exc
    if depth < 1:
        raise CLIError("--k must be >= 1")
    report = se.change_basis_cycles(p, depth, coeffs)
    params = {"p": p, "k": depth, "r": list(coeffs), "seed": args.seed}
    details = {
        "cycles": report["cycle_checks"],
        "pth_powers": report["power_checks"],
        "exchange_invertible": report["exchange_invertible"],
    }
    check = _check_dict(checks.CheckResult("changebasis.cycles", params, report["passed"], details))
    return _envelope("changebasis", params, check_list=[check])


def _run_rognes(args) -> Dict[str, object]:
    p = _require_odd_prime(args.p)
    if args.n < 2:
        raise CLIError("--n must be >= 2")
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
    check = _check_dict(checks.CheckResult("rognes.obstruction", params, checks.rognes_passed(report), details))
    return _envelope("rognes", params, check_list=[check])


def _run_verify_all(args) -> Dict[str, object]:
    results = checks.run_all(args.seed)
    params = {"seed": args.seed}
    return _envelope("verify-all", params, check_list=[_check_dict(r) for r in results])


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
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thhcalc",
        description="Exact-arithmetic verification of word-algebra, Tor, and page computations over F_p.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, n_help="main size parameter"):
        sp.add_argument("--p", type=int, default=3, help="odd prime (default 3)")
        sp.add_argument("--n", type=int, default=2, help=n_help)
        sp.add_argument("--max-degree", type=int, default=20, help="degree cap (default 20)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--strict", action="store_true", help="error on degree overflow")
        group.add_argument("--truncate", action="store_true", help="drop overflowing terms (default)")
        sp.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
        sp.add_argument("--out", type=str, default=None, help="write the report to this path")

    sp = sub.add_parser("words", help="enumerate admissible words")
    common(sp, "word length")
    sp.add_argument("--monic", action="store_true", help="restrict to monic words")

    sp = sub.add_parser("poincare", help="dimension series of a word algebra")
    common(sp, "word length")

    sp = sub.add_parser("tor", help="Tor dimensions over a word algebra, by bidegree")
    common(sp, "word length")

    sp = sub.add_parser("tor-check", help="Tor over one word algebra vs the next")
    common(sp, "unused")
    sp.add_argument("--from", dest="source", type=str, required=True, help="source algebra tag, e.g. b2")
    sp.add_argument("--to", dest="target", type=str, required=True, help="expected answer tag, e.g. b3")

    sp = sub.add_parser("primitives", help="primitive dimensions vs monic word counts")
    common(sp, "word length")

    sp = sub.add_parser("relations", help="coproduct relation module at one weight")
    common(sp, "weight N")

    sp = sub.add_parser("decompose", help="classify a coproduct coefficient table")
    common(sp, "weight N")
    sp.add_argument("--table", type=str, default=None, help="comma-separated pos:coeff entries")

    sp = sub.add_parser("cubes", help="pinch-order independence of iterated coproducts")
    common(sp, "pinch directions")
    sp.set_defaults(n=3, max_degree=20, p=5)

    sp = sub.add_parser("pterm", help="height-p differential homology vs closed form")
    common(sp, "unused")
    sp.add_argument("--towers", type=int, default=1, help="number of divided towers")

    sp = sub.add_parser("changebasis", help="certify divided-power replacement generators")
    common(sp, "unused")
    sp.add_argument("--k", dest="depth", type=int, default=None, help="tower depth (default 2 at p=3, else 1)")
    sp.add_argument("--r", type=str, default=None, help="comma-separated twisting coefficients")

    sp = sub.add_parser("rognes", help="two-column hitting problem for the power classes")
    common(sp, "torus coordinates")
    sp.add_argument("--control", action="store_true", help="include the canonical witness column")

    sp = sub.add_parser("verify-all", help="run the full acceptance battery")
    common(sp, "unused")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        envelope = _HANDLERS[args.verb](args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render_csv(envelope) if args.format == "csv" else _render_json(envelope)
    _emit(text, args.out)
    return 0 if envelope["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
