"""End-to-end CLI behavior: schemas, determinism, exit codes."""

import ast
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhcalc import admissible_words as aw
from thhcalc import checks, cli, multifold, spectral_engine
from thhcalc import graded_hopf as gh
from thhcalc.cli import build_parser, main
from thhcalc.fp_linalg import ContractViolation, FpSparseMatrix


def _run(tmp_path, *argv):
    out = tmp_path / "report.out"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def _run_json(tmp_path, *argv):
    code, text = _run(tmp_path, *argv)
    return code, json.loads(text)


def _exit_code(argv):
    """main's return value, or the code of the SystemExit that argparse raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# enumeration verbs
# ---------------------------------------------------------------------------


def test_words_csv_rows(tmp_path):
    code, text = _run(
        tmp_path, "words", "--n", "4", "--p", "3", "--max-degree", "40", "--format", "csv"
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "word,length,degree,monic,parity"
    assert "rho rho0 rho mu,4,5,True,odd" in lines
    assert "phi0 rho0 rho mu,4,14,True,even" in lines
    assert "rho rho1 rho mu,4,13,True,odd" in lines
    assert "phi0 rho1 rho mu,4,38,True,even" in lines


def test_words_json_envelope(tmp_path):
    code, doc = _run_json(tmp_path, "words", "--n", "2", "--p", "3", "--max-degree", "10")
    assert code == 0
    assert doc["schema"] == "thhcalc/1"
    assert doc["verb"] == "words"
    assert doc["params"]["seed"] == 0
    assert doc["passed"] is True
    assert ["rho mu", 2, 3, True, "odd"] in doc["rows"]


def test_monic_flag_filters(tmp_path):
    _, all_doc = _run_json(tmp_path, "words", "--n", "3", "--p", "3", "--max-degree", "40")
    _, monic_doc = _run_json(
        tmp_path, "words", "--n", "3", "--p", "3", "--max-degree", "40", "--monic"
    )
    assert len(monic_doc["rows"]) < len(all_doc["rows"])
    assert all(row[3] for row in monic_doc["rows"])


def test_poincare_series_rows(tmp_path):
    code, doc = _run_json(tmp_path, "poincare", "--n", "2", "--p", "3", "--max-degree", "8")
    assert code == 0
    assert doc["rows"][0] == [0, 1]
    assert doc["rows"][3] == [3, 1]
    assert doc["rows"][6] == [6, 0]


def test_tor_bidegree_rows(tmp_path):
    code, text = _run(
        tmp_path, "tor", "--n", "2", "--p", "3", "--max-degree", "12", "--format", "csv"
    )
    assert code == 0
    assert text.strip().splitlines() == [
        "s,t,dim",
        "0,0,1",
        "1,3,1",
        "2,6,1",
        "3,9,1",
        "4,12,1",
    ]


def test_primitives_rows_and_agreement(tmp_path):
    code, doc = _run_json(tmp_path, "primitives", "--n", "4", "--p", "3", "--max-degree", "20")
    assert code == 0
    assert doc["rows"] == [[5, 1, 1], [13, 1, 1], [14, 1, 1]]
    assert doc["checks"][0]["verdict"] == "pass"


# ---------------------------------------------------------------------------
# check verbs
# ---------------------------------------------------------------------------


def test_tor_check_pass_and_fail(tmp_path):
    code, doc = _run_json(
        tmp_path, "tor-check", "--p", "3", "--from", "b2", "--to", "b3", "--max-degree", "24"
    )
    assert code == 0
    assert doc["checks"][0]["id"] == "tor.iso"
    assert doc["checks"][0]["details"]["first_mismatch"] is None

    code, doc = _run_json(
        tmp_path, "tor-check", "--p", "3", "--from", "b1", "--to", "b3", "--max-degree", "12"
    )
    assert code == 1
    assert doc["passed"] is False
    assert doc["checks"][0]["details"]["first_mismatch"] is not None


def test_relations_verb(tmp_path):
    code, text = _run(tmp_path, "relations", "--n", "12", "--p", "3", "--format", "csv")
    assert code == 0
    assert text.strip().splitlines()[1] == "12,3,two_powers,2,True"


def test_decompose_verb_with_table(tmp_path):
    code, doc = _run_json(tmp_path, "decompose", "--p", "3", "--n", "12", "--table", "3:1,9:1")
    assert code == 0
    details = doc["checks"][0]["details"]
    assert details["type"] == "two_powers"
    assert details["round"] == 1
    assert details["skew"] == 0


def test_decompose_reads_coefficients_mod_p(tmp_path):
    for n, table, reduced in [("2", "1:5", "1:2"), ("2", "1:-1", "1:2"), ("9", "3:4,6:4", "3:1,6:1")]:
        code, doc = _run_json(tmp_path, "decompose", "--p", "3", "--n", n, "--table", table)
        want_code, want = _run_json(tmp_path, "decompose", "--p", "3", "--n", n, "--table", reduced)
        assert code == want_code == 0, table
        assert doc["checks"][0]["details"] == want["checks"][0]["details"], table
        # the parameters echo the table as given
        assert doc["params"]["table"] != want["params"]["table"]


def test_decompose_default_table_is_consistent(tmp_path):
    code, doc = _run_json(tmp_path, "decompose", "--p", "5", "--n", "25")
    assert code == 0
    assert doc["checks"][0]["details"]["type"] == "p_power"


def test_rognes_verdict_and_exit(tmp_path):
    code, doc = _run_json(tmp_path, "rognes", "--p", "5", "--n", "2")
    assert code == 0
    details = doc["checks"][0]["details"]
    assert details["verdict"] == "obstructed"
    assert details["rank_gap"] >= 1


def test_rognes_control_witness(tmp_path):
    code, doc = _run_json(tmp_path, "rognes", "--p", "3", "--n", "2", "--control")
    assert code == 0
    details = doc["checks"][0]["details"]
    assert details["verdict"] == "hit"
    assert details["witness_verified"] is True
    assert [[0, 0], 1, 1] in details["witness"]


def test_pterm_verb(tmp_path):
    code, doc = _run_json(tmp_path, "pterm", "--p", "3", "--max-degree", "18")
    assert code == 0
    assert doc["checks"][0]["details"]["homology"]["0,0"] == 1


def test_changebasis_verb(tmp_path):
    code, doc = _run_json(tmp_path, "changebasis", "--p", "3", "--k", "2", "--r", "2,1")
    assert code == 0
    assert doc["checks"][0]["details"]["exchange_invertible"] is True


def test_cubes_verb_defaults(tmp_path):
    code, doc = _run_json(tmp_path, "cubes", "--max-degree", "8")
    assert code == 0
    assert doc["params"]["p"] == 5
    assert doc["checks"][0]["details"]["failures"] == []


# ---------------------------------------------------------------------------
# determinism and failure modes
# ---------------------------------------------------------------------------


# SHA-256 of each report, recorded before the elimination, derivation and
# accumulation code was consolidated; a refactor must leave every byte alone.
GOLDEN_DIGESTS = [
    ("words --n 3 --max-degree 30", "65109d9948d73dc35b207d3d64cd9d39830f1f29ccfd75f080d35f87cdd78d69"),
    ("poincare --n 2 --p 5 --max-degree 40 --format csv", "436b683a018f0ae77c9a03e49c810bcfa1daeb32c33ee305a570a0967dc77b8b"),
    ("tor --n 2 --max-degree 16", "8446dfd1b12844838bd0efb7036ae91274f95e7f393fd878e1bdbde9b08d3e4a"),
    ("tor-check --from b2 --to b3 --max-degree 20", "b19fb2bc00872c164be5bf7c80dcb13942b412ac3f811d43107b7ca8d495634b"),
    ("primitives --n 3 --max-degree 24", "ecc7aca1a5e642d79a20235cc179a72814b2167b0435878ae544a792ac9bcad2"),
    ("relations --n 27", "e989a87a1e705f5b7d71df6939d7054a25ecdcc3a04190be387e172a549f663c"),
    ("relations --n 12", "22c43bf322f9b87265f2b28c1bfcfae734bb960b24bf787d0081c15d270ac85f"),
    ("decompose --n 9 --table 3:1,6:1", "4e9c8bc0fd6b2b8f5c6015fb73a1dee1a810d8507d050b685f17d1037a04bc8c"),
    ("cubes --n 2 --p 5 --max-degree 10", "f9802e59fcd9347314c7f5146f0b44716aaaff7f13300fb5ed659f9d9b152be9"),
    ("pterm --towers 2 --max-degree 12", "58fad939ca02da3fdbe4ad7747dc0fa71385b8beea3baf52925490d83bceebb8"),
    ("changebasis --p 5 --r 2,1", "d7138e5f83703809905ef867aad822be971c26f691fdb8fd988784d150ead76f"),
    ("rognes --p 5 --n 3 --control", "33f3d060b5cd4645cb58b84bfc3b87c8d39cd9c9f6c1a4401a351c1ef79a0eb6"),
    ("rognes --n 2", "93382a0eed611ab1bfee6d0b7dc61af627be2598520a306fb83f045d0b55e9f6"),
    # recorded before the one-pass Gauss-Jordan reduction: the largest rognes
    # system of the tests and a deep rung of the ladder
    ("rognes --p 3 --n 4", "b907b786d48846f256621d9e5594960eab44b8b581eadb9fe78e54fd5559bd1c"),
    (
        "tor-check --p 3 --from b5 --to b6 --max-degree 120",
        "381b66f44d594c779bf617661ea53da94c59eea827835129cce8fdf38472eba3",
    ),
    # recorded before the exchange matrices gave way to the leading-term
    # certificate: the largest changebasis argvs the guard admits
    ("changebasis --p 5 --k 2 --r 3,4,5", "d94223ac840f0c7960436e888444d5e045962d1eecb52f2a174ec2c1d9eeecda"),
    ("changebasis --p 7 --k 2 --r 1,2", "de38e675e7a8fa4065c3153a8e100348e6eeb5809e8e6d32e403e1e996c9e732"),
    # recorded before pinches were spliced and Lucas rows slice-assigned: the
    # largest cubes argv the guard admits, and rows at p = 257 with several
    # digits and entries of 256 and more
    ("cubes --n 3 --max-degree 33", "417004c9e4843d4bf046e10cf0c52e8d4a63ccac0ce8a4b746c8a97fa358e9dc"),
    ("decompose --p 257 --n 600", "0e45cf266d15e0048adffd68e3693ad36863a035cc00d69f1c5d3f3db4522e2d"),
    ("relations --p 257 --n 600", "5676287ed30b17bd8e059680bc2549c412da8f712a29f3d2cf8e909eac15323a"),
    # recorded before the truncation height was fixed at p: the closed form
    # truncates at p = 7, a prime no check builds truncated generators at
    ("pterm --p 7 --towers 2 --max-degree 60", "c392a0c1b07161a43494bc7d817911d435244313074b0c9b3436039e6e85404d"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS)
def test_report_digest_is_golden(tmp_path, argv, digest):
    code, text = _run(tmp_path, *shlex.split(argv))
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


VERIFY_ALL_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify-all-seed0.json"


def test_verify_all_report_matches_reference(tmp_path):
    # the benchmark gates verify-all on these bytes; the test only reads them
    out = tmp_path / "verify-all.json"
    assert main(["verify-all", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == VERIFY_ALL_REFERENCE.read_bytes()


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports thhcalc from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


# modules a tor-check process must not load: the check family, which cli
# imports on first use, and dataclasses, which no module of the package imports
UNREAD_BY_TOR_VERBS = (
    "dataclasses",
    "thhcalc.checks",
    "thhcalc.multifold",
    "thhcalc.spectral_engine",
    "thhcalc.torus_model",
)


def test_a_tor_check_process_loads_no_check_family_module(tmp_path):
    # what the interpreter loaded before thhcalc, such as site hooks, is not counted
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from thhcalc import cli\n"
        "cli.build_parser()\n"
        "code = cli.main(['tor-check', '--from', 'b1', '--to', 'b2', '--max-degree', '20', '--out', sys.argv[1]])\n"
        "print(code, *sorted((set(sys.modules) - before) & set(sys.argv[2:])))\n"
    )
    result = _fresh_python(code, str(tmp_path / "report.json"), *UNREAD_BY_TOR_VERBS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [b"0"]


def test_no_runtime_module_imports_dataclasses():
    for path in sorted((SRC / "thhcalc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in [name.split(".")[0] for name in names], path.name


def _fresh_process_calls():
    """One (argv, digest) per verb: its first golden argv, and verify-all's reference."""
    calls = {}
    for argv, digest in GOLDEN_DIGESTS:
        calls.setdefault(argv.split()[0], (argv, digest))
    calls["verify-all"] = ("verify-all --seed 0", hashlib.sha256(VERIFY_ALL_REFERENCE.read_bytes()).hexdigest())
    return sorted(calls.values())


def test_fresh_process_calls_cover_every_verb():
    assert sorted(argv.split()[0] for argv, _ in _fresh_process_calls()) == sorted(cli._HANDLERS)


@pytest.mark.parametrize("argv, digest", _fresh_process_calls())
def test_every_verb_runs_in_a_fresh_interpreter(argv, digest):
    # in-process tests run with every module already imported, so only a new
    # interpreter shows a handler whose lazy import is missing
    result = _fresh_python("import sys; from thhcalc.cli import main; sys.exit(main())", *shlex.split(argv))
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == digest


def test_reports_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["tor-check", "--p", "3", "--from", "b2", "--to", "b3", "--max-degree", "20"]
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_invalid_prime_exits_2(tmp_path):
    assert main(["words", "--n", "2", "--p", "4", "--max-degree", "10"]) == 2
    assert main(["words", "--n", "2", "--p", "9", "--max-degree", "10"]) == 2


# one flag per verb that the verb's handler never reads
UNREAD_FLAG_ARGVS = [
    "words --n 2 --strict",
    "poincare --n 2 --monic",
    "tor --n 1 --towers 2",
    "tor-check --from b1 --to b2 --n 3",
    "primitives --n 2 --control",
    "relations --n 12 --max-degree 30",
    "decompose --n 9 --max-degree 30",
    "cubes --n 2 --truncate",
    "pterm --towers 1 --n 2",
    "changebasis --p 5 --max-degree 10",
    "rognes --n 2 --strict",
    "verify-all --p 3",
    # overflowing terms are always dropped, so no verb has an overflow switch
    "poincare --n 2 --strict",
    "tor --n 1 --truncate",
    "primitives --n 2 --strict",
]


def test_invalid_config_exits_2(tmp_path):
    assert main(["tor-check", "--p", "3", "--from", "x", "--to", "b3"]) == 2
    assert main(["decompose", "--p", "3", "--n", "9", "--table", "bogus"]) == 2
    assert main(["words", "--n", "0", "--p", "3", "--max-degree", "10"]) == 2
    assert main(["relations", "--n", "2", "--p", "3"]) == 2
    assert main(["pterm", "--max-degree", "-3"]) == 2
    assert main(["pterm", "--max-degree", "1"]) == 2
    assert main(["changebasis", "--r", "a"]) == 2
    assert main(["changebasis", "--r", "1,,2"]) == 2
    assert main(["changebasis", "--r", ""]) == 2
    assert main(["cubes", "--max-degree", "-4"]) == 2
    assert main(["relations", "--n", str(cli.MAX_WEIGHT + 1)]) == 2
    assert main(["decompose", "--n", str(cli.MAX_WEIGHT + 1)]) == 2
    assert main(["words", "--out", str(tmp_path / "missing" / "report.json")]) == 2
    for argv in UNREAD_FLAG_ARGVS:
        assert _exit_code(shlex.split(argv)) == 2, argv


def test_rung_tag_takes_at_most_one_b(tmp_path, capsys):
    assert main(["tor-check", "--from", "bb2", "--to", "b3"]) == 2
    assert "expected a word-algebra tag like b2, got 'bb2'" in capsys.readouterr().err
    # a superscript passes str.isdigit but not int()
    assert main(["tor-check", "--from", "b\u00b2", "--to", "b3"]) == 2
    for tag in ("b2", "B2", "2"):
        code, doc = _run_json(tmp_path, "tor-check", "--from", tag, "--to", "b3", "--max-degree", "10")
        assert code == 0
        assert doc["params"]["from"] == "b2"


def test_decompose_refuses_a_repeated_table_position(capsys):
    assert main(["decompose", "--p", "3", "--n", "9", "--table", "3:1,3:2"]) == 2
    assert "--table position 3 given twice" in capsys.readouterr().err


def test_cost_guards_accept_their_largest_inputs(tmp_path):
    for verb in ("relations", "decompose"):
        assert _run(tmp_path, verb, "--n", str(cli.MAX_WEIGHT))[0] == 0


def test_rognes_above_the_composition_limit_is_refused_at_once():
    start = time.perf_counter()
    assert main(["rognes", "--p", "3", "--n", "5"]) == 2
    assert main(["rognes", "--p", "3", "--n", "1000000"]) == 2
    assert time.perf_counter() - start < 1.0


def test_pterm_above_the_page_limit_is_refused_at_once(capsys):
    start = time.perf_counter()
    assert main(["pterm", "--towers", "12", "--max-degree", "24"]) == 2  # 15.2M monomials
    assert main(["pterm", "--towers", "6", "--max-degree", "24"]) == 2  # 102,018 monomials
    assert main(["pterm", "--towers", "1000000000000", "--max-degree", "2"]) == 2
    assert main(["pterm", "--max-degree", "1000000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "--p 3 --towers 12 --max-degree 24 needs more than 100000 page monomials" in err


def test_cubes_above_the_pinch_limit_is_refused_at_once(capsys):
    start = time.perf_counter()
    assert main(["cubes", "--n", "3", "--max-degree", "80"]) == 2  # 9.4M monomials
    assert main(["cubes", "--n", "3", "--max-degree", "34"]) == 2  # 100,947
    assert main(["cubes", "--n", "2", "--max-degree", "74"]) == 2  # 101,270
    assert main(["cubes", "--n", "1", "--max-degree", "892"]) == 2  # 100,128
    assert main(["cubes", "--n", "1", "--max-degree", "100000"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "--n 3 --max-degree 80 needs more than 100000 pinched monomials" in err


def test_cubes_argvs_in_use_pass_the_guard(tmp_path, monkeypatch):
    # the benchmark's verb-sweep grid, the battery's n = 3 at degree 20
    # (8,008 monomials), and the largest degree the limit admits for each n
    ran = []

    def certified(n_directions, max_degree, p):
        ran.append((n_directions, max_degree))
        return {"monomials_checked": 0, "orders_per_monomial": 1, "failures": [], "passed": True}

    monkeypatch.setattr(multifold, "pinch_order_report", certified)
    argvs = [["cubes", "--n", n, "--max-degree", cap] for n in ("1", "2", "3") for cap in ("8", "10", "12")]
    argvs += [["cubes", "--n", n, "--max-degree", cap] for n, cap in (("3", "20"), ("3", "33"), ("2", "73"), ("1", "891"))]
    for argv in argvs:
        assert _run(tmp_path, *argv)[0] == 0, argv
    assert len(ran) == len(argvs)


def test_pterm_argvs_in_use_pass_the_guard(tmp_path, monkeypatch):
    # the benchmark's verb-sweep grid, whose largest page has 481 monomials,
    # and 5 towers at cap 24 (31,749)
    ran = []

    def certified(p, x_degrees, max_total):
        ran.append((p, len(x_degrees), max_total))
        return {"homology": {}, "expected": {}, "passed": True}

    monkeypatch.setattr(spectral_engine, "verify_p_term", certified)
    argvs = [
        ["pterm", "--p", p, "--towers", towers, "--max-degree", cap]
        for p in ("3", "5")
        for towers in ("1", "2", "3")
        for cap in ("8", "12", "16")
    ] + [["pterm", "--towers", "5", "--max-degree", "24"]]
    for argv in argvs:
        assert _run(tmp_path, *argv)[0] == 0, argv
    assert len(ran) == len(argvs)


def test_pterm_with_hundreds_of_towers_runs(tmp_path):
    # 1,200 generators: a basis recursion one level deep per generator would
    # pass the interpreter's recursion limit
    code, doc = _run_json(tmp_path, "pterm", "--towers", "600", "--max-degree", "2")
    assert code == 0
    assert doc["checks"][0]["verdict"] == "pass"


def test_words_above_the_list_limit_are_refused_at_once(capsys):
    start = time.perf_counter()
    assert main(["words", "--n", "12", "--max-degree", "240092"]) == 2  # 100,001 words
    assert main(["words", "--n", "20", "--max-degree", "1000000"]) == 2
    assert main(["words", "--n", "20", "--max-degree", "1000000", "--monic"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "--p 3 --n 20 --max-degree 1000000 lists more than 100000 words" in err
    # the largest cap the limit admits at 12 letters lists exactly the limit
    assert aw.count_words(12, 3, 240091, cli.MAX_BASIS_MONOMIALS) == cli.MAX_BASIS_MONOMIALS


def test_words_longer_than_the_list_limit_are_refused_at_once(capsys):
    # one word survives, yet counting it walks all million letters
    start = time.perf_counter()
    assert main(["words", "--n", "1000000", "--max-degree", "1000001"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--n must be at most {cli.MAX_BASIS_MONOMIALS}, got 1000000" in err


def test_words_argvs_in_use_pass_the_guard(tmp_path):
    # the benchmark's verb-sweep grid (at most 15 words) and CI's long word
    argvs = [
        ["words", "--n", str(n), "--p", p, "--max-degree", cap, *monic]
        for n in range(1, 7)
        for p in ("3", "5")
        for cap in ("30", "40", "60")
        for monic in ((), ("--monic",))
    ] + [["words", "--n", "1200", "--max-degree", "1201"]]
    for argv in argvs:
        assert _run(tmp_path, *argv)[0] == 0, argv


def test_primitives_above_the_tensor_square_limit_are_refused_at_once(capsys):
    start = time.perf_counter()
    assert main(["primitives", "--n", "6", "--max-degree", "300"]) == 2  # 52,573,685 pairs
    assert main(["primitives", "--n", "6", "--max-degree", "150"]) == 2  # 105,528 pairs, about 0.7 s of work
    assert main(["primitives", "--n", "1", "--max-degree", "1000000"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "--p 3 --n 6 --max-degree 300 needs more than 100000 tensor-square monomials" in err


def test_primitives_counts_generator_pairs_before_the_series(monkeypatch):
    # 561 generators of degree at most 500 give at least 561 * 560 rows
    monkeypatch.setattr(gh, "poincare_series", lambda *args: pytest.fail("the series was summed"))
    assert main(["primitives", "--n", "12", "--max-degree", "1000"]) == 2


def test_the_tensor_square_count_is_the_rows_of_the_coproduct_kernels(monkeypatch):
    rows = []
    real = FpSparseMatrix.from_columns

    def from_columns(n_rows, columns):
        rows.append(n_rows)
        return real(n_rows, columns)

    monkeypatch.setattr(FpSparseMatrix, "from_columns", staticmethod(from_columns))
    for n, p, cap in ((6, 3, 100), (4, 3, 60), (3, 5, 40), (1, 3, 80)):
        rows.clear()
        spec = aw.word_algebra(n, p, cap)
        checks.primitive_routes(spec)
        assert cli._tensor_square_size(gh.poincare_series(spec, cap)) == sum(rows) > 0, (n, p, cap)


def test_primitives_argvs_in_use_pass_the_guard(tmp_path):
    # the benchmark's verb-sweep grid, the tests' argvs, and the largest cap
    # the limit admits at 6 letters (99,685 pairs)
    argvs = [
        ["primitives", "--n", n, "--p", p, "--max-degree", cap]
        for n in ("1", "2", "3")
        for p in ("3", "5")
        for cap in ("16", "20", "24", "30")
    ] + [["primitives", "--n", "4", "--max-degree", "20"], ["primitives", "--n", "6", "--max-degree", "149"]]
    for argv in argvs:
        assert _run(tmp_path, *argv)[0] == 0, argv


def test_prime_above_the_trial_division_limit_is_refused_at_once(capsys):
    start = time.perf_counter()
    assert main(["words", "--p", "2305843009213693951"]) == 2  # the Mersenne prime 2^61 - 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--p must be at most {cli.MAX_PRIME}" in err
    assert cli._require_odd_prime(cli.MAX_PRIME) == cli.MAX_PRIME  # 2^31 - 1 is prime


def test_changebasis_above_the_exchange_basis_limit_is_refused_at_once(capsys):
    start = time.perf_counter()
    assert main(["changebasis", "--p", "5", "--k", "3", "--r", "1,2"]) == 2  # 341,376 monomials, 12 s
    assert main(["changebasis", "--p", "3", "--k", "6"]) == 2  # 266,815 monomials, 22 s
    assert main(["changebasis", "--k", "1000"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "--p 5 --k 3 with 2 --r coefficient(s) needs more than 100000 exchange-basis monomials" in err


def test_changebasis_above_the_power_check_limit_is_refused_at_once(capsys):
    start = time.perf_counter()
    assert main(["changebasis", "--p", "3", "--k", "4", "--r", "1,2"]) == 2  # 790,482 products, 1.4 s
    assert main(["changebasis", "--p", "3", "--k", "2", "--r", "1,2,1,2,1,2,1,2"]) == 2  # 522,885 products
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    limit = cli.MAX_POWER_PRODUCTS
    assert f"--p 3 --k 4 with 2 --r coefficient(s) needs more than {limit} monomial products" in err
    # both pass the exchange-basis count: 95,284 and 48,620 monomials
    assert cli._power_check_products(3, 4, 2) == 790_482
    assert cli._power_check_products(3, 2, 8) == 522_885


def test_the_power_check_count_bounds_the_products_it_makes(monkeypatch):
    # every p-th-power check of change_basis_cycles, one per depth, against
    # the counts of those depths; the certificate's powers are below p
    real_power, real_mul = gh.power, gh.mul_monomials
    checking = []
    made = []

    def power(spec, a, n, products=None):
        checking.append(n == spec.p)
        try:
            return real_power(spec, a, n, products)
        finally:
            checking.pop()

    def mul(*args):
        if checking[-1:] == [True]:
            made.append(1)
        return real_mul(*args)

    monkeypatch.setattr(gh, "power", power)
    monkeypatch.setattr(gh, "mul_monomials", mul)
    for p, k, r in ((3, 3, (1, 2)), (5, 2, (1, 2, 3)), (7, 2, (1, 2)), (3, 4, (1,))):
        made.clear()
        assert spectral_engine.change_basis_cycles(p, k, r)["passed"]
        bound = sum(cli._power_check_products(p, depth, len(r)) for depth in range(1, k + 1))
        assert 0.9 * bound <= len(made) <= bound, (p, k, r, len(made), bound)


# every valid changebasis argv of the tests, the fuzz (--k at most 1) and the
# benchmark's verb-sweep, and the largest that CI runs: --p 5 --k 2 --r 3,4,5
# and --p 7 --k 2 --r 1,2, and --p 3 --k 3 --r 1,2,3 (164,080, 88,452 and
# 387,420 products in the p-th-power check); each passes the guard and
# then every check
CHANGEBASIS_IN_USE = (
    [
        ["changebasis", "--p", p, *k, *r]
        for p in ("3", "5", "7")
        for k in ((), ("--k", "1"), ("--k", "2"))
        for r in ((), ("--r", "1,2"), ("--r", "2,1"))
    ]
    + [
        ["changebasis", "--p", p, *k, r]
        for p in ("3", "5", "7")
        for k in ((), ("--k", "1"))
        for r in ("--r=0", "--r=2,1,0", "--r=-1,3")
    ]
    + [
        ["changebasis", "--p", "5", "--k", "2", "--r", "3,4,5"],
        ["changebasis", "--p", "7", "--k", "2", "--r", "1,2"],
        ["changebasis", "--p", "3", "--k", "3", "--r", "1,2,3"],
    ]
)


def test_changebasis_argvs_in_use_pass_the_guard(tmp_path):
    for argv in CHANGEBASIS_IN_USE:
        assert _run(tmp_path, *argv)[0] == 0, argv


def test_tor_at_cap_60_finishes_quickly(tmp_path):
    start = time.perf_counter()
    code, doc = _run_json(tmp_path, "tor", "--n", "1", "--max-degree", "60")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert doc["rows"] == [[0, 0, 1], [1, 2, 1]]


def test_crash_exits_3_with_one_line_and_no_traceback(monkeypatch, capsys):
    def broken(args):
        raise ContractViolation("resolution generator image is not a cycle at (2, 6)\nsecond line")

    monkeypatch.setitem(cli._HANDLERS, "tor", broken)
    assert main(["tor", "--n", "1", "--max-degree", "6"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: ContractViolation: resolution generator image is not a cycle at (2, 6) second line\n"


# ---------------------------------------------------------------------------
# fuzz: small argv values for every verb, good and bad
# ---------------------------------------------------------------------------


def _flags(required=None, **optional):
    """argv tails: each optional flag present or not; None values are bare switches."""
    def render(picked):
        out = []
        for flag, value in picked.items():
            out.append("--" + flag.replace("_", "-"))
            if value is not None:
                out.append(value)
        return out

    return st.fixed_dictionaries(required or {}, optional=optional).map(render)


def _ints(lo, hi):
    return st.sampled_from([*map(str, range(lo, hi + 1)), "x"])


_P = st.sampled_from(["3", "5", "7"] * 4 + ["1", "2", "4", "9", "-3", "x"])
_DEG = _ints(-3, 20)
_N = _ints(-1, 3)
_SWITCH = st.just(None)
_FORMAT = st.sampled_from(["json", "csv", "xml"])
_RUNG = st.sampled_from(["b1", "b2", "b3", "b0", "bb2", "x"])

FUZZ_VERBS = {
    "words": _flags(p=_P, n=_N, max_degree=_DEG, monic=_SWITCH, format=_FORMAT),
    "poincare": _flags(p=_P, n=_N, max_degree=_DEG, format=_FORMAT),
    "tor": _flags(p=_P, n=_N, max_degree=_DEG, format=_FORMAT),
    "tor-check": _flags({"from": _RUNG, "to": _RUNG}, p=_P, max_degree=_DEG),
    "primitives": _flags(p=_P, n=_N, max_degree=_DEG),
    "relations": _flags(p=_P, n=_ints(-1, 20), format=_FORMAT),
    "decompose": _flags(
        p=_P, n=_ints(-1, 20), table=st.sampled_from(["3:1,6:1", "3:1,3:2", "1:1", "0:1", "25:1", "", "bogus", "1:x"])
    ),
    "cubes": _flags(p=_P, n=_ints(-1, 4), max_degree=_ints(-3, 12)),
    "pterm": _flags(p=_P, towers=_N, max_degree=_DEG),
    "changebasis": _flags(p=_P, k=_ints(-1, 1), r=st.sampled_from(["1", "1,2", "2,1,0", "0", "-1,3", "a", "", "1,,2"])),
    "rognes": _flags(p=_P, n=_N, control=_SWITCH),
    # a valid verify-all runs the whole battery, so only refusals are drawn
    "verify-all": st.sampled_from([["--p", "3"], ["--n", "2"], ["--max-degree", "5"], ["--seed", "x"], ["--format", "xml"]]),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FUZZ_VERBS)).flatmap(lambda verb: FUZZ_VERBS[verb].map(lambda tail: [verb, *tail])))
def test_fuzzed_small_argvs_exit_honestly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_unknown_verb_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# public names of src/thhcalc that nothing in the package refers to, kept on purpose
UNCALLED_PUBLIC_NAMES = {
    "bar_tor.BarComplex",  # the benchmark's tracer binds its methods
}


def _package_statements():
    """(module stem, top-level statement) for every module of src/thhcalc."""
    package = Path(__file__).resolve().parents[1] / "src" / "thhcalc"
    return [
        (path.stem, node)
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]


def _names_read(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _unread(statements, defined):
    """module.name for each name that `defined(node)` gives and no other statement reads."""
    names = [_names_read(node) for _, node in statements]
    return {
        f"{module}.{name}"
        for i, (module, node) in enumerate(statements)
        for name in defined(node)
        if not any(name in other for j, other in enumerate(names) if j != i)
    }


def test_every_public_library_name_has_a_library_caller():
    # each public top-level function or class is named somewhere in the
    # package outside its own definition; a helper that only the tests call
    # belongs in the tests
    def public_defs(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name

    assert _unread(_package_statements(), public_defs) == UNCALLED_PUBLIC_NAMES


def test_every_private_def_and_module_assignment_is_read():
    # a private top-level function or class, and a module-level assignment,
    # that nothing else in the package reads is dead; dunder names such as
    # __version__ are read by tools, not by the package
    def defined(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name] if node.name.startswith("_") else []
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]
        else:
            names = []
        return [name for name in names if not (name.startswith("__") and name.endswith("__"))]

    assert _unread(_package_statements(), defined) == set()


# defaulted parameters that no call in src/thhcalc passes, kept on purpose
UNPASSED_DEFAULTS = {
    "cli.main.argv",  # the console entry point calls main() with none
}


def test_every_defaulted_parameter_is_passed_by_a_library_call():
    # a parameter with a default that only the tests set is a setting no
    # caller reaches; the default belongs in the body
    statements = _package_statements()
    defaulted = {}  # function name -> [(param, module.function.param, position or None)]
    for module, top in statements:
        for node in ast.walk(top):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            defaulted.setdefault(node.name, []).extend(
                (arg, f"{module}.{node.name}.{arg}", position) for arg, position in params
            )
    passed = set()
    for _, top in statements:
        for call in ast.walk(top):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {k.arg for k in call.keywords}
            spread = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            for arg, qualified, position in defaulted.get(name, ()):
                if spread or arg in keywords or (position is not None and position < len(call.args)):
                    passed.add(qualified)
    unpassed = {q for params in defaulted.values() for _, q, _ in params} - passed
    assert unpassed == UNPASSED_DEFAULTS


def _functions_taking_a_spec():
    """(module.function, parameter names) of each function of src/thhcalc
    with a parameter annotated as an AlgebraSpec, a TorusAlgebra or an SSTerm."""
    carriers = {"AlgebraSpec", "TorusAlgebra", "SSTerm"}

    def annotated(arg):
        node = arg.annotation
        name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "value", None)
        return isinstance(name, str) and name.split(".")[-1] in carriers

    out = []
    for module, top in _package_statements():
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(annotated(a) for a in params):
                    out.append((f"{module}.{node.name}", {a.arg for a in params}))
    return out


def test_no_function_takes_a_spec_and_a_separate_prime():
    # the prime is a field of AlgebraSpec, so a parameter p next to a spec,
    # a torus or a page could disagree with the spec's own p
    assert {name for name, params in _functions_taking_a_spec() if "p" in params} == set()


def test_no_function_takes_a_spec_and_a_separate_degree_cap():
    # the degree window is the spec's degree_bound, so a cap next to a spec,
    # a torus or a page could reach past the degrees where its products are
    # kept, and report a wrong answer there
    caps = {"max_degree", "max_total", "max_total_degree", "max_internal_degree", "cap"}
    assert {name for name, params in _functions_taking_a_spec() if params & caps} == set()


def test_runtime_imports_only_the_standard_library():
    # the package declares no runtime dependency: every absolute import in
    # src/thhcalc resolves to the package itself or to the standard library
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "thhcalc").rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "thhcalc" or top in sys.stdlib_module_names, (path.name, name)
