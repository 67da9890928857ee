"""End-to-end CLI behavior: schemas, determinism, exit codes."""

import hashlib
import json
import shlex

import pytest

from thhcalc.cli import main


def _run(tmp_path, *argv):
    out = tmp_path / "report.out"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def _run_json(tmp_path, *argv):
    code, text = _run(tmp_path, *argv)
    return code, json.loads(text)


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
]


@pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS)
def test_report_digest_is_golden(tmp_path, argv, digest):
    code, text = _run(tmp_path, *shlex.split(argv))
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


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


def test_invalid_config_exits_2(tmp_path):
    assert main(["tor-check", "--p", "3", "--from", "x", "--to", "b3"]) == 2
    assert main(["decompose", "--p", "3", "--n", "9", "--table", "bogus"]) == 2
    assert main(["words", "--n", "0", "--p", "3", "--max-degree", "10"]) == 2
    assert main(["relations", "--n", "2", "--p", "3"]) == 2
    assert main(["pterm", "--max-degree", "-3"]) == 2
    assert main(["changebasis", "--r", "a"]) == 2
    assert main(["changebasis", "--r", "1,,2"]) == 2
    assert main(["changebasis", "--r", ""]) == 2


def test_unknown_verb_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
