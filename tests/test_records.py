"""The record types: named tuples that check their fields and cannot be reassigned."""

import pytest

from thhcalc import admissible_words as aw
from thhcalc import checks
from thhcalc import graded_hopf as gh
from thhcalc import spectral_engine as se
from thhcalc import torus_model as tm


def test_equal_specs_hash_alike_and_share_the_basis_cache():
    first = aw.word_algebra(3, 3, 40)
    second = aw.word_algebra(3, 3, 40)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first.table is first.table  # built once, then kept on the spec
    gh.basis(first, 24, 3)
    before = gh._basis_cached.cache_info()
    gh.basis(second, 24, 3)
    after = gh._basis_cached.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gh.GeneratorSpec("x", 2, "bogus"), "unknown generator kind 'bogus'"),
        (lambda: gh.GeneratorSpec("x", 0, gh.POLYNOMIAL), "generator degree must be positive"),
        (lambda: gh.GeneratorSpec("x", 2, gh.EXTERIOR), "exterior generators must have odd degree"),
        (lambda: gh.GeneratorSpec("x", 3, gh.DIVIDED), "divided_power generators must have even degree"),
        (lambda: gh.AlgebraSpec((), -1), "degree bound must be nonnegative"),
        (
            lambda: gh.AlgebraSpec((gh.polynomial("x", 2), gh.exterior("x", 3)), 10),
            "generator labels must be distinct",
        ),
        (lambda: aw.Letter("nu", -1), "unknown letter kind 'nu'"),
        (lambda: aw.Letter(aw.RHO_SUP, -1), "superscripted letters need a superscript >= 0"),
        (lambda: aw.Letter(aw.MU, 0), "mu and rho carry no superscript"),
        (
            lambda: se.SSTerm(gh.AlgebraSpec((gh.exterior("a", 3),), 10), 3, {}),
            "generator 'a' has no filtration weight",
        ),
    ],
    ids=[
        "generator-kind",
        "generator-degree",
        "exterior-parity",
        "even-parity",
        "degree-bound",
        "labels",
        "letter-kind",
        "letter-superscript",
        "letter-no-superscript",
        "filtration",
    ],
)
def test_records_reject_bad_fields(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_letters_sort_by_kind_then_superscript():
    letters = [aw.phi_sup(1), aw.L_RHO, aw.rho_sup(0), aw.L_MU, aw.phi_sup(0), aw.rho_sup(2), aw.rho_sup(1)]
    assert sorted(letters) == [
        aw.L_MU,
        aw.phi_sup(0),
        aw.phi_sup(1),
        aw.L_RHO,
        aw.rho_sup(0),
        aw.rho_sup(1),
        aw.rho_sup(2),
    ]
    assert sorted([(aw.rho_sup(0), aw.L_RHO, aw.L_MU), (aw.L_RHO, aw.L_MU)]) == [
        (aw.L_RHO, aw.L_MU),
        (aw.rho_sup(0), aw.L_RHO, aw.L_MU),
    ]


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: gh.polynomial("x", 2), "degree"),
        (lambda: gh.AlgebraSpec((), 4), "degree_bound"),
        (lambda: aw.L_MU, "sup"),
        (lambda: checks.CheckResult("id", {}, True, {}), "passed"),
        (lambda: se.SSTerm(gh.AlgebraSpec((), 4), 3, {}), "p"),
        (lambda: se.DifferentialSpec(1, {}), "r"),
        (lambda: tm.build_torus(1, 3, 10, False), "n"),
    ],
    ids=["GeneratorSpec", "AlgebraSpec", "Letter", "CheckResult", "SSTerm", "DifferentialSpec", "TorusAlgebra"],
)
def test_record_fields_cannot_be_reassigned(build, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
