"""The record types: named tuples that check their fields and cannot be reassigned."""

import time

import pytest

from thhcalc import admissible_words as aw
from thhcalc import bar_tor
from thhcalc import checks
from thhcalc import cli
from thhcalc import fp_linalg
from thhcalc import graded_hopf as gh
from thhcalc import spectral_engine as se
from thhcalc import torus_model as tm


def test_equal_specs_hash_alike_and_share_the_basis_cache():
    first = aw.word_algebra(3, 3, 40)
    second = aw.word_algebra(3, 3, 40)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first.table is first.table  # built once, then kept on the spec
    gh.basis(first, 24)
    before = gh._basis_cached.cache_info()
    gh.basis(second, 24)
    after = gh._basis_cached.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_specs_of_two_primes_are_unequal_and_hash_apart():
    gens = (gh.truncated("x", 2), gh.exterior("y", 3))
    at3, at5 = gh.AlgebraSpec(gens, 20, 3), gh.AlgebraSpec(gens, 20, 5)
    assert at3.generators == at5.generators and at3.degree_bound == at5.degree_bound
    assert at3 != at5 and hash(at3) != hash(at5)
    assert aw.word_algebra(4, 3, 40) != gh.AlgebraSpec(aw.word_algebra(4, 3, 40).generators, 40, 5)


def test_a_truncated_basis_stops_below_the_spec_prime_through_one_cache():
    # x of degree 2: degree 2k holds x^k while k < p, so x^2 is the top at
    # p = 3 and x^4 at p = 5; both specs are read through one basis cache
    at3, at5 = (gh.algebra([gh.truncated("x", 2)], 20, p) for p in (3, 5))
    before = gh._basis_cached.cache_info()
    tops = {spec.p: max(mon[0][1] for t in range(1, 21) for mon in gh.basis(spec, t)) for spec in (at3, at5)}
    after = gh._basis_cached.cache_info()
    assert tops == {3: 2, 5: 4}
    # forty reads, each a hit or a miss of the one cache keyed on (spec, t)
    assert after.hits + after.misses == before.hits + before.misses + 40
    assert gh._basis_cached(at3, 4) == (((0, 2),),) and gh._basis_cached(at5, 8) == (((0, 4),),)
    assert gh._basis_cached(at3, 6) == () and gh._basis_cached(at5, 6) == (((0, 3),),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gh.GeneratorSpec("x", 2, "bogus"), "unknown generator kind 'bogus'"),
        (lambda: gh.GeneratorSpec("x", 0, gh.POLYNOMIAL), "generator degree must be positive"),
        (lambda: gh.GeneratorSpec("x", 2, gh.EXTERIOR), "exterior generators must have odd degree"),
        (lambda: gh.GeneratorSpec("x", 3, gh.DIVIDED), "divided_power generators must have even degree"),
        (lambda: gh.AlgebraSpec((), -1, 3), "degree bound must be nonnegative"),
        (lambda: gh.AlgebraSpec((), 10, 1), "the prime must be at least 2"),
        (lambda: gh.AlgebraSpec((), 10, 9), "p must be prime, got 9"),
        (
            lambda: gh.AlgebraSpec((gh.polynomial("x", 2), gh.exterior("x", 3)), 10, 3),
            "generator labels must be distinct",
        ),
        (lambda: aw.Letter("nu", -1), "unknown letter kind 'nu'"),
        (lambda: aw.Letter(aw.RHO_SUP, -1), "superscripted letters need a superscript >= 0"),
        (lambda: aw.Letter(aw.MU, 0), "mu and rho carry no superscript"),
        (
            lambda: se.SSTerm(gh.AlgebraSpec((gh.exterior("a", 3),), 10, 3), {}),
            "generator 'a' has no filtration weight",
        ),
    ],
    ids=[
        "generator-kind",
        "generator-degree",
        "exterior-parity",
        "even-parity",
        "degree-bound",
        "prime",
        "composite",
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: bar_tor.tor_dims(gh.algebra([gh.divided("x", 2)], 12, 4)),
        lambda: gh.basis(gh.algebra([gh.truncated("x", 2)], 12, 4), 4),
    ],
    ids=["tor_dims", "basis"],
)
def test_a_composite_p_is_refused_by_the_spec_itself(build):
    # truncated and divided generators need F_p to be a field; at p = 4 the
    # spec refuses before any Tor table or basis is built
    with pytest.raises(ValueError, match="^p must be prime, got 4$") as info:
        build()
    assert info.traceback[-1].name == "__new__"


def test_a_prime_above_max_prime_is_refused_before_any_division(monkeypatch):
    # trial division of 2^61 - 1 runs for hours; the spec refuses it first
    def bounded_is_prime(n):
        assert n <= fp_linalg.MAX_PRIME, "trial division above MAX_PRIME"
        return fp_linalg.is_prime(n)

    monkeypatch.setattr(gh, "is_prime", bounded_is_prime)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^the prime must be at most {2**31 - 1}, got {2**61 - 1}$"):
        gh.AlgebraSpec((), 10, 2**61 - 1)
    assert time.perf_counter() - start < 0.5
    assert gh.AlgebraSpec((), 10, 2**31 - 1).p == fp_linalg.MAX_PRIME == cli.MAX_PRIME


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
        (lambda: gh.AlgebraSpec((), 4, 3), "degree_bound"),
        (lambda: gh.AlgebraSpec((), 4, 3), "p"),
        (lambda: aw.L_MU, "sup"),
        (lambda: checks.CheckResult("id", {}, True, {}), "passed"),
        (lambda: se.SSTerm(gh.AlgebraSpec((), 4, 3), {}), "filtration"),
        (lambda: se.DifferentialSpec(1, {}), "r"),
        (lambda: tm.build_torus(1, 3, 10, False), "n"),
    ],
    ids=["GeneratorSpec", "AlgebraSpec", "AlgebraSpec-prime", "Letter", "CheckResult", "SSTerm", "DifferentialSpec", "TorusAlgebra"],
)
def test_record_fields_cannot_be_reassigned(build, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
