"""Tests for admissible-word enumeration, structure laws and digit sums."""

from __future__ import annotations

import itertools
import random
import re

from thhcalc import admissible_words as aw
from thhcalc import graded_hopf as gh


# Admissibility letter by letter: the rule that enumerate_words builds into
# its search, kept here as the filter of the brute-force oracle.


def _may_precede(left: aw.Letter, right: aw.Letter) -> bool:
    if right.kind == aw.MU:
        return left.kind == aw.RHO
    if right.kind == aw.RHO:
        return left.kind == aw.RHO_SUP
    return left.kind in (aw.RHO, aw.PHI_SUP)


def is_admissible(word: aw.Word) -> bool:
    if not word or word[-1].kind != aw.MU:
        return False
    if any(l.kind == aw.MU for l in word[:-1]):
        return False
    return all(_may_precede(word[i], word[i + 1]) for i in range(len(word) - 1))


# ---------------------------------------------------------------------------
# letters, parsing, degrees
# ---------------------------------------------------------------------------


_TOKEN = re.compile(r"^(mu|rho|phi)(\d*)$")


def parse(text: str) -> aw.Word:
    """A word written as space-separated letters, e.g. "phi0 rho1 rho mu"."""
    letters = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"bad letter token {token!r}")
        name, digits = m.groups()
        if name == "mu":
            if digits:
                raise ValueError("mu carries no superscript")
            letters.append(aw.L_MU)
        elif name == "rho":
            letters.append(aw.L_RHO if not digits else aw.rho_sup(int(digits)))
        else:
            if not digits:
                raise ValueError("phi needs a superscript")
            letters.append(aw.phi_sup(int(digits)))
    return tuple(letters)


def test_render_parse_roundtrip():
    w = parse("phi0 rho1 rho mu")
    assert w == (aw.phi_sup(0), aw.rho_sup(1), aw.L_RHO, aw.L_MU)
    assert aw.render(w) == "phi0 rho1 rho mu"
    assert parse(aw.render(w)) == w


def test_degree_base_cases():
    assert aw.degree(parse("mu"), 3) == 2
    assert aw.degree(parse("rho mu"), 3) == 3
    assert aw.degree(parse("rho0 rho mu"), 3) == 4
    assert aw.degree(parse("rho0 rho mu"), 5) == 4


def test_degree_length_four_families():
    for p in (3, 5):
        for k in range(4):
            assert aw.degree(parse(f"rho rho{k} rho mu"), p) == 1 + 4 * p**k
            assert aw.degree(parse(f"phi0 rho{k} rho mu"), p) == 2 + 4 * p ** (k + 1)


def test_admissibility_rules():
    assert is_admissible(parse("mu"))
    assert is_admissible(parse("rho mu"))
    assert is_admissible(parse("rho0 rho mu"))
    assert is_admissible(parse("phi0 rho2 rho mu"))
    assert is_admissible(parse("phi0 phi1 rho0 rho mu"))
    # mu must terminate and appear once
    assert not is_admissible(parse("mu mu"))
    assert not is_admissible(parse("rho"))
    # mu preceded only by bare rho
    assert not is_admissible(parse("rho0 mu"))
    assert not is_admissible(parse("phi0 mu"))
    # bare rho preceded only by superscripted rho
    assert not is_admissible(parse("rho rho mu"))
    assert not is_admissible(parse("phi0 rho mu"))
    # superscripted letters preceded by bare rho or phi, never rho^l
    assert not is_admissible(parse("rho0 rho1 rho mu"))
    assert not is_admissible(parse("rho1 phi0 rho mu"))
    assert is_admissible(parse("rho rho1 rho mu"))


def test_monicity():
    assert aw.is_monic(parse("mu"))
    assert aw.is_monic(parse("rho mu"))
    assert aw.is_monic(parse("rho0 rho mu"))
    assert aw.is_monic(parse("phi0 rho1 rho mu"))
    assert not aw.is_monic(parse("rho1 rho mu"))
    assert not aw.is_monic(parse("phi1 rho0 rho mu"))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_monic_words_short_lengths():
    for p in (3, 5):
        assert [aw.render(w) for w in aw.enumerate_monic(1, p, 10)] == ["mu"]
        assert [aw.render(w) for w in aw.enumerate_monic(2, p, 10)] == ["rho mu"]
        assert [aw.render(w) for w in aw.enumerate_monic(3, p, 10)] == ["rho0 rho mu"]


def test_monic_words_length_four_p3():
    words = aw.enumerate_monic(4, 3, 40)
    got = [(aw.render(w), aw.degree(w, 3)) for w in words]
    assert got == [
        ("rho rho0 rho mu", 5),
        ("rho rho1 rho mu", 13),
        ("phi0 rho0 rho mu", 14),
        ("rho rho2 rho mu", 37),
        ("phi0 rho1 rho mu", 38),
    ]


def test_monic_words_length_four_p5():
    words = aw.enumerate_monic(4, 5, 110)
    got = [(aw.render(w), aw.degree(w, 5)) for w in words]
    assert got == [
        ("rho rho0 rho mu", 5),
        ("rho rho1 rho mu", 21),
        ("phi0 rho0 rho mu", 22),
        ("rho rho2 rho mu", 101),
        ("phi0 rho1 rho mu", 102),
    ]


def test_monic_words_length_five_shapes():
    # every monic length-5 word starts rho0 rho, rho phi^l, or phi0 phi^l
    for p in (3, 5):
        for w in aw.enumerate_monic(5, p, 2 * p**2):
            head = (w[0].kind, w[1].kind)
            assert head in {
                (aw.RHO_SUP, aw.RHO),
                (aw.RHO, aw.PHI_SUP),
                (aw.PHI_SUP, aw.PHI_SUP),
            }, aw.render(w)


def test_enumeration_matches_brute_force():
    # cross-check the pruned search against filtering all letter tuples
    p, max_degree = 3, 30
    alphabet = [aw.L_MU, aw.L_RHO] + [aw.rho_sup(k) for k in range(4)] + [
        aw.phi_sup(k) for k in range(4)
    ]
    for length in (1, 2, 3, 4):
        brute = sorted(
            (
                w
                for w in itertools.product(alphabet, repeat=length)
                if is_admissible(w) and aw.degree(w, p) <= max_degree
            ),
            key=lambda w: (aw.degree(w, p), aw.render(w)),
        )
        assert aw.enumerate_words(length, p, max_degree) == list(brute)


def _enumerate_words_recursive(length, p, max_degree, monic_only=False):
    """Oracle: the recursive search the library used before its explicit
    stack, one level per letter, pruning on the cap alone."""
    if length < 1 or max_degree < 2:
        return []
    out = []

    def extend(word, deg):
        if len(word) == length:
            if not monic_only or aw.is_monic(tuple(reversed(word))):
                out.append(tuple(reversed(word)))
            return
        first = word[-1]
        if first.kind == aw.MU:
            if 1 + deg <= max_degree:
                extend(word + [aw.L_RHO], 1 + deg)
        elif first.kind == aw.RHO:
            k = 0
            while p**k * (1 + deg) <= max_degree:
                extend(word + [aw.rho_sup(k)], p**k * (1 + deg))
                k += 1
        else:
            if 1 + deg <= max_degree:
                extend(word + [aw.L_RHO], 1 + deg)
            k = 0
            while p**k * (2 + p * deg) <= max_degree:
                extend(word + [aw.phi_sup(k)], p**k * (2 + p * deg))
                k += 1

    extend([aw.L_MU], 2)
    out.sort(key=lambda w: (aw.degree(w, p), aw.render(w)))
    return out


def test_enumeration_matches_recursive_oracle():
    found = 0
    for p in (3, 5, 7):
        for length in range(1, 11):
            for max_degree in (2, 5, 10, 20, 30, 60, 100, 150):
                for monic_only in (False, True):
                    want = _enumerate_words_recursive(length, p, max_degree, monic_only)
                    assert aw.enumerate_words(length, p, max_degree, monic_only) == want
                    found += len(want)
    assert found > 1000


def test_enumeration_reaches_long_words():
    # the one word (rho rho0)^599 rho mu of length 1200 sits on the degree floor
    words = aw.enumerate_words(1200, 3, 1201)
    assert len(words) == 1
    assert aw.degree(words[0], 3) == 1201


def test_word_count_matches_the_enumeration():
    # the count walks the same prune as the enumeration, one tally per
    # (first letter kind, degree) instead of one entry per word
    found = 0
    for p in (3, 5, 7):
        for length in range(0, 11):
            for max_degree in (1, 2, 5, 10, 20, 30, 60, 100, 150, 400):
                count = aw.count_words(length, p, max_degree, 10**9)
                assert count == len(aw.enumerate_words(length, p, max_degree))
                found += count
    assert found > 2000
    assert aw.count_words(1200, 3, 1201, 10) == 1


def test_word_count_stops_once_a_length_passes_the_limit():
    full = aw.count_words(10, 3, 5000, 10**9)
    assert full == len(aw.enumerate_words(10, 3, 5000)) > 1000
    stopped = aw.count_words(10, 3, 5000, 1000)
    assert 1000 < stopped <= full
    # 20 letters to degree 10^6 has far more words than could ever be listed
    assert aw.count_words(20, 3, 10**6, 100_000) > 100_000
    # a length no cap can reach ends as soon as no prefix survives
    assert aw.count_words(10**12, 3, 10, 100_000) == 0


def test_degree_floor_makes_caps_safe():
    # no admissible word of length n has degree below n + 1 (mu aside)
    assert aw.enumerate_words(6, 3, 6) == []
    assert len(aw.enumerate_words(1, 3, 2)) == 1


# ---------------------------------------------------------------------------
# structural laws
# ---------------------------------------------------------------------------


def test_word_laws_sweep():
    for p in (3, 5):
        report = aw.check_word_laws(p, max_length=8, max_degree=2 * p**2)
        assert report["passed"], report["failures"]
        assert report["words_checked"] > 0
        assert report["monic_checked"] > 0


def test_residue_shape_examples():
    # degree 14 = 2*7, p=3: 14 mod 6 = 2, so k=1 and the word must end in mu
    # immediately, start with phi0, or start with rho0 rho
    assert aw._residue_shape_holds(parse("phi0 rho0 rho mu"), 3)
    # degree 6, p=5: 6 mod 10 = 6, k=3 and (rho0 rho)^2 mu is the exact word
    assert aw._residue_shape_holds(parse("rho0 rho rho0 rho mu"), 5)
    # degree 13, p=3: 13 mod 6 = 1, k=0 odd: bare-rho start suffices
    assert aw._residue_shape_holds(parse("rho rho1 rho mu"), 3)
    # mu has degree 2 = 2*1: k=1 even, and mu equals the k=1 mu-pattern
    assert aw._residue_shape_holds(parse("mu"), 3)


# The residue-shape law as first written, with a pattern that may be absent
# (None for k < 0) and comparisons that guard against it: the oracle for
# the rewrite that handles k = 0 up front for both parities.


def _prefix_pattern_oracle(k, tail):
    if k < 0:
        return None
    body = [aw.rho_sup(0), aw.L_RHO] * k
    if tail is not None:
        body.append(tail)
    return tuple(body)


def _starts_with_oracle(word, prefix):
    return prefix is not None and word[: len(prefix)] == prefix


def _equals_oracle(word, other):
    return other is not None and word == other


def _residue_shape_oracle(word, p):
    d = aw.degree(word, p)
    k, odd = divmod(d % (2 * p), 2)
    if odd:
        if word[0] != aw.L_RHO:
            return False
        word = word[1:]
        if k == 0:
            return True
    return (
        _equals_oracle(word, _prefix_pattern_oracle(k - 1, aw.L_MU))
        or _starts_with_oracle(word, _prefix_pattern_oracle(k - 1, aw.phi_sup(0)))
        or _starts_with_oracle(word, _prefix_pattern_oracle(k, None))
    )


def test_residue_shape_matches_oracle():
    for p in (3, 5, 7, 11):
        words = [w for n in range(1, 10) for w in aw.enumerate_words(n, p, p**3)]
        assert words
        for word in words:
            assert aw._residue_shape_holds(word, p) == _residue_shape_oracle(word, p), aw.render(word)
    # arbitrary letter tuples, admissible or not, reach every branch
    letters = [aw.L_MU, aw.L_RHO, aw.rho_sup(0), aw.rho_sup(1), aw.phi_sup(0), aw.phi_sup(1)]
    outcomes = set()
    for p in (3, 5):
        for length in range(1, 6):
            for word in itertools.product(letters, repeat=length):
                got = aw._residue_shape_holds(word, p)
                assert got == _residue_shape_oracle(word, p), (p, aw.render(word))
                outcomes.add(got)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# digit sums
# ---------------------------------------------------------------------------


def test_digit_sum_basic():
    assert aw.digit_sum(0, 3) == 0
    assert aw.digit_sum(8, 3) == 2 + 2  # 8 = 2*3 + 2
    assert aw.digit_sum(25, 5) == 1
    assert aw.digit_sum(24, 5) == 4 + 4


def test_is_sum_of_p_powers_brute_force():
    # compare the digit-sum characterization against explicit enumeration
    p = 3
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 60)
        count = rng.randrange(1, 12)
        brute = False
        for js in itertools.combinations_with_replacement(range(4), count):
            if sum(p**j for j in js) == m:
                brute = True
                break
        assert aw.is_sum_of_p_powers(m, count, p) == brute, (m, count)


def test_digit_sum_checks_sweep():
    for p in (3, 5):
        report = aw.digit_sum_checks(p, max_length=p, max_degree=2 * p**2)
        assert report["passed"], report["failures"]
        assert report["generators_checked"] > 0
        assert report["product_checked"] > 0
        assert report["comult_checked"] > 0


# The recursive enumeration the library used before it switched to
# itertools; kept as the oracle for order as well as content.


def _exponent_multisets_oracle(n, p, max_total):
    def rec(slots, min_j, total, acc):
        if slots == 0:
            yield tuple(acc)
            return
        j = min_j
        while total + p**j * slots <= max_total:
            acc.append(j)
            yield from rec(slots - 1, j, total + p**j, acc)
            acc.pop()
            j += 1

    yield from rec(n, 0, 0, [])


def test_exponent_multisets_match_recursive_oracle():
    for p in (3, 5, 7):
        for n in range(0, 9):
            for total in range(0, 200, 7):
                assert list(aw._exponent_multisets(n, p, total)) == list(_exponent_multisets_oracle(n, p, total))


def test_digit_sum_generator_examples():
    # phi0 rho0 rho mu at p=3: degree 14, half 7 = 21_3, digit sum 3 = 4 - 1
    assert aw.digit_sum(7, 3) == 3
    assert aw.rho_count(parse("phi0 rho0 rho mu")) == 1
    # rho0 rho mu at p=5: degree 4, half 2, digit sum 2 = 3 - 1
    assert aw.digit_sum(2, 5) == 2


def test_product_dichotomy_fails_beyond_p():
    # the two-valued law stops being exact once n exceeds p: five powers of
    # 3 as 1+1+1+3+3 = 9 have digit sum 1, which is neither 5 nor 5-3+1
    total = 1 + 1 + 1 + 3 + 3
    assert aw.digit_sum(total, 3) == 1
    assert aw.digit_sum(total, 3) not in (5, 5 - 3 + 1)


# ---------------------------------------------------------------------------
# word algebras
# ---------------------------------------------------------------------------


def test_word_algebra_length_one_is_polynomial():
    spec = aw.word_algebra(1, 3, 20)
    assert len(spec.generators) == 1
    gen = spec.generators[0]
    assert gen.kind == gh.POLYNOMIAL and gen.degree == 2


def test_word_algebra_length_two_is_exterior_line():
    for p in (3, 5):
        spec = aw.word_algebra(2, p, 20)
        assert [g.kind for g in spec.generators] == [gh.EXTERIOR]
        assert spec.generators[0].degree == 3
        series = gh.poincare_series(spec, 4)
        assert series == [1, 0, 0, 1, 0]


def test_word_algebra_length_three_is_divided_line():
    spec = aw.word_algebra(3, 3, 30)
    assert [g.kind for g in spec.generators] == [gh.DIVIDED]
    assert spec.generators[0].degree == 4
    assert spec.generators[0].label == "rho0 rho mu"


def test_word_algebra_length_four_mixed_kinds():
    spec = aw.word_algebra(4, 3, 40)
    kinds = {g.label: g.kind for g in spec.generators}
    assert kinds["rho rho0 rho mu"] == gh.EXTERIOR
    assert kinds["phi0 rho0 rho mu"] == gh.DIVIDED
    assert kinds["rho rho2 rho mu"] == gh.EXTERIOR


def test_labeled_word_algebra():
    empty = aw.labeled_word_algebra((), 3, 10)
    assert empty.generators == ()
    single = aw.labeled_word_algebra((4,), 3, 10)
    assert single.generators[0].label == "mu_4"
    assert single.generators[0].kind == gh.POLYNOMIAL
    pair = aw.labeled_word_algebra((1, 2), 3, 10)
    assert [g.label for g in pair.generators] == ["rho_2 mu_1"]
    assert pair.generators[0].kind == gh.EXTERIOR
    triple = aw.labeled_word_algebra((1, 2, 5), 3, 10)
    assert [g.label for g in triple.generators] == ["rho0_5 rho_2 mu_1"]


def test_labeled_render_orders_labels_descending():
    w = parse("phi0 rho0 rho mu")
    assert aw.labeled_render(w, (3, 1, 4, 2)) == "phi0_4 rho0_3 rho_2 mu_1"


def test_monic_degree_counts_match_series():
    # generator count by degree agrees between enumeration and algebra spec
    p, bound = 3, 40
    spec = aw.word_algebra(4, p, bound)
    degs = sorted(g.degree for g in spec.generators)
    assert degs == sorted(aw.monic_degrees(4, p, bound))
