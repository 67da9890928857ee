"""Admissible words over the letters mu, rho, rho^k, phi^k.

A word is read left to right and must satisfy four adjacency rules:

* it ends with mu, and mu appears nowhere else;
* mu may only be preceded by rho;
* rho may only be preceded by some rho^k;
* rho^k and phi^k may only be preceded by rho or some phi^l.

A word is *monic* when its first letter is rho, rho^0, phi^0 or mu.  Degrees
are computed right to left:

    |mu| = 2,   |rho x| = 1 + |x|,
    |rho^k x| = p^k (1 + |x|),   |phi^k x| = p^k (2 + p |x|).

The module enumerates words under a degree cap, checks their structural
laws (suffix shape, parity, rho counts, residue-determined prefixes) and the
p-adic digit-sum laws, and packages the monic words of a fixed length into
generator-presented algebras: exterior on odd-degree words, divided powers
on even-degree words, with the length-1 case the polynomial algebra on mu.
Labeled variants subscript the letters by torus coordinates, largest label
first.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import graded_hopf as gh

MU = "mu"
RHO = "rho"
RHO_SUP = "rhok"
PHI_SUP = "phik"


class _LetterFields(NamedTuple):
    kind: str
    sup: int  # superscript for rhok/phik; -1 for mu and bare rho


class Letter(_LetterFields):
    """A word letter, checked on construction; letters sort by (kind, sup)."""

    __slots__ = ()

    def __new__(cls, kind: str, sup: int) -> "Letter":
        if kind not in (MU, RHO, RHO_SUP, PHI_SUP):
            raise ValueError(f"unknown letter kind {kind!r}")
        if kind in (RHO_SUP, PHI_SUP):
            if sup < 0:
                raise ValueError("superscripted letters need a superscript >= 0")
        elif sup != -1:
            raise ValueError("mu and rho carry no superscript")
        return super().__new__(cls, kind, sup)


Word = Tuple[Letter, ...]

L_MU = Letter(MU, -1)
L_RHO = Letter(RHO, -1)


def rho_sup(k: int) -> Letter:
    return Letter(RHO_SUP, k)


def phi_sup(k: int) -> Letter:
    return Letter(PHI_SUP, k)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_letter(letter: Letter) -> str:
    if letter.kind == MU:
        return "mu"
    if letter.kind == RHO:
        return "rho"
    if letter.kind == RHO_SUP:
        return f"rho{letter.sup}"
    return f"phi{letter.sup}"


def render(word: Word) -> str:
    return " ".join(render_letter(l) for l in word)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def is_monic(word: Word) -> bool:
    first = word[0]
    return first in (L_RHO, L_MU) or (first.kind in (RHO_SUP, PHI_SUP) and first.sup == 0)


def degree(word: Word, p: int) -> int:
    d = 0
    for letter in reversed(word):
        if letter.kind == MU:
            d = 2
        elif letter.kind == RHO:
            d = 1 + d
        elif letter.kind == RHO_SUP:
            d = p**letter.sup * (1 + d)
        else:
            d = p**letter.sup * (2 + p * d)
    return d


def rho_count(word: Word) -> int:
    return sum(1 for l in word if l.kind == RHO)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_words(length: int, p: int, max_degree: int, monic_only: bool = False) -> List[Word]:
    """All admissible words of the given length with degree <= max_degree.

    Words are built right to left from mu, depth first on an explicit stack.
    Each prepended letter adds at least 1 to the degree, so a prefix whose
    degree plus the letters still to come exceeds the cap is pruned.  The
    result is sorted by (degree, rendered word).
    """
    if length < 1 or max_degree < 2:
        return []
    out: List[Word] = []
    word: List[Letter] = []
    # (letters before it, letter, degree with it); the final sort fixes the order
    stack = [(0, L_MU, 2)]
    while stack:
        depth, letter, deg = stack.pop()
        del word[depth:]
        word.append(letter)
        depth += 1
        if depth == length:
            if not monic_only or is_monic(tuple(reversed(word))):
                out.append(tuple(reversed(word)))
            continue
        # the next letter leaves one degree for each letter after it
        cap = max_degree - (length - depth - 1)
        if letter.kind == RHO:
            k = 0
            while p**k * (1 + deg) <= cap:
                stack.append((depth, rho_sup(k), p**k * (1 + deg)))
                k += 1
        else:
            if 1 + deg <= cap:
                stack.append((depth, L_RHO, 1 + deg))
            if letter.kind != MU:
                k = 0
                while p**k * (2 + p * deg) <= cap:
                    stack.append((depth, phi_sup(k), p**k * (2 + p * deg)))
                    k += 1
    out.sort(key=lambda w: (degree(w, p), render(w)))
    return out


def count_words(length: int, p: int, max_degree: int, limit: int) -> int:
    """The number of words `enumerate_words` lists, or a number above limit.

    The letters are walked right to left with the same prune, but each
    prefix is kept only as a count per (kind of its first letter, degree):
    rho^k and phi^k take the same letters before them, so both count under
    RHO_SUP.  Every surviving prefix completes to at least one word, since
    rho and rho^0 in turn each add exactly 1 to the degree, so the total at
    any length is at most the final count; the walk stops, returning that
    total, as soon as it passes limit.
    """
    if length < 1 or max_degree < 2:
        return 0
    counts: Dict[Tuple[str, int], int] = {(MU, 2): 1}
    for depth in range(1, length):
        # the next letter leaves one degree for each letter after it
        cap = max_degree - (length - depth - 1)
        longer: Dict[Tuple[str, int], int] = {}
        total = 0
        for (kind, deg), c in counts.items():
            keys = []
            if kind == RHO:
                d = 1 + deg
                while d <= cap:
                    keys.append((RHO_SUP, d))
                    d *= p
            else:
                if 1 + deg <= cap:
                    keys.append((RHO, 1 + deg))
                if kind != MU:
                    d = 2 + p * deg
                    while d <= cap:
                        keys.append((RHO_SUP, d))
                        d *= p
            for key in keys:
                longer[key] = longer.get(key, 0) + c
            total += c * len(keys)
            if total > limit:
                return total
        if not longer:
            return 0
        counts = longer
    return sum(counts.values())


def enumerate_monic(length: int, p: int, max_degree: int) -> List[Word]:
    return enumerate_words(length, p, max_degree, monic_only=True)


@lru_cache(maxsize=None)
def monic_degrees(length: int, p: int, max_degree: int) -> Tuple[int, ...]:
    """Sorted degree multiset of the monic words of a given length."""
    return tuple(degree(w, p) for w in enumerate_monic(length, p, max_degree))


# ---------------------------------------------------------------------------
# structural law checker
# ---------------------------------------------------------------------------


def _prefix_pattern(k: int, *tail: Letter) -> Word:
    """(rho^0 rho)^k followed by the tail letters."""
    return (rho_sup(0), L_RHO) * k + tail


def _residue_shape_holds(word: Word, p: int) -> bool:
    """The residue of |word| mod 2p forces one of three leading shapes."""
    d = degree(word, p)
    k, odd = divmod(d % (2 * p), 2)
    if odd:
        if word[0] != L_RHO:
            return False
        word = word[1:]
    # k = 0 leaves no constraint (beyond the leading rho of an odd word):
    # any admissible tail may follow, matching the parity law.
    if k == 0:
        return True
    starts_phi = _prefix_pattern(k - 1, phi_sup(0))
    continues = _prefix_pattern(k)
    return (
        word == _prefix_pattern(k - 1, L_MU)
        or word[: len(starts_phi)] == starts_phi
        or word[: len(continues)] == continues
    )


def check_word_laws(p: int, max_length: int, max_degree: int) -> Dict[str, object]:
    """Verify the five structural laws on every admissible word in range.

    1. length >= 3 forces the suffix rho^k rho mu;
    2. even degree bounds the bare-rho count by (length-1)/2;
    3. degree >= length + 1;
    4. odd degree iff the word starts with bare rho;
    5. for monic words the degree residue mod 2p forces the leading shape.
    """
    checked = 0
    monic_checked = 0
    failures: List[Tuple[str, str]] = []
    for length in range(1, max_length + 1):
        for word in enumerate_words(length, p, max_degree):
            checked += 1
            d = degree(word, p)
            if length >= 3:
                tail = word[-3:]
                if not (tail[0].kind == RHO_SUP and tail[1].kind == RHO and tail[2].kind == MU):
                    failures.append(("suffix", render(word)))
            if d % 2 == 0 and 2 * rho_count(word) > length - 1:
                failures.append(("rho-bound", render(word)))
            if d < length + 1:
                failures.append(("degree-floor", render(word)))
            if (d % 2 == 1) != (word[0].kind == RHO):
                failures.append(("parity", render(word)))
            if is_monic(word):
                monic_checked += 1
                if not _residue_shape_holds(word, p):
                    failures.append(("residue-shape", render(word)))
    return {
        "words_checked": checked,
        "monic_checked": monic_checked,
        "failures": failures,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# digit-sum laws
# ---------------------------------------------------------------------------


def digit_sum(n: int, p: int) -> int:
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def is_sum_of_p_powers(m: int, count: int, p: int) -> bool:
    """Whether m is a sum of exactly `count` powers of p (p^0 allowed).

    Splitting p^{j+1} into p copies of p^j changes the summand count by
    p - 1, so m is such a sum iff digit_sum(m) <= count <= m and the
    difference count - digit_sum(m) is divisible by p - 1.
    """
    if m <= 0 or count <= 0:
        return False
    ds = digit_sum(m, p)
    return ds <= count <= m and (count - ds) % (p - 1) == 0


def _exponent_multisets(n: int, p: int, max_total: int):
    """All multisets (j_1 <= ... <= j_n) with sum of p^{j_i} <= max_total."""
    top = 0  # the largest j with p^j <= max_total
    while p ** (top + 1) <= max_total:
        top += 1
    return (
        js
        for js in itertools.combinations_with_replacement(range(top + 1), n)
        if sum(p**j for j in js) <= max_total
    )


def digit_sum_checks(p: int, max_length: int, max_degree: int) -> Dict[str, object]:
    """The p-adic digit-sum laws for words and mu-power products.

    * generators: an even admissible word x of length n <= 2p-2 has
      digit_sum(|x|/2) = n - (bare rho count);
    * product: the digit sum of a sum of n powers of p is n when every
      exponent multiplicity stays below p, and n - p + 1 when some exponent
      repeats at least p times (stated for n < 2p; reliable for n <= p, which
      is the range swept here);
    * comult-degree: an even admissible word of length n >= 2 never has
      degree equal to a sum of exactly n doubled p-powers, and (for p >= 5)
      never one of exactly n+1 of them.  Length 1 is not checked: mu itself
      has degree 2 = 2 p^0.
    """
    failures: List[Tuple[str, str]] = []
    generators_checked = 0
    for n in range(1, min(max_length, 2 * p - 2) + 1):
        for word in enumerate_words(n, p, max_degree):
            d = degree(word, p)
            if d % 2:
                continue
            generators_checked += 1
            if digit_sum(d // 2, p) != n - rho_count(word):
                failures.append(("generators", render(word)))

    product_checked = 0
    for n in range(1, max_length + 1):
        for js in _exponent_multisets(n, p, max_degree // 2):
            product_checked += 1
            total = sum(p**j for j in js)
            ds = digit_sum(total, p)
            max_mult = max(js.count(j) for j in set(js))
            expected = n if max_mult < p else n - p + 1
            if ds != expected:
                failures.append(("product", f"n={n} exponents={js}"))

    comult_checked = 0
    for n in range(2, max_length + 1):
        for word in enumerate_words(n, p, max_degree):
            d = degree(word, p)
            if d % 2:
                continue
            comult_checked += 1
            if is_sum_of_p_powers(d // 2, n, p):
                failures.append(("comult-degree", render(word)))
    if p >= 5:
        for n in range(1, max_length + 1):
            for word in enumerate_words(n, p, max_degree):
                d = degree(word, p)
                if d % 2:
                    continue
                if is_sum_of_p_powers(d // 2, n + 1, p):
                    failures.append(("comult-degree-extra", render(word)))

    return {
        "generators_checked": generators_checked,
        "product_checked": product_checked,
        "comult_checked": comult_checked,
        "failures": failures,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# word algebras
# ---------------------------------------------------------------------------


def word_generator(word: Word, p: int, label: str) -> gh.GeneratorSpec:
    d = degree(word, p)
    return gh.exterior(label, d) if d % 2 else gh.divided(label, d)


def word_algebra(length: int, p: int, bound: int) -> gh.AlgebraSpec:
    """The Hopf algebra on monic words of one length, truncated at `bound`.

    Length 1 is the polynomial algebra on mu; longer lengths are exterior on
    odd-degree monic words tensor divided powers on even-degree ones.
    """
    if length == 1:
        return gh.AlgebraSpec((gh.polynomial("mu", 2),), bound, p)
    gens = tuple(
        word_generator(w, p, render(w)) for w in enumerate_monic(length, p, bound)
    )
    return gh.AlgebraSpec(gens, bound, p)


def labeled_render(word: Word, labels: Sequence[int]) -> str:
    """Letters subscripted by torus coordinates, largest label leftmost."""
    if len(word) != len(labels):
        raise ValueError("word length and label count differ")
    ordered = sorted(labels, reverse=True)
    return " ".join(
        f"{render_letter(l)}_{lab}" for l, lab in zip(word, ordered)
    )


def labeled_word_algebra(labels: Sequence[int], p: int, bound: int) -> gh.AlgebraSpec:
    """The word algebra on a label set: empty set gives the trivial algebra.

    Singletons are polynomial on the labeled mu; larger sets take the monic
    words of the matching length with subscripted letters.
    """
    labels = tuple(sorted(labels))
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if not labels:
        return gh.AlgebraSpec((), bound, p)
    if len(labels) == 1:
        return gh.AlgebraSpec((gh.polynomial(f"mu_{labels[0]}", 2),), bound, p)
    gens = tuple(
        word_generator(w, p, labeled_render(w, labels)) for w in enumerate_monic(len(labels), p, bound)
    )
    return gh.AlgebraSpec(gens, bound, p)
