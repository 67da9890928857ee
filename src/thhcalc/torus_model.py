"""Torus-level algebra: labeled word generators, suspension, projections.

The model algebra for an n-torus is the tensor product, over all nonempty
subsets U of the coordinate set {1..n}, of the word algebra on monic words
of length |U| with letters subscripted by U (largest label leftmost).  An
optional coaction block adjoins polynomial classes xi_i of degree 2 p^i - 2
and exterior classes tau_j of degree 2 p^j - 1.

`sigma` is the suspension-by-one-coordinate operator: a graded derivation
sending an even word z to the bare-rho-prefixed word, an odd word to the
rho^0-prefixed word (both picking up the new coordinate as their leading
label), xi classes to zero and tau_j to the p^j-th power of the new
coordinate class.  Divided powers suspend by index shift:
sigma(gamma_k(z)) = gamma_{k-1}(z) sigma(z).  It is only defined when the
new coordinate exceeds every label already present.  Each torus keeps the
generator images it has computed in `images`, keyed by (coordinate,
generator): a word's image needs its suspended label rendered and looked
up, and the same few images recur across every element suspended on that
torus.  An image that raises is not kept, so it raises again on each call.
The table fills as `sigma` runs, so two tori compare equal only when they
have cached the same images; nothing compares tori.

The top-cell projection keeps only words carrying every label.  The
augmentation-like ideal test `in_p_ideal` asks whether an element dies under
the projection onto the polynomial subalgebra of single-coordinate classes.

`n_delta_degrees` enumerates the total degrees realizable by partitioning
the coordinate set into proper nonempty subsets, one generator degree per
block; `multifold_primitive_degree_check` uses it to verify that the degrees
reserved for length-n primitives are never hit by these partitions.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Dict, FrozenSet, List, NamedTuple, Set, Tuple

from . import admissible_words as aw
from . import graded_hopf as gh


class UnsupportedSigma(Exception):
    """Suspension asked for a coordinate that is not strictly new."""


WORD = "word"
XI = "xi"
TAU = "tau"


class TorusAlgebra(NamedTuple):
    """An n-torus word algebra with an optional coaction block.

    The prime and the degree bound are the spec's.
    """

    n: int
    spec: gh.AlgebraSpec
    info: Tuple[Tuple, ...]
    index: Dict[str, int]
    images: Dict[Tuple[int, int], gh.Element]  # (v, gi) -> sigma image, filled by `sigma`


def _subsets(n: int) -> List[Tuple[int, ...]]:
    """Nonempty subsets of {1..n}, size-first, each lexicographic within a size."""
    return [u for size in range(1, n + 1) for u in combinations(range(1, n + 1), size)]


def build_torus(n: int, p: int, degree_bound: int, coaction: bool = False) -> TorusAlgebra:
    """Assemble the torus algebra with generators in canonical order.

    Subsets come size-first, words within a subset degree-first, and with
    `coaction` the coaction classes trail: xi_1, xi_2, ... then tau_0,
    tau_1, ...  Every generator's label doubles as its lookup key.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    gens: List[gh.GeneratorSpec] = []
    info: List[Tuple] = []
    for u in _subsets(n):
        if len(u) == 1:
            gens.append(gh.polynomial(f"mu_{u[0]}", 2))
            info.append((WORD, u, (aw.L_MU,)))
            continue
        for word in aw.enumerate_monic(len(u), p, degree_bound):
            gens.append(aw.word_generator(word, p, aw.labeled_render(word, u)))
            info.append((WORD, u, word))
    if coaction:
        i = 1
        while 2 * p**i - 2 <= degree_bound:
            gens.append(gh.polynomial(f"xi{i}", 2 * p**i - 2))
            info.append((XI, i))
            i += 1
        j = 0
        while 2 * p**j - 1 <= degree_bound:
            gens.append(gh.exterior(f"tau{j}", 2 * p**j - 1))
            info.append((TAU, j))
            j += 1
    spec = gh.AlgebraSpec(tuple(gens), degree_bound, p)
    index = {g.label: i for i, g in enumerate(gens)}
    return TorusAlgebra(n, spec, tuple(info), index, {})


# ---------------------------------------------------------------------------
# suspension
# ---------------------------------------------------------------------------


def _generator_image(t: TorusAlgebra, v: int, gi: int) -> gh.Element:
    """Image of one generator under suspension along coordinate v."""
    tag = t.info[gi]
    p, bound = t.spec.p, t.spec.degree_bound
    if tag[0] == XI:
        return {}
    if tag[0] == TAU:
        power = p ** tag[1]
        if 2 * power > bound:
            return {}
        mu = t.index[f"mu_{v}"]
        return {((mu, power),): 1}
    _, labels, word = tag
    if any(l >= v for l in labels):
        raise UnsupportedSigma(
            f"coordinate {v} is not above the labels of {t.spec.generators[gi].label}"
        )
    d = t.spec.generators[gi].degree
    # even words take a bare rho prefix (odd result), odd words take rho^0
    prefix = aw.rho_sup(0) if d % 2 else aw.L_RHO
    new_word = (prefix,) + word
    new_labels = tuple(sorted(labels + (v,)))
    label = aw.labeled_render(new_word, new_labels)
    if label not in t.index:
        if aw.degree(new_word, p) > bound:
            return {}
        raise UnsupportedSigma(f"suspended word {label} is not a known generator")
    return {((t.index[label], 1),): 1}


def sigma(t: TorusAlgebra, v: int, elem: gh.Element) -> gh.Element:
    """Suspend an element along coordinate v (a graded derivation).

    Every word factor of the element must carry labels strictly below v, and
    v must be one of the torus coordinates.  Divided powers suspend as
    sigma(gamma_k(z)) = gamma_{k-1}(z) sigma(z); group-like powers as
    e z^{e-1} sigma(z).  Generator images are read from, and added to,
    the torus's `images` table.
    """
    if not 1 <= v <= t.n:
        raise UnsupportedSigma(f"coordinate {v} is outside 1..{t.n}")
    images = t.images

    def image(gi: int) -> gh.Element:
        img = images.get((v, gi))
        if img is None:
            img = images[v, gi] = _generator_image(t, v, gi)
        return img

    return gh.extend_derivation(t.spec, elem, image, 1)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def _monomial_survives(
    t: TorusAlgebra, mon: gh.Monomial, keep: "callable"
) -> bool:
    return all(keep(t.info[gi]) for gi, _ in mon)


def project_top_cell(t: TorusAlgebra, elem: gh.Element) -> gh.Element:
    """Keep the monomials built purely from words carrying every label."""
    full = tuple(range(1, t.n + 1))

    def keep(tag: Tuple) -> bool:
        return tag[0] == WORD and tag[1] == full

    return {m: c for m, c in elem.items() if _monomial_survives(t, m, keep)}


def in_p_ideal(t: TorusAlgebra, elem: gh.Element) -> bool:
    """Whether the element dies under projection to single-coordinate powers.

    The surviving subalgebra is polynomial on the mu_v alone; an element
    belongs to the ideal exactly when every monomial contains a factor that
    is not such a power.
    """

    def keep(tag: Tuple) -> bool:
        return tag[0] == WORD and len(tag[1]) == 1

    return not any(_monomial_survives(t, m, keep) for m in elem)


# ---------------------------------------------------------------------------
# degree sets of block partitions
# ---------------------------------------------------------------------------


def _block_degree_set(size: int, p: int, max_degree: int) -> List[int]:
    if size == 1:
        out = []
        d = 2
        while d <= max_degree:
            out.append(d)
            d *= p
        return out
    return sorted(set(aw.monic_degrees(size, p, max_degree)))


def n_delta_degrees(n: int, max_degree: int, p: int) -> Dict[int, bool]:
    """Degrees of partition-indexed products, flagged by non-singleton use.

    The blocks are the proper nonempty subsets of {1..n}.  Each partition of
    {1..n} into such blocks contributes the sums of one generator degree per
    block: monic-word degrees for blocks of size >= 2, power degrees 2 p^i
    for singletons.  The result maps each achievable degree <= max_degree to
    True when some achieving partition uses a block of size >= 2.
    """
    blocks = [frozenset(u) for u in _subsets(n) if len(u) < n]
    degree_sets = {b: _block_degree_set(len(b), p, max_degree) for b in blocks}

    cache: Dict[FrozenSet[int], Set[Tuple[int, bool]]] = {}

    def sums(remaining: FrozenSet[int]) -> Set[Tuple[int, bool]]:
        if not remaining:
            return {(0, False)}
        if remaining in cache:
            return cache[remaining]
        least = min(remaining)
        acc: Set[Tuple[int, bool]] = set()
        for b in blocks:
            if least not in b or not b <= remaining:
                continue
            rest = sums(remaining - b)
            for d in degree_sets[b]:
                for s, f in rest:
                    if d + s <= max_degree:
                        acc.add((d + s, f or len(b) >= 2))
        cache[remaining] = acc
        return acc

    out: Dict[int, bool] = {}
    for s, f in sums(frozenset(range(1, n + 1))):
        out[s] = out.get(s, False) or f
    return out


def multifold_primitive_degree_check(n: int, p: int, max_degree: int) -> Dict[str, object]:
    """Proper-block partition degrees avoid the reserved primitive degrees.

    Two scans: partition sums that use a non-singleton block never land on
    2 p i - 1 or 2 p i for i >= 2; and for admissible length-n words, the
    degree below a word of degree divisible by 2p, and p times the degree of
    an even word, are never partition sums at all.
    """
    if not 2 <= n <= p:
        raise ValueError("the coordinate count must lie between 2 and p")
    degrees = n_delta_degrees(n, max_degree, p)
    violations: List[Tuple[str, int]] = []
    for d, flagged in sorted(degrees.items()):
        if not flagged:
            continue
        if d % (2 * p) == 2 * p - 1 and d >= 4 * p - 1:
            violations.append(("residue-minus-one", d))
        if d % (2 * p) == 0 and d >= 4 * p:
            violations.append(("residue-zero", d))
    words_checked = 0
    for word in aw.enumerate_words(n, p, max_degree + 1):
        d = aw.degree(word, p)
        if d % (2 * p) == 0:
            words_checked += 1
            if degrees.get(d - 1) is not None:
                violations.append(("below-word-degree", d - 1))
        if d % 2 == 0 and p * d <= max_degree:
            words_checked += 1
            if degrees.get(p * d) is not None:
                violations.append(("stretched-word-degree", p * d))
    return {
        "words_checked": words_checked,
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# dimension bookkeeping
# ---------------------------------------------------------------------------


def torus_poincare_report(n: int, p: int, max_degree: int) -> Dict[str, object]:
    """Two factorizations of the torus algebra's dimension series.

    The series must equal the product over subset sizes k of the length-k
    word algebra's series, raised to the number of k-subsets; equivalently
    the proper-subset skeleton's series times the top word algebra's series.
    """
    torus = build_torus(n, p, max_degree)
    series = gh.poincare_series(torus.spec, max_degree)

    product = [1] + [0] * max_degree
    for k in range(1, n + 1):
        factor = gh.poincare_series(aw.word_algebra(k, p, max_degree), max_degree)
        for _ in range(comb(n, k)):
            product = gh.convolve(product, factor)

    skeleton = [1] + [0] * max_degree
    for u in _subsets(n):
        if len(u) == n:
            continue
        factor = gh.poincare_series(aw.labeled_word_algebra(u, p, max_degree), max_degree)
        skeleton = gh.convolve(skeleton, factor)
    top = gh.poincare_series(aw.word_algebra(n, p, max_degree), max_degree)
    skeleton_product = gh.convolve(skeleton, top)

    return {"series": series, "passed": series == product == skeleton_product}
