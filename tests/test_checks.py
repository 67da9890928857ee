"""The law checks decide each multilinear law on basis tuples.

`checks._holds_on_basis` decides a draw by its law on every tuple of
monomials from the draw's supports.  The oracles below are the element-level
loops the checks ran before: they replay the same random draws and decide
each law on the whole elements.
"""

import random
from collections import Counter

import pytest

from thhcalc import checks
from thhcalc import graded_hopf as gh
from thhcalc import torus_model as tm
from thhcalc.fp_linalg import add_to

MULTILINEAR = ("associative", "commutative", "coassociative", "comultiplicative")


def _recording(monkeypatch):
    """Record (law name, elements, verdict) for every draw `_holds_on_basis` decides."""
    seen = []
    real = checks._holds_on_basis

    def holds(law, memo, *elements):
        ok = real(law, memo, *elements)
        seen.append((law.__name__, elements, ok))
        return ok

    monkeypatch.setattr(checks, "_holds_on_basis", holds)
    return seen


def _core_laws_oracle(p, seed):
    """The four multilinear laws of `core_properties`, drawn and decided on elements."""
    spec = checks._core_config(p)
    bound = spec.degree_bound
    rng = random.Random(seed)

    def draw(max_t):
        while True:
            t = rng.randrange(1, max_t + 1)
            e = gh.random_homogeneous(spec, t, rng)
            if e:
                return t, e

    def mul(x, y):
        return gh.multiply(spec, x, y)

    out = []
    for _ in range(1000):
        a, b, c = (draw(bound // 3)[1] for _ in range(3))
        out.append(("associative", (a, b, c), mul(mul(a, b), c) == mul(a, mul(b, c))))
    for _ in range(1000):
        (ta, a), (tb, b) = draw(bound // 2), draw(bound // 2)
        sign = -1 if ta * tb % 2 else 1
        out.append(("commutative", (a, b), mul(a, b) == gh.scalar_mul(sign, mul(b, a), p)))
    for _ in range(1000):
        a = draw(bound // 2)[1]
        ts = gh.coproduct(spec, a)
        ok = checks._coproduct_on_side(spec, ts, 0) == checks._coproduct_on_side(spec, ts, 1)
        out.append(("coassociative", (a,), ok))
    for _ in range(1000):
        a, b = draw(bound // 2)[1], draw(bound // 2)[1]
        rhs = gh.tensor_multiply(spec, gh.coproduct(spec, a), gh.coproduct(spec, b))
        out.append(("comultiplicative", (a, b), gh.coproduct(spec, mul(a, b)) == rhs))
    return out


def _derivation_oracle(p, seed):
    """The derivation-law draws of `sigma_contract`, decided on elements."""
    bound = 4 * p + 2
    rng = random.Random(seed)
    tori = {n: tm.build_torus(n, p, bound) for n in (2, 3, 4)}

    def pool(n, t):
        return [m for m in gh.basis(tori[n].spec, t) if m and checks._word_labels_below(tori[n], m, n)]

    out = []
    while len(out) < 1000:
        n = rng.choice((2, 3, 4))
        torus, spec = tori[n], tori[n].spec
        da = rng.randrange(1, bound // 2)
        db = rng.randrange(1, bound // 2)
        a = checks._random_bounded(pool(n, da), p, rng)
        b = checks._random_bounded(pool(n, db), p, rng)
        if not a or not b:
            continue
        lhs = tm.sigma(torus, n, gh.multiply(spec, a, b))
        rhs = gh.add(
            gh.multiply(spec, tm.sigma(torus, n, a), b),
            gh.scalar_mul((-1) ** da, gh.multiply(spec, a, tm.sigma(torus, n, b)), p),
            p,
        )
        out.append(((a, b), lhs == rhs))
    return out


@pytest.mark.parametrize("p, seed", [(3, 0), (3, 1), (5, 0), (5, 1)])
def test_core_laws_on_basis_tuples_agree_with_element_verdicts(monkeypatch, p, seed):
    seen = _recording(monkeypatch)
    result = checks.core_properties(p, seed)
    want = _core_laws_oracle(p, seed)
    # the same draws, in the same order, with the same verdicts: all pass
    assert [entry for entry in seen if entry[0] in MULTILINEAR] == want
    assert all(ok for _, _, ok in want)
    assert result.passed and result.details["failures"] == {}
    counts = Counter(name for name, _, _ in want)
    laws = ("associativity", "graded-commutativity", "coassociativity", "comultiplication")
    assert [result.details["counts"][law] for law in laws] == [counts[name] for name in MULTILINEAR]


@pytest.mark.parametrize("p, seed", [(3, 0), (3, 1), (5, 0), (5, 1)])
def test_derivation_law_on_monomial_pairs_agrees_with_element_verdicts(monkeypatch, p, seed):
    seen = _recording(monkeypatch)
    result = checks.sigma_contract(p, seed)
    want = _derivation_oracle(p, seed)
    assert [(elements, ok) for name, elements, ok in seen if name == "derivation"] == want
    assert all(ok for _, ok in want)
    assert result.details["derivation_checked"] == len(want)
    assert result.details["derivation_failures"] == 0


def _tensor_multiply_without_sign(spec, t1, t2, products=None):
    """tensor_multiply with the Koszul sign (-1)^{|b||c|} dropped."""
    out = {}
    for (a, b), c1 in t1.items():
        for (x, y), c2 in t2.items():
            left, right = gh.mul_monomials(spec, a, x), gh.mul_monomials(spec, b, y)
            if left and right:
                add_to(out, (left[1], right[1]), c1 * c2 * left[0] * right[0], spec.p)
    return out


def _derivation_without_sign(spec, elem, image, divided_shift):
    """extend_derivation with the Koszul sign of the factors to the left dropped."""
    p = spec.p
    out = {}
    for mon, coeff in elem.items():
        for j, (gi, e) in enumerate(mon):
            img = image(gi)
            if spec.generators[gi].kind == gh.DIVIDED:
                drop, factor = divided_shift, int(e >= divided_shift)
            else:
                drop, factor = 1, e % p
            if img and factor:
                head = {mon[:j] + (((gi, e - drop),) if e > drop else ()): coeff * factor}
                out = gh.add(out, gh.multiply(spec, gh.multiply(spec, head, img), {mon[j + 1 :]: 1}), p)
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_a_tensor_product_without_its_koszul_sign_fails_comultiplication(monkeypatch, p):
    monkeypatch.setattr(gh, "tensor_multiply", _tensor_multiply_without_sign)
    result = checks.core_properties(p, 0)
    assert not result.passed
    assert result.details["failures"].get("comultiplication", 0) > 0


@pytest.mark.parametrize("p", [3, 5])
def test_a_coproduct_with_a_dropped_split_fails_coassociativity(monkeypatch, p):
    real = gh._monomial_coproduct

    def dropped(spec, mon):
        # the split that moves the whole monomial to the left is lost
        return {key: v for key, v in real(spec, mon).items() if not mon or key != (mon, gh.ONE)}

    monkeypatch.setattr(gh, "_monomial_coproduct", dropped)
    result = checks.core_properties(p, 0)
    assert result.details["failures"].get("coassociativity", 0) > 0


@pytest.mark.parametrize("p", [3, 5])
def test_a_sigma_without_its_sign_fails_the_derivation_law(monkeypatch, p):
    monkeypatch.setattr(gh, "extend_derivation", _derivation_without_sign)
    result = checks.sigma_contract(p, 0)
    assert result.details["derivation_failures"] > 0
    assert not result.passed


def test_core_properties_sees_no_memo_from_an_earlier_call(monkeypatch):
    # every memo a call hands to _holds_on_basis starts empty and belongs to
    # that call alone, and a second call makes every product and coproduct
    # the first one made
    memos = []  # held, so no two memos can share an id
    calls = Counter()
    real_holds, real_mul, real_coproduct = checks._holds_on_basis, gh.mul_monomials, gh._monomial_coproduct

    def holds(law, memo, *elements):
        if not any(m is memo for m in memos):
            assert not memo
            memos.append(memo)
        return real_holds(law, memo, *elements)

    monkeypatch.setattr(checks, "_holds_on_basis", holds)
    monkeypatch.setattr(gh, "mul_monomials", lambda *args: calls.update(["mul"]) or real_mul(*args))
    monkeypatch.setattr(gh, "_monomial_coproduct", lambda *args: calls.update(["psi"]) or real_coproduct(*args))
    per_call = []
    for _ in range(2):
        before = len(memos)
        calls.clear()
        assert checks.core_properties(3, 0).passed
        per_call.append((len(memos) - before, dict(calls)))
    assert per_call[0] == per_call[1]
    assert per_call[0][0] == len(MULTILINEAR)
    assert per_call[0][1]["mul"] > 0 and per_call[0][1]["psi"] > 0
