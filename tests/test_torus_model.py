"""Tests for the torus algebra, suspension, projections and degree sets."""

from __future__ import annotations

import random

import pytest

from thhcalc import checks
from thhcalc import graded_hopf as gh
from thhcalc import torus_model as tm


def mono(t: tm.TorusAlgebra, *pairs) -> gh.Element:
    mon = tuple(sorted((t.index[label], e) for label, e in pairs))
    return {mon: 1}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_torus_generator_labels():
    t = tm.build_torus(2, 3, 12)
    assert list(t.index) == ["mu_1", "mu_2", "rho_2 mu_1"]
    kinds = [g.kind for g in t.spec.generators]
    assert kinds == [gh.POLYNOMIAL, gh.POLYNOMIAL, gh.EXTERIOR]


def test_build_torus_three_coordinates():
    t = tm.build_torus(3, 3, 12)
    assert list(t.index) == [
        "mu_1",
        "mu_2",
        "mu_3",
        "rho_2 mu_1",
        "rho_3 mu_1",
        "rho_3 mu_2",
        "rho0_3 rho_2 mu_1",
    ]
    top = t.spec.generators[t.index["rho0_3 rho_2 mu_1"]]
    assert top.kind == gh.DIVIDED and top.degree == 4


def test_build_torus_with_coaction_block():
    t = tm.build_torus(1, 5, 30, coaction=True)
    labels = set(t.index)
    assert {"mu_1", "xi1", "tau0", "tau1"} <= labels
    assert "xi2" not in labels  # degree 48 > 30
    assert t.spec.generators[t.index["xi1"]].degree == 8
    assert t.spec.generators[t.index["tau1"]].degree == 9


# ---------------------------------------------------------------------------
# suspension images
# ---------------------------------------------------------------------------


def test_sigma_on_coordinate_class():
    t = tm.build_torus(2, 3, 12)
    out = tm.sigma(t, 2, mono(t, ("mu_1", 1)))
    assert out == mono(t, ("rho_2 mu_1", 1))


def test_sigma_on_power_uses_group_like_rule():
    t = tm.build_torus(2, 3, 12)
    out = tm.sigma(t, 2, mono(t, ("mu_1", 4)))
    # 4 mu^3 sigma(mu)
    expected = gh.scalar_mul(4, mono(t, ("mu_1", 3), ("rho_2 mu_1", 1)), 3)
    assert out == expected
    assert tm.sigma(t, 2, mono(t, ("mu_1", 3))) == {}


def test_sigma_on_odd_word_gives_divided_generator():
    t = tm.build_torus(3, 3, 12)
    out = tm.sigma(t, 3, mono(t, ("rho_2 mu_1", 1)))
    assert out == mono(t, ("rho0_3 rho_2 mu_1", 1))


def test_sigma_on_divided_power_shifts_index():
    big = tm.build_torus(4, 3, 40)
    z = "rho0_3 rho_2 mu_1"
    out = tm.sigma(big, 4, {((big.index[z], 3),): 1})
    expected_label = "rho_4 rho0_3 rho_2 mu_1"
    assert out == {
        tuple(sorted(((big.index[z], 2), (big.index[expected_label], 1)))): 1
    }


def test_sigma_on_tau_and_xi():
    t = tm.build_torus(2, 3, 20, coaction=True)
    for v in (1, 2):
        mu = f"mu_{v}"
        # polynomial coaction classes suspend to zero; the unit is closed
        assert tm.sigma(t, v, mono(t, ("xi1", 1))) == {}
        assert tm.sigma(t, v, {gh.ONE: 1}) == {}
        assert tm.sigma(t, v, mono(t, ("tau0", 1))) == mono(t, (mu, 1))
        assert tm.sigma(t, v, mono(t, ("tau1", 1))) == mono(t, (mu, 3))
        # tau0 tau1: the odd degree of tau0 signs the second term
        tau01 = gh.multiply(t.spec, mono(t, ("tau0", 1)), mono(t, ("tau1", 1)))
        assert tm.sigma(t, v, tau01) == gh.add(
            mono(t, (mu, 1), ("tau1", 1)),
            gh.scalar_mul(-1, mono(t, ("tau0", 1), (mu, 3)), 3),
            3,
        )
    # tau2 would land at degree 18 as mu^9: present iff bound allows
    assert tm.sigma(t, 2, mono(t, ("tau2", 1))) == mono(t, ("mu_2", 9))


def test_word_labels_below_reads_coaction_tags():
    # xi and tau tags carry no labels, and no word labels either
    t = tm.build_torus(2, 3, 12, coaction=True)
    for label in ("xi1", "tau0", "tau1"):
        (mon,) = mono(t, (label, 1))
        assert checks._word_labels_below(t, mon, 2)
    (mixed,) = mono(t, ("tau0", 1), ("mu_1", 2))
    assert checks._word_labels_below(t, mixed, 2)
    # a word carrying a label >= v is refused, with or without coaction factors
    for v in (1, 2):
        (stale,) = mono(t, ("tau0", 1), ("rho_2 mu_1", 1))
        assert not checks._word_labels_below(t, stale, v)
    (top,) = mono(t, ("mu_2", 1))
    assert not checks._word_labels_below(t, top, 2)
    assert checks._word_labels_below(t, top, 3)


def test_sigma_truncates_or_raises_beyond_bound():
    t = tm.build_torus(2, 3, 12, coaction=True)
    # tau2 has degree 17 > 12 so it is not even a generator here
    assert "tau2" not in t.index
    # suspending tau1 lands at degree 6 <= 12: fine
    assert tm.sigma(t, 2, mono(t, ("tau1", 1))) == mono(t, ("mu_2", 3))
    lax = tm.build_torus(2, 3, 5, coaction=True)
    assert tm.sigma(lax, 2, mono(lax, ("tau1", 1))) == {}


def test_sigma_rejects_stale_coordinates():
    t = tm.build_torus(2, 3, 12)
    with pytest.raises(tm.UnsupportedSigma):
        tm.sigma(t, 1, mono(t, ("mu_1", 1)))
    with pytest.raises(tm.UnsupportedSigma):
        tm.sigma(t, 2, mono(t, ("rho_2 mu_1", 1)))
    with pytest.raises(tm.UnsupportedSigma):
        tm.sigma(t, 3, mono(t, ("mu_1", 1)))


def test_sigma_keeps_each_generator_image_once(monkeypatch):
    calls = []
    real = tm._generator_image

    def counted(t, v, gi):
        calls.append((v, gi))
        return real(t, v, gi)

    monkeypatch.setattr(tm, "_generator_image", counted)
    rng = random.Random(23)
    t = tm.build_torus(3, 3, 24, coaction=True)
    for _ in range(200):
        for v in (2, 3):
            elem = _random_label_bounded(t, rng.randrange(1, 12), v, rng)
            tm.sigma(t, v, elem)
    assert len(calls) == len(set(calls)) == len(t.images) >= 10
    assert set(calls) == set(t.images)


def test_a_stale_image_raises_on_every_call_and_is_not_kept():
    t = tm.build_torus(2, 3, 12)
    stale = mono(t, ("rho_2 mu_1", 1))
    (((gi, _),),) = stale
    for _ in range(3):
        with pytest.raises(tm.UnsupportedSigma):
            tm.sigma(t, 2, stale)
        assert (2, gi) not in t.images
    # an element whose first factor maps keeps that image, and still raises
    # on the stale factor after it
    mixed = gh.multiply(t.spec, mono(t, ("mu_1", 1)), stale)
    for _ in range(2):
        with pytest.raises(tm.UnsupportedSigma):
            tm.sigma(t, 2, mixed)
    assert (2, t.index["mu_1"]) in t.images and (2, gi) not in t.images


def test_a_reused_torus_suspends_as_a_fresh_one():
    rng = random.Random(29)
    warm = tm.build_torus(4, 5, 22, coaction=True)
    draws = []
    for _ in range(150):
        v = rng.choice((2, 3, 4))
        draws.append((v, _random_label_bounded(warm, rng.randrange(1, 12), v, rng)))
    first = [tm.sigma(warm, v, elem) for v, elem in draws]
    assert warm.images
    again = [tm.sigma(warm, v, elem) for v, elem in draws]
    fresh = [tm.sigma(tm.build_torus(4, 5, 22, coaction=True), v, elem) for v, elem in draws]
    assert first == again == fresh
    assert sum(map(bool, first)) > 100


def _random_label_bounded(t: tm.TorusAlgebra, degree: int, v: int, rng) -> gh.Element:
    """Random homogeneous element whose word labels stay below v."""
    p = t.spec.p
    pool = []
    for mon in gh.basis(t.spec, degree):
        ok = True
        for gi, _ in mon:
            tag = t.info[gi]
            if tag[0] == tm.WORD and max(tag[1]) >= v:
                ok = False
                break
        if ok:
            pool.append(mon)
    out: gh.Element = {}
    for _ in range(min(3, len(pool))):
        mon = rng.choice(pool)
        c = rng.randrange(1, p)
        v2 = (out.get(mon, 0) + c) % p
        if v2:
            out[mon] = v2
        elif mon in out:
            del out[mon]
    return out


def test_sigma_is_a_derivation_randomized():
    rng = random.Random(97)
    t = tm.build_torus(3, 3, 24, coaction=True)
    v = 3
    for _ in range(300):
        d1 = rng.randrange(1, 10)
        d2 = rng.randrange(1, 10)
        a = _random_label_bounded(t, d1, v, rng)
        b = _random_label_bounded(t, d2, v, rng)
        if not a or not b:
            continue
        lhs = tm.sigma(t, v, gh.multiply(t.spec, a, b))
        rhs = gh.add(
            gh.multiply(t.spec, tm.sigma(t, v, a), b),
            gh.scalar_mul((-1) ** d1, gh.multiply(t.spec, a, tm.sigma(t, v, b)), t.spec.p),
            t.spec.p,
        )
        assert lhs == rhs


def test_sigma_image_lies_in_augmentation_ideal():
    t = tm.build_torus(3, 5, 22)
    for gi, tag in enumerate(t.info):
        if tag[0] != tm.WORD or max(tag[1]) >= 3:
            continue
        image = tm.sigma(t, 3, {((gi, 1),): 1})
        assert tm.in_p_ideal(t, image), t.spec.generators[gi].label


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_project_top_cell():
    t = tm.build_torus(2, 3, 12)
    elem = gh.add(
        mono(t, ("rho_2 mu_1", 1)),
        gh.scalar_mul(2, mono(t, ("rho_2 mu_1", 1), ("mu_1", 1)), 3),
        3,
    )
    kept = tm.project_top_cell(t, elem)
    assert kept == mono(t, ("rho_2 mu_1", 1))


def test_project_top_cell_after_sigma():
    # suspending a word hits the top cell exactly when its labels filled
    # all but the last coordinate
    t = tm.build_torus(3, 3, 24)
    for gi, tag in enumerate(t.info):
        if tag[0] != tm.WORD or max(tag[1]) >= 3:
            continue
        image = tm.sigma(t, 3, {((gi, 1),): 1})
        surviving = tm.project_top_cell(t, image)
        if tag[1] == (1, 2):
            assert surviving == image and image
        else:
            assert surviving == {}


def test_in_p_ideal():
    t = tm.build_torus(2, 3, 12, coaction=True)
    assert not tm.in_p_ideal(t, mono(t, ("mu_1", 3)))
    assert not tm.in_p_ideal(t, {gh.ONE: 1})
    assert tm.in_p_ideal(t, mono(t, ("rho_2 mu_1", 1)))
    assert tm.in_p_ideal(t, mono(t, ("tau0", 1)))
    assert tm.in_p_ideal(t, mono(t, ("mu_1", 2), ("xi1", 1)))
    mixed = gh.add(mono(t, ("mu_1", 1)), mono(t, ("rho_2 mu_1", 1)), 3)
    assert not tm.in_p_ideal(t, mixed)


# ---------------------------------------------------------------------------
# partition degree sets
# ---------------------------------------------------------------------------


def test_n_delta_degrees_two_singletons():
    degrees = tm.n_delta_degrees(2, 18, 3)
    assert degrees == {4: False, 8: False, 12: False}


def test_n_delta_degrees_with_pairs():
    degrees = tm.n_delta_degrees(3, 18, 3)
    assert degrees == {
        5: True,
        6: False,
        9: True,
        10: False,
        14: False,
        18: False,
    }


def test_multifold_primitive_degree_check_sweep():
    for p, ns in ((3, (2, 3)), (5, (2, 3, 4, 5))):
        for n in ns:
            report = tm.multifold_primitive_degree_check(n, p, 2 * p**2)
            assert report["passed"], report["violations"]


def test_multifold_primitive_degree_check_guards():
    with pytest.raises(ValueError):
        tm.multifold_primitive_degree_check(1, 3, 18)
    with pytest.raises(ValueError):
        tm.multifold_primitive_degree_check(4, 3, 18)


# ---------------------------------------------------------------------------
# dimension series
# ---------------------------------------------------------------------------


def test_torus_poincare_factorizations():
    for p in (3, 5):
        for n in (1, 2, 3):
            report = tm.torus_poincare_report(n, p, 4 * p)
            assert report["passed"], (n, p)


def test_torus_series_small_by_hand():
    # n = 2, p = 3, degrees 0..4: 1; 0; mu_1, mu_2; rho_2 mu_1; mu^2s
    report = tm.torus_poincare_report(2, 3, 4)
    assert report["series"][:5] == [1, 0, 2, 1, 3]
