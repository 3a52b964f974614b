"""Tests for the certification harness."""

import hashlib
import json
import random

import pytest

from twobridge.cfrac import knot_params
from twobridge.certify import (MUTATIONS, CertificateReport, Counterexample,
                               SampleBudget, _CorruptedOracle, _Signer,
                               _sample_conjugators, audit_cone, ball,
                               certify_compatibility, check_navas_law,
                               check_restriction_law, mutation_reports,
                               overall_verdict, run_checks,
                               run_mutation_selftests)
from twobridge.errors import InternalCheckFailed, ParseError
from twobridge.groups import Word, peripheral_word
from twobridge.lifted import Moebius
from twobridge.numberfield import FieldElement
from twobridge.orders import (ConeOracle, OrderFamilySpec, Sign,
                              family_is_positive)
from reference import pattern_by_products

SMALL = SampleBudget(ball_radius=3, conjugator_length=2, peripheral_bound=2,
                     semigroup_samples=300, member_samples=10, seed=1)


def test_budget_validation():
    assert SampleBudget().ball_radius == 5
    with pytest.raises(ValueError):
        SampleBudget(ball_radius=0)
    with pytest.raises(ValueError):
        SampleBudget(member_samples=0)
    with pytest.raises(ValueError):
        SampleBudget(peripheral_bound=-1)


def test_member_budget_must_fit_the_conjugator_pool():
    # 7 reduced words over x, y, z up to length 1; 17 over a, b up to 2
    p = knot_params(3, 4)
    for which, members in (("restrict", 8), ("compat", 18), ("all", 8)):
        budget = SampleBudget(conjugator_length=1, member_samples=members)
        with pytest.raises(ParseError):
            run_checks(p, budget, which)
    tight = SampleBudget(ball_radius=1, conjugator_length=1,
                         peripheral_bound=1, semigroup_samples=1,
                         member_samples=7)
    reports = run_checks(p, tight, "restrict")
    assert reports[0].counts["exactly-one-variant"]["passes"] == 7


def test_sampler_never_returns_fewer_than_asked():
    rng = random.Random(0)
    words = _sample_conjugators(rng, ("x", "y", "z"), 1, 7)
    assert len({str(w) for w in words}) == 7
    with pytest.raises(InternalCheckFailed):
        _sample_conjugators(rng, ("x", "y", "z"), 1, 8)


def test_ball_enumeration():
    b0 = ball(("a", "b"), 1)
    assert len(b0) == 5 and b0[0].is_identity()
    assert len(ball(("a", "b"), 2)) == 17
    words = ball(("a", "b"), 5)
    assert len(words) == 485
    assert len({str(w) for w in words}) == 485
    assert len(ball(("x", "z"), 5)) == 485
    assert ball(("a", "b"), 2)[5:9] == [Word((("a", 2),)),
                                        Word((("a", 1), ("b", 1))),
                                        Word((("a", 1), ("b", -1))),
                                        Word((("a", -2),))]
    # ball words and their inverses are built reduced, not reduced after
    for w in words + ball(("x", "y", "z"), 3):
        for v in (w, w.inverse()):
            assert Word(v.syllables).syllables == v.syllables


def test_report_verdict_logic():
    budget = SMALL
    rep = CertificateReport("cone-g1", (3, 4), budget)
    assert rep.verdict == "Certified"
    rep.record("trichotomy", True)
    assert rep.verdict == "Certified"
    rep.record("trichotomy", False,
               Counterexample("trichotomy", ("a",), ("Positive",)))
    assert rep.verdict == "Refuted"
    assert rep.counts["trichotomy"] == {"passes": 1, "failures": 1}
    assert rep.counterexamples[0].words == ("a",)
    rep.error = "boom"
    assert rep.verdict == "Error"
    d = rep.as_dict()
    assert set(d) == {"check", "knot", "budget", "counts",
                      "counterexamples", "verdict", "error"}
    json.dumps(d)  # must be serializable


def test_audit_cone_both_groups_certified():
    p = knot_params(3, 4)
    for group in ("g1", "g2"):
        rep = audit_cone(ConeOracle(p, group), SMALL)
        assert rep.verdict == "Certified"
        # radius-3 two-letter ball: 1 + 4 + 12 + 36
        assert rep.counts["trichotomy"] == {"passes": 53, "failures": 0}
        assert rep.counts["identity"] == {"passes": 53, "failures": 0}
        assert rep.counts["semigroup"] == {"passes": 300, "failures": 0}


def test_audit_cone_detects_sign_flip():
    p = knot_params(3, 4)
    target = Word((("a", 1),))
    corrupted = _CorruptedOracle(
        ConeOracle(p, "g1"),
        lambda w, s: s.flipped() if w == target else s)
    rep = audit_cone(corrupted, SMALL)
    assert rep.verdict == "Refuted"
    assert any("a" in ce.words for ce in rep.counterexamples)


def test_audit_cone_error_verdict():
    p = knot_params(3, 4)

    class Exploding:
        params = p
        group = "g1"

        def is_positive(self, w):
            raise RuntimeError("synthetic oracle failure")

        def word_is_identity(self, w):
            return w.is_identity()

    rep = audit_cone(Exploding(), SMALL)
    assert rep.verdict == "Error"
    assert "synthetic oracle failure" in rep.error


def test_internal_check_failed_propagates_from_every_check(monkeypatch):
    import twobridge.certify as certify_mod

    p = knot_params(3, 4)

    class Failing:
        params = p
        group = "g1"

        def is_positive(self, w):
            raise InternalCheckFailed("synthetic cross-check failure")

    with pytest.raises(InternalCheckFailed):
        audit_cone(Failing(), SMALL)

    def fail(*args, **kwargs):
        raise InternalCheckFailed("synthetic cross-check failure")

    monkeypatch.setattr(certify_mod, "family_is_positive", fail)
    monkeypatch.setattr(certify_mod, "_Signer", fail)
    for check in (check_navas_law, check_restriction_law,
                  certify_compatibility):
        with pytest.raises(InternalCheckFailed):
            check(p, SMALL)


def test_navas_law_small_budget():
    p = knot_params(3, 4)
    rep = check_navas_law(p, SMALL)
    assert rep.verdict == "Certified"
    # 17 conjugators (two-letter ball, radius 2) x 24 nonzero box points
    assert rep.counts["mu-nontrivial"] == {"passes": 17, "failures": 0}
    assert rep.counts["peripheral-law"] == {"passes": 408, "failures": 0}
    assert rep.counts["word-route-agreement"]["failures"] == 0


def test_restriction_law_small_budget():
    for c in [(3, 4), (3, -4)]:
        p = knot_params(*c)
        rep = check_restriction_law(p, SMALL)
        assert rep.verdict == "Certified"
        assert rep.counts["exactly-one-variant"] == {"passes": 10,
                                                     "failures": 0}
        assert rep.counts["both-variants-witnessed"] == {"passes": 1,
                                                         "failures": 0}


def test_compatibility_small_budget():
    for c in [(3, 4), (7, -6)]:
        p = knot_params(*c)
        rep = certify_compatibility(p, SMALL)
        assert rep.verdict == "Certified"
        assert rep.counts["member-selection"] == {"passes": 10,
                                                  "failures": 0}
        # 10 members x full 5x5 box including (0,0)
        assert rep.counts["peripheral-sign-match"] == {"passes": 250,
                                                       "failures": 0}


def budget_passes(budget: SampleBudget) -> dict:
    """Sub-check pass counts that the budget alone implies for a certified
    knot; a check that drops or double-counts a sub-check breaks them."""
    ball_r = 2 * 3 ** budget.ball_radius - 1
    ball_l = 2 * 3 ** budget.conjugator_length - 1
    box = (2 * budget.peripheral_bound + 1) ** 2
    members = budget.member_samples
    cone = {"trichotomy": ball_r, "identity": ball_r,
            "semigroup": budget.semigroup_samples}
    return {
        "cone-g1": cone,
        "cone-g2": cone,
        "navas": {"mu-nontrivial": ball_l,
                  "peripheral-law": ball_l * (box - 1),
                  "word-route-agreement": 3 * -(-ball_l // 40)},
        "restriction": {"exactly-one-variant": members,
                        "both-variants-witnessed": 1},
        "compatibility": {"member-selection": members,
                          "peripheral-sign-match": members * box,
                          "word-route-agreement": 2 * -(-members // 50)},
    }


@pytest.mark.parametrize("knot", [(3, 4), (7, -6)])
def test_pass_counts_follow_the_budget(knot):
    reports = run_checks(knot_params(*knot), SMALL, "all")
    assert overall_verdict(reports) == "Certified"
    got = {r.check: {k: v["passes"] for k, v in r.counts.items()}
           for r in reports}
    assert got == budget_passes(SMALL)


def test_run_checks_all_and_overall():
    p = knot_params(3, 4)
    reports = run_checks(p, SMALL, "all")
    assert [r.check for r in reports] == [
        "cone-g1", "cone-g2", "navas", "restriction", "compatibility"]
    assert overall_verdict(reports) == "Certified"
    only = run_checks(p, SMALL, "navas")
    assert [r.check for r in only] == ["navas"]
    with pytest.raises(ValueError):
        run_checks(p, SMALL, "everything")


def test_overall_verdict_precedence():
    budget = SMALL
    ok = CertificateReport("navas", (3, 4), budget)
    bad = CertificateReport("navas", (3, 4), budget)
    bad.record("x", False, None)
    err = CertificateReport("navas", (3, 4), budget)
    err.error = "boom"
    assert overall_verdict([ok, ok]) == "Certified"
    assert overall_verdict([ok, bad]) == "Refuted"
    assert overall_verdict([ok, bad, err]) == "Error"


def test_reports_reproducible_bit_for_bit():
    p = knot_params(3, 4)
    first = [r.as_dict() for r in run_checks(p, SMALL, "all")]
    second = [r.as_dict() for r in run_checks(p, SMALL, "all")]
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    # a different seed really does sample differently somewhere
    other = SampleBudget(ball_radius=3, conjugator_length=2,
                         peripheral_bound=2, semigroup_samples=300,
                         member_samples=10, seed=2)
    third = [r.as_dict() for r in run_checks(p, other, "all")]
    assert json.dumps(first, sort_keys=True) != \
        json.dumps(third, sort_keys=True)


def test_mutation_selftests_all_detected():
    p = knot_params(3, 4)
    results = run_mutation_selftests(p)
    assert set(results) == set(MUTATIONS)
    assert len(MUTATIONS) == 5
    assert all(results.values()), results


def test_counterexamples_capped_but_counted():
    p = knot_params(3, 4)
    corrupted = _CorruptedOracle(ConeOracle(p, "g1"),
                                 lambda w, s: Sign.POSITIVE)
    rep = audit_cone(corrupted, SMALL)
    assert rep.verdict == "Refuted"
    assert len(rep.counterexamples) <= 20
    total_failures = sum(slot["failures"] for slot in rep.counts.values())
    assert total_failures > 20


# ------------------------------------------- fast routes against references

@pytest.mark.parametrize("c1,c2", [(3, 4), (5, 4), (7, -6)])  # b1 = 1, 2, 3
def test_g1_pattern_matches_conjugated_products(c1, c2):
    signer = _Signer(knot_params(c1, c2), "g1", 2)
    conjugators = ball(("a", "b"), 3)
    for c in conjugators:
        assert signer.pattern(c) == pattern_by_products(signer, c), str(c)
    # every conjugate of mu is positive and h is central, so the box is
    # signed alike in every member; words of length 4 are not
    signer.box = ball(("a", "b"), 4)[len(conjugators):]
    signer._lifts = [signer._real.lifted(w) for w in signer.box]
    for c in conjugators:
        assert signer.pattern(c) == pattern_by_products(signer, c), str(c)


@pytest.mark.parametrize("c1,c2", [(3, 4), (3, -4), (7, -6), (5, 8)])
def test_g2_pattern_matches_family_word_route(c1, c2):
    # b2 = 2, -2, -3, 4: beta = 2 with both signs, an odd beta, beta = 4
    params = knot_params(c1, c2)
    signer = _Signer(params, "g2", 2)
    words = [peripheral_word(params, "g2", r, s) for r, s in signer.box]
    for c in ball(("x", "y", "z"), 3):
        spec = OrderFamilySpec("g2", c)
        assert signer.pattern(c) == {
            v: family_is_positive(signer.oracle, spec, w)
            for v, w in zip(signer.box, words)}, str(c)


@pytest.mark.parametrize("group", ["g1", "g2"])
def test_product_sign_matches_word_route(group):
    rng = random.Random(7)
    words = ball(("a", "b") if group == "g1" else ("x", "z"), 3)
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(150)]
    pairs += [(w, w.inverse()) for w in words[:20]]  # identity branch
    # w2 starts by cancelling the last letter of w1
    pairs += [(w, Word(((g, -1 if e > 0 else 1),)) * v)
              for w, v in pairs[:60] if w.syllables
              for g, e in w.syllables[-1:]]
    pairs += [(w1, w2) for w1 in words[:17] for w2 in words[:17]]  # radius 2
    edges = set()
    for knot in ((3, 4), (7, -6)):
        oracle = ConeOracle(knot_params(*knot), group)
        reference = ConeOracle(knot_params(*knot), group)
        windings = set()
        for w1, w2 in pairs:
            s = oracle.product_sign(w1, w2)
            assert s is reference.is_positive(w1 * w2), (str(w1), str(w2))
            if group == "g1":
                k = _factor_winding(oracle, w1, w2)
                windings.add(max(-3, min(1, k)))
                edges.add((k, s))
        if group == "g1":
            # k >= 1 and k <= -3 are decided by the winding, -2..0 are not
            assert windings == {1, 0, -1, -2, -3}, knot
    if group == "g1":
        # the undecided edges hold products of the sign the winding would
        # have guessed wrongly
        assert {(-2, Sign.POSITIVE), (0, Sign.NEGATIVE)} <= edges


def _factor_winding(oracle, w1, w2) -> int:
    """k = wind(lift w1) + wind(lift w2): the product's winding is k or
    k + 1."""
    return oracle._lifts[w1].wind + oracle._lifts[w2].wind


def _winding_decided_pairs(oracle, words):
    """The pairs of ``words`` whose factor windings decide the product."""
    for w in words:
        oracle._lifts[w] = oracle._realization.lifted(w)
    return [(w1, w2) for w1 in words for w2 in words
            if not -3 < _factor_winding(oracle, w1, w2) < 1]


def test_product_decided_by_winding_multiplies_and_signs_nothing(
        monkeypatch):
    oracle = ConeOracle(knot_params(7, -6), "g1")
    reference = ConeOracle(knot_params(7, -6), "g1")
    pairs = _winding_decided_pairs(oracle, ball(("a", "b"), 2))
    expected = [reference.is_positive(w1 * w2) for w1, w2 in pairs]
    assert {Sign.POSITIVE, Sign.NEGATIVE} <= set(expected)
    calls = []
    product, sign = Moebius.__mul__, FieldElement.sign

    def counted_product(m1, m2):
        calls.append("mul")
        return product(m1, m2)

    def counted_sign(e):
        calls.append("sign")
        return sign(e)

    monkeypatch.setattr(Moebius, "__mul__", counted_product)
    monkeypatch.setattr(FieldElement, "sign", counted_sign)
    for (w1, w2), want in zip(pairs, expected):
        assert oracle.product_sign(w1, w2) is want, (str(w1), str(w2))
    assert calls == []


def test_product_sign_keeps_the_identity_cross_check():
    oracle = ConeOracle(knot_params(3, 4), "g1")
    a, b = Word((("a", 1),)), Word((("b", 1),))
    oracle._lifts[a] = oracle._realization.lifted(b.inverse())  # a stale lift
    with pytest.raises(InternalCheckFailed):
        oracle.product_sign(a, b)


def test_winding_decided_product_keeps_the_identity_cross_check(
        monkeypatch):
    import twobridge.orders as orders_mod

    class FakeTrivial:
        @staticmethod
        def is_identity():
            return True

    oracle = ConeOracle(knot_params(3, 4), "g1")
    pairs = _winding_decided_pairs(oracle, ball(("a", "b"), 3))
    up = next(p for p in pairs if _factor_winding(oracle, *p) >= 1)
    down = next(p for p in pairs if _factor_winding(oracle, *p) <= -3)
    assert oracle.product_sign(*up) is Sign.POSITIVE
    assert oracle.product_sign(*down) is Sign.NEGATIVE
    monkeypatch.setattr(orders_mod, "g1_normal_form",
                        lambda params, w: FakeTrivial())
    for w1, w2 in (up, down):
        with pytest.raises(InternalCheckFailed):
            oracle.product_sign(w1, w2)


def test_semigroup_only_word_corruption_detected():
    """A corruption of one word that audit_cone meets only as a sampled
    product w1 w2 (longer than the ball radius) is refuted under
    semigroup."""
    p = knot_params(3, 4)
    seen = []
    audit_cone(_CorruptedOracle(ConeOracle(p, "g1"),
                                lambda w, s: seen.append(w) or s), SMALL)
    target = next(w for w in seen if len(w) > SMALL.ball_radius)
    rep = audit_cone(_CorruptedOracle(
        ConeOracle(p, "g1"), lambda w, s: s.flipped() if w == target else s),
        SMALL)
    assert rep.verdict == "Refuted"
    assert rep.counts["semigroup"]["failures"] >= 1
    assert rep.counts["trichotomy"]["failures"] == 0
    assert rep.counts["identity"]["failures"] == 0
    assert rep.counterexamples[0].check == "semigroup"


# sha256 of each mutation report's sorted-key JSON at the self-test budget.
# Reusing lifts (cached factors in the cone audit, moved test points in the
# peripheral checks) must leave every count and counterexample as it was
# with lifted products formed for every word.
MUTATION_REPORT_DIGESTS = {
    (3, 4): {
        "cone-sign-flip": "c7c4dde4b4855fc0728f62c6f2800a3c"
                          "17285983a39396d3747a1a38b2cea369",
        "cone-identity-positive": "8fe77e7d98a7e2467ba508eb8eeccbe3"
                                  "ba1da5f53a1445cc719496ad875f9558",
        "navas-negative-side-flip": "7b70564258a6a747b9a386c01d8b0fb7"
                                    "08a3e8ad086421aeaead76f30c8ce138",
        "restriction-conjugation-dropped": "d2508aa023ea5829ba786c56bd859518"
                                           "8cfd9aeb50a97e4284a4c5f64afc4328",
        "compatibility-image-reversed": "5daf9023a5516435f37e74be2d7267d9"
                                        "6adb62d440128b11310ad3fdb5ecf2ea",
    },
    (7, -6): {
        "cone-sign-flip": "db3c9fc57fee343cce3010fd1d40bc1a"
                          "2067116afe71cdd3cbdc5202bee621f5",
        "cone-identity-positive": "3c79c084b250053fac1b9e7780d6ae56"
                                  "3cd7801915ec67ca58635bc03b39ba40",
        "navas-negative-side-flip": "3fb15a87048490080781af609e81a7a0"
                                    "e5ed98e6f367deb31f63679ba2beb8ee",
        "restriction-conjugation-dropped": "f7c1628b2ac268ea12d7c02333e3aa02"
                                           "33c1050a4a7878975905067b22aa13e0",
        "compatibility-image-reversed": "bbc182b683e9e9fe45ab093b73cd0734"
                                        "14ff13e10348d95292a8b3b16d04b2d7",
    },
}


@pytest.mark.parametrize("knot", sorted(MUTATION_REPORT_DIGESTS))
def test_mutation_reports_unchanged(knot):
    reports = mutation_reports(knot_params(*knot))
    assert list(reports) == list(MUTATIONS)
    got = {name: hashlib.sha256(json.dumps(
        rep.as_dict(), sort_keys=True).encode()).hexdigest()
        for name, rep in reports.items()}
    assert got == MUTATION_REPORT_DIGESTS[knot]
