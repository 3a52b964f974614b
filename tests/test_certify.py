"""Tests for the certification harness."""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from twobridge import certify, orders, selftest
from twobridge.cfrac import knot_params
from twobridge.certify import (BALL_ALPHABETS, CertificateReport,
                               Counterexample, SampleBudget, _lattice,
                               _sample_conjugators, _variant_for, audit_cone,
                               ball, certify_compatibility, check_navas_law,
                               check_restriction_law, overall_verdict,
                               run_checks)
from twobridge.errors import InternalCheckFailed, ParseError
from twobridge.groups import G1Element, Word, g2_normal_form, \
    peripheral_box, peripheral_word
from twobridge.lifted import Moebius
from twobridge.numberfield import NumberField
from twobridge.orders import (ConeOracle, G1Oracle, G1Realization, G2Oracle,
                              Sign, Z2Order, _t_weight, family_is_positive,
                              family_sign_trace, z2_is_positive)
from twobridge.selftest import (MUTATIONS, SELFTEST_BUDGET, _CorruptedOracle,
                                mutation_reports, run_mutation_selftests)
from reference import (audit_cone_by_samples, compatibility_by_samples,
                       conjugate_pattern, navas_by_samples,
                       pattern_by_products, product_sign,
                       restriction_by_samples, variant_by_search)

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
        lambda c, w, s: s.flipped() if w == target else s)
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

    def fail(*args, **kwargs):
        raise InternalCheckFailed("synthetic cross-check failure")

    class Failing:
        params = p

        def __init__(self, group):
            self.group = group

        is_positive = product_signs = conjugate_signs = pattern = box = \
            sign_trace = fail

    g1, g2 = Failing("g1"), Failing("g2")
    runs = (lambda: audit_cone(g1, SMALL), lambda: audit_cone(g2, SMALL),
            lambda: check_navas_law(g1, SMALL),
            lambda: check_restriction_law(g2, SMALL),
            lambda: certify_compatibility(g1, g2, SMALL),
            lambda: certify_compatibility(ConeOracle(p, "g1"), g2, SMALL))
    for run in runs:
        with pytest.raises(InternalCheckFailed):
            run()
    # a failure on the word route alone propagates as well
    monkeypatch.setattr(certify_mod, "family_is_positive", fail)
    g1, g2 = ConeOracle(p, "g1"), ConeOracle(p, "g2")
    for run in (lambda: check_navas_law(g1, SMALL),
                lambda: certify_compatibility(g1, g2, SMALL)):
        with pytest.raises(InternalCheckFailed):
            run()


def test_navas_law_small_budget():
    p = knot_params(3, 4)
    rep = check_navas_law(ConeOracle(p, "g1"), SMALL)
    assert rep.verdict == "Certified"
    # 17 conjugators (two-letter ball, radius 2) x 24 nonzero box points
    assert rep.counts["mu-nontrivial"] == {"passes": 17, "failures": 0}
    assert rep.counts["peripheral-law"] == {"passes": 408, "failures": 0}
    assert rep.counts["word-route-agreement"]["failures"] == 0


def test_restriction_law_small_budget():
    for c in [(3, 4), (3, -4)]:
        p = knot_params(*c)
        rep = check_restriction_law(ConeOracle(p, "g2"), SMALL)
        assert rep.verdict == "Certified"
        assert rep.counts["exactly-one-variant"] == {"passes": 10,
                                                     "failures": 0}
        assert rep.counts["both-variants-witnessed"] == {"passes": 1,
                                                         "failures": 0}


def test_compatibility_small_budget():
    for c in [(3, 4), (7, -6)]:
        p = knot_params(*c)
        rep = certify_compatibility(ConeOracle(p, "g1"), ConeOracle(p, "g2"),
                                    SMALL)
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


@pytest.mark.parametrize("which,groups", [("all", ["g1", "g2"]),
                                          ("cone", ["g1", "g2"]),
                                          ("navas", ["g1"]),
                                          ("restrict", ["g2"]),
                                          ("compat", ["g1", "g2"])])
def test_run_checks_builds_one_oracle_per_group(which, groups, monkeypatch):
    import twobridge.certify as certify_mod
    built = []

    class Counted(ConeOracle):
        def __new__(cls, params, group):
            built.append(group)
            return ConeOracle(params, group)

    monkeypatch.setattr(certify_mod, "ConeOracle", Counted)
    reports = run_checks(knot_params(3, 4), SMALL, which)
    assert overall_verdict(reports) == "Certified"
    assert sorted(built) == groups


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


def test_an_error_report_is_not_a_detection(monkeypatch):
    # without the seam's pattern the peripheral checks end in Error
    monkeypatch.delattr(_CorruptedOracle, "pattern")
    p = knot_params(3, 4)
    verdicts = {name: rep.verdict
                for name, rep in mutation_reports(p).items()}
    assert verdicts == {"cone-sign-flip": "Refuted",
                        "cone-identity-positive": "Refuted",
                        "navas-negative-side-flip": "Error",
                        "restriction-conjugation-dropped": "Error",
                        "compatibility-image-reversed": "Error"}
    results = run_mutation_selftests(p)
    assert results == {name: v == "Refuted" for name, v in verdicts.items()}


def test_counterexamples_capped_but_counted():
    p = knot_params(3, 4)
    corrupted = _CorruptedOracle(ConeOracle(p, "g1"),
                                 lambda c, w, s: Sign.POSITIVE)
    rep = audit_cone(corrupted, SMALL)
    assert rep.verdict == "Refuted"
    assert len(rep.counterexamples) <= 20
    total_failures = sum(slot["failures"] for slot in rep.counts.values())
    assert total_failures > 20


# ------------------------------------------- fast routes against references

@pytest.mark.parametrize("c1,c2", [(3, 4), (5, 4), (7, -6)])  # b1 = 1, 2, 3
def test_g1_pattern_matches_conjugated_products(c1, c2):
    oracle = ConeOracle(knot_params(c1, c2), "g1")
    box = oracle.box(2)
    conjugators = ball(("a", "b"), 3)
    for c in conjugators:
        assert dict(zip(box, oracle.pattern(c, 2))) == \
            pattern_by_products(oracle, box, c), str(c)
    # every conjugate of mu is positive and h is central, so the box is
    # signed alike in every member; words of length 4 are not
    box = {w: w for w in ball(("a", "b"), 4)[len(conjugators):]}
    for c in conjugators:
        assert conjugate_pattern(oracle, box, c) == \
            pattern_by_products(oracle, box, c), str(c)


@pytest.mark.parametrize("c1,c2", [(3, 4), (3, -4), (7, -6), (5, 8)])
def test_g2_pattern_matches_family_word_route(c1, c2):
    # b2 = 2, -2, -3, 4: beta = 2 with both signs, an odd beta, beta = 4
    params = knot_params(c1, c2)
    oracle = ConeOracle(params, "g2")
    box = oracle.box(2)
    assert box[(1, -1)] == peripheral_word(params, "g2", 1, -1)
    for c in ball(("x", "y", "z"), 3):
        assert dict(zip(box, oracle.pattern(c, 2))) == {
            v: family_is_positive(oracle, c, w)
            for v, w in box.items()}, str(c)


def _g2_invariants_vanish(params, w) -> bool:
    e = g2_normal_form(params, w)
    return e.xpow == 0 and _t_weight(abs(params.b2), e) == 0


@pytest.mark.parametrize("c1,c2", [(3, 4), (3, -4), (7, -6), (5, 8)])
def test_g2_conjugates_of_weight_zero_words_match_the_word_route(c1, c2):
    # pi and t cannot sign these conjugates, so each reaches the word
    # route; family_sign_trace is family_is_positive with its trace
    params = knot_params(c1, c2)
    oracle = ConeOracle(params, "g2")
    kernel = [w for w in ball(("x", "z"), 4)
              if _g2_invariants_vanish(params, w)]
    assert len(kernel) > 1
    rng = random.Random(c1 * 100 + c2)
    layers = Counter()
    for c in _sample_conjugators(rng, ("x", "y", "z"), 6, 40):
        traced = [family_sign_trace(oracle, c, w) for w in kernel]
        assert oracle.conjugate_signs(c, kernel) == \
            [sign for sign, _ in traced], str(c)
        layers.update(trace["decided_by"] for _, trace in traced)
    assert set(layers) == {"layer-3-magnus", "identity"}, layers


@pytest.mark.parametrize("c1,c2", [(3, 4), (3, -4), (7, -6), (5, 8)])
def test_g2_signs_a_word_only_when_pi_and_t_vanish(c1, c2, monkeypatch):
    params = knot_params(c1, c2)
    oracle = ConeOracle(params, "g2")
    calls = []
    word_route = orders.g2_sign_trace

    def counted(p, w):
        calls.append(w)
        return word_route(p, w)

    monkeypatch.setattr(orders, "g2_sign_trace", counted)
    box = oracle.box(5)
    rng = random.Random(c1 * 100 + c2)
    for c in _sample_conjugators(rng, ("x", "y", "z"), 4, 30,
                                 forced=(Word(), Word((("x", 1),)))):
        calls.clear()
        pattern = dict(zip(box, oracle.pattern(c, 5)))
        # the (0, 0) entry, the identity, and no other
        assert calls == [Word()], str(c)
        assert pattern[(0, 0)] is Sign.IDENTITY
    words = ball(("x", "z"), 2)
    pairs = [(w1, w2) for w1 in words for w2 in words]
    calls.clear()
    for w1, w2 in pairs:
        product_sign(oracle, w1, w2)
    assert calls == [w1 * w2 for w1, w2 in pairs
                     if _g2_invariants_vanish(params, w1 * w2)]
    assert len(calls) > len(words)  # w w^-1 and some more


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
            s = product_sign(oracle, w1, w2)
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
    return oracle._elements[w1].wind + oracle._elements[w2].wind


def _winding_decided_pairs(oracle, words):
    """The pairs of ``words`` whose factor windings decide the product."""
    for w in words:
        oracle._elements[w] = oracle._realization.lifted(w)
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
    product, sign_of = Moebius.__mul__, NumberField.sign_of

    def counted_product(m1, m2):
        calls.append("mul")
        return product(m1, m2)

    def counted_sign(field, coeffs):
        calls.append("sign")
        return sign_of(field, coeffs)

    monkeypatch.setattr(Moebius, "__mul__", counted_product)
    monkeypatch.setattr(NumberField, "sign_of", counted_sign)
    for (w1, w2), want in zip(pairs, expected):
        assert product_sign(oracle, w1, w2) is want, (str(w1), str(w2))
    assert calls == []


def test_product_sign_keeps_the_identity_cross_check():
    oracle = ConeOracle(knot_params(3, 4), "g1")
    a, b = Word((("a", 1),)), Word((("b", 1),))
    # a stale lift
    oracle._elements[a] = oracle._realization.lifted(b.inverse())
    with pytest.raises(InternalCheckFailed):
        product_sign(oracle, a, b)
    # a stale form of a^-1 makes a b look trivial
    oracle = ConeOracle(knot_params(3, 4), "g1")
    oracle._forms[a.inverse()] = oracle._form(b)
    with pytest.raises(InternalCheckFailed):
        product_sign(oracle, a, b)


@pytest.mark.parametrize("group", ["g1", "g2"])
def test_cone_audit_inverts_each_ball_word_once(group, monkeypatch):
    # sign(w^-1) and the g1 identity checks of the sampled pairs read the
    # ball's inverse index, so no word is inverted per sample
    words = ball(BALL_ALPHABETS[group], 3)
    inverted = []
    inverse = Word.inverse

    def counted_inverse(w):
        inverted.append(w)
        return inverse(w)

    monkeypatch.setattr(Word, "inverse", counted_inverse)
    rep = audit_cone(ConeOracle(knot_params(3, 4), group), SMALL)
    assert rep.counts["semigroup"]["passes"] == SMALL.semigroup_samples
    assert Counter(inverted) == Counter(words)


def test_is_positive_keeps_the_identity_cross_check():
    oracle = ConeOracle(knot_params(3, 4), "g1")
    a = Word((("a", 1),))
    oracle._elements[a] = oracle._realization.lifted(Word())  # a stale lift
    with pytest.raises(InternalCheckFailed):
        oracle.is_positive(a)


@pytest.mark.parametrize("group", ["g1", "g2"])
def test_cone_audit_builds_each_element_once(group, monkeypatch):
    import twobridge.orders as orders_mod
    built, normalized = [], []
    lifted, normal_form = G1Realization.lifted, orders_mod.g2_normal_form
    g1_form = orders_mod.g1_normal_form

    def counted_lift(real, w):
        built.append(w)
        return lifted(real, w)

    def counted_form(params, w):
        built.append(w)
        return normal_form(params, w)

    def counted_g1_form(params, w):
        normalized.append(w)
        return g1_form(params, w)

    monkeypatch.setattr(G1Realization, "lifted", counted_lift)
    monkeypatch.setattr(orders_mod, "g2_normal_form", counted_form)
    monkeypatch.setattr(orders_mod, "g1_normal_form", counted_g1_form)
    budget = SampleBudget(ball_radius=3, semigroup_samples=300)
    rep = audit_cone(ConeOracle(knot_params(3, 4), group), budget)
    assert rep.verdict == "Certified"
    # the ball's words, each once: products are formed from the factors
    words = ball(BALL_ALPHABETS[group], 3)
    assert Counter(built) == Counter(words)
    # g1 identity verdicts: one form per ball word, none per sampled product
    if group == "g1":
        assert Counter(normalized) == Counter(words)
    else:
        assert not normalized


def test_readme_quick_start_prints_certified(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "Certified\n"


def test_winding_decided_product_keeps_the_identity_cross_check(
        monkeypatch):
    import twobridge.orders as orders_mod
    params = knot_params(3, 4)
    oracle = ConeOracle(params, "g1")
    pairs = _winding_decided_pairs(oracle, ball(("a", "b"), 3))
    up = next(p for p in pairs if _factor_winding(oracle, *p) >= 1)
    down = next(p for p in pairs if _factor_winding(oracle, *p) <= -3)
    assert product_sign(ConeOracle(params, "g1"), *up) is Sign.POSITIVE
    assert product_sign(ConeOracle(params, "g1"), *down) is Sign.NEGATIVE
    # patched before any form is stored: every word gets the identity's
    # form, so the forms call each product trivial
    assert not oracle._forms
    monkeypatch.setattr(orders_mod, "g1_normal_form",
                        lambda params, w: G1Element((), 0))
    for w1, w2 in (up, down):
        with pytest.raises(InternalCheckFailed):
            product_sign(oracle, w1, w2)


def test_semigroup_only_word_corruption_detected():
    """A corruption of one word that audit_cone meets only as a sampled
    product w1 w2 (longer than the ball radius) is refuted under
    semigroup."""
    p = knot_params(3, 4)
    seen = []
    audit_cone(_CorruptedOracle(ConeOracle(p, "g1"),
                                lambda c, w, s: seen.append(w) or s), SMALL)
    target = next(w for w in seen if len(w) > SMALL.ball_radius)
    rep = audit_cone(_CorruptedOracle(
        ConeOracle(p, "g1"),
        lambda c, w, s: s.flipped() if w == target else s), SMALL)
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
    # the word route bypasses the corrupted conjugate signs and sees them
    navas = reports["navas-negative-side-flip"].counts
    assert navas["word-route-agreement"]["failures"] > 0


# ------------------------------- lattice orders by the table and by search

# sha256 of the restriction report's sorted-key JSON on (3,4) at the
# self-test budget with member 1's pattern corrupted, by corruption
RESTRICTION_FAILURE_DIGESTS = {
    "mixed-row": "3c39caf105ff55c73a9049fb9f560549"
                 "74902d59a5f47ec3ddf69ee33fb77849",
    "trivial-meridian": "1b419fa6970bf2c967d0d96c5c83f88a"
                        "c5ff611f6e93223a5513c922e7e3e074",
}


def _member_one_corrupted(name):
    """The restriction report on (3,4) at the self-test budget with member
    1's y^2 flipped, a row that mixes the two orders at s = 0, or its y
    made trivial."""
    p = knot_params(3, 4)
    box = peripheral_box(p, "g2", SELFTEST_BUDGET.peripheral_bound)
    v, corrupt = {"mixed-row": ((2, 0), Sign.flipped),
                  "trivial-meridian": ((1, 0), lambda s: Sign.IDENTITY)}[name]
    return check_restriction_law(_CorruptedOracle(
        ConeOracle(p, "g2"),
        lambda c, w, s: corrupt(s) if c == Word() and w == box[v] else s),
        SELFTEST_BUDGET)


@pytest.mark.parametrize("name,word,sign", [
    ("mixed-row", "y^2", "Negative"), ("trivial-meridian", "y", "Identity")])
def test_refuted_restriction_names_a_box_word_and_its_sign(name, word, sign):
    rep = _member_one_corrupted(name)
    assert rep.verdict == "Refuted"
    assert rep.counts["exactly-one-variant"] == {"passes": 7, "failures": 1}
    [ce] = rep.counterexamples
    assert (ce.words, ce.signs, ce.member) == \
        ((word,), (sign,), "conjugator '1'")
    assert hashlib.sha256(json.dumps(
        rep.as_dict(), sort_keys=True).encode()).hexdigest() == \
        RESTRICTION_FAILURE_DIGESTS[name]


def _by_table(pattern):
    """The order that the pattern's (1, 0) entry selects if the pattern
    follows that order's row of the lattice table, else None."""
    variant = _variant_for(pattern[(1, 0)])
    return variant if tuple(pattern.values()) == _lattice(pattern)[variant] \
        else None


def _random_pattern(rng, vectors, kind=None):
    """A sign pattern on the vectors: a lattice row as it is, with one
    s = 0 entry flipped (mixing the two orders), with (1, 0) trivial, with
    a few entries redrawn, or drawn entirely at random."""
    kind = kind or rng.choice(("row", "mixed", "trivial-mu", "noisy",
                               "random"))
    signs = list(Sign)
    row = dict(zip(vectors, _lattice(vectors)[rng.choice(list(Z2Order))]))
    if kind == "mixed":
        v = rng.choice([(r, s) for r, s in vectors if s == 0 and r])
        row[v] = row[v].flipped()
    elif kind == "trivial-mu":
        row[(1, 0)] = Sign.IDENTITY
    elif kind == "noisy":
        for v in rng.sample(vectors, rng.randint(1, 3)):
            row[v] = rng.choice(signs)
    elif kind == "random":
        row = {v: rng.choice(signs) for v in vectors}
    return row


def test_table_agrees_with_the_search_on_random_patterns():
    rng = random.Random(23)
    vectors = list(peripheral_box(knot_params(3, 4), "g2", 2))
    outcomes = Counter()
    for kind in ("row", "mixed", "trivial-mu", "noisy", "random") * 400:
        pattern = _random_pattern(rng, vectors, kind)
        expected = variant_by_search(pattern)
        assert _by_table(pattern) is expected, (kind, pattern)
        outcomes[kind, expected] += 1
    # rows follow their order, mixed rows and trivial meridians neither
    assert {k for k, _ in outcomes} == {"row", "mixed", "trivial-mu",
                                        "noisy", "random"}
    assert outcomes["row", Z2Order.PLUS_FIRST] and \
        outcomes["row", Z2Order.MINUS_FIRST]
    assert outcomes["mixed", None] == outcomes["trivial-mu", None] == 400


@pytest.mark.parametrize("c1,c2", [(3, 4), (3, -4), (5, 4), (7, -6)])
def test_table_agrees_with_the_search_on_judged_patterns(c1, c2,
                                                         monkeypatch):
    judged = []
    read = ConeOracle.pattern

    def recording(oracle, c, bound):
        pattern = read(oracle, c, bound)
        if oracle.group == "g2":
            judged.append(dict(zip(oracle.box(bound), pattern)))
        return pattern

    monkeypatch.setattr(ConeOracle, "pattern", recording)
    p = knot_params(c1, c2)
    g2 = ConeOracle(p, "g2")
    reports = [check_restriction_law(g2, SELFTEST_BUDGET),
               certify_compatibility(ConeOracle(p, "g1"), g2,
                                     SELFTEST_BUDGET)]
    assert overall_verdict(reports) == "Certified"
    # every restrict member, then the compat candidates 1 and x
    assert len(judged) == SELFTEST_BUDGET.member_samples + 2
    for pattern in judged:
        assert _by_table(pattern) is variant_by_search(pattern) is not None
    assert {variant_by_search(pat) for pat in judged} == set(Z2Order)


@pytest.mark.parametrize("seed", range(4))
def test_restriction_judges_planted_patterns_as_the_search_does(seed):
    """Members whose patterns are planted at random fail exactly when the
    two-order search finds no order, and each names the first vector,
    (1, 0) first, whose sign leaves the order its (1, 0) entry selects."""
    p = knot_params(3, 4)
    box = peripheral_box(p, "g2", 2)
    vector_of = {w: v for v, w in box.items()}
    planted = {}

    def plant(c, w, s):
        if c not in planted:
            planted[c] = _random_pattern(
                random.Random("%d:%s" % (seed, c)), list(box))
        return planted[c][vector_of[w]]

    budget = SampleBudget(conjugator_length=2, peripheral_bound=2,
                          member_samples=19, seed=seed)
    rep = check_restriction_law(
        _CorruptedOracle(ConeOracle(p, "g2"), plant), budget)
    assert len(planted) == 19
    found = {"conjugator %r" % str(c): variant_by_search(pattern)
             for c, pattern in planted.items()}
    failing = {m for m, v in found.items() if v is None}
    assert rep.counts["exactly-one-variant"] == {
        "passes": 19 - len(failing), "failures": len(failing)}
    named = {ce.member: ce for ce in rep.counterexamples if ce.member}
    assert set(named) == failing
    for c, pattern in planted.items():
        ce = named.get("conjugator %r" % str(c))
        if ce is None:
            continue
        variant = _variant_for(pattern[(1, 0)])
        v = next(v for v in ((1, 0), *box)
                 if pattern[v] is not z2_is_positive(variant, v))
        assert (ce.words, ce.signs) == ((str(box[v]),), (pattern[v].label,))
        assert ce.words[0] and ce.signs[0]
    both = {v for v in found.values() if v} == set(Z2Order)
    assert rep.counts["both-variants-witnessed"]["passes"] == both


# ----------------------------- bulk signs against the one-at-a-time route

CERTIFY_KNOTS = [(3, 4), (3, -4), (5, 4), (7, -6)]


@pytest.mark.parametrize("group", ["g1", "g2"])
@pytest.mark.parametrize("knot", CERTIFY_KNOTS)
def test_product_signs_match_product_sign_pair_by_pair(knot, group):
    params = knot_params(*knot)
    words = ball(BALL_ALPHABETS[group], 3)
    inverses = [w.inverse() for w in words]
    index = {w: k for k, w in enumerate(words)}
    pairs = [(i, j) for i in range(len(words)) for j in range(len(words))]
    assert {(i, index[inverses[i]]) for i in range(len(words))} <= set(pairs)
    got = ConeOracle(params, group).product_signs(words, inverses, pairs)
    single, reference = ConeOracle(params, group), ConeOracle(params, group)
    for (i, j), sign in zip(pairs, got):
        w1, w2 = words[i], words[j]
        assert sign is product_sign(single, w1, w2), (str(w1), str(w2))
        assert sign is reference.is_positive(w1 * w2), (str(w1), str(w2))
    # every (w, w^-1) pair is trivial, and the pairs (i, j) and
    # (j^-1, i^-1) sign mutually inverse products
    trivial = {p for p, sign in zip(pairs, got) if sign is Sign.IDENTITY}
    assert {(i, index[inverses[i]]) for i in range(len(words))} <= trivial
    assert Counter(got)[Sign.POSITIVE] == Counter(got)[Sign.NEGATIVE]


def test_product_signs_keep_the_identity_cross_check():
    params = knot_params(3, 4)
    words = ball(BALL_ALPHABETS["g1"], 3)
    inverses = [w.inverse() for w in words]
    pairs = [(i, j) for i in range(len(words)) for j in range(len(words))]
    oracle = ConeOracle(params, "g1")
    oracle.product_signs(words, inverses, pairs)
    # one stale stored form: a now has the form of b, so a^-1 b looks
    # trivial to the forms while its lift moves the test points
    a, b = Word((("a", 1),)), Word((("b", 1),))
    oracle._forms[a] = oracle._form(b)
    with pytest.raises(InternalCheckFailed):
        oracle.product_signs(words, inverses, pairs)


# ------------------- tallied checks against the sample-by-sample reference

REFERENCE_CHECKS = {audit_cone: audit_cone_by_samples,
                    check_navas_law: navas_by_samples,
                    check_restriction_law: restriction_by_samples,
                    certify_compatibility: compatibility_by_samples}


@pytest.mark.parametrize("knot", CERTIFY_KNOTS)
def test_tallied_checks_match_the_sample_by_sample_reports(knot,
                                                           monkeypatch):
    params = knot_params(*knot)
    tallied = mutation_reports(params)
    # the same five corruptions, each check run by its reference
    for check, reference in REFERENCE_CHECKS.items():
        monkeypatch.setattr(selftest, check.__name__, reference)
    by_samples = mutation_reports(params)
    for name in MUTATIONS:
        assert tallied[name].verdict == "Refuted", name
        assert tallied[name].as_dict() == by_samples[name].as_dict(), name


def _heavy_corruption(c, w, s):
    """Members whose conjugator length is 2 mod 3 stay clean; in the
    others the identity turns positive (at even length) and words whose
    length plus the conjugator's is 0 mod 3 flip."""
    if len(c) % 3 == 2:
        return s
    if not w.syllables:
        return Sign.POSITIVE if len(c) % 2 == 0 else s
    return s.flipped() if (len(c) + len(w)) % 3 == 0 else s


@pytest.mark.parametrize("knot", CERTIFY_KNOTS)
def test_tallied_checks_keep_the_first_counterexamples_in_order(knot):
    """A corruption failing more samples than are recorded, interleaved
    with passes and across sub-checks, gives the reference's counts and
    its first _MAX_RECORDED counterexamples in the same order."""
    params = knot_params(*knot)
    budget = SampleBudget(ball_radius=3, conjugator_length=2,
                          peripheral_bound=2, semigroup_samples=300,
                          member_samples=30, seed=5)

    def run(check, groups):
        return check(*[_CorruptedOracle(ConeOracle(params, g),
                                        _heavy_corruption) if corrupt
                       else ConeOracle(params, g)
                       for g, corrupt in groups], budget)

    capped = 0
    for check, groups in ((audit_cone, [("g1", True)]),
                          (audit_cone, [("g2", True)]),
                          (check_navas_law, [("g1", True)]),
                          (check_restriction_law, [("g2", True)]),
                          (certify_compatibility, [("g1", True),
                                                   ("g2", False)])):
        got = run(check, groups)
        assert got.as_dict() == run(REFERENCE_CHECKS[check],
                                    groups).as_dict(), got.check
        counts = got.counts.values()
        assert got.verdict == "Refuted"
        assert sum(slot["passes"] for slot in counts) > 0
        failures = sum(slot["failures"] for slot in counts)
        assert len(got.counterexamples) == min(failures, certify._MAX_RECORDED)
        capped += failures > certify._MAX_RECORDED
    assert capped == 4  # all but restrict


# ------------------------------------------- one pattern per member and box


@pytest.mark.parametrize("knot", CERTIFY_KNOTS)
def test_each_pattern_is_computed_once_per_oracle_member_and_bound(
        knot, monkeypatch):
    computed, read = Counter(), Counter()
    pattern = ConeOracle.pattern

    def counted_compute(compute):
        def counted(oracle, c, words, elements=None):
            computed[oracle.group, c, len(words)] += 1
            return compute(oracle, c, words, elements)
        return counted

    def counted_read(oracle, c, bound):
        read[oracle.group, c, (2 * bound + 1) ** 2] += 1
        return pattern(oracle, c, bound)

    for cls in (G1Oracle, G2Oracle):
        monkeypatch.setattr(cls, "conjugate_signs",
                            counted_compute(cls.conjugate_signs))
    monkeypatch.setattr(ConeOracle, "pattern", counted_read)
    reports = run_checks(knot_params(*knot), SampleBudget(
        ball_radius=3, conjugator_length=2, peripheral_bound=2,
        semigroup_samples=300, member_samples=10), "all")
    assert overall_verdict(reports) == "Certified"
    assert set(computed) == set(read)
    assert set(computed.values()) == {1}
    # restrict and compat both read the g2 members 1 and x, and compat
    # shares some g1 members with navas
    for c in (Word(), Word((("x", 1),))):
        assert read["g2", c, 25] == 2
    assert sum(read.values()) > len(computed) + 2


def test_corrupted_reads_of_a_cached_pattern():
    base = ConeOracle(knot_params(3, 4), "g1")
    c = Word((("b", 1), ("a", -1)))
    clean = base.pattern(c, 2)
    corrupted = _CorruptedOracle(base, lambda c, w, s: s.flipped())
    flipped = tuple(s.flipped() for s in clean)
    assert corrupted.pattern(c, 2) == flipped
    assert corrupted.pattern(c, 2) == flipped  # on every read
    assert base.pattern(c, 2) == clean
    assert base.pattern(c, 2) is clean  # computed once
    assert clean == tuple(conjugate_pattern(base, base.box(2), c).values())
    # each bound has its own box and pattern
    small = base.pattern(c, 1)
    assert len(small) == len(base.box(1)) == 9
    assert small == tuple(conjugate_pattern(base, base.box(1), c).values())
