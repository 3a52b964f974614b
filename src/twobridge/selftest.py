"""The self-test battery that ``twobridge selftest`` runs.

Its fixtures pin the Alexander polynomials, the exact lift identities of
the g1 realization and the number field's rejection of a corrupted minimal
polynomial.  The mutation battery shows that each certification check can
refute a wrong oracle: it corrupts signs through ``_CorruptedOracle``, the
one injection seam, on every read, and a corruption counts as detected only
when its check's report is Refuted.  A report that ends in Error detects
nothing, so it fails the fixture.
"""

from __future__ import annotations

from itertools import repeat

from .alexander import (alexander_poly, alexander_poly_from_pq, evaluate,
                        lspace_surgery_verdict, normalize_symmetric)
from .certify import (SampleBudget, audit_cone, certify_compatibility,
                      check_navas_law, check_restriction_law)
from .cfrac import TwoBridgeParams, knot_params
from .errors import ConstructionFailed
from .groups import Word
from .numberfield import NumberField
from .orders import ConeOracle, G1Realization, Sign


class _CorruptedOracle:
    """Wrap a cone oracle, passing each sign it gives for a word w in the
    member conjugated by c (c = 1 for base queries) through
    ``override(c, w, sign)`` on every read: a product's w is w1 w2, and a
    pattern's are the box words, read from the base's shared pattern.
    ``sign_trace``, the word route, ``box`` and ``word_is_identity`` pass
    through uncorrupted."""

    def __init__(self, base: ConeOracle, override):
        self.base = base
        self.params = base.params
        self.group = base.group
        self._override = override
        self.sign_trace = base.sign_trace
        self.word_is_identity = base.word_is_identity
        self.box = base.box

    def is_positive(self, w: Word) -> Sign:
        return self._override(Word(), w, self.base.is_positive(w))

    def product_signs(self, words, inverses, pairs) -> list[Sign]:
        return [self._override(Word(), words[i] * words[j], sign)
                for (i, j), sign in zip(
                    pairs, self.base.product_signs(words, inverses, pairs))]

    def pattern(self, c: Word, bound: int) -> tuple[Sign, ...]:
        return tuple(map(self._override, repeat(c),
                         self.base.box(bound).values(),
                         self.base.pattern(c, bound)))


MUTATIONS = ("cone-sign-flip", "cone-identity-positive",
             "navas-negative-side-flip", "restriction-conjugation-dropped",
             "compatibility-image-reversed")


SELFTEST_BUDGET = SampleBudget(ball_radius=3, conjugator_length=2,
                               peripheral_bound=2, semigroup_samples=300,
                               member_samples=8, seed=0)


def mutation_reports(params: TwoBridgeParams) -> dict:
    """The report of each check run at SELFTEST_BUDGET under one of five
    distinct corruptions injected through ``_CorruptedOracle``, keyed by
    the names in MUTATIONS."""
    budget = SELFTEST_BUDGET
    g1, g2 = ConeOracle(params, "g1"), ConeOracle(params, "g2")
    target = Word((("a", 1),))
    negative_side = {w for (r, s), w in g1.box(
        budget.peripheral_bound).items() if s < 0}
    return {
        "cone-sign-flip": audit_cone(_CorruptedOracle(
            g1, lambda c, w, s: s.flipped() if w == target else s), budget),
        "cone-identity-positive": audit_cone(_CorruptedOracle(
            g2, lambda c, w, s: Sign.POSITIVE if s is Sign.IDENTITY else s),
            budget),
        "navas-negative-side-flip": check_navas_law(_CorruptedOracle(
            g1, lambda c, w, s: s.flipped() if w in negative_side else s),
            budget),
        "restriction-conjugation-dropped": check_restriction_law(
            _CorruptedOracle(g2, lambda c, w, s: g2.is_positive(w)), budget),
        "compatibility-image-reversed": certify_compatibility(
            g1, _CorruptedOracle(g2, lambda c, w, s: s.flipped()), budget),
    }


def run_mutation_selftests(params: TwoBridgeParams) -> dict:
    """Inject five distinct corruptions through ``_CorruptedOracle`` and
    report, for each, whether the harness detected it (verdict Refuted)."""
    reports = mutation_reports(params)
    return {name: reports[name].verdict == "Refuted" for name in MUTATIONS}


def selftest_results() -> list[dict]:
    """Run every fixture in order; each gives ``{"name", "passed",
    "detail"}``, and a fixture that raises fails with the exception as
    its detail while the rest still run."""
    results = []

    def run(name, fn):
        try:
            detail = fn()
            results.append({"name": name, "passed": True,
                            "detail": detail})
        except Exception as exc:
            results.append({"name": name, "passed": False,
                            "detail": "%s: %s" % (type(exc).__name__, exc)})

    def alexander_fixture(p, q, want_det, want_coeffs):
        poly = normalize_symmetric(alexander_poly_from_pq(p, q))
        assert poly == want_coeffs, poly
        det = abs(evaluate(poly, -1))
        assert det == want_det, det
        assert abs(evaluate(poly, 1)) == 1
        return "det=%d" % det

    run("alexander-b(3,1)",
        lambda: alexander_fixture(3, 1, 3, {-1: 1, 0: -1, 1: 1}))
    run("alexander-b(5,3)",
        lambda: alexander_fixture(5, 3, 5, {-1: 1, 0: -3, 1: 1}))

    def family_fixture():
        params = knot_params(3, 4)
        poly = alexander_poly(params)
        assert abs(evaluate(poly, -1)) == 11
        verdict = lspace_surgery_verdict(params)
        assert verdict.admits is False
        return "det=11, admits=false"

    run("alexander-family-(3,4)", family_fixture)

    def lift_identities():
        for b1 in (1, 2, 3):
            real = G1Realization(b1)
            assert real.a_lift * real.a_lift == real.h_lift
            assert real.b_lift ** (2 * b1 + 1) == real.h_lift
            assert real.h_lift.wind == 2 * b1 - 1
        return "a~^2 = b~^(2b1+1) = T1^(2b1-1) for b1 in 1..3"

    run("exact-lift-identities", lift_identities)

    def corrupted_minpoly():
        try:
            NumberField(3, _minpoly=[-2, 1])
        except ConstructionFailed:
            return "ConstructionFailed raised as required"
        raise AssertionError("corrupted minimal polynomial was accepted")

    run("corrupted-minpoly-rejected", corrupted_minpoly)

    def mutations():
        reports = mutation_reports(knot_params(3, 4))
        missed = ["%s (%s)" % (name, rep.error or rep.verdict)
                  for name, rep in reports.items()
                  if rep.verdict != "Refuted"]
        if missed:
            raise AssertionError("undetected mutations: %s"
                                 % "; ".join(missed))
        return "%d of %d injected corruptions detected" % (len(MUTATIONS),
                                                           len(MUTATIONS))

    run("mutation-detection", mutations)

    return results
