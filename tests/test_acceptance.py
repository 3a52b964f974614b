"""Acceptance gate: every criterion below runs end to end and prints one
PASS/FAIL line (with timing) on the real stderr, visible in the test log.

Criteria:
 1. exact continued-fraction arithmetic on the full parameter grid
 2. Alexander polynomial suite and surgery obstruction on the full grid
 3. normal-form soundness under random relator insertion (>= 10^4 per
    group per knot)
 4. cone axioms on radius-5 balls plus 10^4 sampled positive pairs
 5. peripheral sign law, exhaustive over conjugators of length <= 4
 6. restriction law on >= 200 sampled G2 family members
 7. gluing compatibility certificate on >= 200 sampled G1 members
 8. all five injected oracle corruptions detected
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from twobridge.alexander import (alexander_poly, evaluate, is_monic,
                                 is_symmetric, lspace_surgery_verdict, span)
from twobridge.certify import (SampleBudget, audit_cone,
                               certify_compatibility, check_navas_law,
                               check_restriction_law)
from twobridge.cfrac import (double_branched_cover, eval_cf, even_expansion,
                             genus, is_fibered, knot_params)
from twobridge.groups import Word, g1_normal_form, g2_normal_form
from twobridge.orders import ConeOracle
from twobridge.selftest import MUTATIONS, run_mutation_selftests
from reference import letters_of

GRID = [(2 * b1 + 1, 2 * b2)
        for b1 in range(1, 6)
        for b2 in [x for x in range(-6, 7) if abs(x) >= 2]]

REPRESENTATIVES = [(3, 4), (3, -4), (5, 4), (7, -6)]

FULL_BUDGET = SampleBudget()  # radius 5, |g|<=4, box 5, 10^4, 200 members

# one line per executed criterion; tests/conftest.py replays these in the
# terminal summary so they survive pytest's output capture
CRITERION_LINES = []


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.time()
    failed = True
    try:
        yield
        elapsed = time.time() - start
        assert elapsed < limit_seconds, \
            "criterion %d took %.1fs, budget %.0fs" \
            % (number, elapsed, limit_seconds)
        failed = False
    finally:
        elapsed = time.time() - start
        line = ("ACCEPTANCE criterion %d: %s - %s (%.1fs)"
                % (number, "FAIL" if failed else "PASS", description, elapsed))
        CRITERION_LINES.append(line)
        print(line, file=sys.__stderr__, flush=True)


def test_criterion_1_arithmetic_grid():
    with criterion(1, "continued-fraction identities on the 50-knot grid",
                   5.0):
        assert len(GRID) == 50
        for c1, c2 in GRID:
            params = knot_params(c1, c2)
            assert eval_cf(even_expansion(params)) == eval_cf([c1, c2])
            assert eval_cf([c1, c2]) == Fraction(c2, c1 * c2 - 1)
            p = abs(c1 * c2 - 1)
            assert double_branched_cover(params) == (p, c2 % p)
            assert params.slope == 2 * c2 == 4 * params.b2


def test_criterion_2_alexander_grid():
    with criterion(2, "Alexander suite and surgery obstruction on the grid",
                   60.0):
        for c1, c2 in GRID:
            params = knot_params(c1, c2)
            poly = alexander_poly(params)
            assert abs(evaluate(poly, 1)) == 1
            assert is_symmetric(poly)
            assert abs(evaluate(poly, -1)) == params.p
            assert span(poly) == 2 * genus(params) == 2 * abs(params.b2)
            assert is_monic(poly) == is_fibered(params) == \
                (params.b1 == 1 and params.b2 > 0)
            verdict = lspace_surgery_verdict(params)
            assert verdict.admits is False
            if is_fibered(params):
                assert verdict.reason.value == "DeterminantExceedsGenusBound"
                assert verdict.determinant == 6 * params.b2 - 1
                assert verdict.determinant > 2 * params.b2 + 1 == \
                    verdict.bound
            else:
                assert verdict.reason.value == "NotFibered"


def _random_word(rng, alphabet, max_len=6):
    letters = []
    for _ in range(rng.randrange(0, max_len + 1)):
        letters.append((rng.choice(alphabet), rng.choice((1, -1))))
    return Word(tuple(letters))


def test_criterion_3_normal_form_soundness():
    with criterion(3, "10^4 relator insertions per group per knot",
                   120.0):
        for c1, c2 in REPRESENTATIVES:
            params = knot_params(c1, c2)
            g1_relators = (Word.parse("a a b^%d" % (-(2 * params.b1 + 1))),)
            g2_relators = (Word.parse("x^-1 y x y"),
                           Word.parse("y z^%d" % (-params.b2)))
            for group, alphabet, relators, normal_form in (
                    ("g1", ("a", "b"), g1_relators, g1_normal_form),
                    ("g2", ("x", "y", "z"), g2_relators, g2_normal_form)):
                rng = random.Random("acceptance-3:%s:%d:%d"
                                    % (group, c1, c2))
                for _ in range(10000):
                    w = _random_word(rng, alphabet)
                    r = relators[rng.randrange(len(relators))]
                    if rng.random() < 0.5:
                        r = r.inverse()
                    g = _random_word(rng, alphabet, max_len=2)
                    ins = letters_of(g * r * g.inverse())
                    letters = letters_of(w)
                    cut = rng.randint(0, len(letters))
                    w2 = Word(tuple(letters[:cut] + ins + letters[cut:]))
                    assert normal_form(params, w2) == normal_form(params, w)


def test_criterion_4_cone_axioms():
    with criterion(4, "cone axioms: radius-5 balls, 10^4 positive pairs",
                   4 * 300.0):
        for c1, c2 in REPRESENTATIVES:
            params = knot_params(c1, c2)
            knot_start = time.time()
            for group in ("g1", "g2"):
                report = audit_cone(ConeOracle(params, group), FULL_BUDGET)
                assert report.verdict == "Certified", report.as_dict()
                assert report.counts["trichotomy"]["passes"] == 485
                assert report.counts["identity"]["passes"] == 485
                assert report.counts["semigroup"]["passes"] == 10000
            assert time.time() - knot_start < 300.0


def test_criterion_5_navas_law():
    with criterion(5, "peripheral sign law, exhaustive |g|<=4, box 5",
                   4 * 300.0):
        for c1, c2 in REPRESENTATIVES:
            params = knot_params(c1, c2)
            knot_start = time.time()
            report = check_navas_law(ConeOracle(params, "g1"), FULL_BUDGET)
            assert report.verdict == "Certified", report.as_dict()
            assert report.counts["mu-nontrivial"]["passes"] == 161
            assert report.counts["peripheral-law"]["passes"] == 161 * 120
            assert time.time() - knot_start < 300.0


def test_criterion_6_restriction_law():
    with criterion(6, "restriction law on 200 G2 members, both variants",
                   4 * 120.0):
        for c1, c2 in REPRESENTATIVES:
            params = knot_params(c1, c2)
            knot_start = time.time()
            report = check_restriction_law(ConeOracle(params, "g2"),
                                           FULL_BUDGET)
            assert report.verdict == "Certified", report.as_dict()
            assert report.counts["exactly-one-variant"]["passes"] == 200
            assert report.counts["both-variants-witnessed"]["passes"] == 1
            assert time.time() - knot_start < 120.0


def test_criterion_7_compatibility():
    with criterion(7, "gluing compatibility on 200 G1 members",
                   4 * 600.0):
        for c1, c2 in REPRESENTATIVES:
            params = knot_params(c1, c2)
            knot_start = time.time()
            report = certify_compatibility(ConeOracle(params, "g1"),
                                           ConeOracle(params, "g2"),
                                           FULL_BUDGET)
            assert report.verdict == "Certified", report.as_dict()
            assert report.counts["member-selection"]["passes"] == 200
            assert report.counts["peripheral-sign-match"]["passes"] == \
                200 * 121
            assert time.time() - knot_start < 600.0


def test_criterion_8_mutation_detection():
    with criterion(8, "five injected oracle corruptions all detected",
                   60.0):
        results = run_mutation_selftests(knot_params(3, 4))
        assert set(results) == set(MUTATIONS) and len(MUTATIONS) == 5
        assert all(results.values()), results
