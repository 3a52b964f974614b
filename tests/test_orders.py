"""Tests for the positive-cone oracles and order families."""

import gc
import random
import re
import time
from collections import Counter

import pytest

from twobridge import orders
from twobridge.certify import ball
from twobridge.cfrac import knot_params
from twobridge.errors import ConstructionFailed, InternalCheckFailed, \
    ParseError
from twobridge.groups import Word, g1_normal_form, g2_normal_form, \
    peripheral_word
from twobridge.lifted import LiftedMoebius, Moebius, cover_cmp, lift0_apply
from twobridge.numberfield import NumberField, real_cyclotomic_field
from twobridge.orders import (ConeOracle, G1Oracle, G1Realization, G2Oracle,
                              Sign, Z2Order, _magnus_first_sign,
                              _schreier_letters, _t_weight, _word_pi_t,
                              family_is_positive, g1_realization,
                              g1_sign_trace, g2_sign_trace, z2_is_positive)
from reference import (cmp_by_elements, decide_by_test_points,
                       four_test_points, lift0_apply_by_elements,
                       lifted_by_powers, magnus_first_sign_by_letters,
                       magnus_first_sign_stepped, product_sign)

W = Word.parse

KNOTS = [(3, 4), (3, -4), (5, 4), (7, -6)]


def meridian(params):
    return W("b") ** (-params.b1) * W("a")


HALF_TURN_WORD = W("a^2")  # the central element h


def random_word(rng, alphabet, length):
    sylls = []
    for _ in range(length):
        sylls.append((rng.choice(alphabet), rng.choice((1, -1))))
    return Word(tuple(sylls))


# --------------------------------------------------------------------------
# signs and the two lattice orders


def test_sign_labels_and_flip():
    assert Sign.POSITIVE.label == "Positive"
    assert Sign.NEGATIVE.label == "Negative"
    assert Sign.IDENTITY.label == "Identity"
    assert Sign.POSITIVE.flipped() is Sign.NEGATIVE
    assert Sign.NEGATIVE.flipped() is Sign.POSITIVE
    assert Sign.IDENTITY.flipped() is Sign.IDENTITY
    assert Sign.POSITIVE.value == 1 and Sign.NEGATIVE.value == -1


def test_z2_examples():
    assert z2_is_positive(Z2Order.PLUS_FIRST, (-3, 1)) is Sign.POSITIVE
    assert z2_is_positive(Z2Order.PLUS_FIRST, (2, 0)) is Sign.POSITIVE
    assert z2_is_positive(Z2Order.MINUS_FIRST, (2, 0)) is Sign.NEGATIVE
    assert z2_is_positive(Z2Order.MINUS_FIRST, (-2, 0)) is Sign.POSITIVE
    assert z2_is_positive(Z2Order.PLUS_FIRST, (0, 0)) is Sign.IDENTITY
    assert z2_is_positive(Z2Order.MINUS_FIRST, (0, 0)) is Sign.IDENTITY
    assert z2_is_positive(Z2Order.PLUS_FIRST, (5, -1)) is Sign.NEGATIVE
    assert z2_is_positive(Z2Order.MINUS_FIRST, (5, -1)) is Sign.NEGATIVE


def test_z2_orders_are_group_orders():
    box = [(r, s) for r in range(-3, 4) for s in range(-3, 4)]
    for order in Z2Order:
        for v in box:
            sv = z2_is_positive(order, v)
            flip = z2_is_positive(order, (-v[0], -v[1]))
            assert flip is sv.flipped()
            assert (sv is Sign.IDENTITY) == (v == (0, 0))
            for u in box:
                if sv is Sign.POSITIVE and \
                        z2_is_positive(order, u) is Sign.POSITIVE:
                    total = (v[0] + u[0], v[1] + u[1])
                    assert z2_is_positive(order, total) is Sign.POSITIVE


# --------------------------------------------------------------------------
# the exact G1 realization


def test_realization_identities():
    for c1, c2 in KNOTS:
        p = knot_params(c1, c2)
        real = g1_realization(p)
        n = 2 * p.b1 + 1
        assert real.a_lift * real.a_lift == real.h_lift
        assert real.b_lift ** n == real.h_lift
        assert real.h_lift.wind == 2 * p.b1 - 1
        assert real.h_lift.matrix.is_identity()
        mu = real.mu_lift
        tr = mu.matrix.trace()
        assert (tr * tr - tr.field.element([4])).is_zero()
        p0 = real.test_points[0]
        assert cover_cmp(real.field, mu.apply(p0), p0) == 0
        # the realization (hence the number field work) is cached per b1
        assert g1_realization(p) is real
    # the stabilizer of p0 is <mu~>, whose powers all move p1: mu~^r moves
    # it up for r > 0 and down for r < 0
    for b1 in range(1, 6):
        real = g1_realization(knot_params(2 * b1 + 1, 4))
        p1 = real.test_points[1]
        for r in range(1, 7):
            for e in (r, -r):
                q = (real.mu_lift ** e).apply(p1)
                assert cover_cmp(real.field, q, p1) == (1 if e > 0 else -1)


def test_realization_word_evaluation_is_homomorphic():
    p = knot_params(5, 4)
    real = g1_realization(p)
    rng = random.Random(41)
    for _ in range(25):
        w1 = random_word(rng, "ab", rng.randrange(0, 5))
        w2 = random_word(rng, "ab", rng.randrange(0, 5))
        assert real.lifted(w1 * w2) == real.lifted(w1) * real.lifted(w2)
        assert real.lifted(w1.inverse()) == real.lifted(w1).inverse()


TABLE_KNOTS = [(3, 4), (3, -4), (5, 4), (7, -6), (9, 4), (11, -6), (-5, 4),
               (13, 8)]


def _power_word(rng, syllables: int, top: int) -> Word:
    """Alternating a/b syllables with nonzero exponents in [-top, top]."""
    gen = rng.choice("ab")
    out = []
    for _ in range(syllables):
        e = rng.choice((rng.randint(1, 3), rng.randint(1, top)))
        out.append((gen, rng.choice((e, -e))))
        gen = "b" if gen == "a" else "a"
    return Word(tuple(out))


def _pairing_words(n: int) -> list:
    """Words at the edges of the a~ b~^r pairing: central syllables between
    two a's, a's with no b to pair with, a leading b, a trailing a."""
    return [W(text.format(n=n)) for text in (
        "b a^2 b", "a b^{n} a", "a^-1 b^-1 a^-1", "b a b", "b a", "a",
        "b^{n}", "a^3 b^{n} a^-2 b", "b^-1 a^5", "a b^-{n} a^2 b^2 a^-1")]


@pytest.mark.parametrize("knot", TABLE_KNOTS)
def test_table_lift_matches_lift_by_powers(knot):
    real = g1_realization(knot_params(*knot))
    rng = random.Random(100 * knot[0] + knot[1])
    words = _pairing_words(real.n)
    words += [_power_word(rng, rng.randint(1, 12), 250) for _ in range(300)]
    for w in words:
        assert real.lifted(w) == lifted_by_powers(real, w), w


def _quotient_reduced_word(rng, n: int, syllables: int) -> Word:
    """Alternating odd a-syllables and b-syllables with nonzero residue
    mod n, so no syllable is central and no two merge in G1/<h>."""
    gen = rng.choice("ab")
    out = []
    for _ in range(syllables):
        if gen == "a":
            e = 2 * rng.randint(-3, 3) + 1
        else:
            e = rng.choice([r for r in range(-2 * n, 2 * n) if r % n])
        out.append((gen, e))
        gen = "b" if gen == "a" else "a"
    return Word(tuple(out))


@pytest.mark.parametrize("knot", [(3, 4), (7, -6), (13, 8)])
def test_lift_costs_one_product_per_b_syllable(knot, monkeypatch):
    # m table factors cost m - 1 matrix products: the first one starts the
    # walk from the identity.  The factors are one per b-syllable (a~ b~^r
    # when an a waits for it) and a~ for an a still waiting at the end.
    # One product per syllable would cost about twice as many.
    real = g1_realization(knot_params(*knot))
    rng = random.Random(7 * knot[0])
    words = [W("a"), W("b"), W("a b"), W("b a"), W("a b a b a")]
    words += [_quotient_reduced_word(rng, real.n, rng.randint(1, 12))
              for _ in range(60)]
    expected = [lifted_by_powers(real, w) for w in words]
    calls = []
    product = Moebius.__mul__

    def counted(m1, m2):
        calls.append(None)
        return product(m1, m2)

    monkeypatch.setattr(Moebius, "__mul__", counted)
    for w, want in zip(words, expected):
        factors = sum(g == "b" for g, _ in w.syllables) + \
            (w.syllables[-1][0] == "a")
        calls.clear()
        assert real.lifted(w) == want, w
        assert len(calls) == factors - 1, w


def test_realization_rejects_wrong_field(monkeypatch):
    # a genuine field for the wrong rotation order must fail the exact
    # construction checks, never pass silently
    p = knot_params(3, 4)  # needs n = 3
    monkeypatch.setattr(orders, "real_cyclotomic_field",
                        lambda n: real_cyclotomic_field(7))
    with pytest.raises(ConstructionFailed):
        G1Realization(p.b1)


def test_realization_rejects_non_generator_letters():
    p = knot_params(3, 4)
    with pytest.raises(ParseError):
        g1_realization(p).lifted(W("x"))
    with pytest.raises(ParseError):
        ConeOracle(p, "g1").is_positive(W("a x"))


# one knot per b1 = 1..5
DECIDE_KNOTS = [(3, 4), (5, 4), (7, -6), (9, 4), (11, -6)]


@pytest.mark.parametrize("knot", DECIDE_KNOTS)
def test_decide_matches_test_point_reference(knot):
    # the level-bounded walk on two test points must return the sign and
    # trace of the point route on four, at the fixed test points and at
    # points moved by c^-1
    real = g1_realization(knot_params(*knot))
    lifts = [real.lifted(w) for w in ball(("a", "b"), 3)]
    lifts += [g.inverse() for g in lifts]
    point_sets = [(None, None)]
    for c in ball(("a", "b"), 2):
        c_inv = real.lifted(c).inverse()
        point_sets.append(tuple(
            [c_inv.apply(p) for p in points]
            for points in (real.test_points, four_test_points(real.field))))
    windings = set()
    for g in lifts:
        windings.add(max(-2, min(1, g.wind)))
        for points, reference_points in point_sets:
            assert real.decide([g], points) == \
                decide_by_test_points(real, g, reference_points), (g, points)
    # k >= 1 and k <= -2 are decided by the level bound before any move,
    # 0 and -1 move a point
    assert windings == {1, 0, -1, -2}


def random_g1_words(rng, n, count):
    """Random words over {a, b} of up to six syllables, with exponents up
    to two turns of b, so that syllables wrap around h both ways."""
    return [Word(tuple((g, rng.randint(-2 * n, 2 * n))
                       for g in rng.choices("ab", k=rng.randint(0, 6))))
            for _ in range(count)]


@pytest.mark.parametrize("knot", DECIDE_KNOTS)
def test_walk_matches_the_product_and_the_four_point_reference(knot):
    # the walk through the table factors against the lifted product at the
    # same two points and the point route on four, sign and trace; the
    # conjugated peripheral words c mu^r h^s c^-1 reach test point 1
    # (c = 1, s = 0) and the identity (r = s = 0)
    params = knot_params(*knot)
    real = g1_realization(params)
    words = random_g1_words(random.Random(knot[0]), real.n, 150)
    mu, h = meridian(params), W("a^2")
    for c in ball(("a", "b"), 2) + [mu, mu.inverse()]:
        words += [c * mu ** r * h ** s * c.inverse()
                  for r in range(-2, 3) for s in range(-1, 2)]
    traces = set()
    for w in words:
        g = real.lifted(w)
        got = real.decide(real.factors(w))
        assert got == real.decide([g]) == decide_by_test_points(real, g), \
            str(w)
        traces.add(tuple(got[1].values()))
    assert traces == {("test-point", 0), ("test-point", 1), ("identity",)}


def test_word_route_and_products_form_no_matrix_product(monkeypatch):
    rng = random.Random(5)
    cases = []
    for knot in DECIDE_KNOTS:
        params = knot_params(*knot)
        oracle = ConeOracle(params, "g1")
        real = oracle._realization
        words = random_g1_words(rng, real.n, 40)
        for w in words:
            oracle.element(w)  # the lifts are built before the check
        traces = [decide_by_test_points(real, real.lifted(w)) for w in words]
        products = [(w1, w2, decide_by_test_points(
            real, real.lifted(w1 * w2))[0])
            for w1, w2 in zip(words, reversed(words))]
        cases.append((params, oracle, zip(words, traces), products))

    def refuse(m1, m2):
        raise AssertionError("a matrix product was formed")

    monkeypatch.setattr(Moebius, "__mul__", refuse)
    for params, oracle, traces, products in cases:
        for w, (sign, trace) in traces:
            assert g1_sign_trace(params, w) == (
                sign, dict(trace, group="g1")), str(w)
        for w1, w2, want in products:
            assert product_sign(oracle, w1, w2) is want, (str(w1), str(w2))


def test_level_bound_decides_before_and_between_moves(monkeypatch):
    real = G1Realization(1)
    point_0 = {"decided_by": "test-point", "test_point": 0}
    moves = []
    move = orders.lift0_apply
    monkeypatch.setattr(orders, "lift0_apply",
                        lambda m, *p: moves.append(p) or move(m, *p))
    # a^6 = h^3 winds three levels up and b~ adds 0 or 1: no point moves;
    # at the edges of the bound, a^2 b ends 1 or 2 levels up and a^-4 b
    # 1 or 2 levels down
    for word, sign in (("a^6 b", Sign.POSITIVE), ("a^2 b", Sign.POSITIVE),
                       ("a^-4 b", Sign.NEGATIVE)):
        assert real.decide(real.factors(W(word))) == (sign, point_0)
    assert moves == []
    # b a b = b~ (a~ b~): a~ b~ lifts test point 0 one level, and b~,
    # which adds 0 or 1, cannot bring it back
    assert len(real.factors(W("b a b"))) == 2
    assert real.decide(real.factors(W("b a b"))) == (Sign.POSITIVE,
                                                     point_0)
    assert len(moves) == 1


def test_decide_shifts_no_point_or_table_lift_in_place():
    real = G1Realization(2)
    table = real._powers + real._pairs + (real.a_lift, real.h_lift)
    c_inv = real.lifted(W("b a^-1 b^2")).inverse()
    moved = [c_inv.apply(p) for p in real.test_points]

    def state():
        return ([(g.wind, id(g.matrix)) for g in table],
                [*real.test_points, *moved])

    before = state()
    words = random_g1_words(random.Random(9), real.n, 200)
    words += [W("a^2"), W("a^-6"), W("b^5"), W("b^-10 a"), W("a^4 b^7")]
    for w in words:
        real.decide(real.factors(w))
        real.decide(real.factors(w), moved)
    assert state() == before


@pytest.mark.parametrize("b1", [1, 2, 3, 4, 5, 62])
def test_tuple_walk_matches_the_element_reference(b1):
    # the walk on coordinate tuples against the product matrix moved in
    # FieldElement arithmetic, at the test points and at their images
    # under c^-1, which conjugate_signs passes as ``points``
    params = knot_params(2 * b1 + 1, 4)
    real = g1_realization(params)
    rng = random.Random(b1)
    words = random_g1_words(rng, real.n, 60 if b1 < 62 else 15)
    words += [W("1"), meridian(params), W("a^2") * meridian(params)]
    oracle = G1Oracle(params)
    for c in [W("1")] + random_g1_words(rng, real.n, 4 if b1 < 62 else 2):
        c_inv = real.lifted(c).inverse()
        points = [c_inv.apply(p) for p in real.test_points]
        reference_points = [lift0_apply_by_elements(c_inv.matrix, p,
                                                    c_inv.wind)
                            for p in real.test_points]
        for p, q in zip(points, reference_points):
            assert cmp_by_elements(real.field, p, q) == 0 and p[0] == q[0]
        wants = []
        for w in words:
            want = decide_by_test_points(real, real.lifted(w),
                                         reference_points)
            factors = real.factors(w)
            assert real.decide(factors, points) == want, (str(c), str(w))
            assert real.sign(factors, points) is want[0]
            wants.append(want[0])
        assert oracle.conjugate_signs(c, words) == wants
        if c.is_identity():
            assert {Sign.POSITIVE, Sign.NEGATIVE, Sign.IDENTITY} <= set(wants)
            for w, want in zip(words, wants):
                assert real.decide(real.factors(w)) == \
                    decide_by_test_points(real, real.lifted(w)), str(w)


def test_walk_raises_on_a_move_to_zero_zero(monkeypatch):
    # with every sign 0, a move by a matrix with c == 0 (here the identity
    # table lift b~^0, wound one level back: a level shift of -1 or 0,
    # which the bound cannot decide before the move) has no sign to
    # canonicalize its image by: [0 : 0]
    real = G1Realization(2)
    still = LiftedMoebius(real._powers[0].matrix, -1)
    assert real.sign([still]) is Sign.NEGATIVE
    monkeypatch.setattr(NumberField, "sign_of", lambda self, coeffs: 0)
    for call in (real.sign, real.decide):
        with pytest.raises(InternalCheckFailed, match=r"\[0 : 0\]"):
            call([still])
    with pytest.raises(InternalCheckFailed, match=r"\[0 : 0\]"):
        lift0_apply(still.matrix, *real.test_points[0][:3])


# --------------------------------------------------------------------------
# G1 oracle fixtures (signs computed by the oracle, then frozen)


def test_g1_sign_fixtures_trefoil():
    p = knot_params(3, 4)
    sign, trace = g1_sign_trace(p, HALF_TURN_WORD)
    assert sign is Sign.POSITIVE
    assert trace == {"decided_by": "test-point", "test_point": 0,
                     "group": "g1"}
    sign, trace = g1_sign_trace(p, meridian(p))
    assert sign is Sign.POSITIVE
    # mu fixes the zeroth test point (its own fixed point), so the decision
    # falls to the next one
    assert trace == {"decided_by": "test-point", "test_point": 1,
                     "group": "g1"}
    g1 = ConeOracle(p, "g1")
    assert g1.is_positive(meridian(p).inverse()) is Sign.NEGATIVE
    assert g1.is_positive(W("a")) is Sign.POSITIVE
    assert g1.is_positive(W("b")) is Sign.POSITIVE
    sign, trace = g1_sign_trace(p, W(""))
    assert sign is Sign.IDENTITY
    assert trace == {"decided_by": "identity", "group": "g1"}


def test_g1_meridian_positive_for_all_knots():
    for c1, c2 in KNOTS:
        p = knot_params(c1, c2)
        assert ConeOracle(p, "g1").is_positive(meridian(p)) is Sign.POSITIVE


def test_g1_commutation_word_positive():
    # mu h^-1 mu^-1 h^2 = mu h^-1 mu^-1 h . h is a positive product once h
    # is central and positive; the oracle must agree
    for c1, c2 in KNOTS:
        p = knot_params(c1, c2)
        mu, h = meridian(p), HALF_TURN_WORD
        w = mu * h.inverse() * mu.inverse() * h * h
        assert ConeOracle(p, "g1").is_positive(w) is Sign.POSITIVE


def test_g1_peripheral_box_pattern():
    # on peripheral words mu^r h^s the base order restricts to the lattice
    # order with the h-direction dominant and mu positive
    for c1, c2 in KNOTS:
        p = knot_params(c1, c2)
        g1 = ConeOracle(p, "g1")
        for r in range(-3, 4):
            for s in range(-2, 3):
                got = g1.is_positive(peripheral_word(p, "g1", r, s))
                assert got is z2_is_positive(Z2Order.PLUS_FIRST, (r, s)), \
                    (c1, c2, r, s)


def test_g1_cone_axioms_sampled():
    p = knot_params(3, 4)
    rng = random.Random(43)
    words = [random_word(rng, "ab", rng.randrange(0, 6)) for _ in range(120)]
    g1 = ConeOracle(p, "g1")
    positives = []
    for w in words:
        s = g1.is_positive(w)
        assert g1.is_positive(w.inverse()) is s.flipped()
        assert (s is Sign.IDENTITY) == g1_normal_form(p, w).is_identity()
        if s is Sign.POSITIVE:
            positives.append(w)
    assert positives
    for _ in range(150):
        w1, w2 = rng.choice(positives), rng.choice(positives)
        assert g1.is_positive(w1 * w2) is Sign.POSITIVE


@pytest.mark.parametrize("knot", [(3, 4), (5, 4), (7, -6)])
def test_product_identity_from_forms_matches_the_product_form(knot):
    """The g1 product's identity verdict compares the stored forms of
    w1^-1 and w2; on every ordered pair of the radius-3 ball it agrees
    with the normal form of the product, the route it replaces."""
    p = knot_params(*knot)
    g1 = ConeOracle(p, "g1")
    words = ball(("a", "b"), 3)
    trivial = 0
    for w1 in words:
        for w2 in words:
            verdict = g1._form(w1.inverse()) == g1._form(w2)
            assert verdict == g1_normal_form(p, w1 * w2).is_identity()
            assert (product_sign(g1, w1, w2) is Sign.IDENTITY) == verdict
            trivial += verdict
    # more than the free inverses: h = a^2 is central (a^2 b . a^-2 b^-1)
    assert trivial > len(words)


def test_g1_dual_route_disagreement_raises(monkeypatch):
    import twobridge.orders as orders_mod

    p = knot_params(3, 4)

    class FakeTrivial:
        @staticmethod
        def is_identity():
            return True

    monkeypatch.setattr(orders_mod, "g1_normal_form",
                        lambda params, w: FakeTrivial())
    with pytest.raises(InternalCheckFailed):
        g1_sign_trace(p, W("a"))


# --------------------------------------------------------------------------
# G2 oracle: layers and fixtures


def test_g2_layer1_fixtures():
    p = knot_params(3, 4)
    sign, trace = g2_sign_trace(p, W("z x^2"))
    assert sign is Sign.POSITIVE
    assert trace == {"group": "g2", "decided_by": "layer-1-pi", "pi": 2}
    assert ConeOracle(p, "g2").is_positive(W("x^-1")) is Sign.NEGATIVE
    assert ConeOracle(p, "g2").is_positive(W("x^-1 z^5")) is Sign.NEGATIVE


def test_g2_layer2_fixtures():
    for (c1, c2), ysign, tval in [((3, 4), Sign.POSITIVE, 2),
                                  ((3, -4), Sign.NEGATIVE, -2),
                                  ((5, 4), Sign.POSITIVE, 2),
                                  ((7, -6), Sign.NEGATIVE, -3)]:
        p = knot_params(c1, c2)
        sign, trace = g2_sign_trace(p, W("y"))
        assert sign is ysign
        assert trace == {"group": "g2", "decided_by": "layer-2-t", "t": tval}
        assert ConeOracle(p, "g2").is_positive(W("z")) is Sign.POSITIVE
        assert ConeOracle(p, "g2").is_positive(W("z^-1")) is Sign.NEGATIVE
        # conjugating by x flips the weight: x^-1 y x = y^-1
        sign, trace = g2_sign_trace(p, W("x^-1 y x"))
        assert sign is ysign.flipped()
        assert trace["t"] == -tval


def test_g2_weight_on_normal_forms():
    for c1, c2 in KNOTS:
        p = knot_params(c1, c2)
        beta = abs(p.b2)
        assert _t_weight(beta, g2_normal_form(p, W("y"))) == p.b2
        assert _t_weight(beta, g2_normal_form(p, W("x^-1 y x"))) == -p.b2
        assert _t_weight(beta, g2_normal_form(p, W("z") ** beta)) == beta


def test_g2_layer3_commutator_fixture():
    # [z, x^-1 z x] lies in the kernel of both pi and t; its Schreier
    # rewrite has a basis letter of nonzero exponent sum (a^-2 at beta = 2),
    # so the least degree with a nonzero Magnus coefficient is 1
    for c1, c2 in KNOTS:
        p = knot_params(c1, c2)
        comm = W("z") * W("x^-1 z x") * W("z^-1") * W("x^-1 z^-1 x")
        sign, trace = g2_sign_trace(p, comm)
        assert sign is Sign.NEGATIVE
        assert trace == {"group": "g2", "decided_by": "layer-3-magnus",
                         "truncation_degree": 1}
        assert ConeOracle(p, "g2").is_positive(comm.inverse()) is Sign.POSITIVE


GRID = [(2 * b1 + 1, 2 * b2) for b1 in range(1, 6)
        for b2 in (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6)]


def test_word_pi_t_matches_the_normal_form_on_the_grid():
    # pi and t read from the word against xpow and t of the normal form,
    # and the word route against the normal-form route, trace included.
    # Each random word w (y-syllables, exponents up to 7, empty words) is
    # also tried as w x^-pi, in ker pi, and as a commutator, in ker t
    rng = random.Random(34)
    layers = Counter()
    for c1, c2 in GRID:
        params = knot_params(c1, c2)
        beta = abs(params.b2)
        words = [Word()]
        for _ in range(12):
            w = Word(tuple((rng.choice("xyz"), rng.choice((-1, 1))
                            * rng.randint(1, 7))
                           for _ in range(rng.randint(0, 6))))
            v = Word(tuple((rng.choice("xyz"), rng.choice((-1, 1)))
                           for _ in range(rng.randint(0, 3))))
            kernel = w * W("x") ** -g2_normal_form(params, w).xpow
            words += [w, kernel, kernel * v * kernel.inverse() * v.inverse()]
        for w in words:
            nf = g2_normal_form(params, w)
            assert _word_pi_t(params.b2, w) == (nf.xpow,
                                                _t_weight(beta, nf)), str(w)
            got = g2_sign_trace(params, w)
            assert got == g2_sign_trace(params, nf), str(w)
            layers[got[1]["decided_by"]] += 1
    assert set(layers) == {"layer-1-pi", "layer-2-t", "layer-3-magnus",
                           "identity"}, layers


def test_word_route_normalizes_only_when_pi_and_t_vanish(monkeypatch):
    params = knot_params(5, -6)
    normalized = []
    form = orders.g2_normal_form
    monkeypatch.setattr(orders, "g2_normal_form",
                        lambda p, w: normalized.append(w) or form(p, w))
    kernel = W("z x^-1 z x z^-1 x^-1 z^-1 x")
    for text, layer in (("x y z", "layer-1-pi"), ("z x^2 z x^-2", "layer-2-t"),
                        ("y^-2 x^4 z^3 x^-4", "layer-2-t"),
                        ("y z^3", "identity")):
        assert g2_sign_trace(params, W(text))[1]["decided_by"] == layer
    assert normalized == [W("y z^3")]
    assert g2_sign_trace(params, kernel)[1]["decided_by"] == "layer-3-magnus"
    assert normalized == [W("y z^3"), kernel]


def test_word_route_rejects_foreign_generators_as_the_normal_form_does():
    params = knot_params(3, 4)
    for text in ("x q y w", "w x q", "y^3 z^-2 a"):
        with pytest.raises(ParseError) as from_form:
            g2_normal_form(params, W(text))
        with pytest.raises(ParseError) as from_word:
            g2_sign_trace(params, W(text))
        assert str(from_word.value) == str(from_form.value)
    assert str(from_word.value) == \
        "G2 words use generators x, y, z only, got a"


def test_g2_identity_trace():
    p = knot_params(3, 4)
    sign, trace = g2_sign_trace(p, W("y z^-2"))  # a defining relator
    assert sign is Sign.IDENTITY
    assert trace == {"group": "g2", "decided_by": "identity"}


def test_g2_cone_axioms_sampled():
    for c1, c2 in [(3, 4), (7, -6)]:
        p = knot_params(c1, c2)
        rng = random.Random(47)
        words = [random_word(rng, "xyz", rng.randrange(0, 6))
                 for _ in range(150)]
        g2 = ConeOracle(p, "g2")
        positives = []
        for w in words:
            s = g2.is_positive(w)
            assert g2.is_positive(w.inverse()) is s.flipped()
            assert (s is Sign.IDENTITY) == g2_normal_form(p,
                                                          w).is_identity()
            if s is Sign.POSITIVE:
                positives.append(w)
        assert positives
        for _ in range(200):
            w1, w2 = rng.choice(positives), rng.choice(positives)
            assert g2.is_positive(w1 * w2) is Sign.POSITIVE


# --------------------------------------------------------------------------
# kernel rewriting and the Magnus sign, directly


def test_schreier_rewrite_commutator_image():
    # beta = 2: the image of z_0 z_1 z_0 z_1 (the kernel normal form of
    # [z, x^-1 z x]) collapses onto the single basis letter at (i=1, T=0),
    # inverted twice
    letters = _schreier_letters(2, ((0, 1), (1, 1), (0, 1), (1, 1)))
    assert letters == [((1, 1, 0), -1), ((1, 1, 0), -1)]


def test_schreier_rewrite_requires_weight_zero():
    with pytest.raises(InternalCheckFailed):
        _schreier_letters(2, ((0, 1),))


def test_schreier_free_reduction():
    # beta = 2: z_1^2 maps to the square of an order-two element of the
    # quotient, so its rewrite must freely cancel to the empty word
    assert _schreier_letters(2, ((1, 2),)) == []
    # beta = 3: a weight-zero pair leaves one basis letter and no adjacent
    # inverse pairs
    letters = _schreier_letters(3, ((1, 1), (0, 1)))
    assert letters == [((1, 1, 0), 1)]
    for (tok1, e1), (tok2, e2) in zip(letters, letters[1:]):
        assert not (tok1 == tok2 and e1 == -e2)


def test_magnus_first_sign_basics():
    a = (1, 1, 0)
    b = (2, 2, 0)
    assert _magnus_first_sign([(a, 1)], 1) == (1, 1)
    assert _magnus_first_sign([(a, -1)], 1) == (-1, 1)
    assert _magnus_first_sign([(a, -1), (a, -1)], 1) == (-1, 1)
    # commutator: lowest graded-lex term is +ab at degree 2
    comm = [(a, 1), (b, 1), (a, -1), (b, -1)]
    assert _magnus_first_sign(comm, 1) == (0, 1)  # undecided at degree 1
    assert _magnus_first_sign(comm, 4) == (1, 2)
    inv = [(b, 1), (a, 1), (b, -1), (a, -1)]
    assert _magnus_first_sign(inv, 4) == (-1, 2)


def _syllables(letters):
    return 1 + sum(t1 != t2 for (t1, _), (t2, _) in zip(letters,
                                                         letters[1:]))


def _commutator(g, h):
    return g * h * g.inverse() * h.inverse()


def _reduced_token_words(tokens, max_len):
    """Every nonempty freely reduced word over the tokens and their
    inverses, up to max_len letters."""
    layer = [[]]
    for _ in range(max_len):
        layer = [w + [(t, e)] for w in layer for t in tokens for e in (1, -1)
                 if not (w and w[-1] == (t, -e))]
        yield from layer


def _kernel_letters(params, w):
    """Schreier letters of w if it reaches the Magnus layer, else None."""
    nf = g2_normal_form(params, w)
    beta = abs(params.b2)
    if nf.xpow or _t_weight(beta, nf) or nf.is_identity():
        return None
    return _schreier_letters(beta, nf.tail)


def test_short_words_are_decided_within_their_syllable_count():
    # every reduced word up to the length cap, single syllables included
    a, b, c = (1, 1, 0), (1, 1, 1), (2, 2, 0)
    for tokens, max_len in (((a, b), 6), ((a, b, c), 4)):
        for word in _reduced_token_words(tokens, max_len):
            k = _syllables(word)
            sign, degree = _magnus_first_sign(word, k)
            assert sign and degree <= k, word
            assert (sign, degree) == magnus_first_sign_stepped(word, k), word


def test_sparse_magnus_matches_dense_reference():
    rng = random.Random(61)
    tokens = [(1, 1, 0), (1, 1, 1), (1, -1, 2), (2, 2, 0)]
    words = []
    while len(words) < 300:
        word = []
        for _ in range(rng.randint(1, 12)):
            t, e = rng.choice(tokens), rng.choice((1, -1))
            if word and word[-1] == (t, -e):
                word.pop()
            else:
                word.append((t, e))
        if word:
            words.append(word)
    # free-kernel words of the g2 pieces: conjugated simple and double
    # commutators of random kernel elements
    for c1, c2 in ((3, 4), (7, -6), (3, 6), (5, -6)):
        p = knot_params(c1, c2)
        pool = []
        while len(pool) < 6:
            k = random_word(rng, "xyz", rng.randint(2, 6))
            if _kernel_letters(p, k):
                pool.append(k)
        for _ in range(25):
            k1, k2, k3 = rng.sample(pool, 3)
            g = random_word(rng, "xyz", rng.randint(0, 3))
            k = _commutator(k1, k2) if rng.random() < 0.5 else \
                _commutator(_commutator(k1, k2), k3)
            letters = _kernel_letters(p, g * k * g.inverse())
            if letters:
                words.append(letters)
    for c1, c2 in ((3, 4), (3, 6), (5, -6)):
        p = knot_params(c1, c2)
        for w in nested_commutators(4):
            words.append(_kernel_letters(p, w))
    for word in words:
        k = _syllables(word)
        assert _magnus_first_sign(word, k) == \
            magnus_first_sign_stepped(word, k), word


def nested_commutators(depth):
    """c1 = [u, v], c(k+1) = [ck, u or v, alternating], for the kernel
    elements u = z x^-1 z x and v = z x z x^-1."""
    u, v = W("z x^-1 z x"), W("z x z x^-1")
    out = [_commutator(u, v)]
    while len(out) < depth:
        out.append(_commutator(out[-1], u if len(out) % 2 else v))
    return out


@pytest.mark.parametrize("knot, depth, sign, degree, seconds", [
    ((3, 6), 4, Sign.NEGATIVE, 5, None),
    ((3, 6), 5, Sign.NEGATIVE, 6, 0.5),
    ((3, 6), 6, Sign.POSITIVE, 7, 2.0),
    ((3, 8), 4, Sign.NEGATIVE, 5, None),
    ((3, 6), 7, Sign.POSITIVE, 8, 2.0),
])
def test_deep_commutators_pinned(knot, depth, sign, degree, seconds):
    p = knot_params(*knot)
    w = nested_commutators(depth)[-1]
    t0 = time.perf_counter()
    got, trace = g2_sign_trace(p, w)
    elapsed = time.perf_counter() - t0
    assert (got, trace) == (sign, {"group": "g2",
                                   "decided_by": "layer-3-magnus",
                                   "truncation_degree": degree})
    if seconds is not None:
        assert elapsed < seconds, elapsed


def test_undecided_magnus_answer_raises(monkeypatch):
    monkeypatch.setattr(orders, "_magnus_first_sign",
                        lambda letters, max_degree: (0, max_degree))
    with pytest.raises(InternalCheckFailed, match="syllable count"):
        g2_sign_trace(knot_params(3, 6), nested_commutators(1)[0])


def test_magnus_kernel_matches_the_letter_loop_on_deep_commutators():
    # the dense reference cannot reach these degrees; the letter-loop
    # search it replaced can
    x = W("x")
    for knot, depth in (((3, 6), 6), ((3, 8), 5), ((3, 12), 4),
                        ((5, -6), 4)):
        p = knot_params(*knot)
        for w in nested_commutators(depth):
            for word in (w, x * w * x.inverse()):
                letters = _kernel_letters(p, word)
                k = _syllables(letters)
                got = _magnus_first_sign(letters, k)
                assert got[0] and got == \
                    magnus_first_sign_by_letters(letters, k), (knot, word)


def test_magnus_search_leaves_no_cyclic_garbage():
    # the per-query tables are freed by reference counting when the call
    # returns, not held until the cyclic collector runs
    letters = _kernel_letters(knot_params(3, 6), nested_commutators(3)[-1])
    gc.collect()
    gc.disable()
    try:
        assert _magnus_first_sign(letters, _syllables(letters))[0]
        assert gc.collect() == 0
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# one oracle class per group

ORACLE_NAMES = {"params", "group", "element", "sign_trace", "is_positive",
                "product_signs", "box", "pattern", "conjugate_signs",
                "word_is_identity"}


@pytest.mark.parametrize("group", ["g3", None, ["g1"], "G1", ""])
def test_cone_oracle_rejects_other_groups(group):
    with pytest.raises(ValueError, match=re.escape(repr(group))):
        ConeOracle(knot_params(3, 4), group)


def test_group_classes_reject_the_other_group():
    p = knot_params(3, 4)
    for cls, other in ((G1Oracle, "g2"), (G2Oracle, "g1")):
        with pytest.raises(ValueError, match=other):
            cls(p, other)
        assert cls(p).group == cls(p, cls.group).group == cls.group


@pytest.mark.parametrize("group, cls", [("g1", G1Oracle), ("g2", G2Oracle)])
def test_each_group_builds_its_class_with_one_public_surface(group, cls):
    oracle = ConeOracle(knot_params(3, 4), group)
    assert type(oracle) is cls
    assert oracle.group == group
    assert isinstance(oracle, ConeOracle)
    assert {n for n in dir(oracle) if not n.startswith("_")} == ORACLE_NAMES
    # no state of the other group's order
    if group == "g2":
        assert not hasattr(oracle, "_realization")
        assert not hasattr(oracle, "_forms")


def test_oracles_call_traced_names_at_call_time(monkeypatch):
    """Each oracle calls the module's sign routes and normal forms, and the
    realization's ``lifted``, through names looked up at each call, so a
    wrapper installed after the oracle is built sees every call.  The word
    route stores no element."""
    p = knot_params(3, 4)
    g1, g2 = ConeOracle(p, "g1"), ConeOracle(p, "g2")
    g1.element(W("a")), g2.element(W("x"))
    # [z, x^-1 z x] has pi = t = 0, so its conjugate takes the word route
    kernel, c = W("z x^-1 z x z^-1 x^-1 z^-1 x"), W("x")
    conjugate = g2_sign_trace(p, c * kernel * c.inverse())[0]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("g1_sign_trace", "g2_sign_trace", "g1_normal_form",
                 "g2_normal_form", "family_sign_trace"):
        monkeypatch.setattr(orders, name, counted(name, getattr(orders, name)))
    monkeypatch.setattr(G1Realization, "lifted",
                        counted("lifted", G1Realization.lifted))

    # the g2 word route normalizes only a word whose pi and t vanish
    for oracle, w in ((g1, W("a b a")), (g2, kernel)):
        held = dict(oracle._elements)
        oracle.sign_trace(w)
        assert oracle._elements == held
    assert calls == {"g1_sign_trace": 1, "g1_normal_form": 1,
                     "g2_sign_trace": 1, "g2_normal_form": 1}
    calls.clear()
    g1.element(W("b a")), g1.word_is_identity(W("b a"))
    assert calls == {"lifted": 1, "g1_normal_form": 1}
    calls.clear()
    g2.element(W("y x")), g2.word_is_identity(W("y x"))
    assert calls == {"g2_normal_form": 1}
    calls.clear()
    assert g2.conjugate_signs(c, [kernel]) == [conjugate]
    assert calls["family_sign_trace"] == calls["g2_sign_trace"] == 1


# --------------------------------------------------------------------------
# order families


def test_family_base_member_is_the_base_order():
    # the member with the trivial conjugator signs every word as the base
    # oracle does; reversal is a CLI flag, tested through order-sign
    p = knot_params(3, 4)
    o1 = ConeOracle(p, "g1")
    mu = meridian(p)
    assert family_is_positive(o1, W(""), mu) is Sign.POSITIVE
    assert family_is_positive(o1, W(""), mu.inverse()) is Sign.NEGATIVE
    assert family_is_positive(o1, W(""), W("")) is Sign.IDENTITY
    for w in ball(("a", "b"), 3):
        assert family_is_positive(o1, W(""), w) is o1.is_positive(w)


def test_family_conjugator_outside_the_group_raises():
    p = knot_params(3, 4)
    for group, c, w in (("g2", W("a"), W("y")), ("g1", W("x"), W("a"))):
        with pytest.raises(ParseError):
            family_is_positive(ConeOracle(p, group), c, w)


def test_family_members_are_left_orders():
    p = knot_params(3, 4)
    for group, alphabet, conj in [("g1", "ab", W("a b")),
                                  ("g2", "xyz", W("x z"))]:
        oracle = ConeOracle(p, group)
        rng = random.Random(53)
        words = [random_word(rng, alphabet, rng.randrange(0, 5))
                 for _ in range(60)]
        positives = []
        for w in words:
            s = family_is_positive(oracle, conj, w)
            assert family_is_positive(oracle, conj,
                                      w.inverse()) is s.flipped()
            assert (s is Sign.IDENTITY) == oracle.word_is_identity(w)
            if s is Sign.POSITIVE:
                positives.append(w)
        for _ in range(80):
            w1, w2 = rng.choice(positives), rng.choice(positives)
            assert family_is_positive(oracle, conj,
                                      w1 * w2) is Sign.POSITIVE


def test_family_conjugation_relabels_signs():
    # the sign of w in the member with conjugator c equals the base sign of
    # c w c^-1, so conjugating the test word back recovers the base sign
    p = knot_params(5, 4)
    oracle = ConeOracle(p, "g1")
    rng = random.Random(59)
    c = W("b a^-1 b")
    for _ in range(40):
        w = random_word(rng, "ab", rng.randrange(0, 6))
        moved = c.inverse() * w * c
        assert family_is_positive(oracle, c, moved) is \
            family_is_positive(oracle, W(""), w)


def test_g2_member_restrictions_give_both_lattice_orders():
    # restricted to the peripheral lattice y^r (z x^2)^s, the member with
    # trivial conjugator and the member conjugated by x realize the two
    # lattice orders; which is which depends on the sign of b2
    cases = {(3, 4): (Z2Order.PLUS_FIRST, Z2Order.MINUS_FIRST),
             (3, -4): (Z2Order.MINUS_FIRST, Z2Order.PLUS_FIRST),
             (5, 4): (Z2Order.PLUS_FIRST, Z2Order.MINUS_FIRST),
             (7, -6): (Z2Order.MINUS_FIRST, Z2Order.PLUS_FIRST)}
    for (c1, c2), (id_variant, x_variant) in cases.items():
        p = knot_params(c1, c2)
        oracle = ConeOracle(p, "g2")
        for conj, variant in [(W(""), id_variant), (W("x"), x_variant)]:
            for r in range(-3, 4):
                for s in range(-2, 3):
                    got = family_is_positive(
                        oracle, conj, peripheral_word(p, "g2", r, s))
                    assert got is z2_is_positive(variant, (r, s)), \
                        (c1, c2, str(conj), r, s)


def test_peripheral_signs_match_across_the_gluing():
    # the compatibility at the heart of the certificate, spot-checked: the
    # base G1 order and the matching G2 member agree on peripheral signs
    # under the gluing mu -> y, h -> z x^2
    for c1, c2 in KNOTS:
        p = knot_params(c1, c2)
        o1 = ConeOracle(p, "g1")
        o2 = ConeOracle(p, "g2")
        conj = W("") if p.b2 > 0 else W("x")
        for r in range(-3, 4):
            for s in range(-2, 3):
                s1 = family_is_positive(o1, W(""),
                                        peripheral_word(p, "g1", r, s))
                s2 = family_is_positive(o2, conj,
                                        peripheral_word(p, "g2", r, s))
                assert s1 is s2, (c1, c2, r, s)
