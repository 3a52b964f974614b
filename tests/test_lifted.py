import random

import pytest

from twobridge import lifted
from twobridge.certify import ball
from twobridge.errors import InternalCheckFailed
from twobridge.lifted import (LiftedMoebius, LiftedPoint, Moebius,
                              lift0_apply, order_n_rotation,
                              order_two_rotation)
from twobridge.numberfield import (FieldElement, NumberField,
                                   real_cyclotomic_field)
from twobridge.orders import G1Realization
from reference import (cocycle_by_evaluation, cover_increasing, infinity,
                       moebius_product_entrywise)

F5 = real_cyclotomic_field(5)


def lpt(field, wind, u, v=1) -> LiftedPoint:
    """The point [u : v] of integers u, v, that is u/v, at level ``wind``."""
    return LiftedPoint(wind, field.element([u]), field.element([v]))


# ----------------------------------------------------------------- points

def test_projective_canonicalization():
    p = LiftedPoint(0, F5.one, -F5.one)  # [1 : -1] -> [-1 : 1]
    assert p.v == F5.one and p.u == -F5.one
    q = LiftedPoint(0, -2 * F5.one, F5.zero)  # [-2 : 0] -> [2 : 0]
    assert not q.finite and q.v.is_zero() and q.u.sign() > 0
    assert q == infinity(F5)
    assert lpt(F5, 0, 3) == LiftedPoint(0, 6 * F5.one, 2 * F5.one)
    with pytest.raises(InternalCheckFailed):
        LiftedPoint(0, F5.zero, F5.zero)


def test_lifted_point_order():
    a = lpt(F5, 0, -5)
    b = lpt(F5, 0, 100)
    inf0 = infinity(F5)
    c = lpt(F5, 1, -77)
    assert cover_increasing(a, b, inf0, c)
    assert not cover_increasing(a, a) and not cover_increasing(b, a)
    assert not cover_increasing(inf0, b) and inf0.cmp(inf0) == 0
    assert a == a
    assert lpt(F5, 2, 1) == lpt(F5, 2, 1)
    assert infinity(F5, 3) == infinity(F5, 3)
    assert infinity(F5, 3) != infinity(F5, 2)


def test_points_not_hashable():
    for p in (lpt(F5, 0, 0), infinity(F5)):
        with pytest.raises(TypeError):
            hash(p)
    for m in (Moebius.identity(F5), LiftedMoebius.translation(F5, 1)):
        with pytest.raises(TypeError):
            hash(m)


# --------------------------------------------------------------- matrices

def test_moebius_checks_unimodularity():
    with pytest.raises(InternalCheckFailed):
        Moebius(F5.one, F5.zero, F5.zero, 2 * F5.one)
    m = Moebius.identity(F5)
    assert m.is_identity() and m.trace() == 2 * F5.one


def _negated(m: Moebius) -> Moebius:
    """The other SL(2) representative of m's PSL(2) class."""
    return Moebius(-m.a, -m.b, -m.c, -m.d)


def test_moebius_equal_up_to_sign():
    s = order_two_rotation(F5)
    assert _negated(s) == s
    assert _negated(s) != order_n_rotation(F5)


def test_rotation_orders():
    for n in (3, 5, 7, 9, 11):
        f = real_cyclotomic_field(n)
        s = order_two_rotation(f)
        r = order_n_rotation(f)
        assert (s * s).is_identity()
        power = r
        for _ in range(1, n):
            assert not power.is_identity()
            power = power * r
        assert power.is_identity()


# ------------------------------------------------------------------ lifts

def _squared(m: Moebius) -> Moebius:
    return m * m


def test_lift0_semantics_halfturn():
    s = order_two_rotation(F5)  # pole at 0, image of x is -1/x
    below = lift0_apply(s, lpt(F5, 0, -2))
    assert below == lpt(F5, 0, 1, 2)
    at = lift0_apply(s, lpt(F5, 0, 0))
    assert at == infinity(F5)
    above = lift0_apply(s, lpt(F5, 0, 3))
    assert above == lpt(F5, 1, -1, 3)
    from_inf = lift0_apply(s, infinity(F5))
    assert from_inf == lpt(F5, 1, 0)


def test_lift0_level_preserving_when_upper_triangular():
    m = Moebius(F5.one, F5.lam, F5.zero, F5.one)
    p = lpt(F5, 4, 100)
    assert lift0_apply(m, p).wind == 4
    assert lift0_apply(m, infinity(F5, 2)) == infinity(F5, 2)


def test_moving_a_point_signs_one_element(monkeypatch):
    # the image's denominator, signed once, both canonicalizes the image
    # and picks its level; at the pole of a matrix with c != 0 the image
    # is infinity, whose numerator has the known sign -sign(c).  Only
    # infinity under a matrix with c == 0 signs its numerator too.
    s, r = order_two_rotation(F5), order_n_rotation(F5)
    upper = Moebius(F5.one, F5.lam, F5.zero, F5.one)
    finite = [lpt(F5, 0, 3), lpt(F5, 2, -2), lpt(F5, -1, 1, 3)]
    cases = [(m, p) for m in (s, r) for p in finite + [infinity(F5)]]
    cases += [(upper, p) for p in finite]
    # the half turn S on [0 : 1], its negation, and R at its pole -lambda
    poles = [(s, lpt(F5, 0, 0)), (_negated(s), lpt(F5, 3, 0)),
             (r, LiftedPoint(-1, -F5.lam, F5.one)),
             (_negated(r), LiftedPoint(2, F5.lam, -F5.one))]
    signed = []
    sign, sign_of = FieldElement.sign, NumberField.sign_of

    def counted(self, coeffs):
        signed.append(coeffs)
        return sign_of(self, coeffs)

    far = infinity(F5, 2)
    monkeypatch.setattr(NumberField, "sign_of", counted)
    for m, p in cases:
        signed.clear()
        lift0_apply(m, p)
        assert len(signed) == 1, (m, p)
    for m, p in poles:
        signed.clear()
        q = lift0_apply(m, p)
        assert len(signed) == 1, (m, p)
        # canonical infinity on the pole's own level
        assert q.wind == p.wind and not q.finite
        assert sign(q.u) > 0 and q.v.is_zero()
    signed.clear()
    q = lift0_apply(upper, far)
    assert len(signed) == 2
    assert q.wind == 2 and not q.finite and sign(q.u) > 0


def test_apply_raises_the_lift0_image_by_the_winding():
    s, r = order_two_rotation(F5), order_n_rotation(F5)
    points = [lpt(F5, 0, 3), lpt(F5, 2, 0), lpt(F5, -1, 1, 3), infinity(F5)]
    for m in (s, r, s * r):
        for p in points:
            before = (p.wind, p.u, p.v)
            q = lift0_apply(m, p)
            for k in (-2, 0, 3):
                got = LiftedMoebius(m, k).apply(p)
                assert got.wind == q.wind + k
                assert got == LiftedPoint(q.wind + k, q.u, q.v)
                assert (p.wind, p.u, p.v) == before


def test_halfturn_squared_is_deck_translation():
    for n in (3, 5, 7, 9, 11):
        f = real_cyclotomic_field(n)
        ls = LiftedMoebius.lift0(order_two_rotation(f))
        assert ls * ls == LiftedMoebius.translation(f, 1)


def test_lifted_rotation_powers():
    for n in (3, 5, 7, 9, 11):
        f = real_cyclotomic_field(n)
        bt = LiftedMoebius.lift0(_squared(order_n_rotation(f)))
        assert bt ** n == LiftedMoebius.translation(f, n - 2)


def test_translation_is_central():
    t = LiftedMoebius.translation(F5, 3)
    g = LiftedMoebius.lift0(order_n_rotation(F5))
    assert t * g == g * t
    p = lpt(F5, 0, 7)
    assert t.apply(p) == lpt(F5, 3, 7)


def test_group_laws_random():
    rng = random.Random(31)
    f = real_cyclotomic_field(7)
    gens = [LiftedMoebius.lift0(order_two_rotation(f)),
            LiftedMoebius.lift0(_squared(order_n_rotation(f))),
            LiftedMoebius.translation(f, 1)]
    gens += [g.inverse() for g in gens]
    ident = LiftedMoebius.translation(f, 0)
    points = [lpt(f, 0, 0), lpt(f, 0, 1), lpt(f, 0, -1), infinity(f)]
    for _ in range(60):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
        acc = ident
        for g in word:
            acc = acc * g
        # inverse round-trip
        assert (acc * acc.inverse()).is_identity()
        # action is a homomorphism
        for p in points:
            expect = p
            for g in reversed(word):
                expect = g.apply(expect)
            assert acc.apply(p) == expect
        # lifts are increasing maps
        assert cover_increasing(*(acc.apply(points[i])
                                  for i in (2, 0, 1, 3)))


def test_pow_matches_repeated_product():
    f = real_cyclotomic_field(5)
    g = LiftedMoebius.lift0(_squared(order_n_rotation(f))) * \
        LiftedMoebius.lift0(order_two_rotation(f))
    acc = LiftedMoebius.translation(f, 0)
    for k in range(70):
        assert g ** k == acc
        assert g ** (-k) == acc.inverse()
        acc = acc * g


# ------------------------------------------------ the sign-only cocycle

def _ball_lifts(b1: int, radius: int = 3) -> list:
    """Lifts of the G1 ball of the radius, followed by their inverses."""
    real = G1Realization(b1)
    lifts = [real.lifted(w) for w in ball("ab", radius)]
    return lifts + [g.inverse() for g in lifts]


@pytest.mark.parametrize("b1", [1, 2, 3, 4, 5])
def test_cocycle_matches_evaluation_on_radius_3_balls(b1):
    lifts = _ball_lifts(b1)
    for g in lifts:
        m1 = g.matrix
        for h in lifts:
            m2 = h.matrix
            prod = g * h
            k = cocycle_by_evaluation(m1, m2, prod.matrix)
            assert lifted._cocycle(m1, m2, m1 * m2) == k
            assert prod.wind == k + g.wind + h.wind
        inv = g.inverse()
        k = cocycle_by_evaluation(m1, inv.matrix, Moebius.identity(m1.field))
        assert inv.wind == -k - g.wind


def test_composition_never_evaluates_the_action(monkeypatch):
    rng = random.Random(37)
    real = G1Realization(2)
    words = ball("ab", 3)
    before = [real.lifted(w) for w in words]
    cases = []
    for _ in range(40):
        g = real.lifted(rng.choice(words))
        h = real.lifted(rng.choice(words))
        e = rng.randint(-40, 40)
        cases.append((g, h, e, g * h, g.inverse(), g ** e))

    def evaluation(*args):
        raise AssertionError("the group law evaluated the action")

    monkeypatch.setattr(lifted, "lift0_move", evaluation)
    for g, h, e, prod, inv, power in cases:
        assert g * h == prod
        assert g.inverse() == inv
        assert g ** e == power
    assert [real.lifted(w) for w in words] == before


# ----------------------------------------- the fused product and its sign

def _edge_matrices(f) -> list:
    """Matrices with a = 0 or c = 0, built with either sign."""
    one, zero, lam = f.one, f.zero, f.lam
    out = []
    for a, b, c, d in ((zero, -one, one, zero), (zero, -one, one, lam),
                       (zero, one, -one, lam * lam),
                       (one, lam, zero, one), (one, -lam * lam, zero, one),
                       (one, zero, lam, one), (one, zero, zero, one)):
        out += [Moebius(a, b, c, d), Moebius(-a, -b, -c, -d)]
    return out


def _assert_product_matches_entrywise(m1, m2):
    prod = m1 * m2
    assert (prod.a, prod.b, prod.c, prod.d) == \
        moebius_product_entrywise(m1, m2)
    assert prod.c_sign == prod.c.sign()


@pytest.mark.parametrize("b1", [1, 2, 3, 4, 5])
def test_fused_product_matches_entrywise_on_radius_3_balls(b1):
    matrices = [g.matrix for g in _ball_lifts(b1)]
    matrices += _edge_matrices(matrices[0].field)
    for m1 in matrices:
        assert m1.c_sign == m1.c.sign()
        for m2 in matrices:
            _assert_product_matches_entrywise(m1, m2)


def test_inverse_reads_its_lower_left_sign(monkeypatch):
    matrices = [g.matrix for g in _ball_lifts(2)]
    matrices += _edge_matrices(matrices[0].field)
    expected = [Moebius(m.d, -m.b, -m.c, m.a) for m in matrices]
    corrupt = Moebius(F5.one, F5.lam, F5.zero, F5.one)
    corrupt.d = F5.lam

    def sign(self, coeffs):
        raise AssertionError("inverse decided a sign")

    monkeypatch.setattr(NumberField, "sign_of", sign)
    for m, want in zip(matrices, expected):
        inv = m.inverse()
        assert (inv.a, inv.b, inv.c, inv.d) == (want.a, want.b, want.c,
                                                 want.d)
        assert inv.c_sign == want.c_sign
    # unimodularity is still checked
    with pytest.raises(InternalCheckFailed):
        corrupt.inverse()


def test_edge_matrices_stand_for_their_psl2_class():
    for n in (3, 5, 7):
        f = real_cyclotomic_field(n)
        edges = _edge_matrices(f)
        for m, neg in zip(edges[::2], edges[1::2]):
            assert m == neg
            assert m.c_sign == -neg.c_sign == m.c.sign()
        assert any(m.a.is_zero() for m in edges)
        assert any(m.c.is_zero() for m in edges)
        assert edges[-1].is_identity() and edges[-2].is_identity()
        assert not any(m.is_identity() for m in edges[:-2])
    # unimodular and diagonal, but not +-I: lambda^2 = lambda + 1 at n = 5
    diag = Moebius(F5.lam, F5.zero, F5.zero, F5.lam - 1)
    assert not diag.is_identity()


@pytest.mark.parametrize("b1", [1, 2, 3, 4, 5])
def test_lifts_do_not_depend_on_matrix_sign(b1):
    real = G1Realization(b1)
    lifts = _ball_lifts(b1)
    for g in lifts:
        neg = LiftedMoebius(_negated(g.matrix), g.wind)
        assert real.decide([neg]) == real.decide([g])
        for h in lifts:
            for x, y, neg_x, neg_y in ((g, h, neg, h), (h, g, h, neg)):
                prod, flipped = x * y, neg_x * neg_y
                assert flipped == prod and flipped.wind == prod.wind
                assert lifted._cocycle(neg_x.matrix, neg_y.matrix,
                                       flipped.matrix) == \
                    lifted._cocycle(x.matrix, y.matrix, prod.matrix)
