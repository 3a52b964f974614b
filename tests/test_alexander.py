import random
from fractions import Fraction

import pytest

from twobridge.alexander import (LSpaceFormReport, VerdictReason,
                                 alexander_poly, alexander_poly_from_pq,
                                 evaluate, is_monic, is_symmetric,
                                 lspace_form, lspace_surgery_verdict,
                                 normalize_symmetric, span)
from twobridge.cfrac import genus, is_fibered, knot_params
from twobridge.errors import InternalCheckFailed, NotNormalized
from reference import evaluate_by_fractions


def make_form_poly(exponents):
    """The alternating form polynomial of 0 < n_1 < ... < n_k, which
    lspace_form inverts."""
    ns = sorted(exponents)
    assert all(n > 0 for n in ns) and len(set(ns)) == len(ns)
    k = len(ns)
    poly = {0: (-1) ** k}
    for j, n in enumerate(ns, start=1):
        poly[n] = poly[-n] = (-1) ** (k - j)
    return poly


def grid():
    for b1 in range(1, 6):
        for ab2 in range(2, 7):
            for b2 in (ab2, -ab2):
                yield knot_params(2 * b1 + 1, 2 * b2)


# -- fixtures outside the surgery family: exercise the Fox pipeline only --

def test_trefoil_fixture():
    # b(3,1): hand computation W = u v, d(W) = 1, A = (1-t) + t^2
    assert alexander_poly_from_pq(3, 1) == {1: 1, 0: -1, -1: 1}


def test_figure8_fixture():
    # b(5,3): hand computation gives t - 3 + 1/t, determinant 5
    poly = alexander_poly_from_pq(5, 3)
    assert poly == {1: 1, 0: -3, -1: 1}
    assert abs(evaluate(poly, -1)) == 5
    # same knot under the inverse/even representative
    assert alexander_poly_from_pq(5, 2) == poly


def test_34_polynomial():
    # hand-run of the Fox scan with q_odd = 7 (see module docstring)
    poly = alexander_poly(knot_params(3, 4))
    assert poly == {2: 1, 1: -3, 0: 3, -1: -3, -2: 1}


def test_3_minus4_polynomial():
    # hand-run: 2t^2 - 3t + 3 - 3/t + 2/t^2, determinant 13, not monic
    poly = alexander_poly(knot_params(3, -4))
    assert poly == {2: 2, 1: -3, 0: 3, -1: -3, -2: 2}
    assert not is_monic(poly)


def test_grid_postconditions():
    for k in grid():
        poly = alexander_poly(k)
        assert abs(evaluate(poly, -1)) == k.p == abs(k.c1 * k.c2 - 1)
        assert evaluate(poly, 1) in (1, -1)
        assert is_symmetric(poly)
        assert poly[max(poly)] > 0
        assert span(poly) == 2 * genus(k)


def test_monic_iff_fibered():
    for k in grid():
        assert is_monic(alexander_poly(k)) == is_fibered(k)


def test_normalize_symmetric():
    assert normalize_symmetric({2: -1, 1: 3, 0: -1}) == \
        {1: 1, 0: -3, -1: 1}  # recenter then flip sign for positive top
    with pytest.raises(InternalCheckFailed):
        normalize_symmetric({1: 1, 0: 1})  # odd span
    with pytest.raises(InternalCheckFailed):
        normalize_symmetric({1: 1, 0: 5, -1: 2})  # not palindromic
    with pytest.raises(InternalCheckFailed):
        normalize_symmetric({})


def test_lspace_form_examples():
    assert lspace_form({1: 1, 0: -1, -1: 1}) == \
        LSpaceFormReport(matches=True, k=1, exponents=(1,))
    assert lspace_form({0: 1}) == LSpaceFormReport(matches=True, k=0)
    assert lspace_form({2: 1, 1: -3, 0: 3, -1: -3, -2: 1}).matches is False
    # torus-knot-like form with a gap: T(3,4) pattern
    t34 = {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}
    assert lspace_form(t34) == LSpaceFormReport(True, 2, (2, 3))


def test_lspace_form_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        lspace_form({2: 1, 0: 1})  # asymmetric
    with pytest.raises(NotNormalized):
        lspace_form({1: -1, 0: 1, -1: -1})  # negative top
    with pytest.raises(NotNormalized):
        lspace_form({})


def test_form_polys_roundtrip_and_determinant_bound():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(0, 6)
        ns = tuple(sorted(rng.sample(range(1, 12), k)))
        poly = make_form_poly(ns)
        report = lspace_form(poly)
        assert report == LSpaceFormReport(True, k, ns) if k else report.matches
        if k:
            assert report.k == k and report.exponents == ns
        # the determinant bound used by the obstruction: at most 2k+1,
        # which is at most 2*n_k + 1
        assert abs(evaluate(poly, -1)) <= 2 * k + 1
        if k:
            assert 2 * k + 1 <= 2 * ns[-1] + 1
        assert evaluate(poly, 1) == 1


def test_verdict_not_fibered():
    v = lspace_surgery_verdict(knot_params(5, 4))
    assert v.admits is False and v.reason is VerdictReason.NOT_FIBERED
    v = lspace_surgery_verdict(knot_params(3, -4))
    assert v.reason is VerdictReason.NOT_FIBERED


def test_verdict_determinant_branch():
    v = lspace_surgery_verdict(knot_params(3, 4))
    assert v.admits is False
    assert v.reason is VerdictReason.DETERMINANT_EXCEEDS_GENUS_BOUND
    assert (v.determinant, v.bound) == (11, 5)
    v = lspace_surgery_verdict(knot_params(3, 6))
    assert (v.determinant, v.bound) == (17, 7)
    assert v.reason is VerdictReason.DETERMINANT_EXCEEDS_GENUS_BOUND


def test_verdict_grid():
    for k in grid():
        v = lspace_surgery_verdict(k)
        assert v.admits is False
        expected = (VerdictReason.DETERMINANT_EXCEEDS_GENUS_BOUND
                    if is_fibered(k) else VerdictReason.NOT_FIBERED)
        assert v.reason is expected
        assert v.as_dict()["reason"] == expected.value


def test_evaluate_matches_the_fraction_sum():
    rng = random.Random(59)
    points = [1, -1, 2, -3, True, Fraction(1, 2), Fraction(-2, 3),
              Fraction(6, 3)]
    polys = [{}, {0: 5}, {1: 1, 0: -1, -1: 1}, {-3: 2}]
    polys += [{rng.randint(-6, 6): rng.choice((-3, -1, 1, 2))
               for _ in range(rng.randint(1, 6))} for _ in range(200)]
    for poly in polys:
        for t in points:
            got = evaluate(poly, t)
            want = evaluate_by_fractions(poly, t)
            assert got == want and type(got) is type(want), (poly, t)
    # integral values are ints at t = +-1, where the CLI evaluates
    assert type(evaluate({2: 1, -2: 1}, -1)) is int
    with pytest.raises(ZeroDivisionError):
        evaluate({-1: 1}, 0)
