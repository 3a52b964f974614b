import random
from fractions import Fraction
from math import cos, lcm, pi

import pytest

from twobridge import numberfield
from twobridge.errors import ConstructionFailed
from twobridge.orders import G1Realization
from twobridge.numberfield import (FieldElement, NumberField,
                                   minimal_polynomial, mul_add,
                                   real_cyclotomic_field)
from reference import (bound_table_by_fractions,
                       certify_interval_by_fractions,
                       count_roots_by_fractions,
                       minimal_polynomial_by_cyclotomics,
                       narrowed_by_fractions, pmul, reference_sign,
                       sturm_chain_by_fractions, sum_of_products_by_loop)

# classical minimal polynomials of 2*cos(pi/n), coefficients by degree
KNOWN = {
    3: [-1, 1],
    5: [-1, -1, 1],
    7: [1, -2, -1, 1],
    9: [-1, -3, 0, 1],
    11: [-1, 3, 3, -4, -1, 1],
    15: [1, -4, -4, 1, 1],
}


def _approx(e: FieldElement) -> float:
    """Floating-point value of an element, an independent sign oracle."""
    lam = 2 * cos(pi / e.field.n)
    return sum(float(c) * lam ** i for i, c in enumerate(e.coeffs))


def test_minimal_polynomials():
    for n, psi in KNOWN.items():
        assert minimal_polynomial(n) == psi
        # largest root really sits at 2*cos(pi/n)
        x = 2 * cos(pi / n)
        val = sum(c * x ** i for i, c in enumerate(psi))
        assert abs(val) < 1e-9


def test_minimal_polynomial_rejects_bad_n():
    for n in (1, 2, 4, 0, -3):
        with pytest.raises(ValueError):
            minimal_polynomial(n)


def test_minimal_polynomial_matches_the_cyclotomic_route():
    # composite n such as 255 = 3 * 5 * 17 divide by several smaller psi_e
    for n in range(3, 302, 2):
        assert minimal_polynomial(n) == minimal_polynomial_by_cyclotomics(n), n


def test_field_cache_and_degree():
    assert real_cyclotomic_field(5) is real_cyclotomic_field(5)
    for n, psi in KNOWN.items():
        f = real_cyclotomic_field(n)
        assert f.degree == len(psi) - 1
        assert list(f.psi) == psi


def test_lambda_satisfies_minpoly():
    for n in KNOWN:
        f = real_cyclotomic_field(n)
        acc = f.zero
        for c in reversed(f.psi):
            acc = acc * f.lam + c
        assert acc.is_zero()


def test_golden_ratio_identity():
    f = real_cyclotomic_field(5)
    assert (f.lam * f.lam) == f.lam + 1
    assert f.lam * (f.lam - 1) == f.one


def test_degenerate_field_n3():
    f = real_cyclotomic_field(3)
    assert f.degree == 1
    assert f.lam == f.one
    assert (f.lam - 1).sign() == 0
    assert (f.element([-2])).sign() == -1
    assert (3 * f.lam - 4).sign() == -1


def test_signs():
    for n in (5, 7, 9, 11):
        f = real_cyclotomic_field(n)
        assert (f.lam - 1).sign() == 1
        assert (f.lam - 2).sign() == -1
        assert f.zero.sign() == 0
        assert (-f.lam).sign() == -1
        # lambda is the largest root: strictly above 2*cos(3*pi/n) ~ p/q
        other = Fraction(2 * cos(3 * pi / n)).limit_denominator()
        p, q = other.numerator, other.denominator
        assert (q * f.lam - p).sign() == 1


def _scaled(fractions):
    """Integer coordinates: the fractions times their common denominator,
    which keeps the sign."""
    den = lcm(*(c.denominator for c in fractions))
    return [int(c * den) for c in fractions], den


def test_sign_matches_float_oracle():
    rng = random.Random(23)
    for n in (5, 7, 11):
        f = real_cyclotomic_field(n)
        for _ in range(300):
            coeffs, den = _scaled([Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 9))
                                   for _ in range(f.degree)])
            e = f.element(coeffs)
            approx = _approx(e)
            if abs(approx) > 1e-6 * den:
                assert e.sign() == (1 if approx > 0 else -1)


def test_ring_axioms_random():
    rng = random.Random(29)
    f = real_cyclotomic_field(7)
    rand = lambda: f.element(
        [rng.randint(-8 * 60, 8 * 60) for _ in range(f.degree)])
    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a
        assert a - a == f.zero and a + (-a) == f.zero
        assert (a * b).sign() == a.sign() * b.sign()


def test_mixed_field_arithmetic_rejected():
    f5, f7 = real_cyclotomic_field(5), real_cyclotomic_field(7)
    for op in (lambda x, y: x + y, lambda x, y: x - y,
               lambda x, y: x * y, lambda x, y: x == y,
               lambda x, y: mul_add(x, x, y, y),
               lambda x, y: mul_add(x, y, x, x)):
        with pytest.raises(ValueError):
            op(f5.lam, f7.lam)


def test_operators_coerce_ints_and_equal_fields():
    f = real_cyclotomic_field(7)
    twin = NumberField(7)  # equal to f, built apart
    assert twin is not f and twin == f
    x = f.lam + 2
    assert x - 2 == f.lam and 3 * x == x + x + x and x * 3 == 3 * x
    assert 2 + f.lam == x and x == f.element([2, 1]) and x != 2
    assert x + twin.lam == f.element([2, 2])
    assert x * twin.lam == f.lam * f.lam + 2 * f.lam
    assert mul_add(x, twin.lam, twin.one, x) == x * f.lam + x
    assert x.__add__("lambda") is NotImplemented


def test_mul_add_matches_two_products_and_a_sum():
    rng = random.Random(43)
    for n in range(3, 22, 2):
        f = real_cyclotomic_field(n)
        for _ in range(40):
            bits = rng.choice((2, 30, 200))
            x1, y1, x2, y2 = (f.element([rng.randint(-(1 << bits), 1 << bits)
                                         for _ in range(f.degree)])
                              for _ in range(4))
            assert mul_add(x1, y1, x2, y2) == x1 * y1 + x2 * y2
            assert mul_add(x1, y1, -x1, y1).is_zero()
            assert mul_add(x1, f.one, f.zero, y2) == x1


def _kernel_cases(f, rng) -> list:
    """(x, y, u, v) operands for the product kernel: random coordinates
    up to +-2^200, the zero and unit vectors, and aliased operands."""
    d = f.degree
    big = 1 << 200
    rand = lambda: f.element([rng.randint(-big, big) for _ in range(d)])
    units = [f.element([0] * i + [1]) for i in range(d)]
    x, y = rand(), rand()
    cases = [(rand(), rand(), rand(), rand()) for _ in range(8)]
    cases += [(x, x, x, x), (x, y, y, x), (x, x, -x, x), (x, y, -y, x),
              (f.zero, x, f.zero, y), (x, f.zero, y, f.zero),
              (f.one, x, y, f.one), (f.zero, f.zero, f.zero, f.zero)]
    # every product of two unit vectors at low degree; at high degree
    # each unit vector times the first and the last, which reaches every
    # row of the reduction
    index_pairs = [(i, j) for i in range(d)
                   for j in (range(d) if d <= 10 else (0, d - 1))]
    for i, j in index_pairs:
        cases += [(units[i], units[j], f.zero, f.zero),
                  (f.zero, f.zero, units[i], units[j]),
                  (units[i], units[j], units[j], x)]
    return cases


@pytest.mark.parametrize("n", list(range(3, 22, 2)) + [61, 101])
def test_kernel_matches_loop_reference(n):
    rng = random.Random(47 + n)
    f = real_cyclotomic_field(n)
    for x, y, u, v in _kernel_cases(f, rng):
        fused = mul_add(x, y, u, v)
        assert fused == sum_of_products_by_loop(f, ((x.coeffs, y.coeffs),
                                                    (u.coeffs, v.coeffs)))
        assert all(type(c) is int for c in fused.coeffs)
        assert x * y == sum_of_products_by_loop(f, ((x.coeffs, y.coeffs),))
        assert u * v == sum_of_products_by_loop(f, ((u.coeffs, v.coeffs),))


def test_corrupted_minpoly_fails_certification():
    good = minimal_polynomial(7)
    bumped = list(good)
    bumped[0] += 1
    with pytest.raises(ConstructionFailed):
        NumberField(7, _minpoly=bumped)
    with pytest.raises(ConstructionFailed):
        NumberField(7, _minpoly=[2, 0, 0, 3])  # not monic
    # the genuine polynomial certifies
    assert NumberField(7, _minpoly=good).degree == 3


def test_a_seed_at_a_smaller_root_fails_certification(monkeypatch):
    # psi_7 rises through its smallest root 2 cos(5 pi/7) as through the
    # largest, so the sign test passes there; only the count of the roots
    # above, 3, refuses the window
    psi = minimal_polynomial(7)
    seed = round(2 * cos(5 * pi / 7) * 10 ** 12)
    assert certify_interval_by_fractions(psi, seed, 10 ** 12) is None
    monkeypatch.setattr(numberfield, "cos", lambda x: cos(5 * x))
    with pytest.raises(ConstructionFailed, match="cannot certify"):
        NumberField(7)


def test_minpoly_of_the_wrong_degree_is_rejected():
    # psi * (t + 3) still has 2 cos(pi/7) as its certified largest root,
    # but psi itself would then be a nonzero element of sign 0
    psi = minimal_polynomial(7)
    multiple = [3 * c for c in psi + [0]]
    for i, c in enumerate(psi):
        multiple[i + 1] += c
    with pytest.raises(ConstructionFailed, match="degree 3"):
        NumberField(7, _minpoly=multiple)
    with pytest.raises(ConstructionFailed, match="degree 3"):
        NumberField(7, _minpoly=[-1, 1])
    # the selftest's polynomial has the right degree; certification
    # rejects it
    with pytest.raises(ConstructionFailed, match="cannot certify"):
        NumberField(3, _minpoly=[-2, 1])


# --------------------------------------------------------------------------
# integer coordinates


def test_integer_elements_have_int_coordinates():
    for n in (3, 5, 7, 11):
        f = real_cyclotomic_field(n)
        k = f.element([3, -2, 5, 7, -1][:f.degree])
        values = [f.lam, f.one, f.zero, k, f.lam * f.lam, f.lam + f.one,
                  k * f.lam - 4, (f.lam + k) * (k - f.lam * 3),
                  -k, 2 * k + 1, f.element([True])]
        for v in values:
            assert all(type(c) is int for c in v.coeffs), v


def test_element_takes_integer_coordinates_only():
    f = real_cyclotomic_field(5)
    for bad in ([Fraction(1, 2)], [Fraction(6, 3)], [0.5], [1, 2.0]):
        with pytest.raises(TypeError):
            f.element(bad)
    for operand in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            f.lam + operand
        with pytest.raises(TypeError):
            f.lam * operand
    assert f.lam != Fraction(1, 2)
    # equal elements reached by different computations hash alike
    assert f.lam * f.lam == f.lam + 1
    assert hash(f.lam * f.lam) == hash(f.lam + 1)
    assert len({f.lam * f.lam, f.lam + 1, FieldElement(f, (1, 1))}) == 1


# --------------------------------------------------------------------------
# the sign filter against the exact reference


def _count_fallbacks(monkeypatch):
    """Record each rebuilt bound table, one per doubling of K in sign()."""
    calls = []
    build = numberfield._bound_table

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(numberfield, "_bound_table", counted)
    return calls


def _random_elements(f, rng, count):
    out = []
    for _ in range(count):
        bits = rng.choice((3, 20, 60, 150))
        big = 1 << bits
        out.append(f.element([rng.randint(-big, big)
                              for _ in range(f.degree)]))
        out.append(f.element(_scaled([Fraction(rng.randint(-big, big),
                                               rng.randint(1, 1 << bits))
                                      for _ in range(f.degree)])[0]))
    # products and differences of products cancel to small values
    for _ in range(count // 2):
        a, b, c, d = (rng.choice(out) for _ in range(4))
        out.append(a * b - c * d)
    return out


def _tight_approximation(f, bits=90):
    """(p, q) with p/q within about 2^-(2*bits) of lambda, so that
    q*lambda - p is within about 2^-bits of zero."""
    a, b, q = numberfield._narrowed(f.psi, *f._interval, 2 * bits + 8)
    pq = Fraction(a + b, 2 * q).limit_denominator(1 << bits)
    return pq.numerator, pq.denominator


def _as_fractions(interval):
    a, b, q = interval
    return Fraction(a, q), Fraction(b, q)


# the four points a/q at which the Descartes count is compared
_POINTS = ((-9, 1), (0, 1), (1, 3), (-7, 10))


def _counts_above(psi, points):
    """(Descartes count, Sturm count) of psi's roots above each a/q."""
    chain = sturm_chain_by_fractions(psi)
    return [(numberfield._descartes_count(psi, a, q),
             count_roots_by_fractions(chain, Fraction(a, q)))
            for a, q in points]


def test_descartes_count_matches_the_sturm_count():
    # sparse random polynomials and their squares: Descartes counts complex
    # roots in pairs and repeated roots with multiplicity, Sturm neither,
    # but a count of 0 or 1 is exact; (x^2 + 1)(x - 2) above 0:
    assert _counts_above([-2, 1, -2, 1], [(0, 1)]) == [(3, 1)]
    # from a multiple root, where every member of the undivided chain
    # vanishes: x^2 (x - 2) above 0 and (x - 1)^2 (x - 3) above 1
    assert _counts_above([0, 0, -2, 1], [(0, 1)]) == [(1, 1)]
    assert _counts_above([-3, 7, -5, 1], [(1, 1)]) == [(1, 1)]
    rng = random.Random(61)
    polys = []
    for _ in range(300):
        p = [rng.choice((0, 0, rng.randint(-6, 6)))
             for _ in range(rng.randint(1, 8))] + [rng.choice((-3, -1, 1, 2))]
        polys += [p, pmul(p, p)]
    for psi in polys:
        for count, reference in _counts_above(psi, _POINTS):
            assert count >= reference, psi
            if count <= 1:
                assert count == reference, psi


def test_descartes_count_is_exact_on_minimal_polynomials():
    # totally real and squarefree: every root is counted once
    for n in range(3, 104, 2):
        psi = minimal_polynomial(n)
        seed = round(2 * cos(pi / n) * 10 ** 6)
        points = _POINTS + ((seed - 1, 10 ** 6), (seed + 1, 10 ** 6))
        for count, reference in _counts_above(psi, points):
            assert count == reference, n


def test_integer_bisection_matches_the_fraction_bisection():
    """The certified interval, narrowed interval and bound table against
    the Fraction routes they replaced, the interval against two Sturm
    counts.  n = 251 is the degree-125 ring, checked at the first K only:
    the Fraction bisection to 4K takes about 20 s there."""
    # n = 3 has the rational root lambda = 1, the first midpoint: the
    # (mid, mid) exit.  Bisection is memoryless, so the reference reaches
    # each K from the previous K's interval, not from the start again.
    assert numberfield._narrowed((-1, 1), 1, 3, 2, 128) == (4, 4, 4)
    for n in list(range(3, 104, 2)) + [251]:
        f = real_cyclotomic_field(n)
        psi, d = f.psi, f.degree
        doublings = (1, 2, 4) if n < 251 else (1,)
        # the same seed: 2 cos(pi/n) to 12 decimals
        start = f._certify_interval()
        seed = round(2 * cos(pi / n) * 10 ** 12)
        assert _as_fractions(start) == \
            certify_interval_by_fractions(psi, seed, 10 ** 12), n
        assert numberfield._narrowed(psi, *start, f._bits) == f._interval
        reference = _as_fractions(start)
        for bits in (k * f._bits for k in doublings):
            reference = narrowed_by_fractions(psi, *reference, bits)
            narrowed = numberfield._narrowed(psi, *start, bits)
            assert _as_fractions(narrowed) == reference, (n, bits)
            assert numberfield._bound_table(d, *narrowed, bits) == \
                bound_table_by_fractions(d, *reference, bits), (n, bits)


def test_filter_matches_reference_on_random_elements():
    rng = random.Random(31)
    for n in range(3, 22, 2):
        f = NumberField(n)
        for e in _random_elements(f, rng, 24):
            assert e.sign() == reference_sign(e), (n, e)


def test_near_zero_elements_use_the_exact_fallback(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    for n in range(5, 22, 2):
        f = real_cyclotomic_field(n)
        p, q = _tight_approximation(f)
        near = q * f.lam - p
        for e in (near, -near, near * (f.lam + 7),
                  q * q * f.lam * f.lam - p * p):
            before = len(fallbacks)
            assert e.sign() == reference_sign(e) != 0
            assert len(fallbacks) == before + 1, (n, e)
        tiny = (10 ** 40 * f.lam + 1) - 10 ** 40 * f.lam
        assert tiny.sign() == 1 and (-tiny).sign() == -1


def test_elements_within_2_to_the_minus_300_take_two_doublings(monkeypatch):
    for n in (5, 9, 15, 21):
        f = NumberField(n)
        p, q = _tight_approximation(f, bits=300)
        snapshot = dict(vars(f))
        fallbacks = _count_fallbacks(monkeypatch)
        near = q * f.lam - p
        for e in (near, near * (f.lam - 3), q * q * f.lam * f.lam - p * p):
            before = len(fallbacks)
            assert e.sign() == reference_sign(e) != 0, (n, e)
            assert len(fallbacks) >= before + 2, (n, e)
            assert (-e).sign() == -e.sign()
        monkeypatch.undo()
        assert vars(f) == snapshot
        assert all(vars(f)[k] is v for k, v in snapshot.items())


def test_sign_never_writes_to_the_field(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(37)
    for n in (5, 9, 13):
        f = NumberField(n)
        snapshot = dict(vars(f))
        p, q = _tight_approximation(f)
        near = q * f.lam - p
        queries = _random_elements(f, rng, 12) + [near, -near]
        for e in queries:
            e.sign()
        assert vars(f) == snapshot
        assert all(vars(f)[k] is v for k, v in snapshot.items())
    assert fallbacks


def test_fresh_and_warmed_fields_give_identical_signs():
    rng = random.Random(41)
    for n in (7, 11, 15):
        warm = NumberField(n)
        p, q = _tight_approximation(warm)
        vectors = [e.coeffs for e in _random_elements(warm, rng, 12)]
        vectors += [(-p, q) + (0,) * (warm.degree - 2),
                    (p, -q) + (0,) * (warm.degree - 2)]
        warmed = [warm.element(v).sign() for v in vectors]
        # a second pass on the warmed field and a pass on a fresh one
        assert [warm.element(v).sign() for v in vectors] == warmed
        fresh = NumberField(n)
        assert [fresh.element(v).sign() for v in vectors] == warmed


def test_precision_scales_with_degree(monkeypatch):
    # every benchmark and pinned ring keeps K = 128
    for n in (3, 11, 129):  # degrees 1, 5 and 42
        assert NumberField(n)._bits == 128
    # with K = 128 the bound table's error outgrows 2^-K near degree 120,
    # and each construction-time sign of this realization fell back to a
    # narrowing; with K = 2 * degree the ring's own narrowing is the only one
    narrowings = []
    narrowed = numberfield._narrowed

    def counted(*args):
        narrowings.append(args[-1])
        return narrowed(*args)

    monkeypatch.setattr(numberfield, "_FIELDS", {})
    monkeypatch.setattr(numberfield, "_narrowed", counted)
    real = G1Realization(125)
    assert real.field.degree == 125
    assert narrowings == [250]
