"""Property tests of the fast paths against their slow exact routes, run
when Hypothesis is installed."""

from fractions import Fraction
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from twobridge import lifted, numberfield  # noqa: E402
from twobridge.cfrac import knot_params  # noqa: E402
from twobridge.groups import (Word, g1_normal_form,  # noqa: E402
                              g2_normal_form)
from twobridge.numberfield import mul_add, real_cyclotomic_field  # noqa: E402
from twobridge.orders import (ConeOracle, _magnus_first_sign,  # noqa: E402
                              _t_weight, g1_realization)
from reference import (cocycle_by_evaluation,  # noqa: E402
                       decide_by_test_points, g1_normal_form_by_letters,
                       g2_normal_form_by_letters, lifted_by_powers,
                       magnus_first_sign_by_letters,
                       magnus_first_sign_stepped, moebius_product_entrywise,
                       product_sign, reference_sign, sum_of_products_by_loop,
                       word_product_by_reduce)
from test_orders import TABLE_KNOTS  # noqa: E402

# small exponents make central and cancelling syllables common, large ones
# wrap many times around h
g1_words = st.lists(
    st.tuples(st.sampled_from("ab"),
              st.one_of(st.integers(-4, 4), st.integers(-300, 300))),
    max_size=12).map(lambda sylls: Word(tuple(sylls)))


g2_words = st.lists(
    st.tuples(st.sampled_from("xyz"),
              st.one_of(st.integers(-4, 4), st.integers(-300, 300))),
    max_size=10).map(lambda sylls: Word(tuple(sylls)))


def letter_words(alphabet: str):
    """Words over ``alphabet`` with exponents in -30..30: the letter
    references walk every letter, so the exponents stay small."""
    return st.lists(st.tuples(st.sampled_from(alphabet),
                              st.integers(-30, 30)),
                    max_size=10).map(lambda sylls: Word(tuple(sylls)))


# coordinates: small ones make zeros and cancellation common
coordinates = st.one_of(st.integers(-2, 2), st.integers(-2 ** 200, 2 ** 200))
odd_n = st.sampled_from(range(3, 22, 2))

# derandomized and without an example database, so every run checks the
# same examples and writes no files
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(knot=st.sampled_from(TABLE_KNOTS), w=g1_words)
def test_table_lift_matches_lift_by_powers(knot, w):
    real = g1_realization(knot_params(*knot))
    assert real.lifted(w) == lifted_by_powers(real, w)


@PROPERTY
@given(knot=st.sampled_from(TABLE_KNOTS), w1=g1_words, w2=g1_words)
def test_table_lift_is_a_homomorphism(knot, w1, w2):
    real = g1_realization(knot_params(*knot))
    g1, g2 = real.lifted(w1), real.lifted(w2)
    assert real.lifted(w1 * w2) == g1 * g2
    assert real.lifted(w1.inverse()) == g1.inverse()


@PROPERTY
@given(knot=st.sampled_from(TABLE_KNOTS), w=g1_words)
def test_decide_matches_test_point_reference(knot, w):
    real = g1_realization(knot_params(*knot))
    g = real.lifted(w)
    want = decide_by_test_points(real, g)
    assert real.decide([g]) == want
    assert real.decide(real.factors(w)) == want


@PROPERTY
@given(knot=st.sampled_from(TABLE_KNOTS), w1=g1_words, w2=g1_words)
def test_product_sign_matches_test_point_reference(knot, w1, w2):
    oracle = ConeOracle(knot_params(*knot), "g1")
    want = decide_by_test_points(oracle._realization,
                                 oracle._realization.lifted(w1 * w2))[0]
    assert product_sign(oracle, w1, w2) is want


@st.composite
def field_elements(draw, count):
    """``count`` elements of one ring Z[2 cos(pi/n)], odd n in 3..21."""
    f = real_cyclotomic_field(draw(odd_n))
    coords = st.lists(coordinates, min_size=f.degree, max_size=f.degree)
    return [f.element(draw(coords)) for _ in range(count)]


@settings(PROPERTY, max_examples=80)
@given(ops=field_elements(4))
def test_kernel_matches_loop_reference(ops):
    x, y, u, v = ops
    f = x.field
    assert mul_add(x, y, u, v) == sum_of_products_by_loop(
        f, ((x.coeffs, y.coeffs), (u.coeffs, v.coeffs)))
    assert x * y == sum_of_products_by_loop(f, ((x.coeffs, y.coeffs),))
    # aliased operands
    assert mul_add(x, x, u, u) == sum_of_products_by_loop(
        f, ((x.coeffs, x.coeffs), (u.coeffs, u.coeffs)))


@settings(PROPERTY, max_examples=80)
@given(knot=st.sampled_from(TABLE_KNOTS), w1=g1_words, w2=g1_words)
def test_moebius_product_matches_entrywise_reference(knot, w1, w2):
    real = g1_realization(knot_params(*knot))
    m1, m2 = real.lifted(w1).matrix, real.lifted(w2).matrix
    prod = m1 * m2
    assert (prod.a, prod.b, prod.c, prod.d) == \
        moebius_product_entrywise(m1, m2)


@lru_cache(maxsize=None)
def _near_zero(n, bits):
    """q*lambda - p within about 2^-bits of zero in Z[2 cos(pi/n)]."""
    f = real_cyclotomic_field(n)
    a, b, q = numberfield._narrowed(f.psi, *f._interval, 2 * bits + 8)
    pq = Fraction(a + b, 2 * q).limit_denominator(1 << bits)
    return pq.denominator * f.lam - pq.numerator


# the reference bisects with fractions, slowly for elements near zero
@settings(PROPERTY, max_examples=60)
@given(ops=field_elements(1), bits=st.sampled_from((0, 40, 140)))
def test_sign_matches_reference_sign(ops, bits):
    x, = ops
    if bits:
        # at 140 bits the value is below the filter's 2^-128 relative to
        # its coordinates, so sign() doubles K
        x = _near_zero(x.field.n, bits) * x
    assert x.sign() == reference_sign(x)


@PROPERTY
@given(knot=st.sampled_from(TABLE_KNOTS), w=letter_words("ab"))
def test_g1_normal_form_matches_letter_reference(knot, w):
    params = knot_params(*knot)
    assert g1_normal_form(params, w) == g1_normal_form_by_letters(params, w)


@PROPERTY
@given(knot=st.sampled_from(TABLE_KNOTS), w=letter_words("xyz"))
def test_g2_normal_form_matches_letter_reference(knot, w):
    params = knot_params(*knot)
    assert g2_normal_form(params, w) == g2_normal_form_by_letters(params, w)


@PROPERTY
@given(knot=st.sampled_from(TABLE_KNOTS), w1=g2_words, w2=g2_words,
       c=g2_words, cut=st.integers(0, 10))
def test_g2_pi_and_t_follow_the_product_and_conjugate_rules(knot, w1, w2,
                                                            c, cut):
    params = knot_params(*knot)

    def pi_t(w):
        e = g2_normal_form(params, w)
        return e.xpow, _t_weight(abs(params.b2), e)

    # w2 starts by undoing a suffix of w1, so whole syllables cancel
    w2 = word_product_by_reduce(Word(w1.syllables[cut:]).inverse(), w2)
    (p1, t1), (p2, t2), (pc, _) = pi_t(w1), pi_t(w2), pi_t(c)
    assert pi_t(word_product_by_reduce(w1, w2)) == \
        (p1 + p2, (-t1 if p2 % 2 else t1) + t2)
    assert pi_t(c * w2 * c.inverse())[0] == p2
    # w2 moved into ker pi by removing its x-exponent
    f = word_product_by_reduce(w2, Word((("x", -p2),)))
    tf = pi_t(f)[1]
    assert pi_t(word_product_by_reduce(word_product_by_reduce(c, f),
                                       c.inverse())) == \
        (0, -tf if pc % 2 else tf)


@PROPERTY
@given(knot=st.sampled_from(TABLE_KNOTS), w1=g1_words, w2=g1_words)
def test_cocycle_matches_evaluation_reference(knot, w1, w2):
    real = g1_realization(knot_params(*knot))
    m1, m2 = real.lifted(w1).matrix, real.lifted(w2).matrix
    prod = m1 * m2
    assert lifted._cocycle(m1, m2, prod) == \
        cocycle_by_evaluation(m1, m2, prod)


def _reduced(letters):
    word = []
    for t, e in letters:
        if word and word[-1] == (t, -e):
            word.pop()
        else:
            word.append((t, e))
    return word


@st.composite
def kernel_letters(draw):
    """A nonempty freely reduced word over four Schreier-basis tokens."""
    tokens = [(1, 1, 0), (1, 1, 1), (1, -1, 2), (2, 2, 0)]
    word = _reduced(draw(st.lists(st.tuples(st.sampled_from(tokens),
                                            st.sampled_from((1, -1))),
                                  min_size=1, max_size=10)))
    hypothesis.assume(word)
    return word


@PROPERTY
@given(word=kernel_letters())
def test_sparse_magnus_matches_stepped_dense_reference(word):
    syllables = 1 + sum(t1 != t2 for (t1, _), (t2, _) in zip(word, word[1:]))
    assert _magnus_first_sign(word, syllables) == \
        magnus_first_sign_stepped(word, syllables)


def _letter_commutator(u, v):
    return _reduced(u + v + [(t, -e) for t, e in reversed(u)] +
                    [(t, -e) for t, e in reversed(v)])


@st.composite
def long_kernel_letters(draw):
    """A nonempty freely reduced word of up to 40 letters over up to six
    Schreier-basis tokens: a drawn word u, or [u, v], or [[u, v], v], of
    drawn words short enough to stay within 40 letters.  A commutator
    has no degree-1 term, and a nested one none of degree 2 either."""
    tokens = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3),
                                     st.integers(0, 2)),
                           min_size=1, max_size=6, unique=True))
    nesting = draw(st.sampled_from((0, 1, 2)))
    u, v = (draw(st.lists(st.tuples(st.sampled_from(tokens),
                                    st.sampled_from((1, -1))),
                          min_size=1, max_size=(40, 10, 4)[nesting]))
            for _ in range(2))
    word = _reduced(u)
    for _ in range(nesting):
        word = _letter_commutator(word, v)
    hypothesis.assume(word)
    return word


@PROPERTY
@given(word=long_kernel_letters())
def test_magnus_kernel_matches_the_letter_loop(word):
    syllables = 1 + sum(t1 != t2 for (t1, _), (t2, _) in zip(word, word[1:]))
    assert _magnus_first_sign(word, syllables) == \
        magnus_first_sign_by_letters(word, syllables)
