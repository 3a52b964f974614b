"""Property tests of the fast paths against their slow exact routes, run
when Hypothesis is installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from twobridge.cfrac import knot_params  # noqa: E402
from twobridge.groups import Word  # noqa: E402
from twobridge.orders import ConeOracle, g1_realization  # noqa: E402
from reference import decide_by_test_points, lifted_by_powers  # noqa: E402
from test_orders import TABLE_KNOTS  # noqa: E402

# small exponents make central and cancelling syllables common, large ones
# wrap many times around h
g1_words = st.lists(
    st.tuples(st.sampled_from("ab"),
              st.one_of(st.integers(-4, 4), st.integers(-300, 300))),
    max_size=12).map(lambda sylls: Word(tuple(sylls)))

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
    assert real.decide(g) == decide_by_test_points(real, g)


@PROPERTY
@given(knot=st.sampled_from(TABLE_KNOTS), w1=g1_words, w2=g1_words)
def test_product_sign_matches_test_point_reference(knot, w1, w2):
    oracle = ConeOracle(knot_params(*knot), "g1")
    want = decide_by_test_points(oracle._realization,
                                 oracle._realization.lifted(w1 * w2))[0]
    assert oracle.product_sign(w1, w2) is want
