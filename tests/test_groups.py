import random

import pytest

from twobridge.cfrac import knot_params
from twobridge.errors import ParseError
from twobridge.groups import (G1Element, G2Element, W, Word,
                              g1_normal_form, g2_inverse, g2_normal_form,
                              g2_product, peripheral_word, presentations)
from reference import (g1_element_word, g1_normal_form_by_letters,
                       g2_element_word, g2_normal_form_by_letters, letters_of,
                       word_product_by_reduce)

KNOTS = [knot_params(3, 4), knot_params(3, -4),
         knot_params(5, 4), knot_params(7, -6)]
KNOTS_8 = KNOTS + [knot_params(c1, c2) for c1, c2 in
                   ((3, 6), (5, -6), (9, 8), (11, -10))]


def random_word(rng, alphabet, max_len=12):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.choice(alphabet), rng.choice((1, -1))))
    return Word(tuple(letters))


# ------------------------------------------------------------- words

def test_word_parse_and_str():
    w = W("b^-1 a a")
    assert w.syllables == (("b", -1), ("a", 2))
    assert str(w) == "b^-1 a^2"
    assert str(W("")) == "1"
    assert W("a a^-1").is_identity()


def test_word_str_parses_back():
    assert W("1") == Word() and W("a 1 b") == W("a b")
    assert W(str(Word())) == Word()
    rng = random.Random(11)
    for _ in range(300):
        w = Word(tuple((rng.choice("abxyz"), rng.choice((-1, 1)) *
                        rng.randint(1, 40))
                       for _ in range(rng.randint(0, 8))))
        assert W(str(w)) == w


def test_word_parse_errors():
    for bad in ("a^", "^2", "a^x", "a-b", "a^1.5"):
        with pytest.raises(ParseError):
            W(bad)


def test_word_parse_takes_only_ascii_decimal_exponents():
    # int() alone would read these as x^10, x^3, x^3 and x^-2
    for bad in ("x^1_0", "x^\u0663", "x^\uff13", "x^-\u0662", "x^+-1",
                "x^--1", "x^-", "x^+", "x^1e3", "x^0x1"):
        with pytest.raises(ParseError):
            W(bad)
    assert W("x^+3") == W("x^3") == W("x^003")
    assert W("x^-12 z^0") == Word((("x", -12),))


def test_free_reduction():
    assert W("a a^-1").syllables == ()
    assert (W("a") * W("b b^-1") * W("a")).syllables == (("a", 2),)
    assert (W("b^2") * W("b^3")).syllables == (("b", 5),)
    assert W("a b b^-1 a") == W("a^2")


def _seam_pairs(rng, alphabet, count):
    """(w1, w2) pairs where w2 starts by undoing a suffix of w1, so the
    seam cancels whole syllables and then may merge one more."""
    pairs = [(W("a b a^-1"), W("a b^-1")), (W("a b^2"), W("b^-2 a^-1 b")),
             (W("a^3 b"), W("b^-1 a^-3")), (W("b^-1 a"), W("a^-1 b^2 a"))]
    for _ in range(count):
        w1 = random_word(rng, alphabet)
        w2 = random_word(rng, alphabet)
        cut = rng.randint(0, len(w1.syllables))
        undo = Word(w1.syllables[cut:]).inverse()
        pairs += [(w1, w1.inverse()), (w1, w2),
                  (w1, word_product_by_reduce(undo, w2))]
    return pairs


def test_word_product_matches_reduce_reference():
    rng = random.Random(31)
    for w1, w2 in _seam_pairs(rng, ("a", "b"), 400) + \
            _seam_pairs(rng, ("x", "y", "z"), 400):
        got = w1 * w2
        assert got.syllables == word_product_by_reduce(w1, w2).syllables
        assert Word(got.syllables).syllables == got.syllables
    assert (W("a b a^-1") * W("a b^-1")).syllables == (("a", 1),)
    w = W("x^3 z^-2 y x^-1")
    assert (w * w.inverse()).syllables == ()


def test_word_algebra():
    w = W("b^-1 a")
    assert (w * w.inverse()).is_identity()
    assert w ** 0 == Word()
    assert w ** 3 == w * w * w
    assert w ** -2 == (w.inverse()) ** 2
    assert W("a") * w * W("a").inverse() == W("a b^-1")
    assert len(W("b^-2 a")) == 3


# ---------------------------------------------------------- presentations

def test_presentations_34():
    p1, p2, pm, glue = presentations(knot_params(3, 4))
    assert p1.as_dict() == {"generators": ["a", "b"],
                            "relators": ["a^2 b^-3"]}
    assert p2.as_dict()["relators"] == ["x^-1 y x y", "y z^-2"]
    assert pm.as_dict()["relators"] == [
        "x^-1 y x y", "y z^-2", "a^2 b^-3", "b^-1 a y^-1", "a^2 x^-2 z^-1"]
    assert glue.mu == W("b^-1 a") and glue.h == W("a^2")
    assert glue.mu_image == W("y") and glue.h_image == W("z x^2")


def test_presentations_5_minus4():
    _, p2, pm, _ = presentations(knot_params(5, -4))
    assert pm.as_dict()["relators"][3] == "b^-2 a y^-1"
    assert p2.as_dict()["relators"][1] == "y z^2"


def test_peripheral_words():
    k = knot_params(5, 4)
    assert peripheral_word(k, "g1", 1, 0) == W("b^-2 a")
    assert peripheral_word(k, "g2", 0, 1) == W("z x^2")
    assert peripheral_word(k, "g1", 0, 0).is_identity()
    assert peripheral_word(k, "g1", 0, 2) == W("a^4")
    assert peripheral_word(k, "g2", -1, 1) == W("y^-1 z x^2")


# ---------------------------------------------------------------- G1

def test_g1_central_identities():
    for k in KNOTS:
        n = 2 * k.b1 + 1
        h = g1_normal_form(k, W("a a"))
        assert h == G1Element((), 1)
        assert g1_normal_form(k, W("b^%d" % n)) == G1Element((), 1)
        assert g1_normal_form(k, W("a^2 b^%d" % (-n))).is_identity()
        assert g1_normal_form(k, W("a^-2")) == G1Element((), -1)
        assert g1_normal_form(k, W("b^%d" % (-n))) == G1Element((), -1)


def test_g1_nonabelian():
    k = knot_params(3, 4)
    comm = W("a b a^-1 b^-1")
    assert not g1_normal_form(k, comm).is_identity()


def test_g1_tietze_round_trip():
    # c = b a^-1 satisfies b = c b^(2 b1) c in G1
    for k in KNOTS:
        c = W("b a^-1")
        lhs = c * W("b") ** (2 * k.b1) * c * W("b^-1")
        assert g1_normal_form(k, lhs).is_identity()


def test_g1_alphabet_check():
    with pytest.raises(ParseError):
        g1_normal_form(knot_params(3, 4), W("a x"))


def test_g1_normal_form_shape():
    k = knot_params(5, 4)  # n = 5
    e = g1_normal_form(k, W("b^7"))
    assert e == G1Element((("b", 2),), 1)
    e = g1_normal_form(k, W("a b^-1"))
    assert e == G1Element((("a", 1), ("b", 4)), -1)


def test_g1_relator_insertion_soundness():
    rng = random.Random(11)
    for k in KNOTS:
        n = 2 * k.b1 + 1
        relator = W("a a b^%d" % (-n))
        for _ in range(2500):
            w = random_word(rng, ("a", "b"))
            r = relator if rng.random() < 0.5 else relator.inverse()
            g = random_word(rng, ("a", "b"), max_len=4)
            ins = letters_of(g * r * g.inverse())
            letters = letters_of(w)
            cut = rng.randint(0, len(letters))
            w2 = Word(tuple(letters[:cut] + ins + letters[cut:]))
            assert g1_normal_form(k, w2) == g1_normal_form(k, w)


def test_g1_homomorphy_and_word_round_trip():
    rng = random.Random(13)
    for k in KNOTS:
        for _ in range(400):
            w1 = random_word(rng, ("a", "b"))
            w2 = random_word(rng, ("a", "b"))
            n1, n2 = g1_normal_form(k, w1), g1_normal_form(k, w2)
            direct = g1_normal_form(k, w1 * w2)
            via = g1_normal_form(k, g1_element_word(n1) * g1_element_word(n2))
            assert direct == via
            assert g1_normal_form(k, g1_element_word(n1)) == n1


def test_g1_normal_form_matches_letter_reference():
    rng = random.Random(29)
    for k in KNOTS_8:
        for _ in range(300):
            w = Word(tuple((rng.choice("ab"), rng.choice((-1, 1)) *
                            rng.choice((1, 2, 3, 7, 11, 60, 250)))
                           for _ in range(rng.randint(0, 9))))
            assert g1_normal_form(k, w) == g1_normal_form_by_letters(k, w)


# ---------------------------------------------------------------- G2

def test_g2_relators_die():
    for k in KNOTS:
        assert g2_normal_form(k, W("y z^%d" % (-k.b2))).is_identity()
        assert g2_normal_form(k, W("x^-1 y x y")).is_identity()


def test_g2_example_fixture():
    k = knot_params(3, 4)
    # z x z x^-1 = z_0 z_(-1) with z_i = x^-i z x^i
    e = g2_normal_form(k, W("z x z x^-1"))
    assert e == G2Element(xpow=0, tail=((0, 1), (-1, 1)), central=0)
    assert not e.is_identity()


def test_g2_y_and_blocks():
    k = knot_params(3, 4)  # b2 = 2, beta = 2
    assert g2_normal_form(k, W("y")) == G2Element(0, (), 1)
    assert g2_normal_form(k, W("z^2")) == G2Element(0, (), 1)
    assert g2_normal_form(k, W("z^-2")) == G2Element(0, (), -1)
    assert g2_normal_form(k, W("z")) == G2Element(0, ((0, 1),), 0)
    assert g2_normal_form(k, W("z^3")) == G2Element(0, ((0, 1),), 1)
    # x z^2 x^-1 = z_(-1)^2 = w0^-1
    assert g2_normal_form(k, W("x z^2 x^-1")) == G2Element(0, (), -1)
    km = knot_params(3, -4)  # b2 = -2
    assert g2_normal_form(km, W("y")) == G2Element(0, (), -1)
    assert g2_normal_form(km, W("y z^2")).is_identity()


def test_g2_xpow():
    k = knot_params(3, 4)
    assert g2_normal_form(k, W("z x^2")).xpow == 2
    assert g2_normal_form(k, W("x^-3 z x^2")) == \
        g2_normal_form(k, W("x^-1 x^-2 z x^2"))


def test_g2_alphabet_check():
    with pytest.raises(ParseError):
        g2_normal_form(knot_params(3, 4), W("x a"))


def test_g2_relator_insertion_soundness():
    rng = random.Random(17)
    for k in KNOTS:
        relators = [W("x^-1 y x y"), W("y z^%d" % (-k.b2))]
        for _ in range(2500):
            w = random_word(rng, ("x", "y", "z"))
            r = rng.choice(relators)
            if rng.random() < 0.5:
                r = r.inverse()
            g = random_word(rng, ("x", "y", "z"), max_len=4)
            ins = letters_of(g * r * g.inverse())
            letters = letters_of(w)
            cut = rng.randint(0, len(letters))
            w2 = Word(tuple(letters[:cut] + ins + letters[cut:]))
            assert g2_normal_form(k, w2) == g2_normal_form(k, w)


def test_g2_normal_form_matches_letter_reference():
    rng = random.Random(23)
    for k in KNOTS_8:
        for _ in range(300):
            w = Word(tuple((rng.choice("xyz"), rng.choice((-1, 1)) *
                            rng.choice((1, 2, 3, 17, 60, 251)))
                           for _ in range(rng.randint(0, 9))))
            assert g2_normal_form(k, w) == g2_normal_form_by_letters(k, w)


def test_g2_homomorphy_and_word_round_trip():
    rng = random.Random(19)
    for k in KNOTS:
        for _ in range(400):
            w1 = random_word(rng, ("x", "y", "z"))
            w2 = random_word(rng, ("x", "y", "z"))
            n1, n2 = g2_normal_form(k, w1), g2_normal_form(k, w2)
            direct = g2_normal_form(k, w1 * w2)
            via = g2_normal_form(
                k, g2_element_word(k, n1) * g2_element_word(k, n2))
            assert direct == via
            assert g2_normal_form(k, g2_element_word(k, n1)) == n1


def _g2_words(rng, count):
    """Random words over x, y, z with small exponents (cancellation) and
    large ones (wrapping modulo beta many times)."""
    return [Word(tuple((rng.choice("xyz"), rng.choice((-1, 1)) *
                        rng.choice((1, 1, 2, 3, 7, 60)))
                       for _ in range(rng.randint(0, 7))))
            for _ in range(count)]


def test_g2_product_and_inverse_match_concatenated_words():
    rng = random.Random(41)
    one = G2Element(0, (), 0)
    for k in KNOTS_8 + [knot_params(5, 8), knot_params(-5, 4)]:
        words = _g2_words(rng, 150)
        pairs = list(zip(words, words[1:]))
        # seams that cancel whole syllables: w2 undoes a suffix of w1
        pairs += [(w1, word_product_by_reduce(
            Word(w1.syllables[rng.randint(0, len(w1.syllables)):]).inverse(),
            w2)) for w1, w2 in pairs[:100]]
        pairs += [(w, w.inverse()) for w in words[:30]]
        pairs += [(W("y"), W("y^%d" % e)) for e in (-3, -1, 1, 2, 5)]
        for w1, w2 in pairs:
            e1, e2 = g2_normal_form(k, w1), g2_normal_form(k, w2)
            assert g2_product(k, e1, e2) == g2_normal_form(
                k, word_product_by_reduce(w1, w2)), (str(w1), str(w2))
            inv = g2_inverse(k, e1)
            assert inv == g2_normal_form(k, w1.inverse()), str(w1)
            assert g2_product(k, e1, inv) == one == g2_product(k, inv, e1)
            assert g2_product(k, e1, one) == e1 == g2_product(k, one, e1)


def test_g2_product_carries_at_the_seam():
    k = knot_params(3, 4)  # beta = 2
    z, zi = G2Element(0, ((0, 1),), 0), G2Element(0, ((1, 1),), 0)
    assert g2_product(k, z, z) == G2Element(0, (), 1)  # z_0^2 = w0
    assert g2_product(k, zi, zi) == G2Element(0, (), -1)  # z_1^2 = w0^-1
    # z_0 z_1 times z_1 z_0: the seam merges twice, carrying -1 then +1
    e = G2Element(0, ((0, 1), (1, 1)), 0)
    assert g2_product(k, e, g2_inverse(k, e)).is_identity()
    assert g2_product(k, e, G2Element(0, ((1, 1), (0, 1)), 0)) == \
        G2Element(0, (), 0)
    # x^-1 z_0 x = z_1 and x w0 x^-1 = w0^-1: an odd shift flips w0
    x = G2Element(1, (), 0)
    assert g2_product(k, G2Element(0, ((0, 1),), 2), x) == \
        G2Element(1, ((1, 1),), -2)
    assert g2_inverse(k, G2Element(1, ((0, 1),), 2)) == \
        g2_normal_form(k, W("z^-4 z^-1 x^-1"))
    km = knot_params(3, -4)  # b2 < 0: y = z^2 w0^-2 = w0^-1
    y = g2_normal_form(km, W("y"))
    assert g2_product(km, y, g2_normal_form(km, W("z^2"))).is_identity()


# ------------------------------------------------- peripheral subgroups

def test_peripheral_faithfulness():
    for k in KNOTS:
        for r in range(-6, 7):
            for s in range(-6, 7):
                triv1 = g1_normal_form(
                    k, peripheral_word(k, "g1", r, s)).is_identity()
                triv2 = g2_normal_form(
                    k, peripheral_word(k, "g2", r, s)).is_identity()
                assert triv1 == ((r, s) == (0, 0))
                assert triv2 == ((r, s) == (0, 0))


def test_gluing_consistency():
    for k in KNOTS:
        _, _, _, glue = presentations(k)
        assert g2_normal_form(k, glue.mu_image) == g2_normal_form(k, W("y"))
        assert g2_normal_form(k, glue.h_image) == g2_normal_form(k, W("z x x"))
        assert g2_normal_form(k, glue.apply(2, -1)) == \
            g2_normal_form(k, W("y y x^-2 z^-1"))
