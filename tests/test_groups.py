import random

import pytest

from twobridge.cfrac import knot_params
from twobridge.errors import ParseError
from twobridge.groups import (_INVERSE, _SHARED, G1Element, G2Element, W,
                              Word, ball, g1_normal_form, g2_normal_form,
                              parse_int, peripheral_word, presentations,
                              random_reduced_word)
from twobridge.orders import _t_weight
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


def test_parse_int_takes_a_sign_and_ascii_digits():
    for bad in ("1_0", "\u0663", "-\u0661", " 3", "3 ", "", "+", "+-1",
                "0x1", "1e3"):
        with pytest.raises(ParseError):
            parse_int(bad)
    assert [parse_int(t) for t in ("-4", "+3", "007", "0")] == [-4, 3, 7, 0]


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


def test_word_power_by_squaring_matches_repeated_products():
    rng = random.Random(53)
    words = [random_reduced_word(rng, alphabet, 9)
             for alphabet in (("a", "b"), ("x", "y", "z")) for _ in range(30)]
    words += [W("a b a^-1"), W("b^-3"), Word()]
    for w in words:
        for n in range(-7, 8):
            base = w if n >= 0 else w.inverse()
            expected = Word()
            for _ in range(abs(n)):
                expected = expected * base
            got = w ** n
            assert got.syllables == expected.syllables, (w, n)
            assert Word(got.syllables).syllables == got.syllables


def test_every_syllable_is_the_tables_entry():
    # generators p, q, r, s occur nowhere else, so their syllables enter a
    # cold table here, through the path under test
    rng = random.Random(41)
    words = [W("p^3 q^-2 p"), Word((("q", 2), ("q", -5), ("p", 7))),
             W("p q^2") * W("q^3 p"), W("p q^-1") * W("q p^4"),
             W("r^-2 s") ** 3, W("s^2 r^5") ** -2, W("r^6 s^-9").inverse(),
             random_reduced_word(rng, ("r", "s"), 12)]
    words += ball(("p", "q"), 3) + ball(("r", "s"), 2)
    words += [peripheral_word(k, side, r, s) for k in KNOTS_8
              for side in ("g1", "g2") for r in (-2, 0, 3) for s in (-1, 2)]
    words += [w.inverse() for w in words]
    for w in words:
        for syl in w.syllables:
            assert _SHARED[syl] is syl, (w, syl)
            assert _INVERSE[_INVERSE[syl]] is syl


def test_word_exponents_are_ints():
    with pytest.raises(TypeError):
        Word([("a", 1.5), ("b", 1)])
    # equal to a syllable already in the table, and still not an int
    assert ("a", 1) in _SHARED
    for bad in ([("a", 1.0)], [("a", 0.5), ("a", 0.5)], [("b", 2.0)]):
        with pytest.raises(TypeError):
            Word(bad)
    # a bool entered first is stored as an int: t occurs nowhere else
    assert ("t", 1) not in _SHARED
    w = Word([("t", True), ("u", 2), ("t", False)])
    assert w.syllables == (("t", 1), ("u", 2)) and str(w) == "t u^2"
    for word in (w, Word([("t", 1)]), W("t"), w.inverse()):
        assert all(type(e) is int for _, e in word.syllables)
    nf = g1_normal_form(knot_params(3, 4), Word([("a", True), ("b", 4)]))
    assert nf == G1Element(delta=(("a", 1), ("b", 1)), central=1)
    assert all(type(e) is int for _, e in nf.delta)


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
    # the spelled bases, parsed as the presentation writes them
    for k in KNOTS_8:
        mu, h = W("b^%d a" % -k.b1), W("a a")
        for r in range(-3, 4):
            for s in range(-3, 4):
                assert peripheral_word(k, "g1", r, s) == mu ** r * h ** s
                assert peripheral_word(k, "g2", r, s) == \
                    W("y") ** r * W("z x x") ** s


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


def test_alphabet_errors_name_every_foreign_generator_sorted():
    k = knot_params(3, 4)
    with pytest.raises(ParseError) as e1:
        g1_normal_form(k, W("a q b x a"))
    assert str(e1.value) == "G1 words use generators a, b only, got q, x"
    with pytest.raises(ParseError) as e2:
        g2_normal_form(k, W("x z w y a z"))
    assert str(e2.value) == "G2 words use generators x, y, z only, got a, w"


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


def _pi_t(k, w):
    """The layer-1 and layer-2 invariants of w: x-exponent and weight."""
    e = g2_normal_form(k, w)
    return e.xpow, _t_weight(abs(k.b2), e)


def _product_rule(k, w1, w2):
    """(pi, t) of w1 w2 from those of its factors: pi adds, and t adds
    after w1's weight is twisted by the parity of w2's x-exponent."""
    (p1, t1), (p2, t2) = _pi_t(k, w1), _pi_t(k, w2)
    return p1 + p2, (-t1 if p2 % 2 else t1) + t2


def _conjugate_rule(k, c, f):
    """(pi, t) of c f c^-1 for f in ker pi: t twisted by the parity of
    c's x-exponent."""
    (pc, _), (pf, tf) = _pi_t(k, c), _pi_t(k, f)
    assert pf == 0
    return 0, -tf if pc % 2 else tf


def test_g2_products_and_conjugates_follow_the_pi_and_t_rules():
    rng = random.Random(41)
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
            assert _pi_t(k, word_product_by_reduce(w1, w2)) == \
                _product_rule(k, w1, w2), (str(w1), str(w2))
            conj = word_product_by_reduce(
                word_product_by_reduce(w1, w2), w1.inverse())
            assert _pi_t(k, conj)[0] == _pi_t(k, w2)[0]
            # w2 moved into ker pi by removing its x-exponent
            f = w2 * Word((("x", -_pi_t(k, w2)[0]),))
            conj = word_product_by_reduce(
                word_product_by_reduce(w1, f), w1.inverse())
            assert _pi_t(k, conj) == _conjugate_rule(k, w1, f), \
                (str(w1), str(f))


def test_g2_rules_hold_across_carries_at_the_seam():
    k = knot_params(3, 4)  # beta = 2
    z0, z1 = W("z"), W("x^-1 z x")
    # z_0^2 = w0 and z_1^2 = w0^-1: the seam carries into w0
    assert g2_normal_form(k, z0 * z0) == G2Element(0, (), 1)
    assert g2_normal_form(k, z1 * z1) == G2Element(0, (), -1)
    assert _pi_t(k, z0 * z0) == _product_rule(k, z0, z0) == (0, 2)
    assert _pi_t(k, z1 * z1) == _product_rule(k, z1, z1) == (0, -2)
    # z_0 z_1 times z_1 z_0: the seam merges twice, carrying -1 then +1
    e, e_rev = z0 * z1, z1 * z0
    assert g2_normal_form(k, e * e_rev).is_identity()
    assert _product_rule(k, e, e_rev) == (0, 0)
    assert _pi_t(k, e * z0 * e.inverse()) == _conjugate_rule(k, e, z0)
    # x^-1 z_0 x = z_1 and x w0 x^-1 = w0^-1: an odd shift flips w0
    z5 = W("z^5")  # z_0 w0^2
    assert g2_normal_form(k, z5 * W("x")) == G2Element(1, ((1, 1),), -2)
    assert _pi_t(k, z5 * W("x")) == _product_rule(k, z5, W("x")) == (1, -5)
    assert _pi_t(k, W("x z^5 x^-1")) == _conjugate_rule(k, W("x"), z5) \
        == (0, -5)
    km = knot_params(3, -4)  # b2 < 0: y = z^-2 = w0^-1
    assert g2_normal_form(km, W("y z^2")).is_identity()
    assert _product_rule(km, W("y"), W("z^2")) == (0, 0)
    # x y x^-1 = y^-1
    assert _pi_t(km, W("x y x^-1")) == _conjugate_rule(km, W("x"), W("y")) \
        == (0, 2)


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
        assert g2_normal_form(k, peripheral_word(k, "g2", 2, -1)) == \
            g2_normal_form(k, W("y y x^-2 z^-1"))
