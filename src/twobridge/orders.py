"""Total positive-cone oracles for the two surgery-piece groups.

G1 = <a, b | a^2 = b^(2*b1+1)> is ordered dynamically: the quotient by the
center is realized as the rotation subgroup of a Hecke-type triangle group
acting on the boundary circle, the action is lifted to the universal cover
with exact winding bookkeeping, and a word's sign is the direction it moves
the first of two test points it does not fix.  Point 0 is the boundary
fixed point of the lifted meridian mu~, which the construction checks
exactly; its stabilizer is <mu~>, and mu~^r moves point 1 = [1:1] for
r != 0, so the two points separate every element.  A point moves right to
left through a list of table lifts, with no matrix product, and stops once
its final level is bounded off the start level: lift0(m) T1^k sends level
L into levels L+k..L+k+1, so most signs are known before any point moves.
Every point is a cover point of ``twobridge.lifted``, a coordinate tuple
(level, u, v, finite) moved by ``lifted.lift0_apply`` and compared only
through ``lifted.cover_cmp``, so the walk builds no ring element.

G2 = <x, y, z | x^-1 y x y, y z^-b2> is ordered by a three-layer
lexicographic tower:

* layer 1: sign of the x-exponent homomorphism pi;
* layer 2: on ker pi, sign of the weight t sending z_i = x^-i z x^i to
  (-1)^i (well defined on the kernel relations);
* layer 3: on ker t, which is free, the Magnus power-series order (first
  nonzero coefficient in graded-lexicographic order) after rewriting in an
  explicit Schreier basis, searched by ``twobridge.magnus`` up to the
  least degree with a nonzero coefficient, which is at most the syllable
  count of the reduced word.

A word's pi and t are read from its syllables in one pass, and its normal
form is built only when both vanish, for the identity test and layer 3.

``G1Oracle`` and ``G2Oracle`` give these two orders, one class per group
over the shared base ``ConeOracle``; ``ConeOracle(params, group)`` builds
the group's class.  Both oracles are total and exact.  Their conjugates
form the normal families used by the certification harness; a family
member is named by its conjugator c alone, and w is positive in it when
c w c^-1 is positive in the base order.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat

from .cfrac import TwoBridgeParams
from .errors import ConstructionFailed, InternalCheckFailed, ParseError
from .groups import (G1Element, G2Element, Word, foreign_generators,
                     g1_normal_form, g2_normal_form, peripheral_box)
from .lifted import (LiftedMoebius, cover_cmp, lift0_apply,
                     order_n_rotation, order_two_rotation)
from .magnus import _magnus_first_sign, _schreier_letters
from .numberfield import real_cyclotomic_field


class Sign(Enum):
    POSITIVE = 1
    IDENTITY = 0
    NEGATIVE = -1

    @property
    def label(self) -> str:
        return self.name.capitalize()

    def flipped(self) -> "Sign":
        return Sign(-self.value)


def _sign_of_int(k: int) -> Sign:
    return Sign.POSITIVE if k > 0 else (Sign.NEGATIVE if k < 0 else
                                        Sign.IDENTITY)


# --------------------------------------------------------------------------
# the two orders on the peripheral lattice


class Z2Order(Enum):
    PLUS_FIRST = "PlusFirst"
    MINUS_FIRST = "MinusFirst"


def z2_is_positive(order: Z2Order, vec: tuple[int, int]) -> Sign:
    """Sign of the lattice vector (r, s): the second coordinate dominates;
    ties at s == 0 break by r, with direction set by the variant."""
    r, s = vec
    if s:
        return _sign_of_int(s)
    if r == 0:
        return Sign.IDENTITY
    if order is Z2Order.PLUS_FIRST:
        return _sign_of_int(r)
    return _sign_of_int(-r)


# --------------------------------------------------------------------------
# G1: exact lifted circle action


class G1Realization:
    """Exact lifted generators for G1 over Z[2 cos(pi/n)], n = 2*b1 + 1.

    a maps to the half turn S, b to the square of the order-n rotation R
    (squaring is an automorphism of the cyclic factor since n is odd, so the
    quotient representation stays faithful).  Lifts are chosen so that the
    central element h = a^2 = b^n lifts to the deck translation T1^(2*b1-1);
    at b1 = 1 this is T1 itself.  All identities are checked exactly at
    construction, as is the fixed point of the lifted meridian image.
    """

    __slots__ = ("b1", "n", "field", "a_lift", "b_lift", "h_lift", "mu_lift",
                 "test_points", "_powers", "_pairs")

    def __init__(self, b1: int):
        if b1 < 1:
            raise ValueError("b1 must be >= 1, got %r" % (b1,))
        self.b1 = b1
        self.n = n = 2 * b1 + 1
        self.field = f = real_cyclotomic_field(n)
        s = order_two_rotation(f)
        r = order_n_rotation(f)
        if not (LiftedMoebius.lift0(r) ** n).matrix.is_identity():
            raise ConstructionFailed(
                "order-n rotation has wrong order for n=%d" % n)
        lifted_s = LiftedMoebius.lift0(s)
        t1 = LiftedMoebius.translation(f, 1)
        if lifted_s * lifted_s != t1:
            raise ConstructionFailed("lifted half turn squared is not T1")
        self.a_lift = lifted_s * LiftedMoebius.translation(f, b1 - 1)
        self.b_lift = LiftedMoebius.lift0(r * r)
        self.h_lift = LiftedMoebius.translation(f, 2 * b1 - 1)
        if self.a_lift * self.a_lift != self.h_lift:
            raise ConstructionFailed("a~^2 != T1^(2*b1-1)")
        if self.b_lift ** n != self.h_lift:
            raise ConstructionFailed("b~^(2*b1+1) != T1^(2*b1-1)")
        # meridian mu = b^-b1 a
        self.mu_lift = (self.b_lift ** (-b1)) * self.a_lift
        tr = self.mu_lift.matrix.trace()
        if not (tr * tr - 4).is_zero():
            raise ConstructionFailed("meridian image is not parabolic")
        if self.mu_lift.matrix.is_identity():
            raise ConstructionFailed("meridian image is trivial")
        p0 = (0, f.zero.coeffs, f.one.coeffs, True)
        if cover_cmp(f, self.mu_lift.apply(p0), p0) != 0:
            raise ConstructionFailed(
                "lifted meridian does not fix its boundary fixed point")
        self.test_points = (p0, (0, f.one.coeffs, f.one.coeffs, True))
        # b~^r and a~ b~^r for 0 <= r < n; b~^n = h~ was checked above
        powers = [LiftedMoebius.translation(f, 0)]
        for _ in range(1, n):
            powers.append(powers[-1] * self.b_lift)
        self._powers = tuple(powers)
        self._pairs = tuple(self.a_lift * p for p in powers)

    def factors(self, w: Word) -> list[LiftedMoebius]:
        """Table lifts, left to right, whose product is the lift of a word
        over {a, b}.

        A syllable g^e is g~^(e mod order) times h~^(e div order), with
        order 2 for a and n for b; h~ = T1^(2*b1-1) is central, so its
        winding is added once, to the first factor.  An odd a-syllable
        waits for the next b-syllable with a nonzero residue r and enters
        with it as one factor a~ b~^r; a second odd a-syllable before that
        pairs with the waiting one as a~ a~ = h~.  So a word gives one
        factor b~^r or a~ b~^r per such b-syllable, plus a~ for an a~
        still waiting at the end."""
        out = []
        n = self.n
        wraps = 0
        waiting = False  # an odd a-syllable not yet placed in a factor
        for gen, e in w.syllables:
            if gen == "a":
                q, r = divmod(e, 2)
                if r:
                    if waiting:
                        q += 1  # a~ a~ = h~
                    waiting = not waiting
            elif gen == "b":
                q, r = divmod(e, n)
                if r:
                    out.append((self._pairs if waiting else self._powers)[r])
                    waiting = False
            else:
                raise ParseError(
                    "G1 words use generators a, b only, got %r" % gen)
            wraps += q
        if waiting:
            out.append(self.a_lift)
        if wraps:
            first = out[0] if out else self._powers[0]
            out[:1] = [LiftedMoebius(first.matrix,
                                     first.wind + wraps * self.h_lift.wind)]
        return out

    def lifted(self, w: Word) -> LiftedMoebius:
        """The lifted transformation represented by a word over {a, b}:
        the product of its ``factors``."""
        acc = LiftedMoebius.translation(self.field, 0)
        for f in self.factors(w):
            acc = acc * f
        return acc

    def sign(self, factors, points=None) -> Sign:
        """Sign of the product g of ``factors``, lifts listed left to
        right, by the first test point it moves.

        Each test point, a cover point tuple (level, u, v, finite), moves
        right to left through the factors by ``lift0_apply``, and no
        matrix product is formed; its image is compared with it by
        ``cover_cmp``.  A factor lift0(m) T1^k sends level L into
        levels L+k..L+k+1, so with k factors still to apply, whose
        windings sum to ``rest``, the point ends rest + 0..k levels above
        its current one; once that range leaves the start level, the walk
        stops.  ``points`` replaces the test points by their images m(p_i)
        under an increasing map m of the line: g is then signed as
        m^-1 g m, which moves p_i exactly when g moves m(p_i), in the same
        direction."""
        wind = sum(f.wind for f in factors)
        for p in self.test_points if points is None else points:
            level, u, v, finite = start = p
            rest, k = wind, len(factors)
            # the final level shift from p lies in low..low + k
            while -k <= (low := level + rest - start[0]) <= 0 < k:
                k -= 1
                f = factors[k]
                level, u, v, finite = lift0_apply(f.matrix, level + f.wind,
                                                  u, v)
                rest -= f.wind
            c = (low > 0) - (low < 0) or cover_cmp(
                self.field, (level, u, v, finite), start)
            if c:
                return Sign.POSITIVE if c > 0 else Sign.NEGATIVE
        return Sign.IDENTITY

    def decide(self, factors, points=None) -> tuple[Sign, dict]:
        """``sign`` with its trace: the index of the first test point that
        moves, walked one point at a time.  At b1 = 1, a^6 = h^3 winds
        three levels up and b~ 0 or 1 more, so a^6 b is decided before any
        point moves:

        >>> from twobridge.groups import W
        >>> real = G1Realization(1)
        >>> real.decide(real.factors(W("a^6 b")))
        (<Sign.POSITIVE: 1>, {'decided_by': 'test-point', 'test_point': 0})
        """
        for idx, p in enumerate(self.test_points if points is None
                                else points):
            sign = self.sign(factors, (p,))
            if sign is not Sign.IDENTITY:
                return sign, {"decided_by": "test-point", "test_point": idx}
        return Sign.IDENTITY, {"decided_by": "identity"}


_G1_CACHE: dict[int, G1Realization] = {}


def g1_realization(params: TwoBridgeParams) -> G1Realization:
    """Cached exact realization for the torus-knot piece of a knot."""
    if params.b1 not in _G1_CACHE:
        _G1_CACHE[params.b1] = G1Realization(params.b1)
    return _G1_CACHE[params.b1]


def g1_sign_trace(params: TwoBridgeParams, w: Word) -> tuple[Sign, dict]:
    """Sign of w from its lift, cross-checked against the normal form's
    verdict about the identity."""
    real = g1_realization(params)
    trivial = g1_normal_form(params, w).is_identity()
    sign, trace = real.decide(real.factors(w))
    _check_identity(sign, trivial, w)
    trace["group"] = "g1"
    return sign, trace


def _check_identity(sign: Sign, trivial: bool, w: Word,
                    w2: Word = Word()) -> Sign:
    """The sign, once the identity verdict of the normal form agrees."""
    if (sign is Sign.IDENTITY) != trivial:
        raise InternalCheckFailed(
            "lifted action and normal form disagree about "
            "the identity for %s" % (w * w2))
    return sign


# --------------------------------------------------------------------------
# G2: layered algebraic order


def _t_weight(beta: int, elem: G2Element) -> int:
    """Weight on ker pi: z_i has weight (-1)^i, the central block beta."""
    total = beta * elem.central
    for i, r in elem.tail:
        total += -r if i % 2 else r
    return total


def _word_pi_t(b2: int, w: Word) -> tuple[int, int]:
    """pi and t of a word, read from its syllables in one pass: the
    x-exponent sum, and the sum of (-1)^i k over its z^k and y^e
    syllables (k = b2*e), i the x-exponent sum to the syllable's right.
    The pass weighs each syllable by the parity of the sum to its left
    instead, which differs by pi, and flips the total once when pi is
    odd.  The result is ``xpow`` and ``_t_weight`` of the normal form,
    which the pass never builds."""
    pi = t = 0
    for g, e in w.syllables:
        if g == "x":
            pi += e
            continue
        if g == "y":
            e *= b2
        elif g != "z":
            raise foreign_generators(w, "G2", "xyz")
        t += -e if pi % 2 else e
    return pi, -t if pi % 2 else t


def g2_sign_trace(params: TwoBridgeParams,
                  w: Word | G2Element) -> tuple[Sign, dict]:
    """Sign of a word, or of an element given by its normal form.  A word
    is normalized only when its pi and t, read from the word, vanish."""
    beta = abs(params.b2)
    if isinstance(w, G2Element):
        nf, pi = w, w.xpow
        t = 0 if pi else _t_weight(beta, nf)
    else:
        nf, (pi, t) = None, _word_pi_t(params.b2, w)
    if pi:
        return _sign_of_int(pi), {
            "group": "g2", "decided_by": "layer-1-pi", "pi": pi}
    if t:
        return _sign_of_int(t), {
            "group": "g2", "decided_by": "layer-2-t", "t": t}
    if nf is None:
        nf = g2_normal_form(params, w)
    if nf.is_identity():
        return Sign.IDENTITY, {"group": "g2", "decided_by": "identity"}
    letters = _schreier_letters(beta, nf.tail)
    if not letters:
        raise InternalCheckFailed(
            "nontrivial kernel element rewrote to the empty word")
    # the monomial taking one letter from each syllable t^e of the reduced
    # word has coefficient prod(e) != 0, so a nonzero coefficient exists
    # at degree <= the syllable count
    syllables = 1 + sum(a != b for (a, _), (b, _) in zip(letters,
                                                         letters[1:]))
    s, degree = _magnus_first_sign(letters, syllables)
    if not s:
        raise InternalCheckFailed(
            "Magnus oracle undecided at degree %d, the syllable count of "
            "a reduced word: bug" % syllables)
    return _sign_of_int(s), {"group": "g2", "decided_by": "layer-3-magnus",
                             "truncation_degree": degree}


# --------------------------------------------------------------------------
# oracle objects and order families


class ConeOracle:
    """Total sign oracle for one piece group: ``ConeOracle(params, group)``
    builds the ``G1Oracle`` (group "g1") or the ``G2Oracle`` ("g2") of the
    knot.  It alone represents elements: the group's representation of w
    is built once, by ``element(w)``, and read by every other sign it gives
    for w except ``sign_trace``'s, which keeps the word route and stores
    nothing.  Each word has one stored normal form, computed once from the
    word, and every identity verdict reads it.

    Signs are read in bulk where the checks ask in bulk: ``product_signs``
    signs many pairs of one word list from per-word lists read once, and
    ``pattern`` signs a peripheral box in a member once per member and
    bound, for every check that asks.

    A group's class may also be built directly, as ``G1Oracle(params)``;
    any group other than its own raises ValueError."""

    def __new__(cls, params: TwoBridgeParams, group: str | None = None):
        if cls is ConeOracle and group in ("g1", "g2"):
            cls = G1Oracle if group == "g1" else G2Oracle
        if cls is ConeOracle or group not in (None, cls.group):
            raise ValueError("no %s has group %r" % (cls.__name__, group))
        return super().__new__(cls)

    def __init__(self, params: TwoBridgeParams, group: str | None = None):
        self.params = params
        self._elements: dict[Word, LiftedMoebius | G2Element] = {}
        self._boxes = {}
        self._patterns = {}

    def element(self, w: Word) -> LiftedMoebius | G2Element:
        """The group's representation of w, computed once."""
        e = self._elements.get(w)
        if e is None:
            e = self._elements[w] = self._element(w)
        return e

    def product_sign(self, w1: Word, w2: Word) -> Sign:
        """Sign of w1 w2: the one-pair case of ``product_signs``."""
        return self.product_signs((w1, w2), (w1.inverse(), w2.inverse()),
                                  ((0, 1),))[0]

    def box(self, bound: int) -> dict:
        """The group's ``peripheral_box`` at this bound, built once and
        held with its words' elements."""
        if bound not in self._boxes:
            box = peripheral_box(self.params, self.group, bound)
            self._boxes[bound] = box, [*map(self.element, box.values())]
        return self._boxes[bound][0]

    def pattern(self, c: Word, bound: int) -> tuple[Sign, ...]:
        """The conjugate signs of the words of ``box(bound)``, in its
        order, in the member conjugated by c; computed once per (c, bound)
        from the held elements."""
        key = c, bound
        if key not in self._patterns:
            words = self.box(bound).values()
            self._patterns[key] = tuple(self.conjugate_signs(
                c, words, self._boxes[bound][1]))
        return self._patterns[key]

    def word_is_identity(self, w: Word) -> bool:
        """Normal-form equality oracle: the verdict of w's stored form."""
        return self._form(w).is_identity()


class G1Oracle(ConeOracle):
    """The cone oracle of G1, ordered by the lifted circle action.  An
    element is a word's lift; its stored normal form comes from
    ``g1_normal_form`` of the word, never from the lift.  ``is_positive``
    and ``product_signs`` check the lift's identity verdict against the
    forms, and ``sign_trace`` against the form it computes, raising
    InternalCheckFailed on disagreement; conjugate signs are not checked."""

    group = "g1"

    def __init__(self, params: TwoBridgeParams, group: str | None = None):
        super().__init__(params, group)
        self._realization = g1_realization(params)
        self._forms: dict[Word, G1Element] = {}

    def _element(self, w: Word) -> LiftedMoebius:
        return self._realization.lifted(w)

    def _form(self, w: Word) -> G1Element:
        """The normal form of w, computed once from the word."""
        f = self._forms.get(w)
        if f is None:
            f = self._forms[w] = g1_normal_form(self.params, w)
        return f

    def sign_trace(self, w: Word) -> tuple[Sign, dict]:
        """Sign and trace of a word by the word route."""
        return g1_sign_trace(self.params, w)

    def is_positive(self, w: Word) -> Sign:
        return _check_identity(self._realization.sign([self.element(w)]),
                               self.word_is_identity(w), w)

    def product_signs(self, words, inverses, pairs) -> list[Sign]:
        """Sign of w1 w2 = words[i] words[j] for each index pair (i, j),
        where inverses[i] = words[i]^-1, from per-word lists read once.
        The test points move through the two lifts, and the identity is
        cross-checked: normal forms are unique, so w1 w2 = 1 exactly when
        the forms of w1^-1 and w2 coincide."""
        elements = [*map(self.element, words)]
        sign = self._realization.sign
        forms = [*map(self._form, words)]
        inverse_forms = [*map(self._form, inverses)]
        return [_check_identity(sign([elements[i], elements[j]]),
                                inverse_forms[i] == forms[j],
                                words[i], words[j]) for i, j in pairs]

    def conjugate_signs(self, c: Word, words, elements=None) -> list[Sign]:
        """Signs of c w c^-1 for each word w, from the elements of c and w
        (given as ``elements``, or looked up).  c^-1 is an increasing map
        of the line, so c w c^-1 moves the test point p_i as w moves
        c^-1(p_i): the points move once instead."""
        elements = elements or [*map(self.element, words)]
        real = self._realization
        c_inv = self.element(c).inverse()
        points = [*map(c_inv.apply, real.test_points)]
        # each element alone is its own list of factors
        return [*map(real.sign, zip(elements), repeat(points))]


class G2Oracle(ConeOracle):
    """The cone oracle of G2, ordered by the pi / t / Magnus tower.  An
    element is a word's normal form, which is also its stored form.  A
    product or conjugate is signed by the invariants pi and t of its
    factors' forms, and by the word route only when both vanish, so no g2
    answer has an independent check."""

    group = "g2"

    def _element(self, w: Word) -> G2Element:
        return g2_normal_form(self.params, w)

    def _form(self, w: Word) -> G2Element:
        return self.element(w)

    def sign_trace(self, w: Word) -> tuple[Sign, dict]:
        """Sign and trace of a word by the word route."""
        return g2_sign_trace(self.params, w)

    def is_positive(self, w: Word) -> Sign:
        return g2_sign_trace(self.params, self.element(w))[0]

    def product_signs(self, words, inverses, pairs) -> list[Sign]:
        """Sign of w1 w2 = words[i] words[j] for each index pair (i, j),
        from per-word lists read once (``inverses`` is not read):
        pi(w1 w2) = pi1 + pi2 and t(w1 w2) = (-1)^pi2 t1 + t2, and the
        first nonzero one gives the sign; when both vanish, the word w1 w2
        is signed."""
        elements = [*map(self.element, words)]
        signs = []
        pis = [e.xpow for e in elements]
        ts = [*map(_t_weight, repeat(abs(self.params.b2)), elements)]
        for i, j in pairs:
            key = pis[i] + pis[j] or (ts[j] - ts[i] if pis[j] % 2
                                      else ts[j] + ts[i])
            signs.append(_sign_of_int(key) if key else
                         self.sign_trace(words[i] * words[j])[0])
        return signs

    def conjugate_signs(self, c: Word, words, elements=None) -> list[Sign]:
        """Signs of c w c^-1 for each word w, from the normal forms of c
        and w (given as ``elements``, or looked up): c w c^-1 has the pi of
        w, and when that is 0, the t of w times (-1)^pi(c); when both
        vanish, the word c w c^-1 is signed.  On (3,4), conjugation by x
        inverts y = z^2 and keeps the x-exponent of z x^2:

        >>> from twobridge.cfrac import knot_params
        >>> from twobridge.groups import W
        >>> g2 = ConeOracle(knot_params(3, 4), "g2")
        >>> g2.conjugate_signs(W("x"), [W("y"), W("z x x"), W("1")])
        [<Sign.NEGATIVE: -1>, <Sign.POSITIVE: 1>, <Sign.IDENTITY: 0>]
        """
        elements = elements or [*map(self.element, words)]
        beta = abs(self.params.b2)
        twist = -1 if self.element(c).xpow % 2 else 1
        signs = []
        for w, f in zip(words, elements):
            key = f.xpow or twist * _t_weight(beta, f)
            signs.append(_sign_of_int(key) if key
                         else family_sign_trace(self, c, w)[0])
        return signs


def family_sign_trace(oracle: ConeOracle, c: Word,
                      w: Word) -> tuple[Sign, dict]:
    """Sign of w in the family member with conjugator c: the base sign of
    c w c^-1, with the base oracle's trace of that word.

    With the convention used here, the member with conjugator c is the
    base order conjugated by c^-1 in the usual action g(P) = g P g^-1.
    """
    return oracle.sign_trace(c * w * c.inverse())


def family_is_positive(oracle: ConeOracle, c: Word, w: Word) -> Sign:
    return family_sign_trace(oracle, c, w)[0]
