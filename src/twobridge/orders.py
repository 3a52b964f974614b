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

G2 = <x, y, z | x^-1 y x y, y z^-b2> is ordered by a three-layer
lexicographic tower:

* layer 1: sign of the x-exponent homomorphism pi;
* layer 2: on ker pi, sign of the weight t sending z_i = x^-i z x^i to
  (-1)^i (well defined on the kernel relations);
* layer 3: on ker t, which is free, the Magnus power-series order (first
  nonzero coefficient in graded-lexicographic order) after rewriting in an
  explicit Schreier basis.  Monomials are searched one degree at a time,
  and the search stops at the least degree with a nonzero coefficient,
  which is at most the syllable count of the reduced word.  A monomial
  prefix keeps its embedding counts on its last token's letters only;
  one gather of their prefix sums extends it by a token, and at the last
  level each coefficient is one dot product with a weight vector.

Both oracles are total and exact.  Their conjugates form the normal
families used by the certification harness; a family member is named by
its conjugator c alone, and w is positive in it when c w c^-1 is positive
in the base order.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, repeat
from operator import eq, itemgetter, mul

from .cfrac import TwoBridgeParams
from .errors import ConstructionFailed, InternalCheckFailed, ParseError
from .groups import G1Element, G2Element, Word, g1_normal_form, g2_normal_form
from .lifted import (LiftedMoebius, LiftedPoint, order_n_rotation,
                     order_two_rotation)
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
        p0 = LiftedPoint(0, f.zero, f.one)
        if self.mu_lift.apply(p0) != p0:
            raise ConstructionFailed(
                "lifted meridian does not fix its boundary fixed point")
        self.test_points = (p0, LiftedPoint(0, f.one, f.one))
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

    def decide(self, factors, points=None) -> tuple[Sign, dict]:
        """Sign of the product g of ``factors``, lifts listed left to
        right, by the first test point it moves.

        Each point moves right to left through the factors, and no matrix
        product is formed.  A factor lift0(m) T1^k sends level L into
        levels L+k..L+k+1, so with k factors still to apply, whose
        windings sum to ``rest``, the point ends rest + 0..k levels above
        its current one; once that range leaves the start level, the walk
        stops.  ``points`` replaces the test points by their images m(p_i)
        under an increasing map m of the line: g is then decided as
        m^-1 g m, which moves p_i exactly when g moves m(p_i), in the same
        direction.  At b1 = 1, a^6 = h^3 winds three levels up and b~ 0 or
        1 more, so a^6 b is decided before any point moves:

        >>> from twobridge.groups import W
        >>> real = G1Realization(1)
        >>> real.decide(real.factors(W("a^6 b")))
        (<Sign.POSITIVE: 1>, {'decided_by': 'test-point', 'test_point': 0})
        """
        wind = sum(f.wind for f in factors)
        for idx, p in enumerate(self.test_points if points is None
                                else points):
            q, rest, k = p, wind, len(factors)
            # the final level shift from p lies in low..low + k
            while -k <= (low := q.wind + rest - p.wind) <= 0 < k:
                k -= 1
                q, rest = factors[k].apply(q), rest - factors[k].wind
            c = (low > 0) - (low < 0) or q.cmp(p)
            if c:
                return (Sign.POSITIVE if c > 0 else Sign.NEGATIVE,
                        {"decided_by": "test-point", "test_point": idx})
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
                    w2: Word = Word()) -> None:
    if (sign is Sign.IDENTITY) != trivial:
        raise InternalCheckFailed(
            "lifted action and normal form disagree about "
            "the identity for %s" % (w * w2))


# --------------------------------------------------------------------------
# G2: layered algebraic order


def _t_weight(beta: int, elem: G2Element) -> int:
    """Weight on ker pi: z_i has weight (-1)^i, the central block beta."""
    total = beta * elem.central
    for i, r in elem.tail:
        total += -r if i % 2 else r
    return total


def _schreier_letters(beta: int, tail) -> list[tuple[tuple[int, int, int],
                                                     int]]:
    """Rewrite a weight-zero kernel element as a freely reduced word in a
    Schreier basis of the free kernel.

    The element is given by its syllables prod z_(i_j)^(r_j) (image in the
    free product of order-beta cyclic groups).  Coset bookkeeping walks the
    transversal exponent T; letters at index 0 are transversal moves and
    emit nothing.  One basis letter per index is then eliminated through
    the order relation, leaving letters in a free basis, tagged by sortable
    tokens (|i|, i, T).
    """
    raw = []
    cursor = 0
    for i, r in tail:
        eps = -1 if i % 2 else 1
        for _ in range(r):
            if i != 0:
                raw.append((cursor, i, eps))
            cursor = (cursor + eps) % beta
    if cursor != 0:
        raise InternalCheckFailed(
            "kernel rewrite ended in a nonzero coset: weight was not zero")
    out = []
    for cos, i, eps in raw:
        t_star = (-eps) % beta
        if cos != t_star:
            out.append(((abs(i), i, cos), 1))
            continue
        for k in range(beta - 1, 0, -1):
            out.append(((abs(i), i, (t_star + k * eps) % beta), -1))
    reduced: list = []
    for tok, e in out:
        if reduced and reduced[-1][0] == tok and reduced[-1][1] == -e:
            reduced.pop()
        else:
            reduced.append((tok, e))
    return reduced


class _MagnusTables(dict):
    """Extension tables of one Magnus query, built per call and freed with
    it.  Tokens are numbered in sorted order; ``ids`` and ``signs`` give
    each letter's token number and exponent (+-1).  Slot r is the gap
    before letter r, so letter q lies between slots q and q + 1.

    A prefix ending in token u keeps, per letter of u, the signed count of
    its embeddings whose last X sits there.  A new X at letter q follows a
    last X anywhere before slot q, or before slot q + 1 when q is x^-1 (a
    run of X continues inside it): q reads one entry of the prefix sums of
    u's counts, times its sign.  ``self[u]`` is u's row, built on first
    use: per token v in order, the ``itemgetter`` of the entries that v's
    letters read, v's signs, and the weights W_v read at the end slots of
    u's letters, where W_v[r] is the signed count of v's letters that read
    at slot r or later, so the coefficient of prefix.v is the dot product
    of u's counts with them.
    """

    def __init__(self, ids: list, signs: list, count: int):
        self.ids = ids
        self.ends = [[] for _ in range(count)]
        self.reads = [[] for _ in range(count)]
        self.signs = [[] for _ in range(count)]
        for q, (v, e) in enumerate(zip(ids, signs)):
            self.ends[v].append(q + 1)
            self.reads[v].append(q + (e < 0))
            self.signs[v].append(e)
        self.weights = []
        for reads, signs in zip(self.reads, self.signs):
            dense = [0] * (len(ids) + 1)
            for r, e in zip(reads, signs):
                dense[r] += e
            self.weights.append([*accumulate(reversed(dense))][::-1])

    def __missing__(self, u: int) -> list:
        # before[r]: how many of u's letters lie before slot r
        before = [*accumulate(map(eq, self.ids, repeat(u)), initial=0)]
        ends = self.ends[u]
        row = []
        for reads, signs, weights in zip(self.reads, self.signs,
                                         self.weights):
            at = [*map(before.__getitem__, reads)]
            # itemgetter returns a bare item for one index, so a one-letter
            # token reads its index twice and map stops at the shorter
            gather = itemgetter(*at) if len(at) > 1 else itemgetter(at[0],
                                                                     at[0])
            row.append((gather, signs, [*map(weights.__getitem__, ends)]))
        self[u] = row
        return row


def _magnus_walk(tables: _MagnusTables, u: int, counts: list,
                 depth: int) -> int:
    """Sign of the lex-first nonzero coefficient among the extensions of
    the prefix, which ends in token u with these counts, by depth tokens;
    0 if all vanish."""
    row = tables[u]
    if depth == 1:
        for _, _, weights in row:
            coeff = sum(map(mul, counts, weights))
            if coeff:
                return (coeff > 0) - (coeff < 0)
        return 0
    prefix = [*accumulate(counts, initial=0)]
    for v, (gather, signs, _) in enumerate(row):
        child = [*map(mul, signs, gather(prefix))]
        if any(child):
            s = _magnus_walk(tables, v, child, depth - 1)
            if s:
                return s
    return 0


def _magnus_first_sign(letters, max_degree: int) -> tuple[int, int]:
    """Sign and degree of the first nonzero coefficient (graded-lex) of
    the Magnus expansion x -> 1 + X of the (token, +-1) letters;
    (0, max_degree) if every coefficient up to max_degree vanishes.

    The coefficient of X_t1...X_tm is a signed count of embeddings into
    the letters: a letter x takes at most one X, a letter x^-1 any run
    X^k with weight (-1)^k.  A monomial prefix keeps the signed count of
    embeddings whose last X sits at each letter of its last token, and
    ``_MagnusTables`` extends it by a token with one gather, or, at the
    last level, gives the coefficient as one dot product.  Degree 1 is the
    exponent sum of each token.  Degrees are tried in increasing order,
    each by a depth-first walk over prefixes in lex order, which meets the
    monomials of that degree in lex order and keeps one prefix per level in
    memory; a prefix with no embeddings has no nonzero extension and is
    dropped.
    """
    totals: dict = {}
    for tok, e in letters:
        totals[tok] = totals.get(tok, 0) + e
    tokens = sorted(totals)
    if max_degree >= 1:
        for tok in tokens:
            coeff = totals[tok]
            if coeff:
                return (coeff > 0) - (coeff < 0), 1
    rank = {tok: v for v, tok in enumerate(tokens)}
    tables = _MagnusTables([rank[tok] for tok, _ in letters],
                           [e for _, e in letters], len(tokens))
    for degree in range(2, max_degree + 1):
        # the empty prefix has one embedding, so its child by v has v's
        # signs as counts
        for v, signs in enumerate(tables.signs):
            s = _magnus_walk(tables, v, signs, degree - 1)
            if s:
                return s, degree
    return 0, max_degree


def g2_sign_trace(params: TwoBridgeParams,
                  w: Word | G2Element) -> tuple[Sign, dict]:
    """Sign of a word, or of an element given by its normal form."""
    beta = abs(params.b2)
    nf = w if isinstance(w, G2Element) else g2_normal_form(params, w)
    if nf.xpow:
        return _sign_of_int(nf.xpow), {
            "group": "g2", "decided_by": "layer-1-pi", "pi": nf.xpow}
    t = _t_weight(beta, nf)
    if t:
        return _sign_of_int(t), {
            "group": "g2", "decided_by": "layer-2-t", "t": t}
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
    """Total sign oracle for one piece group ("g1" or "g2").  It alone
    represents elements: the lift (g1) or normal form (g2) of w is built
    once, by ``element(w)``, and read by every other sign it gives for w
    except ``sign_trace``'s, which keeps the word route.

    Each word has one stored normal form, computed once from the word:
    ``element(w)`` on g2, ``g1_normal_form(w)`` (never the lift) on g1.
    Every identity verdict reads these forms.  On g1, ``is_positive`` and
    ``product_sign`` check the lift's identity verdict against them, and
    ``sign_trace`` against the form it computes, raising InternalCheckFailed
    on disagreement; ``conjugate_signs`` is not checked.  On g2 a product
    or conjugate is signed by the invariants pi and t of its factors'
    forms, and by the word route only when both vanish, so no g2 answer
    has an independent check."""

    def __init__(self, params: TwoBridgeParams, group: str):
        if group not in ("g1", "g2"):
            raise ValueError("group must be 'g1' or 'g2', got %r" % (group,))
        self.params = params
        self.group = group
        self._realization = g1_realization(params) if group == "g1" else None
        self._elements: dict[Word, LiftedMoebius | G2Element] = {}
        self._forms: dict[Word, G1Element] = {}
        self._inverse_forms: dict[Word, G1Element] = {}

    def element(self, w: Word) -> LiftedMoebius | G2Element:
        """The lift (g1) or normal form (g2) of w, computed once."""
        e = self._elements.get(w)
        if e is None:
            e = self._elements[w] = (
                self._realization.lifted(w) if self.group == "g1"
                else g2_normal_form(self.params, w))
        return e

    def _form(self, w: Word) -> G1Element | G2Element:
        """The normal form of w, computed once from the word."""
        if self.group == "g2":
            return self.element(w)
        f = self._forms.get(w)
        if f is None:
            f = self._forms[w] = g1_normal_form(self.params, w)
        return f

    def _inverse_form(self, w: Word) -> G1Element:
        """The normal form of w^-1, read once per word w."""
        f = self._inverse_forms.get(w)
        if f is None:
            f = self._inverse_forms[w] = self._form(w.inverse())
        return f

    def sign_trace(self, w: Word) -> tuple[Sign, dict]:
        """Sign and trace of a word by the word route."""
        if self.group == "g1":
            return g1_sign_trace(self.params, w)
        return g2_sign_trace(self.params, w)

    def is_positive(self, w: Word) -> Sign:
        if self.group == "g2":
            return g2_sign_trace(self.params, self.element(w))[0]
        sign = self._realization.decide([self.element(w)])[0]
        _check_identity(sign, self.word_is_identity(w), w)
        return sign

    def product_sign(self, w1: Word, w2: Word) -> Sign:
        """Sign of w1 w2 from the elements of its factors.  For g2,
        pi(w1 w2) = pi1 + pi2 and t(w1 w2) = (-1)^pi2 t1 + t2, and the first
        nonzero one gives the sign; when both vanish, the word w1 w2 is
        signed (layer 3 or the identity).  For g1 the test points move
        through the two lifts, w2's first, and no matrix product is formed;
        the level bound decides before any move when the summed winding k
        is >= 1 or <= -3.  The g1 identity is cross-checked always: normal
        forms are unique, so w1 w2 = 1 exactly when the stored forms of
        w1^-1 and w2 coincide; no product is normalized, and w1^-1 is
        built once per word w1."""
        e1, e2 = self.element(w1), self.element(w2)
        if self.group == "g2":
            t1, t2 = (_t_weight(abs(self.params.b2), e) for e in (e1, e2))
            key = e1.xpow + e2.xpow or (t2 - t1 if e2.xpow % 2 else t2 + t1)
            return _sign_of_int(key) if key else self.sign_trace(w1 * w2)[0]
        sign = self._realization.decide([e1, e2])[0]
        _check_identity(sign, self._inverse_form(w1) == self._form(w2),
                        w1, w2)
        return sign

    def conjugate_signs(self, c: Word, words) -> list[Sign]:
        """Signs of c w c^-1 for each word w, from the elements of c and w.
        For g1, c^-1 is an increasing map of the line, so c w c^-1 moves
        the test point p_i as w moves c^-1(p_i): the points move once
        instead.  For g2, c w c^-1 has the pi of w, and when that is 0,
        the t of w times (-1)^pi(c); when both vanish, the word c w c^-1
        is signed.  On (3,4), conjugation by x inverts y = z^2 and keeps
        the x-exponent of z x^2:

        >>> from twobridge.cfrac import knot_params
        >>> from twobridge.groups import W
        >>> g2 = ConeOracle(knot_params(3, 4), "g2")
        >>> g2.conjugate_signs(W("x"), [W("y"), W("z x x"), W("1")])
        [<Sign.NEGATIVE: -1>, <Sign.POSITIVE: 1>, <Sign.IDENTITY: 0>]
        """
        element = self.element
        if self.group == "g1":
            real = self._realization
            c_inv = element(c).inverse()
            points = [c_inv.apply(p) for p in real.test_points]
            return [real.decide([element(w)], points)[0] for w in words]
        beta = abs(self.params.b2)
        twist = -1 if element(c).xpow % 2 else 1
        signs = []
        for w in words:
            f = element(w)
            key = f.xpow or twist * _t_weight(beta, f)
            signs.append(_sign_of_int(key) if key
                         else family_sign_trace(self, c, w)[0])
        return signs

    def word_is_identity(self, w: Word) -> bool:
        """Normal-form equality oracle: the verdict of w's stored form."""
        return self._form(w).is_identity()


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
